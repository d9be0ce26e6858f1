"""Probability densities with derivative hooks and quantile machinery.

A Density wraps a vectorized pdf on an open extended-real interval, together
with optional derivative callables d1..d3, an optional closed-form log pdf,
cdf and quantile, and a list of interior abscissae where the pdf or a
derivative is kinked or singular. Constructing a root density verifies unit
mass, and its node table's total is held to that mass; an image (transforms,
affine_image and rescale included) preserves its root's mass by
construction. Expectations are computed by adaptive quadrature over the
root's support, pulled back through the stack (Density.integral), with cuts
at the stack's cut points. Derivatives are read in one
scale-free form, the pdf state (_state, _push): log f, s1 = f'/f,
kappa = f f''/f'**2 and tau = f**2 f'''/f'**3, truncated at the order asked.

The cumulative node table and the quantiles at the library's fixed level
grids (the median, quantiles(n), the tail levels of the condensation test
and of edge_value) are each computed once per density, on first use, and
kept read-only.
"""

import math

import numpy as np

from .errors import AccuracyError, CapabilityError, DomainError, UnsupportedCaseError
from .numerics import INF, _SLOW, Interval, _CumTable, _rtsafe, integrate

_SNAP = 1e-13  # parameters this close to a removable limit snap onto it
_MASS_TOL = 1e-7  # a root's pdf mass, and its node table's, lie this close to 1


def _numbers(**params):
    """The named parameters as floats. A NaN among them raises DomainError
    here, where it would otherwise reach an integrand or a verdict."""
    vals = tuple(float(v) for v in params.values())
    for name, v in zip(params, vals):
        if math.isnan(v):
            raise DomainError(f"{name} must be a number, got nan")
    return vals


def _finite(**params):
    """_numbers, where an infinite value raises DomainError too: for a
    parameter whose limit at inf the library does not state."""
    vals = _numbers(**params)
    for name, v in zip(params, vals):
        if math.isinf(v):
            raise DomainError(f"expected a finite {name}, got {v!r}")
    return vals


def texp(y, lam):
    """Deformed exponential: (1 + (1-lam) y)_+ ** (1/(1-lam)); exp at lam=1."""
    y = np.asarray(y, dtype=float)
    if abs(lam - 1.0) < _SNAP:
        return np.exp(y)
    base = np.maximum(1.0 + (1.0 - lam) * y, 0.0)
    with np.errstate(divide="ignore"):
        return base ** (1.0 / (1.0 - lam))


def _as_callable_on_array(fn):
    def wrapped(x):
        return np.asarray(fn(np.asarray(x, dtype=float)), dtype=float)

    return wrapped


class Density:
    """A one-dimensional probability density on an open interval.

    A root: its own root, under no chain of steps, with the identity for
    _chi and _invert, so _state, quantile_many and cdf_at serve its images.

    The up weights read the log density (logpdf, _weighted_pdf). A logpdf
    hook gives it in closed form, exact where the pdf is subnormal or 0 (an
    image's reads its state); without one it is np.log(pdf(x)), -inf where
    the pdf is 0. Like the node table, the quantiles at each fixed level
    grid are solved once per density (_grid_quantiles); the density is
    treated as immutable.
    """

    def __init__(self, pdf, support, *, d1=None, d2=None, d3=None,
                 label="density", interior_points=(), logpdf=None, cdf=None,
                 quantile=None):
        self.support = support if isinstance(support, Interval) else Interval(*support)
        self.pdf = _as_callable_on_array(pdf)
        self._logpdf = _as_callable_on_array(logpdf) if logpdf is not None else None
        self.d1 = _as_callable_on_array(d1) if d1 is not None else None
        self.d2 = _as_callable_on_array(d2) if d2 is not None else None
        self.d3 = _as_callable_on_array(d3) if d3 is not None else None
        self.label = label
        self._cdf = cdf
        self._quantile = quantile
        lo, hi = self.support.lo, self.support.hi
        self.interior_points = tuple(sorted(
            {float(p) for p in interior_points if lo < float(p) < hi}))
        self._table = None
        self._grids = {}
        if not self.chain:  # an image's step preserves its root's mass
            total = integrate(self.pdf, self.support, tol=1e-9,
                              interior=self.interior_points)
            if not math.isfinite(total.value) or abs(total.value - 1.0) > _MASS_TOL:
                # an unconverged mass, as on a heavy tail near eta = 1, says
                # nothing about the pdf
                if not total.converged:
                    raise AccuracyError(
                        f"{label}: pdf mass {total.value!r} did not converge "
                        f"(error estimate {total.abs_error_estimate:.3g})")
                raise DomainError(
                    f"{label}: pdf mass is {total.value!r}, not 1 within {_MASS_TOL}")
            self._mass = total.value  # what the node table's total must meet

    def __repr__(self):
        return f"Density({self.label})"

    # -- evaluation ---------------------------------------------------------

    @property
    def order(self):
        """Highest derivative order available as a contiguous chain."""
        k = 0
        for d in (self.d1, self.d2, self.d3):
            if d is None:
                break
            k += 1
        return k

    def logpdf(self, x):
        """log pdf: the logpdf hook, else np.log(pdf(x)) (-inf where 0)."""
        if self._logpdf is not None:
            return self._logpdf(x)
        with np.errstate(divide="ignore"):
            return np.log(self.pdf(x))

    def _check_order(self, needs):
        if needs > self.order:
            raise CapabilityError(
                f"{self.label}: derivative order {needs} requested, have {self.order}")

    def _state(self, x, needs):
        """The pdf state to order needs at x: -inf log f, NaN ratios out of range."""
        self._check_order(needs)
        t, oob = self._invert(x)
        return [np.where(oob, np.nan if k else -INF, v)
                for k, v in enumerate(self._push(t, needs))]

    def _ratios(self, x, needs, f0):
        """The state's ratios to order needs from the hooks at x and the pdf
        values f0: s1 = d1/f0, kappa = (f0/d1)(d2/d1) and tau =
        (f0/d1)**2 (d3/d1), quotients that stay well-scaled where f0*d2 and
        d1**2 underflow separately. Callers set np.errstate."""
        if not needs:
            return []
        d1 = self.d1(x)
        out = [d1 / f0]
        if needs >= 2:
            q = f0 / d1
            out.append(q * (self.d2(x) / d1))
        if needs >= 3:
            out.append(q ** 2 * (self.d3(x) / d1))
        return out

    def pdf_at(self, x):
        """pdf evaluated anywhere on the line; zero outside the support."""
        x = np.asarray(x, dtype=float)
        inside = self.support.contains(x)
        out = np.zeros_like(x)
        if inside.any():
            out[inside] = self.pdf(x[inside])
        return out if out.ndim else float(out)

    def integral(self, fn, *, needs=0, tol=1e-10, extra_interior=(),
                 force_singular_edges=False):
        """Integral of fn(x, f, [s1, kappa, tau]) over the support.

        With needs >= 1 fn gets the state's ratios, not the derivatives,
        which over- or underflow where the ratios do not. fn supplies the
        whole integrand (no implicit pdf weight) and must be elementwise: it
        is called only at the quadrature points where the root pdf is
        nonzero, possibly on a subset of a batch, and not at all when the
        root pdf is 0 at every point. Where that pdf has underflowed to
        exactly 0 the integrand is 0: those regions carry no mass. Divergent
        integrals come back flagged non-convergent.

        The quadrature runs in root abscissae, cut at the stack's cut points
        (_stack_cuts) and the root abscissae of extra_interior, on the
        integrand pulled back through the stack (_integrand).
        force_singular_edges marks the root's finite support edges singular,
        for integrands that blow up where the pdf does not; an image's
        pullback can, so an image always marks them.

        fn runs under np.errstate(all="ignore"), so it needs no guard of its
        own. The quadrature's arithmetic runs outside it: a caller whose
        integral may sum to inf wraps the whole call.
        """

        def values(t, f0):
            with np.errstate(all="ignore"):
                y = np.asarray(self._integrand(fn, t, f0, needs), dtype=float)
            # Past the point where the pdf (or products of its derivatives)
            # underflow, 0*inf artifacts appear even though the true
            # integrand carries no weighable mass. Genuine divergences blow
            # up at ordinary magnitudes long before f reaches 1e-160, so
            # zeroing non-finite values out there cannot hide one.
            return np.where(~np.isfinite(y) & (f0 < 1e-160), 0.0, y)

        def integrand(t):
            f0 = self.root.pdf(t)
            live = np.flatnonzero(f0)
            if live.size == t.size:
                return values(t, f0)
            y = np.zeros_like(t)
            if live.size:
                y[live] = values(t[live], f0[live])
            return y

        self._check_order(needs)
        cuts = self._stack_cuts()
        extra = np.asarray(tuple(extra_interior), dtype=float)
        if extra.size:
            t, oob = self._invert(extra)
            cuts += tuple(t[~oob])
        iv = self.root.support
        if force_singular_edges or self.chain:
            iv = Interval(iv.lo, iv.hi,
                          singular_lo=math.isfinite(iv.lo),
                          singular_hi=math.isfinite(iv.hi))
        return integrate(integrand, iv, tol=tol, rtol=3e-8, interior=cuts)

    def _integrand(self, fn, t, f0, needs):
        """integral's integrand at root abscissae t, where the root pdf is
        f0: at a root, fn itself, with the state's ratios from the hooks."""
        return fn(t, f0, *self._ratios(t, needs, f0))

    def expect(self, fn, **kw):
        """Integral of fn(x, f, ...) weighted by the pdf; see integral()."""
        return self.integral(lambda x, *vals: np.asarray(fn(x, *vals)) * vals[0], **kw)

    def strict_monotone_sign(self):
        """-1 for strictly decreasing, +1 for strictly increasing pdfs.

        Sampled from the score f'/f on a quantile grid; a sign change or a
        zero slope means the pdf is not strictly monotone and None is returned.
        """
        if self.d1 is None:
            raise CapabilityError(f"{self.label}: monotone test needs d1")
        slopes = self._grid_state(64, 1)[1]
        if np.all(slopes < 0.0):
            return -1
        if np.all(slopes > 0.0):
            return 1
        return None

    def edge_value(self, side):
        """Limit of the pdf at a support edge, "lo" or "hi": 0.0 at an
        infinite edge, else read off the pdf in root abscissae at the root's
        last three distinct tail quantiles toward it (masses to 2**-41). Any
        inf gives inf; a geometric approach (successive changes in a ratio
        in (0, 0.9], or a last change of 0) gives its Aitken limit, 0.0 when
        that lies below the last change; any other gives 0.0 or inf by its
        direction. An up image has its step's closed form instead."""
        if side not in ("lo", "hi"):
            raise DomainError(f"edge side must be 'lo' or 'hi', got {side!r}")
        edge = self.support.lo if side == "lo" else self.support.hi
        return 0.0 if math.isinf(edge) else self._edge_limit(side)

    def _edge_limit(self, side):
        toward_lo = (side == "lo") == (self._sigma_total > 0)
        _, t = _tail_quantiles(self.root, "lo" if toward_lo else "hi")
        h = np.exp(self._push(t[-3:], 0)[0])
        if np.any(np.isposinf(h)):
            return INF
        # quantiles that collapse onto the edge's own doubles read as settled
        d1, d2 = np.diff(h) if h.size == 3 else np.zeros(2)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = d2 / d1
        if d2 == 0.0 or 0.0 < r <= 0.9:
            lim = h[-1] if d2 == 0.0 else h[-1] + d2 * r / (1.0 - r)
            # a decay to 0 extrapolates to roundoff of either sign
            return 0.0 if lim < abs(d2) else float(lim)
        return INF if d2 > 0.0 else 0.0

    def esssup_abs(self):
        return max(abs(self.support.lo), abs(self.support.hi))

    # -- cumulative geometry ------------------------------------------------

    def _node_table(self):
        """The cumulative mass table (a _CumTable), built once on demand.

        Each finite segment between cuts (the support ends and interior points)
        gets fixed nodes graded toward both its ends; each infinite end one
        outward sequence t from its nearest cut (from 0 on a whole line with no
        cut): doublings 2**-40 to 1/2, steps of 1/16 from 17/16 to 2, doublings
        to 2**41, then factors of 4 to 2**841. It stops at the double where the
        pdf turns subnormal for good, found by one _rtsafe solve between the
        last node whose pdf is normal and the next, bisecting keys (a 0/1
        indicator has no slope); a pdf normal again past a subnormal node
        keeps every node out to its last onset. Before that a heavy tail can
        hold mass the table would miss; past it the pdf carries no mass that
        rounds into the table (a subnormal pdf rounds to 1e-11 relative near
        3e-313). The singular edges and interior points are listed on both
        sides; _CumTable lays a ladder on each side where the table
        continues. A root's table must total its constructor's mass within
        _MASS_TOL, else AccuracyError.
        """
        if self._table is not None:
            return self._table
        lo, hi = self.support.lo, self.support.hi
        inner = self.interior_points
        if not inner and math.isinf(lo) and math.isinf(hi):
            inner = (0.0,)  # the whole line is laid outward from 0, as from a cut
        cuts = [lo, *inner, hi]
        h = 0.5 ** np.arange(40.0, 0.0, -1.0)
        t = np.concatenate([[0.0], h, np.linspace(1.0, 2.0, 17)[1:],
                            2.0 ** np.arange(2.0, 42.0), 2.0 ** np.arange(43.0, 842.0, 2.0)])
        nodes = []
        for a, b in zip(cuts[:-1], cuts[1:]):
            if math.isfinite(a) and math.isfinite(b):
                u = np.unique(np.concatenate([np.linspace(0.0, 1.0, 49), h[1:-1], 1.0 - h[1:-1]]))
                nodes.append(a + (b - a) * u)
            else:
                nodes.append(a + t if math.isfinite(a) else b - t)
        xs = np.unique(np.concatenate(nodes))
        xs = xs[(xs >= lo) & (xs <= hi)]

        def normal(x):
            with np.errstate(all="ignore"):
                return self.pdf(x) >= np.finfo(float).tiny

        def onset(a, b):
            # the first double from a toward b whose pdf is subnormal: g is
            # 0 on a's side and 1 on b's, rising with x; the solve closes on
            # the adjacent pair across 0.5, and the onset is its end on b's side
            up = bool(a < b)
            pair = _rtsafe(lambda x: (normal(x) != up).astype(float), np.zeros_like, 0.5,
                           np.sort([a, b]), np.array([0.0, 1.0]))
            return pair[up]

        keep = np.flatnonzero(normal(xs))
        if keep.size:
            i, j = keep[0], keep[-1]
            if math.isinf(hi) and j + 1 < xs.size:
                xs = np.concatenate([xs[:j + 1], onset(xs[j], xs[j + 1])])
            if math.isinf(lo) and i > 0:
                xs = np.concatenate([onset(xs[i], xs[i - 1]), xs[i:]])
        sup = self.support
        pts = self.interior_points + tuple(p for p, sing in ((lo, sup.singular_lo),
                                                             (hi, sup.singular_hi)) if sing)
        tab = _CumTable(self.pdf, xs, [(p, s) for p in pts for s in (-1.0, 1.0)])
        total = float(tab.above - tab.below)
        if not abs(total - self._mass) <= _MASS_TOL:
            raise AccuracyError(f"{self.label}: node table holds mass {total!r}, "
                                f"the pdf {self._mass!r}")
        self._table = tab
        return tab

    def cdf_at(self, x):
        """Cumulative mass below x (vectorized): exactly 0 at or below the
        support, 1 at or above it, and NaN at NaN."""
        x = np.asarray(x, dtype=float)
        xs = np.atleast_1d(x)
        t, _ = self._invert(xs)  # out of range: an end of the root's support
        cdf = self.root._cdf if self.root._cdf is not None else self.root._node_table()
        out = np.asarray(cdf(t), dtype=float)
        if self._sigma_total < 0:
            out = 1.0 - out
        out = np.where(xs <= self.support.lo, 0.0, out)
        out = np.where(xs >= self.support.hi, 1.0, out)
        out = np.where(np.isnan(xs), np.nan, out)
        return float(out[0]) if x.ndim == 0 else out

    def quantile_many(self, levels):
        """Abscissae where the cdf reaches the given mass levels: the
        coordinate of the root's quantiles, at 1 - v where it decreases,
        which holds v to 2**-53 absolute (1e-16 is solved as 1.11e-16, and a
        v whose 1 - v rounds to 1 raises AccuracyError). The root's quantile
        hook answers directly; otherwise _rtsafe inverts its node table
        from its cums, the running mass at its nodes, with the pdf for
        slope: a round reads a partial GK15 panel and the pdf per point
        (about 70 us on 64 points, 2-vCPU Xeon), and a solve takes 5 to 8
        rounds. Uncached: the library's own fixed grids go through
        _grid_quantiles, so levels chosen by a caller never enter the memo.
        """
        levels = np.atleast_1d(np.asarray(levels, dtype=float))
        if not np.all((levels > 0.0) & (levels < 1.0)):  # NaN fails too
            raise DomainError("quantile levels must be inside (0, 1)")
        rl = levels if self._sigma_total > 0 else 1.0 - levels
        lost = levels[rl == 1.0]
        if lost.size:
            raise AccuracyError(f"{self.label}: quantile level {float(lost[0])!r} is lost "
                                "in 1 - level, which holds a level to 2**-53 absolute")
        if self.root._quantile is not None:
            return self._chi(np.asarray(self.root._quantile(rl), dtype=float))
        tab = self.root._node_table()
        lo, hi = _rtsafe(tab, self.root.pdf, rl * tab.cums[-1], tab.ts, tab.cums)
        return self._chi(0.5 * (lo + hi))

    def _grid_quantiles(self, levels):
        """quantile_many at a library-fixed level grid, solved once per
        density; the array returned is shared and read-only."""
        levels = np.atleast_1d(np.asarray(levels, dtype=float))
        key = levels.tobytes()
        q = self._grids.get(key)
        if q is None:
            q = self._grids[key] = self.quantile_many(levels)
            q.flags.writeable = False
        return q

    def quantiles(self, n):
        """n interior quantiles at mass levels (i + 1/2)/n."""
        return self._grid_quantiles((np.arange(n) + 0.5) / n).copy()

    def median(self):
        return float(self._grid_quantiles(0.5)[0])

    def _grid_state(self, n, needs):
        """The pdf state to order needs at quantiles(n) by push, in no promised order."""
        self._check_order(needs)
        return self._push(self.root.quantiles(n), needs)

    # -- coordinate (_chi) and pdf state (_push) seen by an image on top -----
    # A root's coordinate is its own abscissa, increasing, and crosses 0
    # inside the support only at 0 itself

    _sigma_total = 1.0
    chain = ()  # the (kind, parameter) steps over the root: none

    @property
    def root(self):
        return self

    def _chi(self, t):
        return np.asarray(t, dtype=float)

    def _invert(self, y):
        """y clipped to the support, and the mask of y not inside its open support."""
        y = np.asarray(y, dtype=float)
        return np.clip(y, self.support.lo, self.support.hi), ~self.support.contains(y)

    def _push(self, t, needs):
        """The pdf state: log f from logpdf, the ratios from the hooks. The
        pdf is evaluated once, for the ratios and a missing logpdf hook."""
        if not needs:
            return [self.logpdf(t)]
        f0 = self.pdf(t)
        with np.errstate(all="ignore"):
            lf = np.log(f0) if self._logpdf is None else self._logpdf(t)
            return [lf] + self._ratios(t, needs, f0)

    def _derivative(self, t, j):
        """Order j of the pdf at root abscissae t, from its hook."""
        return (self.pdf, self.d1, self.d2, self.d3)[j](t)

    def _zero(self):
        return 0.0 if self.support.lo < 0.0 < self.support.hi else None

    def _up_steps(self):
        """The up steps of the stack, the top one first, down the base chain."""
        d = self
        while d.chain:
            if d.kind == "up":
                yield d
            d = d.base

    def _stack_cuts(self):
        """The stack's cut points in root abscissae, where an integrand or
        an up weight can be singular: the root's interior points and each up
        step's interior zero zc."""
        return self.root.interior_points + tuple(
            d.zc for d in self._up_steps() if d.zc is not None)


# tail mass levels 2**-j of the condensation test and of the edge-limit rule,
# which share one memo entry per side
_TAIL_JS = np.arange(6.0, 42.0)


def _tail_quantiles(f, side):
    """Levels j and the distinct quantiles of f at tail masses 2**-j toward
    side: repeats, where the levels outrun the node table, say nothing."""
    lv = 2.0 ** -_TAIL_JS
    t = f._grid_quantiles(lv if side == "lo" else 1.0 - lv)
    keep = np.concatenate([[True], np.diff(t) != 0.0])
    return _TAIL_JS[keep], t[keep]


def _condensation_diverges(f, side, logw):
    """Dyadic condensation test for the mass of w*f toward a support side.

    The mass past the 2**-j tail quantile is comparable to 2**-j times the
    weight there, so the series behavior of those terms decides
    convergence; logw maps abscissae to log w. Terms that decay slower than
    2**-_SLOW a level, the bound of numerics' stub exponents, diverge.
    Computed in logs: pdf underflow can make a divergent tail look finite to
    direct quadrature (weight growth cancels pdf decay past the float horizon).
    """
    js, t = _tail_quantiles(f, side)
    with np.errstate(divide="ignore", invalid="ignore"):
        la = -js * math.log(2.0) + np.asarray(logw(t), dtype=float)
    if np.any(np.isposinf(la)) or np.any(np.isnan(la)) or la.size < 4:
        return True
    la = np.where(np.isneginf(la), -1e6, la)
    d = np.sort(np.diff(la[-12:]))
    slope = float((d[(d.size - 1) // 2] + d[d.size // 2]) / 2.0)  # the median
    return bool(slope > -_SLOW * math.log(2.0))


def _weighted_pdf(f, logw):
    """The callable x -> w(x) f(x), where logw maps x to log w.

    exp(logw(x) + f.logpdf(x)), summed in logs, as the weight and the pdf
    can over- and underflow separately; a closed-form logpdf keeps the
    product exact where the pdf is subnormal or 0. It is 0 only where that
    exponential is not finite (a pdf of 0 gives exp(-inf) = 0). Divergence
    is the condensation test's call, not the integrand's.
    """

    def wf(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):
            y = np.exp(logw(x) + f.logpdf(x))
        return np.where(np.isfinite(y), y, 0.0)

    return wf


# -- affine images ----------------------------------------------------------


def affine_image(f, scale, shift=0.0, label=None):
    """Density of (X - shift)/scale when X has density f.

    The image pdf is |scale| f(scale y + shift); a negative scale reflects
    the support. It is one affine step (transforms._AffineImage) on top of
    f, read in the coordinates of f's root, so it runs no quadrature at
    the new scale and keeps every derivative order of f.
    """
    from .transforms import _AffineImage  # transforms imports this module
    scale, shift = float(scale), float(shift)
    return _AffineImage(f, scale, shift, label or f"affine({f.label},{scale:g},{shift:g})")


def rescale(f, kappa):
    """Mass-preserving dilation, the law of X/kappa: pdf kappa f(kappa x).
    An affine step on f, so exact at any kappa > 0 and as cheap as f."""
    if not (kappa > 0.0 and math.isfinite(kappa)):
        raise DomainError(f"rescale needs kappa > 0, got {kappa}")
    return affine_image(f, kappa, 0.0, label=f"rescale({f.label},{kappa:g})")


def half_restriction(f, label=None):
    """Restriction of a symmetric density to x > 0, renormalized by 2."""
    s = f.support
    if not (s.lo < 0.0 < s.hi) or abs(s.lo) != abs(s.hi):
        raise DomainError(f"{f.label}: half restriction needs a symmetric support")
    d1_edge_blows = f.order >= 1 and 0.0 in f.interior_points

    def mk(d):
        if d is None:
            return None
        return lambda x: 2.0 * d(np.asarray(x, dtype=float))

    sup = Interval(0.0, s.hi,
                   singular_lo=d1_edge_blows,
                   singular_hi=s.singular_hi if math.isfinite(s.hi) else False)
    return Density(
        lambda x: 2.0 * f.pdf(np.asarray(x, dtype=float)),
        sup,
        d1=mk(f.d1), d2=mk(f.d2), d3=mk(f.d3),
        label=label or f"half({f.label})",
        logpdf=lambda x: math.log(2.0) + f.logpdf(x),
        interior_points=(p for p in f.interior_points if p > 0.0))


# -- builtin families -------------------------------------------------------


def uniform(a, b):
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise DomainError(f"uniform needs finite a < b, got {a}, {b}")
    h = 1.0 / (b - a)
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return Density(
        lambda x: np.full_like(np.asarray(x, dtype=float), h),
        Interval(a, b),
        d1=zero, d2=zero, d3=zero,
        label=f"uniform({a:g},{b:g})",
        logpdf=lambda x: np.full_like(np.asarray(x, dtype=float), -math.log(b - a)),
        cdf=lambda x: np.clip((np.asarray(x, dtype=float) - a) * h, 0.0, 1.0),
        quantile=lambda v: a + (b - a) * v)


def exponential(rate, shift=0.0):
    rate, shift = _finite(rate=rate, shift=shift)
    if not rate > 0.0:
        raise DomainError(f"exponential needs rate > 0, got {rate}")

    def pdf(x):
        return rate * np.exp(-rate * (np.asarray(x, dtype=float) - shift))

    return Density(
        pdf, Interval(shift, INF),
        d1=lambda x: -rate * pdf(x),
        d2=lambda x: rate**2 * pdf(x),
        d3=lambda x: -rate**3 * pdf(x),
        label=f"exponential({rate:g},{shift:g})",
        logpdf=lambda x: math.log(rate) - rate * (np.asarray(x, dtype=float) - shift),
        cdf=lambda x: -np.expm1(-rate * np.maximum(np.asarray(x, dtype=float) - shift, 0.0)),
        quantile=lambda v: shift - np.log1p(-v) / rate)


def power_tail(eta, x0):
    """pdf C x^(-eta) on (x0, inf), C = (eta-1) x0^(eta-1); needs eta > 1."""
    eta, x0 = float(eta), float(x0)
    if not (eta > 1.0 and x0 > 0.0):
        raise DomainError(f"power tail needs eta > 1 and x0 > 0, got {eta}, {x0}")
    c = (eta - 1.0) * x0 ** (eta - 1.0)

    def pdf(x):
        return c * np.asarray(x, dtype=float) ** -eta

    # x0 (1-v)**e with e = -1/(eta-1): rounding e alone costs |e log(1-v)|
    # ulp (20 at eta = 1.73), rounding 1-v costs |e|/2 (10 at eta = 1.05);
    # carrying the low parts of both keeps every level within 2 ulp. With
    # eta = n/d, e = d/(d-n); integer division rounds correctly
    n, d = eta.as_integer_ratio()
    e_hi = d / (d - n)
    p, q = e_hi.as_integer_ratio()
    e_lo = (d * q - p * (d - n)) / (q * (d - n))

    def quantile(v):
        s = 1.0 - v
        ds = (1.0 - s) - v  # 1-v == s + ds exactly
        with np.errstate(over="ignore"):  # past the largest double: inf
            return x0 * s ** e_hi * (1.0 + (e_lo * np.log1p(-v) + e_hi * ds / s))

    return Density(
        pdf, Interval(x0, INF),
        d1=lambda x: -eta * pdf(x) / np.asarray(x, dtype=float),
        d2=lambda x: eta * (eta + 1.0) * pdf(x) / np.asarray(x, dtype=float) ** 2,
        d3=lambda x: -eta * (eta + 1.0) * (eta + 2.0) * pdf(x)
        / np.asarray(x, dtype=float) ** 3,
        label=f"power_tail({eta:g},{x0:g})",
        logpdf=lambda x: math.log(c) - eta * np.log(np.asarray(x, dtype=float)),
        cdf=lambda x: 1.0
        - (x0 / np.maximum(np.asarray(x, dtype=float), x0)) ** (eta - 1.0),
        quantile=quantile)


def stretched_gaussian(p, lam):
    """Symmetric profile a exp_{2-lam}(-|x|^{p*}) with p* = p/(p-1).

    The normalizer a is computed numerically; there is never a closed form
    used here. Requires p* > 0 (p outside [0, 1]); the p = 0 profile is
    gzero and p = 1 has no finite conjugate.
    """
    p, lam = _finite(p=p, lam=lam)
    if abs(p) < _SNAP:
        raise UnsupportedCaseError("p = 0 profile is gzero(lam)")
    if abs(p - 1.0) < _SNAP:
        raise UnsupportedCaseError("p = 1 has an infinite conjugate exponent")
    ps = p / (p - 1.0)
    if ps <= 0.0:
        raise UnsupportedCaseError(
            f"conjugate exponent {ps} <= 0 gives a non-normalizable profile")
    if lam - 1.0 > _SNAP:
        X = (lam - 1.0) ** (-1.0 / ps)
        sup = Interval(-X, X, singular_lo=True, singular_hi=True)
    else:
        X = INF
        sup = Interval(-INF, INF)

    def profile(x):
        return texp(-np.abs(np.asarray(x, dtype=float)) ** ps, 2.0 - lam)

    half = integrate(profile, Interval(0.0, X, singular_hi=math.isfinite(X)),
                     tol=1e-13)
    if not half.converged and half.abs_error_estimate > 1e-9:
        raise DomainError(f"stretched_gaussian({p:g},{lam:g}): normalizer did not converge")
    a = 0.5 / half.value

    def pdf(x):
        return a * profile(x)

    def logpdf(x):
        with np.errstate(divide="ignore", over="ignore"):
            y = np.abs(np.asarray(x, dtype=float)) ** ps
            if abs(lam - 1.0) < _SNAP:
                return math.log(a) - y
            # log1p(-1) = -inf past a compact support's edge
            return math.log(a) + np.log1p(np.maximum(-(lam - 1.0) * y, -1.0)) / (lam - 1.0)

    # E' = -w' E^{2-lam} with w = |x|^{p*}; higher orders by the chain rule
    def parts(x):
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        sgn = np.sign(x)
        E = profile(x)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            w1 = ps * ax ** (ps - 1.0) * sgn
            w2 = ps * (ps - 1.0) * ax ** (ps - 2.0)
            w3 = ps * (ps - 1.0) * (ps - 2.0) * ax ** (ps - 3.0) * sgn
        return E, w1, w2, w3

    def d1(x):
        E, w1, _, _ = parts(x)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return a * np.where(E > 0.0, -w1 * E ** (2.0 - lam), 0.0)

    def d2(x):
        E, w1, w2, _ = parts(x)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            val = -w2 * E ** (2.0 - lam) + (2.0 - lam) * w1**2 * E ** (3.0 - 2.0 * lam)
            return a * np.where(E > 0.0, val, 0.0)

    def d3(x):
        E, w1, w2, w3 = parts(x)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            val = (-w3 * E ** (2.0 - lam)
                   + 3.0 * (2.0 - lam) * w1 * w2 * E ** (3.0 - 2.0 * lam)
                   - (2.0 - lam) * (3.0 - 2.0 * lam) * w1**3 * E ** (4.0 - 3.0 * lam))
            return a * np.where(E > 0.0, val, 0.0)

    return Density(
        pdf, sup, d1=d1, d2=d2, d3=d3, logpdf=logpdf,
        label=f"stretched_gaussian({p:g},{lam:g})",
        interior_points=(0.0,))


def gzero(lam):
    """Profile a0 (-log|x|)^{1/(lam-1)} on (-1, 1), lam > 1."""
    lam = float(lam)
    if not lam > 1.0 + _SNAP:
        raise DomainError(f"gzero needs lam > 1, got {lam}")
    s = 1.0 / (lam - 1.0)
    a0 = 0.5 / math.gamma(lam / (lam - 1.0))

    def pdf(x):
        ax = np.abs(np.asarray(x, dtype=float))
        with np.errstate(divide="ignore"):
            L = -np.log(ax)
        return a0 * np.maximum(L, 0.0) ** s

    def logpdf(x):
        with np.errstate(divide="ignore"):
            L = -np.log(np.abs(np.asarray(x, dtype=float)))
            return math.log(a0) + s * np.log(np.maximum(L, 0.0))

    def d1(x):
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            L = np.maximum(-np.log(ax), 0.0)
            val = -a0 * s * L ** (s - 1.0) / ax * np.sign(x)
        return val

    def d2(x):
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            L = np.maximum(-np.log(ax), 0.0)
            val = a0 * s * L ** (s - 2.0) * ((s - 1.0) + L) / ax**2
        return val

    return Density(
        pdf, Interval(-1.0, 1.0, singular_lo=True, singular_hi=True),
        d1=d1, d2=d2, logpdf=logpdf,
        label=f"gzero({lam:g})",
        interior_points=(0.0,))


def corpus():
    """Fixed evaluation corpus used by sweeps and the acceptance checks."""
    return [
        exponential(1.0, 0.0),
        exponential(2.0, 1.0),
        power_tail(2.0, 1.0),
        power_tail(3.0, 2.0),
        stretched_gaussian(2.0, 1.0),
        uniform(0.0, 1.0),
    ]
