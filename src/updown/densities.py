"""Probability densities with derivative hooks and quantile machinery.

A Density wraps a vectorized pdf on an open extended-real interval, together
with optional derivative callables d1..d3, an optional closed-form cdf and
quantile, a tri-state monotone_decreasing claim, and a list of interior
abscissae where the pdf or a derivative is kinked or singular. Construction
verifies unit mass and any monotonicity claim. Expectations are computed by
adaptive quadrature over the support with cuts at the interior points.
"""

import math

import numpy as np

from .errors import CapabilityError, DomainError, UnsupportedCaseError
from .numerics import INF, Interval, _bisect, _gk, _refine_panels, integrate

_SNAP = 1e-13  # parameters this close to a removable limit snap onto it


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
    """A one-dimensional probability density on an open interval."""

    def __init__(self, pdf, support, *, d1=None, d2=None, d3=None,
                 monotone_decreasing=None, label="density", interior_points=(),
                 cdf=None, quantile=None, normalization_tol=1e-7):
        self.support = support if isinstance(support, Interval) else Interval(*support)
        self.pdf = _as_callable_on_array(pdf)
        self.d1 = _as_callable_on_array(d1) if d1 is not None else None
        self.d2 = _as_callable_on_array(d2) if d2 is not None else None
        self.d3 = _as_callable_on_array(d3) if d3 is not None else None
        self.monotone_decreasing = monotone_decreasing
        self.label = label
        self._cdf = cdf
        self._quantile = quantile
        lo, hi = self.support.lo, self.support.hi
        self.interior_points = tuple(sorted(
            {float(p) for p in interior_points if lo < float(p) < hi}))
        self._table = None
        if normalization_tol is not None:
            total = integrate(self.pdf, self.support, tol=1e-9,
                              interior=self.interior_points)
            if not math.isfinite(total.value) or abs(total.value - 1.0) > normalization_tol:
                raise DomainError(
                    f"{label}: pdf mass is {total.value!r}, not 1 within {normalization_tol}")
        if monotone_decreasing is True:
            if self.d1 is None:
                raise CapabilityError(f"{label}: monotone claim needs d1")
            q = self.quantiles(64)
            slopes = self.d1(q)
            if not np.all(slopes < 0.0):
                bad = q[slopes >= 0.0][0]
                raise DomainError(f"{label}: claimed decreasing but d1 >= 0 at x={bad}")

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

    def _state(self, x, needs):
        if needs > self.order:
            raise CapabilityError(
                f"{self.label}: derivative order {needs} requested, have {self.order}")
        vals = [self.pdf(x)]
        for d in (self.d1, self.d2, self.d3)[:needs]:
            vals.append(d(x))
        return vals

    def pdf_at(self, x):
        """pdf evaluated anywhere on the line; zero outside the support."""
        x = np.asarray(x, dtype=float)
        inside = self.support.contains(x)
        out = np.zeros_like(x)
        if inside.any():
            out[inside] = self.pdf(x[inside])
        return out if out.ndim else float(out)

    def integral(self, fn, *, needs=0, tol=1e-10, rtol=3e-8, extra_interior=(),
                 force_singular_edges=False):
        """Integral of fn(x, f, [f', f'', f''']) over the support.

        fn supplies the whole integrand (no implicit pdf weight). Regions
        where the pdf has underflowed to exactly 0 carry no mass and are
        dropped; divergent integrals come back flagged non-convergent.
        force_singular_edges marks finite support edges singular, for
        integrands that blow up where the pdf itself does not.
        """

        def integrand(x):
            vals = self._state(x, needs)
            with np.errstate(all="ignore"):
                y = np.asarray(fn(x, *vals), dtype=float)
            # Past the point where the pdf (or products of its derivatives)
            # underflow, 0*inf artifacts appear even though the true
            # integrand carries no weighable mass. Genuine divergences blow
            # up at ordinary magnitudes long before f reaches 1e-160, so
            # zeroing non-finite values out there cannot hide one.
            bad = (vals[0] == 0.0) | (~np.isfinite(y) & (vals[0] < 1e-160))
            return np.where(bad, 0.0, y)

        iv = self.support
        if force_singular_edges:
            iv = Interval(iv.lo, iv.hi,
                          singular_lo=math.isfinite(iv.lo),
                          singular_hi=math.isfinite(iv.hi))
        cuts = self.interior_points + tuple(extra_interior)
        return integrate(integrand, iv, tol=tol, rtol=rtol, interior=cuts)

    def expect(self, fn, **kw):
        """Integral of fn(x, f, ...) weighted by the pdf; see integral()."""
        return self.integral(lambda x, *vals: np.asarray(fn(x, *vals)) * vals[0], **kw)

    def strict_monotone_sign(self):
        """-1 for strictly decreasing, +1 for strictly increasing pdfs.

        Sampled from d1 on a quantile grid; a sign change or a zero slope
        means the pdf is not strictly monotone and None is returned.
        """
        if self.d1 is None:
            raise CapabilityError(f"{self.label}: monotone test needs d1")
        slopes = self.d1(self.quantiles(64))
        if np.all(slopes < 0.0):
            return -1
        if np.all(slopes > 0.0):
            return 1
        return None

    def edge_value(self, side):
        """Limit of the pdf at a support edge: 0.0, a finite value, or inf."""
        lo, hi = self.support.lo, self.support.hi
        if side == "lo" and lo == -INF or side == "hi" and hi == INF:
            return 0.0
        edge = lo if side == "lo" else hi
        other = hi if side == "lo" else lo
        if not math.isfinite(other):
            other = edge + math.copysign(1.0, other)
        for p in self.interior_points:
            if (edge < p < other) if side == "lo" else (other < p < edge):
                other = p  # stay on the edge's side of any interior kink
        span = other - edge
        ks = np.arange(20, 45, dtype=float)
        vals = self.pdf(edge + span * 0.5 ** ks)
        tail = vals[-6:]
        mag = np.abs(tail)
        if mag.max() < 1e-13:
            return 0.0
        # six halvings grow a d**-g blowup by 2**(6g); 1.5 catches g ~ 0.1
        # while a pdf settling on a finite limit moves by far less
        if mag[-1] > 1e13 or (np.all(np.diff(mag) > 0) and mag[-1] / max(mag[0], 1e-300) > 1.5):
            return INF
        if mag[-1] < 1e-8 and np.all(np.diff(mag) < 0):
            return 0.0
        return float(tail[-1])

    def esssup_abs(self):
        return max(abs(self.support.lo), abs(self.support.hi))

    # -- cumulative geometry ------------------------------------------------

    def _node_table(self):
        """Sorted abscissae with cumulative masses, built once on demand."""
        if self._table is not None:
            return self._table
        lo, hi = self.support.lo, self.support.hi
        cuts = [lo] + list(self.interior_points) + [hi]
        nodes = []
        for a, b in zip(cuts[:-1], cuts[1:]):
            fin_a, fin_b = math.isfinite(a), math.isfinite(b)
            if fin_a and fin_b:
                span = b - a
                u = np.concatenate([np.linspace(0.0, 1.0, 49),
                                    0.5 ** np.arange(2, 40, dtype=float),
                                    1.0 - 0.5 ** np.arange(2, 40, dtype=float)])
                seg = a + span * np.unique(u)
            elif fin_a:
                seg = a + np.concatenate([[0.0], 0.5 ** np.arange(40, 0, -1, dtype=float),
                                          np.linspace(1.0, 2.0, 17)[1:],
                                          2.0 ** np.arange(2, 42, dtype=float)])
            elif fin_b:
                seg = b - np.concatenate([[0.0], 0.5 ** np.arange(40, 0, -1, dtype=float),
                                          np.linspace(1.0, 2.0, 17)[1:],
                                          2.0 ** np.arange(2, 42, dtype=float)])
                seg = seg[::-1]
            else:
                t = np.concatenate([0.5 ** np.arange(40, 0, -1, dtype=float),
                                    np.linspace(1.0, 2.0, 17)[1:],
                                    2.0 ** np.arange(2, 42, dtype=float)])
                seg = np.concatenate([-t[::-1], [0.0], t])
            nodes.append(seg)
        xs = np.unique(np.concatenate(nodes))
        xs = xs[(xs >= lo) & (xs <= hi)]
        a, b = xs[:-1], xs[1:]
        sing_lo = (self.support.singular_lo & (a == lo)) | np.isin(a, self.interior_points)
        sing_hi = (self.support.singular_hi & (b == hi)) | np.isin(b, self.interior_points)
        # singular panels keep integrate's peel; masses <= 1 keep the bound 1e-13
        peel = sing_lo | sing_hi
        masses = np.empty(len(a))
        masses[~peel] = _refine_panels(self.pdf, a[~peel], b[~peel], 1e-13, 1e-13)
        for i in np.nonzero(peel)[0]:
            sub = Interval(a[i], b[i], bool(sing_lo[i]), bool(sing_hi[i]))
            masses[i] = integrate(self.pdf, sub, tol=1e-13).value
        cums = np.concatenate([[0.0], np.cumsum(masses)])
        self._table = (xs, cums)
        return self._table

    def cdf_at(self, x):
        """Cumulative mass below x (vectorized)."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        if self._cdf is not None:
            out = np.asarray(self._cdf(x), dtype=float)
            return float(out[0]) if scalar else out
        xs, cums = self._node_table()
        xc = np.clip(x, xs[0], xs[-1])
        idx = np.clip(np.searchsorted(xs, xc, side="right") - 1, 0, len(xs) - 2)
        left = xs[idx]
        out = cums[idx].copy()
        wide = xc > left
        if wide.any():
            vals, _ = _gk(self.pdf, left[wide], xc[wide])
            out[wide] += vals
        return float(out[0]) if scalar else out

    def quantile_many(self, levels):
        """Abscissae where the cdf reaches the given mass levels.

        A closed-form quantile hook answers directly; otherwise _bisect
        inverts the cdf inside the node table.
        """
        levels = np.atleast_1d(np.asarray(levels, dtype=float))
        if np.any((levels <= 0.0) | (levels >= 1.0)):
            raise DomainError("quantile levels must be inside (0, 1)")
        if self._quantile is not None:
            return np.asarray(self._quantile(levels), dtype=float)
        xs, cums = self._node_table()
        # with an exact cdf hook the targets are the levels themselves; the
        # numeric table still supplies the starting brackets
        targets = levels if self._cdf is not None else levels * cums[-1]
        idx = np.clip(np.searchsorted(cums, levels * cums[-1]), 1, len(xs) - 1)
        lo, hi = _bisect(self.cdf_at, targets, xs[idx - 1], xs[idx])
        return 0.5 * (lo + hi)

    def quantiles(self, n):
        """n interior quantiles at mass levels (i + 1/2)/n."""
        return self.quantile_many((np.arange(n) + 0.5) / n)

    def median(self):
        return float(self.quantile_many(0.5)[0])


def _condensation_diverges(f, side, logw):
    """Dyadic condensation test for the mass of w*f toward a support side.

    The mass past the 2**-j tail quantile is comparable to 2**-j times the
    weight there, so the series behavior of those terms decides
    convergence; logw maps abscissae to log w. Computed in logs: pdf
    underflow can make a divergent tail look finite to direct quadrature
    (weight growth cancels pdf decay beyond the float horizon).
    """
    js = np.arange(6.0, 42.0)
    lv = 2.0 ** -js
    t = f.quantile_many(lv if side == "lo" else 1.0 - lv)
    # quantiles saturate once the levels outrun the node table; those
    # repeats say nothing about the tail
    keep = np.concatenate([[True], np.diff(t) != 0.0])
    js, t = js[keep], t[keep]
    with np.errstate(divide="ignore", invalid="ignore"):
        la = -js * math.log(2.0) + np.asarray(logw(t), dtype=float)
    if np.any(np.isposinf(la)) or np.any(np.isnan(la)) or la.size < 4:
        return True
    la = np.where(np.isneginf(la), -1e6, la)
    slope = float(np.median(np.diff(la[-12:])))
    return bool(slope > -0.05 * math.log(2.0))


# -- affine images ----------------------------------------------------------


def affine_image(f, scale, shift=0.0, label=None):
    """Density of (X - shift)/scale when X has density f.

    The image pdf is |scale| f(scale y + shift). A negative scale reflects
    the support and swaps edge flags; a monotone claim does not survive
    reflection and is dropped to None there.
    """
    scale = float(scale)
    shift = float(shift)
    if scale == 0.0 or not math.isfinite(scale) or not math.isfinite(shift):
        raise DomainError(f"affine map needs finite nonzero scale, got {scale}, {shift}")
    s = f.support
    a = (s.lo - shift) / scale
    b = (s.hi - shift) / scale
    if scale > 0:
        sup = Interval(a, b, singular_lo=s.singular_lo, singular_hi=s.singular_hi)
        mono = f.monotone_decreasing
    else:
        sup = Interval(b, a, singular_lo=s.singular_hi, singular_hi=s.singular_lo)
        mono = None
    aj = abs(scale)

    def mk(d, k):
        if d is None:
            return None
        return lambda y: aj * scale ** k * d(scale * np.asarray(y, dtype=float) + shift)

    cdf = quantile = None
    if f._cdf is not None:
        if scale > 0:
            cdf = lambda y: f._cdf(scale * np.asarray(y, dtype=float) + shift)
        else:
            cdf = lambda y: 1.0 - f._cdf(scale * np.asarray(y, dtype=float) + shift)
    if f._quantile is not None:
        if scale > 0:
            quantile = lambda v: (f._quantile(v) - shift) / scale
        else:
            quantile = lambda v: (f._quantile(1.0 - v) - shift) / scale
    return Density(
        lambda y: aj * f.pdf(scale * np.asarray(y, dtype=float) + shift),
        sup,
        d1=mk(f.d1, 1), d2=mk(f.d2, 2), d3=mk(f.d3, 3),
        monotone_decreasing=mono,
        label=label or f"affine({f.label},{scale:g},{shift:g})",
        interior_points=tuple((p - shift) / scale for p in f.interior_points),
        cdf=cdf, quantile=quantile)


def rescale(f, kappa):
    """Mass-preserving dilation: pdf kappa f(kappa x)."""
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
        monotone_decreasing=True if f.order >= 1 else None,
        label=label or f"half({f.label})",
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
        monotone_decreasing=None,
        label=f"uniform({a:g},{b:g})",
        cdf=lambda x: np.clip((np.asarray(x, dtype=float) - a) * h, 0.0, 1.0),
        quantile=lambda v: a + (b - a) * v)


def exponential(rate, shift=0.0):
    rate, shift = float(rate), float(shift)
    if not (rate > 0.0 and math.isfinite(rate) and math.isfinite(shift)):
        raise DomainError(f"exponential needs rate > 0, got {rate}")

    def pdf(x):
        return rate * np.exp(-rate * (np.asarray(x, dtype=float) - shift))

    return Density(
        pdf, Interval(shift, INF),
        d1=lambda x: -rate * pdf(x),
        d2=lambda x: rate**2 * pdf(x),
        d3=lambda x: -rate**3 * pdf(x),
        monotone_decreasing=True,
        label=f"exponential({rate:g},{shift:g})",
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
        monotone_decreasing=True,
        label=f"power_tail({eta:g},{x0:g})",
        cdf=lambda x: 1.0
        - (x0 / np.maximum(np.asarray(x, dtype=float), x0)) ** (eta - 1.0),
        quantile=quantile)


def _conjugate(p):
    p = float(p)
    if abs(p - 1.0) < _SNAP:
        return INF
    return p / (p - 1.0)


def stretched_gaussian(p, lam):
    """Symmetric profile a exp_{2-lam}(-|x|^{p*}) with p* = p/(p-1).

    The normalizer a is computed numerically; there is never a closed form
    used here. Requires p* > 0 (p outside [0, 1]); the p = 0 profile is
    gzero and p = 1 has no finite conjugate.
    """
    p, lam = float(p), float(lam)
    if abs(p) < _SNAP:
        raise UnsupportedCaseError("p = 0 profile is gzero(lam)")
    if abs(p - 1.0) < _SNAP:
        raise UnsupportedCaseError("p = 1 has an infinite conjugate exponent")
    ps = _conjugate(p)
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
        pdf, sup, d1=d1, d2=d2, d3=d3,
        monotone_decreasing=None,
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
        d1=d1, d2=d2,
        monotone_decreasing=None,
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
