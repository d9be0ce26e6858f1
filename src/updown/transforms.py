"""Density images under the down and up changes of variable, and affine maps.

Every image is its base density plus one step, of one of three kinds. The
affine step is the law of (X - shift)/scale: it divides the coordinate and
shifts log h, so a rescaled density is read in its root's coordinates and
no quadrature runs at the new scale. The down step sends a strictly
monotone density f through the canonical coordinate
s = f**(2-alpha)/(alpha-2) (s = -log f at alpha = 2) and carries the pdf
to f**alpha/|f'|; it consumes one derivative order. The up step integrates
the weight |(alpha-2)v|**(1/(alpha-2)) (e**v at alpha = 2) against f from
an anchor and reads the image pdf off the inverse coordinate; it restores
one order. At root abscissae each image reads its coordinate (_chi) and,
apart from it, its pdf state (_push: log h and the ratios of
Density._state), closed form in its base's state, so no pdf product that
can over- or underflow is formed. It asks its base only what its own step
needs: a down step one derivative order more, an up step the base
coordinate and one order less. Only the image callables (_linear,
_derivative) form h, h' and h'': from the state, except that an affine step
scales its base's derivatives, which stay finite at a zero of the slope
where kappa does not. Both maps preserve mass exactly, so a transformed
density evaluates every expectation by pulling the integrand back to the
root density's coordinates, where the quadrature cuts are already
understood; checks read it at its own quantiles by pushing the root's
(Density._grid_state), and place an image that undoes a step by both
coordinates there (_placement). An image-space query inverts an affine
step through its base, down to the root's identity; an up or down step,
and the zero of an affine or alpha = 2 down step, invert through a bracket
table built by the first inversion and numerics._rtsafe, the solver behind
every inverse in the library: each round reads the coordinate of a batch
down the base chain, and its slope f_root/h (mass preservation) by push.
"""

import functools
import math

import numpy as np

from .densities import Density, _condensation_diverges, _weighted_pdf, rescale
from .errors import (AccuracyError, CapabilityError, DomainError,
                     PreconditionError, TransformChainError)
from .numerics import INF, Interval, _CumTable, _rtsafe, integrate


def _down_coord(logf, alpha):
    """The down coordinate f**(2-alpha)/(alpha-2) (-log f at alpha = 2) of
    log f; log f = -inf and inf give its limits at pdf values 0 and inf."""
    return -logf if alpha == 2.0 else np.exp((2.0 - alpha) * logf) / (alpha - 2.0)


def _log_weight(v, c):
    """log |c v|**(1/c), the up weight at coordinate v (v itself at c = 0)."""
    return v if c == 0.0 else (math.log(abs(c)) + np.log(np.abs(v))) / c


class TransformedDensity(Density):
    """A density produced by one down, up or affine step on a base density.

    The base is a root density or another image, so an image is a stack of
    steps over its root. The forward map (_chi) and the image pdf state up
    to a derivative order (_push) are closed-form reads down the base chain
    at root abscissae, so all quadrature happens in the root's coordinates;
    an image-space read (Density's) inverts once (_invert), through an
    affine step's base or on the step's own bracket table, and pushes once.
    A bracket solve is limited by the conditioning of y: where chi is flat
    to float resolution, the image pdf h(y) holds to about 64*eps*|y h'/h|
    relative, and up(uniform(0,1), 2.05).pdf(chi(0.2)) reads 0.96 of
    h(chi(0.2)); the pullback functionals read no image-space pdf and are
    not affected. The exposed fields are base (the input density), root,
    kind, the step's parameter (alpha, or an affine step's scale and
    shift) and chain, the full (kind, parameter) provenance. up, down and
    affine_image build the three kinds.
    """

    def __init__(self, base, param, sign):
        self.base = base
        self.chain = base.chain + ((self.kind, param),)
        # +1 where the coordinate rises with the root abscissa; sign is the step's
        self._sigma_total = sign * base._sigma_total

    @functools.cached_property
    def root(self):
        return self.base.root

    def _finish(self, label=None):
        """Image support and Density fields for the stack."""
        # a down step consumes an order and an up step restores one, to at
        # most d2; an affine step keeps every order of its base
        order = self.base.order if self.kind == "affine" else \
            min(self.base.order + (1 if self.kind == "up" else -1), 2)
        img = [lambda y, j=j: self._linear(y, j) for j in range(order + 1)]
        img += [None] * (3 - order)
        super().__init__(img[0], self._image_support(),
                         d1=img[1], d2=img[2], d3=img[3],
                         label=label or f"{self.kind}({self.base.label},{self.alpha:g})",
                         interior_points=self._image_cuts(),
                         logpdf=lambda y: self._state(y, 0)[0])

    # -- coordinate map -------------------------------------------------------

    @functools.cached_property
    def _brackets(self):
        """Bracket table (t, z), z = sigma * chi(t), built on first inversion."""
        root = self.root
        lo, hi = root.support.lo, root.support.hi
        parts = [root._node_table().ts, root.quantiles(257)]
        parts += [d.table.ts for d in self._up_steps()]
        bt = np.unique(np.concatenate(parts))
        bt = bt[(bt >= lo) & (bt <= hi)]
        z = self._z(bt)
        ok = np.isfinite(z)
        bt, z = bt[ok], z[ok]
        # float saturation can flatten the extreme flanks; keep the strictly
        # monotone run so every stored bracket really brackets
        keep = np.concatenate([[True], np.diff(np.maximum.accumulate(z)) > 0.0])
        return bt[keep], z[keep]

    def _z(self, t):
        """The coordinate at root abscissae t, oriented to rise with t."""
        return self._sigma_total * self._chi(t)

    @np.errstate(all="ignore")
    def _dz(self, t):
        """The slope of _z, f_root/h: mass preservation, h |dchi/dt| = f_root."""
        return np.exp(self.root.logpdf(t) - self._push(t, 0)[0])

    def _zero(self):
        """Root abscissa where an affine or alpha = 2 down coordinate crosses 0.

        None, with no table built, where the support does not straddle 0, as
        at a root, or the bracket table's ends do not, z[0] < 0 < z[-1].
        Solved in it as _invert solves any y, it closes on an exact zero or
        the upper of two adjacent doubles: the ladders toward zc resolve the
        weight that finely. Up and other down steps state theirs.
        """
        if not self.support.lo < 0.0 < self.support.hi:
            return None
        bt, z = self._brackets
        if not z[0] < 0.0 < z[-1]:
            return None
        _, zc = _rtsafe(self._z, self._dz, 0.0, bt, z)
        return float(zc[0])

    def _invert(self, y):
        """Root abscissae whose image coordinate is y, and an out-of-range mask.

        Solved by _rtsafe on the bracket table (t, z), which the first
        inversion builds with the same coordinate call (_z), so no call lands
        on a node. On 64 points a round reads the coordinate in about 100 us
        through one up step and 510 us through two, and the slope (_dz) in 20
        and 125 us (2-vCPU Xeon); a solve takes 2 to 5 rounds, where key
        bisection takes 48 to 50. A y outside (z[0], z[-1]], infinite or NaN
        is out of range and lands on the nearest table end.
        """
        z = self._sigma_total * np.atleast_1d(np.asarray(y, dtype=float))
        bt, bz = self._brackets
        lo, hi = _rtsafe(self._z, self._dz, z, bt, bz)
        return 0.5 * (lo + hi), ~((z > bz[0]) & (z <= bz[-1]))

    def inverse_map(self, y):
        """Base-coordinate abscissae whose image coordinate equals y."""
        t, oob = self._invert(y)
        return np.where(oob, np.nan, self.base._chi(t))

    # -- pdf callables --------------------------------------------------------

    def _linear(self, y, j):
        """Order j of the image pdf at y from one inversion; 0 out of range
        and where not finite."""
        t, oob = self._invert(y)
        with np.errstate(all="ignore"):
            v = self._derivative(t, j)
        return np.where(oob | ~np.isfinite(v), 0.0, v)

    def _derivative(self, t, j):
        """Order j of the pdf at root abscissae t from the pushed state:
        h = e**l, h' = h s1, h'' = h s1**2 kappa, h''' = h s1**3 tau."""
        st = self._push(t, j)
        h = np.exp(st[0])
        if j == 0:
            return h
        if j == 1:
            return h * st[1]
        return h * (st[1] ** j * st[j])

    # -- construction helpers ---------------------------------------------------

    def _image_support(self):
        u_lo, u_hi = self.u_support
        slo = math.isfinite(u_lo) and self._edge_limit("lo") == INF
        shi = math.isfinite(u_hi) and self._edge_limit("hi") == INF
        return Interval(u_lo, u_hi, singular_lo=slo, singular_hi=shi)

    def _image_cuts(self):
        pts = self._stack_cuts()
        if not pts:
            return ()
        img = np.atleast_1d(self._chi(np.unique(pts)))
        return tuple(float(v) for v in img if math.isfinite(v))

    def _integrand(self, fn, t, fr, needs):
        """integral's integrand at root abscissae t, where the root pdf is
        fr: fn at the image point chi(t) with the pushed state, times fr/h
        (mass preservation), and 0 where h is 0 or not finite."""
        st = self._push(t, needs)
        h0 = np.exp(st[0])
        vals = np.asarray(fn(self._chi(t), h0, *st[1:]), dtype=float) * (fr / h0)
        return np.where((h0 == 0.0) | ~np.isfinite(h0), 0.0, vals)

    def reseat(self, scale, shift):
        """The law of scale * U + shift when U has this density, for any
        finite nonzero scale: one affine step on top of this image."""
        scale, shift = float(scale), float(shift)
        if scale == 0.0:
            raise DomainError(f"{self.label}: reseat needs a nonzero scale")
        return _AffineImage(self, 1.0 / scale, -shift / scale, f"reseat({self.label})")


class _DownImage(TransformedDensity):
    """A down image: the canonical coordinate of its base's pdf."""

    kind = "down"

    def __init__(self, base, alpha, sgn):
        self.alpha = float(alpha)
        super().__init__(base, self.alpha, -sgn)
        v = [base.edge_value("lo"), base.edge_value("hi")]
        with np.errstate(divide="ignore", over="ignore"):
            self.u_support = tuple(sorted(_down_coord(np.log(v), self.alpha).tolist()))
        self._finish()

    def _zero(self):
        # off alpha = 2, f**(2-alpha)/(alpha-2) keeps the sign of alpha - 2
        return super()._zero() if self.alpha == 2.0 else None

    def _chi(self, t):
        """Image coordinate at root abscissae t, read off the base log pdf."""
        with np.errstate(all="ignore"):
            return _down_coord(self.base._push(t, 0)[0], self.alpha)

    def _push(self, t, needs):
        """Pdf state to order needs at root abscissae t, from the base's to
        one order more: log h = (alpha-1) l - log|s1|, h'/h = (kappa -
        alpha) f**(alpha-2) and h h''/h'**2 = 1 - [(kappa + tau - 2 kappa**2)
        - (alpha - kappa)(alpha - 2)] / (alpha - kappa)**2."""
        lb, s1, *r = self.base._push(t, needs + 1)
        al = self.alpha
        with np.errstate(all="ignore"):
            out = [(al - 1.0) * lb - np.log(np.abs(s1))]
            if needs >= 1:
                out.append((r[0] - al) * np.exp((al - 2.0) * lb))
            if needs >= 2:
                k, tau = r
                out.append(1.0 - ((k + tau - 2.0 * k * k) - (al - k) * (al - 2.0)) / (al - k) ** 2)
        return out


class _UpImage(TransformedDensity):
    """An up image, realized by one cumulative weight table.

    Everything is tabulated in root abscissae: the new coordinate is
    u(t) = sigma * (C(anchor) - C(t)) with C the running integral of
    W(t) = weight(chi(t)) * f_root(t), where chi is the base's coordinate
    in root abscissae (base._chi) and sigma its orientation. The anchor is
    the support end sigma points to (canonical) where the mass toward it
    is finite, else the root median; C pivots at the anchor end in the
    first case and at the median in the second. A canonical u is then the
    mass between t and the anchor, read as a sum with no cancellation as
    it falls toward 0 at the anchor edge; what error is left is the partial
    GK15 panel's (on up(exponential(1), 1.5), 1.4e-13 relative at t = 20
    but 8.4e-5 at t = 64, where one panel spans a factor-2 walk step).

    W can be singular only at a finite support edge and at the stack's cut
    points (Density._stack_cuts): the root's interior points and the zero zc
    of each up step's base coordinate, this step's among them, which the
    base states (base._zero): a root 0, an up base its median anchor, a down
    base off alpha = 2 none, another the crossing in its bracket table; a
    lower step's zero kinks chi. The table is a
    numerics._CumTable on the root's node table and quantiles, whose infinite
    ends already reach the subnormal pdf. Each such point is listed on both
    sides, and the table lays a ladder on each side where it continues. The
    image adds only the masses beyond the table ends: infinite where the
    condensation test finds the edge divergent, else the tail integral past
    an infinite end. A divergent finite edge, by that test or by its closure
    exponent, stays off the table with infinite mass beyond its ladder.
    """

    kind = "up"

    def __init__(self, base, alpha):
        self.alpha = float(alpha)
        super().__init__(base, self.alpha, -1.0)
        self.c = self.alpha - 2.0
        self.sigma = base._sigma_total
        self.zc = None if self.c == 0.0 else base._zero()
        if self.zc is not None and -1.0 <= self.c < 0.0:
            raise PreconditionError(
                f"up(alpha={self.alpha:g}): the coordinate weight is not "
                f"integrable across the interior zero at {self.zc:.6g}")
        self._build_table()
        self._finish()

    def _logw(self, t):
        return _log_weight(self.base._chi(t), self.c)

    def _build_table(self):
        root = self.root
        w_root = _weighted_pdf(root, self._logw)
        lo, hi = root.support.lo, root.support.hi
        ts = np.unique(np.r_[root._node_table().ts, root.quantiles(129)])
        ends = [(p, s) for p in self._stack_cuts() + (lo, hi) for s in (-1.0, 1.0)]

        def mass(side, end, node):
            # beyond the table end at node: infinite by the condensation
            # test, else the tail integral past an infinite end
            if _condensation_diverges(root, side, self._logw):
                return INF
            if math.isfinite(end):
                return 0.0
            r = integrate(w_root, Interval(*sorted((end, float(node)))), tol=1e-13)
            return r.value if r.converged and math.isfinite(r.value) else INF

        # the anchor is the end sigma points to where the mass beyond it is
        # finite, else the root median. C pivots there: 0.0 at that end node,
        # so u sums masses of one sign and table.above or .below is the mass
        m_lo, m_hi = mass("lo", lo, ts[0]), mass("hi", hi, ts[-1])
        to_hi = self.sigma > 0
        canonical = math.isfinite(m_hi if to_hi else m_lo)
        pivot = (INF if to_hi else -INF) if canonical else float(root.median())
        self.table = tab = _CumTable(w_root, ts, ends, pivot=pivot, mass_lo=m_lo,
                                     mass_hi=m_hi)
        if not tab.cums.any():
            raise AccuracyError(
                f"up(alpha={self.alpha!r}): the weight underflows to 0 on "
                f"every table panel of {root.label}")
        near, far = (tab.above, tab.below) if to_hi else (tab.below, tab.above)
        self.anchor_mode = "canonical" if canonical else "median"
        self.c_anchor = float(near) if canonical else float(tab(pivot)[0])
        self.u_support = (float(self.sigma * (self.c_anchor - near)),
                          float(self.sigma * (self.c_anchor - far)))

    def _zero(self):
        """The median anchor, a table node where C and u are exactly 0, or None."""
        return float(self.root.median()) if self.anchor_mode == "median" else None

    def _edge_limit(self, side):
        # the pdf is 1/w(v): exact at the base's edge v this side maps to,
        # the opposite one, as u falls where the base coordinate rises
        v = self.base.support.hi if side == "lo" else self.base.support.lo
        with np.errstate(divide="ignore"):
            return float(np.exp(-_log_weight(v, self.c)))

    def _chi(self, t):
        """Image coordinate at root abscissae t: one table read."""
        with np.errstate(all="ignore"):
            return self.sigma * (self.c_anchor - self.table(t))

    def _push(self, t, needs):
        """Pdf state to order needs at root abscissae t from the base's
        coordinate v and, from needs = 1, its state to one order less; with
        q = d log w/dv = 1/(c v) (1 at c = 0), log h = -log w(v), h'/h =
        q e**(log h - l), h h''/h'**2 = (2 + c) + s1/q. No table is read."""
        v = self.base._chi(t)
        c = self.c
        cv = 1.0 if c == 0.0 else c * v  # 1/q
        with np.errstate(all="ignore"):
            out = [-_log_weight(v, c)]
            if needs >= 1:
                st = self.base._push(t, needs - 1)
                out.append(np.exp(out[0] - st[0]) / cv)
            if needs >= 2:
                out.append((2.0 + c) + st[1] * cv)
        return out


class _AffineImage(TransformedDensity):
    """The law of (X - shift)/scale when X has its base's law.

    The coordinate divides the base's, and every derivative order of the
    base passes through: the state's log h gains log|scale| and h'/h the
    factor scale, and the derivative of order k gains |scale| scale**k.
    It inverts through its base's inverse, exactly over a root; only its
    zero, where its support straddles 0, is solved on a bracket table.
    """

    kind = "affine"

    def __init__(self, base, scale, shift, label):
        if scale == 0.0 or not math.isfinite(scale) or not math.isfinite(shift):
            raise DomainError(f"affine map needs finite nonzero scale, got {scale}, {shift}")
        self.scale, self.shift = scale, shift
        super().__init__(base, (scale, shift), math.copysign(1.0, scale))
        s = base.support
        self.u_support = tuple(sorted(((s.lo - shift) / scale, (s.hi - shift) / scale)))
        self._finish(label)

    def _chi(self, t):
        return (self.base._chi(t) - self.shift) / self.scale

    def _invert(self, y):
        return self.base._invert(self.scale * np.atleast_1d(y) + self.shift)

    def _push(self, t, needs):
        """log h gains log|scale|, h'/h the factor scale; the rest passes."""
        lb, *r = self.base._push(t, needs)
        if r:
            r[0] = self.scale * r[0]
        return [lb + math.log(abs(self.scale))] + r

    def _derivative(self, t, j):
        """|scale| scale**j times the base's: where the base's slope is 0 the
        state's kappa and tau are not finite, but its derivatives are."""
        return abs(self.scale) * self.scale ** j * self.base._derivative(t, j)

    def _edge_limit(self, side):
        if self.scale < 0.0:
            side = "hi" if side == "lo" else "lo"
        return abs(self.scale) * self.base.edge_value(side)


# -- public operations --------------------------------------------------------


def down(f, alpha):
    """Down image of a strictly monotone density."""
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise DomainError(f"down needs finite alpha, got {alpha}")
    sgn = f.strict_monotone_sign()  # a CapabilityError without d1
    if sgn is None:
        raise PreconditionError(f"down({f.label}): pdf must be strictly monotone")
    edge = f.support.lo if sgn < 0 else f.support.hi
    if not math.isfinite(edge):
        raise PreconditionError(
            f"down({f.label}): the support edge under the pdf supremum"
            f" must be finite")
    return _DownImage(f, alpha, sgn)


def up(f, alpha):
    """Up image of a density; always defined except across an interior
    zero of the coordinate with a non-integrable weight."""
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise DomainError(f"up needs finite alpha, got {alpha}")
    return _UpImage(f, alpha)


def down_applicable(f, alpha):
    """Whether alpha clears the curvature-ratio supremum of f.

    Returns (flag, sup) where sup estimates sup f f''/f'^2 on a 128-point
    quantile grid. The flag also requires strict monotonicity, since that
    is what a further down step needs.
    """
    alpha = float(alpha)
    r = f._grid_state(128, 2)[2]
    r = r[np.isfinite(r)]
    sup = float(np.max(r)) if r.size else math.nan
    ok = bool(math.isfinite(sup) and alpha > sup
              and f.strict_monotone_sign() is not None)
    return ok, sup


def chain(f, ops):
    """Apply ("down"|"up", alpha) steps left to right.

    Between consecutive down steps the curvature gate is consulted, so a
    step that would break monotonicity fails with the index attached.
    """
    g = f
    prev = None
    for i, step in enumerate(ops):
        try:
            kind, alpha = step
        except (TypeError, ValueError):
            raise DomainError(f"chain step {i} is not a (kind, alpha) pair: {step!r}") from None
        if kind not in ("down", "up"):
            raise DomainError(f"chain step {i} has unknown transform kind {kind!r}")
        try:
            if kind == "down":
                if prev == "down":
                    ok, sup = down_applicable(g, alpha)
                    if not ok:
                        raise PreconditionError(
                            f"alpha={alpha:g} does not clear the curvature"
                            f" supremum {sup:g}")
                g = down(g, alpha)
            else:
                g = up(g, alpha)
        except TransformChainError:
            raise
        except (DomainError, PreconditionError, CapabilityError) as e:
            raise TransformChainError(i, str(e)) from e
        prev = kind
    return g


def _placement(raw, target):
    """The (scale, shift) with raw.reseat(scale, shift) on target g, where raw
    is up(down(g)) or down(up(g)) over g's root. The two maps are inverse up
    to translation and reflection: at root abscissae target._chi = scale *
    raw._chi + shift, with scale the product of the stated orientations, so
    shift is read as the median of that difference at the root's quantiles.
    """
    scale = raw._sigma_total * target._sigma_total
    t = raw.root.quantiles(16)
    return scale, float(np.median(target._chi(t) - scale * raw._chi(t)))


def verify_inversion(f, alpha):
    """Max pdf deviation of up(down(f, alpha), alpha) from f at 16 quantiles,
    after the placement read off the two coordinates (_placement)."""
    g = up(down(f, alpha), alpha)
    scale, shift = _placement(g, f)
    y = f.quantiles(16)
    return float(np.max(np.abs(g.pdf_at((y - shift) / scale) - f.pdf_at(y))))


def _rel_dev(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300)))


def verify_scaling(f, alpha, kappa):
    """Max relative deviation from the rescaling transport laws, at 16
    mid-cell quantile levels.

    Checks the down law at each alpha (the additive shift law at alpha = 2)
    and the up law when alpha != 2; f must satisfy the down preconditions.
    """
    alpha = float(alpha)
    kappa = float(kappa)
    fk = rescale(f, kappa)
    lv = (np.arange(16) + 0.5) / 16
    devs = []
    a_img = down(fk, alpha)
    b_img = down(f, alpha)
    ya = a_img.quantile_many(lv)
    if alpha == 2.0:
        ref = b_img.pdf_at(ya + math.log(kappa))
    else:
        k2 = kappa ** (alpha - 2.0)
        ref = k2 * b_img.pdf_at(k2 * ya)
    devs.append(_rel_dev(a_img.pdf(ya), ref))
    if alpha != 2.0:
        c_img = up(fk, alpha)
        d_img = up(f, alpha)
        k3 = kappa ** (1.0 / (alpha - 2.0))
        yc = c_img.quantile_many(lv)
        devs.append(_rel_dev(c_img.pdf(yc), k3 * d_img.pdf_at(k3 * yc)))
    return float(max(devs))
