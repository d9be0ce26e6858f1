"""Density images under the down and up changes of variable, and affine maps.

Every image is its base density plus one step, of one of three kinds. The
affine step is the law of (X - shift)/scale: it divides the coordinate and
scales the pdf state, so a rescaled density is read in its root's
coordinates and no quadrature runs at the new scale. The down step sends a
strictly monotone density f through the canonical coordinate
s = f**(2-alpha)/(alpha-2) (s = -log f at alpha = 2) and carries the pdf
to f**alpha/|f'|; it consumes one derivative order. The up step integrates
the weight |(alpha-2)v|**(1/(alpha-2)) (e**v at alpha = 2) against f from
an anchor and reads the image pdf off the inverse coordinate; it restores
one order. At root abscissae each image reads its coordinate (_chi) and,
apart from it, its pdf state (_push), for which it asks its base only what
its own step needs: a down step one derivative order more, an up step the
base coordinate and one order less. Both maps preserve mass exactly,
so a transformed density evaluates every expectation by pulling the
integrand back to the root density's coordinates, where the quadrature
cuts are already understood. Image-space pdf queries go through an
eagerly built monotone bracket table and numerics._chandrupatla, the
interpolating bracketed solver behind every inverse in the library: each
of its rounds reads the coordinate of a batch down the base chain, so
fewer rounds pay, and it starts from the coordinate the table holds at
each bracket end.
"""

import math

import numpy as np

from .densities import Density, _condensation_diverges, _weighted_pdf, rescale
from .errors import (AccuracyError, CapabilityError, DomainError,
                     PreconditionError, TransformChainError)
from .functionals import curvature_ratio
from .numerics import INF, Interval, _chandrupatla, _CumTable, integrate


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
    an image-space query (_state) inverts once and pushes once for all the
    orders it returns. Every step kind inverts through _invert on its own
    bracket table. The exposed fields are base (the immediate input
    density), root, kind and the step's parameter (alpha of a down or up
    step, scale and shift of an affine one), and chain, the full
    (kind, parameter) provenance. up, down and affine_image build the three
    kinds.
    """

    def __init__(self, base, param):
        self.base = base
        self.root = getattr(base, "root", base)
        self.chain = getattr(base, "chain", ()) + ((self.kind, param),)

    def _finish(self, label=None):
        """Brackets, image support and Density fields for the stack."""
        self._build_brackets()
        # a down step consumes an order and an up step restores one, to at
        # most d2; an affine step keeps every order of its base
        order = self.base.order if self.kind == "affine" else \
            min(self.base.order + (1 if self.kind == "up" else -1), 2)
        img = [lambda y, j=j: self._state(y, j)[j] for j in range(order + 1)]
        img += [None] * (3 - order)
        super().__init__(img[0], self._image_support(),
                         d1=img[1], d2=img[2], d3=img[3],
                         label=label or f"{self.kind}({self.base.label},{self.alpha:g})",
                         interior_points=self._image_cuts(),
                         cdf=self._cdf_img,
                         normalization_tol=None)
        self._probe()

    def _up_steps(self):
        """The up images of the stack, this one first, down the base chain."""
        d = self
        while d is not self.root:
            if d.kind == "up":
                yield d
            d = d.base

    # -- coordinate map -------------------------------------------------------

    def _build_brackets(self):
        root = self.root
        lo, hi = root.support.lo, root.support.hi
        parts = [root._node_table().ts, root.quantiles(257)]
        parts += [d.table.ts for d in self._up_steps()]
        bt = np.unique(np.concatenate(parts))
        bt = bt[(bt >= lo) & (bt <= hi)]
        ys = self._chi(bt)
        okm = np.isfinite(ys)
        bt, ys = bt[okm], ys[okm]
        sgn = 1.0 if ys[-1] >= ys[0] else -1.0
        z = sgn * ys
        # float saturation can flatten the extreme flanks; keep the strictly
        # monotone run so every stored bracket really brackets
        keep = np.concatenate([[True], np.diff(np.maximum.accumulate(z)) > 0.0])
        self._br_t = bt[keep]
        self._br_z = z[keep]
        self._sigma_total = sgn

    def _zero(self):
        """Root abscissa where the image coordinate crosses 0, or None.

        A coordinate heading to 0 at a support edge saturates in float at
        table-roundoff size, so only bracket-table ends clear of 1e-12 of
        the largest |value| witness an interior crossing. Solved in the
        bracket table as _invert solves any y, it closes on an exact zero
        or the upper of two adjacent doubles: the ladders toward zc resolve
        the weight that finely.
        """
        z = self._br_z
        floor = 1e-12 * np.max(np.abs(z))
        if not (z[0] < -floor and z[-1] > floor):
            return None
        _, zc = _chandrupatla(lambda t: self._sigma_total * self._chi(t), 0.0,
                              self._br_t, z)
        return float(zc[0])

    def _invert(self, y):
        """Root abscissae whose image coordinate is y, and an out-of-range mask.

        Solved by _chandrupatla on the bracket table (_br_t, _br_z), which
        _build_brackets computed with the same coordinate call: the table
        brackets each y and starts its solve, so no call lands on a node.
        A round of the coordinate map costs about 60 us on 64 points through
        one up step and 320 us through two, and the solver takes about a
        quarter of bisection's rounds. A y outside (_br_z[0], _br_z[-1]],
        infinite or NaN is out of range and lands on the nearest table end.
        """
        z = self._sigma_total * np.atleast_1d(np.asarray(y, dtype=float))
        bz = self._br_z
        lo, hi = _chandrupatla(lambda t: self._sigma_total * self._chi(t), z,
                               self._br_t, bz)
        return 0.5 * (lo + hi), ~((z > bz[0]) & (z <= bz[-1]))

    def inverse_map(self, y):
        """Base-coordinate abscissae whose image coordinate equals y."""
        t, oob = self._invert(y)
        return np.where(oob, np.nan, self.base._chi(t))

    # -- pdf callables --------------------------------------------------------

    def _state(self, y, needs):
        """The image pdf and its derivatives up to order needs at y, from one
        inversion and one push; 0 out of range and where not finite."""
        self._check_order(needs)
        t, oob = self._invert(y)
        return [np.where(oob | ~np.isfinite(v), 0.0, v) for v in self._push(t, needs)]

    def _cdf_img(self, y):
        t, _ = self._invert(y)  # out-of-range points land on the nearest edge
        r = self.root.cdf_at(t)
        return r if self._sigma_total > 0 else 1.0 - r

    # -- construction helpers ---------------------------------------------------

    def _image_support(self):
        u_lo, u_hi = self.u_support
        slo = math.isfinite(u_lo) and self._edge_limit("lo") == INF
        shi = math.isfinite(u_hi) and self._edge_limit("hi") == INF
        return Interval(u_lo, u_hi, singular_lo=slo, singular_hi=shi)

    def _image_cuts(self):
        pts = set(self.root.interior_points)
        pts.update(float(d.zc) for d in self._up_steps() if d.zc is not None)
        if not pts:
            return ()
        img = np.atleast_1d(self._chi(np.array(sorted(pts), dtype=float)))
        return tuple(float(v) for v in img if math.isfinite(v))

    def _probe(self):
        # the forward push and the bracket inversion must tell one story;
        # points next to an interior spike are excused, since the coordinate
        # map is locally flat there and pointwise inversion cannot resolve it
        tq = self.root._grid_quantiles(np.linspace(0.08, 0.92, 9))
        yq = self._chi(tq)
        want = np.asarray(self._push(tq, 0)[0], dtype=float)
        keep = np.isfinite(want) & (want > 0.0)
        cuts = np.asarray(self.interior_points, dtype=float)
        if cuts.size:
            gap = np.min(np.abs(yq[:, None] - cuts[None, :]), axis=1)
            keep &= gap > 1e-5 * (1.0 + np.abs(yq))
        if not keep.any():
            return
        got = self.pdf(yq[keep])
        rel = np.abs(got - want[keep]) / np.abs(want[keep])
        if not np.all(rel < 1e-6):
            raise AccuracyError(
                f"{self.label}: forward and inverted evaluations disagree")

    # -- overrides: work in root coordinates -----------------------------------

    def integral(self, fn, *, needs=0, tol=1e-10, extra_interior=(),
                 force_singular_edges=False):
        """Density.integral pulled back to root coordinates, cut at each up
        step's zc and at the root points of extra_interior. It ignores
        force_singular_edges: the root's finite edges are always peeled,
        as the pullback can blow up there where the root pdf does not."""
        self._check_order(needs)
        cuts = [d.zc for d in self._up_steps() if d.zc is not None]
        extra = np.asarray(tuple(extra_interior), dtype=float)
        if extra.size:
            tt, oob = self._invert(extra)
            cuts.extend(float(v) for v, bad in zip(tt, oob) if not bad)

        def g(t, fr):
            st = self._push(t, needs)
            h0 = np.asarray(st[0], dtype=float)
            vals = np.asarray(fn(self._chi(t), *st), dtype=float) * (fr / h0)
            # root.integral drops fr == 0 and non-finite values under 1e-160
            return np.where((h0 == 0.0) | ~np.isfinite(h0), 0.0, vals)

        return self.root.integral(g, needs=0, tol=tol, extra_interior=tuple(cuts),
                                  force_singular_edges=True)

    def quantile_many(self, levels):
        """Density.quantile_many read off the root's quantiles. Where the
        coordinate decreases a level v reads the root at 1 - v, good only to
        2**-53 absolute: 1e-16 is solved as 1.11e-16, and a v whose 1 - v
        rounds to 1 raises AccuracyError."""
        levels = np.atleast_1d(np.asarray(levels, dtype=float))
        rl = levels if self._sigma_total > 0 else 1.0 - levels
        lost = levels[rl == 1.0]
        # a level outside (0, 1), NaN included, is the root's DomainError
        if lost.size and np.all((levels > 0.0) & (levels < 1.0)):
            raise AccuracyError(f"{self.label}: quantile level {float(lost[0])!r} is lost "
                                "in 1 - level, which holds a level to 2**-53 absolute")
        return self._chi(self.root.quantile_many(rl))

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

    def __init__(self, base, alpha):
        self.alpha = float(alpha)
        super().__init__(base, self.alpha)
        v = [base.edge_value("lo"), base.edge_value("hi")]
        with np.errstate(divide="ignore", over="ignore"):
            self.u_support = tuple(sorted(_down_coord(np.log(v), self.alpha).tolist()))
        self._finish()

    def _chi(self, t):
        """Image coordinate at root abscissae t, read off the base pdf."""
        with np.errstate(all="ignore"):
            return _down_coord(np.log(self.base._push(t, 0)[0]), self.alpha)

    def _push(self, t, needs):
        """Pdf state up to order needs at root abscissae t; the base
        supplies one order more."""
        st = self.base._push(t, needs + 1)
        al = self.alpha
        f0 = st[0]
        with np.errstate(all="ignore"):
            logf = np.log(f0)
            f1 = st[1]
            lf1 = np.log(np.abs(f1))
            out = [np.exp(al * logf - lf1)]
            if needs >= 1:
                f2 = st[2]
                # quotient form: f0*f2 and f1**2 underflow separately deep in
                # a tail while the ratios stay well-scaled
                q01 = f0 / f1
                q21 = f2 / f1
                brak = al - q01 * q21
                out.append(-np.exp((2.0 * al - 2.0) * logf - lf1) * brak)
            if needs >= 2:
                f3 = st[3]
                brakp = -q21 - q01 * (f3 / f1) + 2.0 * q01 * q21 ** 2
                pref = np.exp((3.0 * al - 4.0) * logf)
                out.append(np.sign(f1) * pref
                           * ((2.0 * al - 2.0) * f1 * brak + f0 * brakp
                              - f0 * brak * q21) / f1 ** 2)
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

    W can be singular only at a finite support edge, at an interior point
    of the root and at the interior zero zc of chi, which the base reads
    off its bracket table (base._zero). The table is a numerics._CumTable
    on the root's node table and quantiles, whose infinite ends already
    reach the subnormal pdf; it lays a ladder toward each such point, on
    each side where the support continues. The image adds only the masses
    beyond the table ends: infinite where the condensation test finds the
    edge divergent, else the tail integral past an infinite end. A
    divergent finite edge, by that test or by its closure exponent, stays
    off the table with infinite mass beyond its ladder.
    """

    kind = "up"

    def __init__(self, base, alpha):
        self.alpha = float(alpha)
        super().__init__(base, self.alpha)
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
        cuts = root.interior_points + ((self.zc,) if self.zc is not None else ())
        ends = [(p, s) for p in cuts for s in (-1.0, 1.0)]
        ends += [(p, s) for p, s in ((lo, 1.0), (hi, -1.0)) if math.isfinite(p)]

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

    def _edge_limit(self, side):
        # the pdf is 1/w(v): exact at the base's edge v this side maps to
        toward_lo = (side == "lo") == (self._sigma_total > 0)
        b = self.base
        v = b.support.lo if toward_lo == (b._sigma_total > 0) else b.support.hi
        with np.errstate(divide="ignore"):
            return float(np.exp(-_log_weight(v, self.c)))

    def _chi(self, t):
        """Image coordinate at root abscissae t: one table read."""
        with np.errstate(all="ignore"):
            return self.sigma * (self.c_anchor - self.table(t))

    def _push(self, t, needs):
        """Pdf state up to order needs at root abscissae t; the base
        supplies its coordinate, and from needs = 1 its state to one order
        less. Its own table is not read."""
        wb = self.base._chi(t)
        st = self.base._push(t, needs - 1) if needs >= 1 else ()
        c = self.c
        with np.errstate(all="ignore"):
            # h0 = 1/w(wb); q = d log w / dv, 1 at c = 0
            h0 = np.exp(-_log_weight(wb, c))
            q = 1.0 if c == 0.0 else 1.0 / (c * wb)
            out = [h0]
            if needs >= 1:
                out.append(h0 * h0 * q / st[0])
            if needs >= 2:
                out.append(h0 ** 3 * q * ((2.0 + c) * q / st[0] ** 2 + st[1] / st[0] ** 3))
        return out


class _AffineImage(TransformedDensity):
    """The law of (X - shift)/scale when X has its base's law.

    The coordinate divides the base's and the pdf state of order k gains
    the factor |scale| * scale**k, so every derivative order of the base
    passes through. Over a root as over an image it inverts through the
    inherited bracket solve, whose table holds this step's own coordinate
    bit for bit.
    """

    kind = "affine"

    def __init__(self, base, scale, shift, label):
        if scale == 0.0 or not math.isfinite(scale) or not math.isfinite(shift):
            raise DomainError(f"affine map needs finite nonzero scale, got {scale}, {shift}")
        self.scale, self.shift = scale, shift
        super().__init__(base, (scale, shift))
        s = base.support
        self.u_support = tuple(sorted(((s.lo - shift) / scale, (s.hi - shift) / scale)))
        self._finish(label)

    def _chi(self, t):
        return (self.base._chi(t) - self.shift) / self.scale

    def _push(self, t, needs):
        a = abs(self.scale)
        return [a * self.scale ** k * v for k, v in enumerate(self.base._push(t, needs))]

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
    if f.order < 1:
        raise CapabilityError(f"down({f.label}): needs d1")
    sgn = f.strict_monotone_sign()
    if sgn is None:
        raise PreconditionError(f"down({f.label}): pdf must be strictly monotone")
    edge = f.support.lo if sgn < 0 else f.support.hi
    if not math.isfinite(edge):
        raise PreconditionError(
            f"down({f.label}): the support edge under the pdf supremum"
            f" must be finite")
    return _DownImage(f, alpha)


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
    if f.order < 2:
        raise CapabilityError(f"down_applicable({f.label}): needs d1 and d2")
    r = curvature_ratio(f, f.quantiles(128))
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
    for i, (kind, alpha) in enumerate(ops):
        try:
            if kind == "down":
                if prev == "down":
                    ok, sup = down_applicable(g, alpha)
                    if not ok:
                        raise PreconditionError(
                            f"alpha={alpha:g} does not clear the curvature"
                            f" supremum {sup:g}")
                g = down(g, alpha)
            elif kind == "up":
                g = up(g, alpha)
            else:
                raise DomainError(f"unknown transform kind {kind!r}")
        except TransformChainError:
            raise
        except (DomainError, PreconditionError, CapabilityError) as e:
            raise TransformChainError(i, str(e)) from e
        prev = kind
    return g


def _rigid_fit(raw, target, y):
    """Best rigid placement of raw onto target, judged at target abscissae y.

    A down step forgets location and orientation but not scale, so the
    candidates are the scales +1 and -1, each with the shifts that match
    a finite support edge and the one that matches medians. Returns
    (deviation, scale, shift): raw.reseat(scale, shift), an affine step
    on raw, is the placed copy and deviation its largest absolute pdf gap
    from target at y.
    """
    ts, rs = target.support, raw.support
    med = target.median(), raw.median()
    cands = []
    for scale in (1.0, -1.0):
        # raw edges in the order they land on target after the orientation
        lo, hi = (rs.lo, rs.hi) if scale > 0 else (-rs.hi, -rs.lo)
        cands += [(scale, t - r) for t, r in ((ts.lo, lo), (ts.hi, hi))
                  if math.isfinite(t) and math.isfinite(r)]
        cands.append((scale, med[0] - scale * med[1]))
    # one pdf call for all candidates: each image query pays a full
    # bracket inversion
    pts = np.concatenate([(y - b) / scale for scale, b in cands])
    gaps = np.max(np.abs(raw.pdf_at(pts).reshape(len(cands), -1)
                         - target.pdf_at(y)), axis=1)
    i = int(np.argmin(gaps))
    return float(gaps[i]), *cands[i]


def verify_inversion(f, alpha):
    """Max pdf deviation of up(down(f, alpha), alpha) from f at 16 quantiles,
    after aligning supports by translation or reflection."""
    return _rigid_fit(up(down(f, alpha), alpha), f, f.quantiles(16))[0]


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
