"""Density images under the down and up changes of variable.

The down map sends a strictly monotone density f through the canonical
coordinate s = f**(2-alpha)/(alpha-2) (s = -log f at alpha = 2) and carries
the pdf to f**alpha/|f'|; it consumes one derivative order. The up map
integrates the weight |(alpha-2)v|**(1/(alpha-2)) (e**v at alpha = 2)
against f from an anchor and reads the image pdf off the inverse
coordinate; it restores one order. Both maps preserve mass exactly, so a
transformed density evaluates every expectation by pulling the integrand
back to the root density's coordinates, where the quadrature cuts are
already understood. Image-space pdf queries go through an eagerly built
monotone bracket table and numerics._chandrupatla, an interpolating
bracketed solver: each of its rounds pushes a batch through the layer
stack, so it pays to spend a little bookkeeping on fewer rounds.
"""

import copy
import functools
import math

import numpy as np

from .densities import Density, _condensation_diverges, rescale
from .errors import (AccuracyError, CapabilityError, DomainError,
                     PreconditionError, TransformChainError)
from .numerics import INF, Interval, _chandrupatla, _gk, _refine_panels, integrate


def _forward(root, layers, x, needs):
    """Image coordinate and pdf-state tuple after the full layer stack.

    needs = -1 asks for the coordinate alone. A down layer consumes one
    derivative order of its base, an up layer supplies one.
    """
    orders = [0] * len(layers)
    req = needs
    for j in reversed(range(len(layers))):
        orders[j] = req
        if layers[j].kind == "down":
            req = req + 1 if req >= 0 else 0
        else:
            req = max(req - 1, -1)
    rx = np.asarray(x, dtype=float)
    state = tuple(root._state(rx, max(req, 0)))
    coord = rx
    with np.errstate(all="ignore"):
        for j, layer in enumerate(layers):
            coord, state = layer.push(rx, coord, state, orders[j])
    return coord, state


class _DownLayer:
    kind = "down"

    def __init__(self, alpha):
        self.alpha = float(alpha)

    def push(self, rx, coord, state, order):
        al = self.alpha
        f0 = state[0]
        with np.errstate(all="ignore"):
            logf = np.log(f0)
            s = -logf if al == 2.0 else np.exp((2.0 - al) * logf) / (al - 2.0)
            if order < 0:
                return s, ()
            f1 = state[1]
            lf1 = np.log(np.abs(f1))
            out = [np.exp(al * logf - lf1)]
            if order >= 1:
                f2 = state[2]
                # quotient form: f0*f2 and f1**2 underflow separately deep in
                # a tail while the ratios stay well-scaled
                q01 = f0 / f1
                q21 = f2 / f1
                brak = al - q01 * q21
                out.append(-np.exp((2.0 * al - 2.0) * logf - lf1) * brak)
            if order >= 2:
                f3 = state[3]
                brakp = -q21 - q01 * (f3 / f1) + 2.0 * q01 * q21 ** 2
                pref = np.exp((3.0 * al - 4.0) * logf)
                out.append(np.sign(f1) * pref
                           * ((2.0 * al - 2.0) * f1 * brak + f0 * brakp
                              - f0 * brak * q21) / f1 ** 2)
        return s, tuple(out)


def _log_weight(v, c):
    """log |c v|**(1/c), the up weight at coordinate v (v itself at c = 0)."""
    return v if c == 0.0 else (math.log(abs(c)) + np.log(np.abs(v))) / c


class _UpLayer:
    """Holds the cumulative weight table that realizes one up step.

    Everything is tabulated in root abscissae: the new coordinate is
    u(t) = sigma * (C(anchor) - C(t)) with C the running integral of
    W(t) = weight(chi(t)) * f_root(t), where chi is the coordinate map of
    the preceding layers and sigma its orientation.

    W can be singular only at a finite support edge and at the interior
    zero zc of chi. Toward each such point, on each side where the support
    continues, the table carries a ratio-2 ladder of nodes: up to 80 rungs,
    stopping 64 ulp short of the point. The stub under the innermost rung
    (distance dK from the point) is closed with the power law
    W ~ w1 (d/dK)**(gam-1) through the two innermost rungs, so it holds
    mass w1 dK/gam, divergent when gam <= 0. A convergent point is a table
    node and its stub panel carries that mass. A divergent edge (by the
    closure exponent or the condensation test) stays off the table with
    infinite mass beyond the ladder. Either way, C at a point inside a stub
    is the closed form of the same power law.
    """

    kind = "up"

    def __init__(self, root, prefix, alpha):
        self.alpha = float(alpha)
        self.c = self.alpha - 2.0
        self._root = root
        self._prefix = tuple(prefix)
        self._locate_zero()
        self._build_table()
        self._set_anchor()

    # -- weight in root coordinates -----------------------------------------

    def _chi(self, t):
        coord, _ = _forward(self._root, self._prefix, np.asarray(t, dtype=float), -1)
        return np.asarray(coord, dtype=float)

    def _logw(self, t):
        return _log_weight(self._chi(t), self.c)

    def _w_root(self, t):
        t = np.asarray(t, dtype=float)
        fr = self._root.pdf(t)
        with np.errstate(all="ignore"):
            # the weight and the pdf can over/underflow separately; sum logs
            y = np.exp(self._logw(t) + np.log(fr))
        return np.where((fr > 0.0) & np.isfinite(y), y, 0.0)

    # -- construction ---------------------------------------------------------

    def _locate_zero(self):
        self.zc = None
        if self.c == 0.0:
            return
        root = self._root
        grid = root._node_table()[0]
        cg = self._chi(grid)
        good = np.isfinite(cg)
        grid, cg = grid[good], cg[good]
        # a coordinate heading to zero at a support edge saturates in float
        # and oscillates at table-roundoff size; only flips between points
        # clear of that floor witness a genuine interior crossing
        floor = 1e-12 * float(np.max(np.abs(cg), initial=0.0))
        big = np.abs(cg) > floor
        grid, cg = grid[big], cg[big]
        sg = np.sign(cg)
        flip = np.nonzero(sg[:-1] * sg[1:] < 0.0)[0]
        if flip.size:
            i = int(flip[0])
            # close on adjacent floats or an exact zero: the ladders toward
            # zc resolve the weight that finely. Each round pushes through
            # the prefix stack, so the interpolating solver's few rounds pay
            _, zc = _chandrupatla(lambda t: -sg[i] * self._chi(t), 0.0,
                                  grid[i:i + 1], grid[i + 1:i + 2])
            self.zc = float(zc[0])
            if -1.0 <= self.c < 0.0:
                raise PreconditionError(
                    f"up(alpha={self.alpha:g}): the coordinate weight is not "
                    f"integrable across the interior zero at {self.zc:.6g}")

    def _stretch(self, anchor_pt, start, direction, deep):
        # geometric ladder away from the bulk; when the far tail carries
        # divergent weight mass, walk until the root pdf underflows so the
        # u coordinate stays computable wherever any mass remains. The walk
        # stops at the first subnormal pdf: its relative rounding error
        # (1e-11 near 3e-313) keeps panels there from ever meeting the
        # table's relative bound
        w = max(abs(start - anchor_pt), 1.0)
        top = 400 if deep else 10
        out = []
        for k in range(1, top + 1):
            v = anchor_pt + direction * w * 4.0 ** k
            if abs(v) > 1e290:
                break
            out.append(v)
            if self._root.pdf(np.array([v]))[0] < np.finfo(float).tiny:
                break
        return np.asarray(out, dtype=float)

    def _ladders(self, ts):
        """Rungs toward each singular point and the closure of each stub.

        Returns the rung abscissae and one row (point, direction, w1, gam,
        dK) per stub, direction pointing from the point into the support.
        """
        lo, hi = self._root.support.lo, self._root.support.hi
        ends = [(lo, 1.0)] if math.isfinite(lo) else []
        if math.isfinite(hi):
            ends.append((hi, -1.0))
        if self.zc is not None:
            ends += [(self.zc, -1.0), (self.zc, 1.0)]
        rungs, rows = [], []
        for p, s in ends:
            # start at the nearest node beyond which the table is already
            # graded (next node within ratio 2), so that no coarse panel is
            # left between the ladder and the bulk
            d = np.sort(s * (ts - p))
            d = d[d > 0.0]
            graded = np.nonzero(d[1:] <= 2.0 * d[:-1])[0]
            d0 = d[graded[0]] if graded.size else d[-1]
            # rung 0 is that node itself and is always kept
            ds = d0 * 0.5 ** np.arange(81.0)
            ds = ds[:max(1, np.count_nonzero(ds >= 64.0 * np.spacing(abs(p))))]
            rungs.append(p + s * ds)
            rows.append((p, s, abs(rungs[-1][-1] - p)))
        if not rows:
            return np.empty(0), np.empty((0, 5))
        p, s, dk = (np.array(v) for v in zip(*rows))
        w1, w2 = self._w_root(np.concatenate([p + s * dk, p + 2.0 * s * dk])) \
            .reshape(2, -1)
        ok = (w1 > 0.0) & (w2 > 0.0)
        with np.errstate(all="ignore"):
            gam = np.where(ok, 1.0 + np.log2(w2 / w1), 1.0)
        return np.concatenate(rungs), np.column_stack(
            [p, s, np.where(ok, w1, 0.0), gam, dk])

    def _build_table(self):
        root = self._root
        lo, hi = root.support.lo, root.support.hi
        xs = root._node_table()[0]
        ch = self._chi(root.quantile_many(np.array([0.3, 0.7])))
        self.sigma = 1.0 if ch[1] > ch[0] else -1.0
        # reseating flips sigma away from the chi orientation; push needs the
        # original to sign the odd derivative correctly
        self._sign_chi = self.sigma

        parts = [xs, root.quantile_many((np.arange(129) + 0.5) / 129.0)]
        div_lo = _condensation_diverges(root, "lo", self._logw)
        div_hi = _condensation_diverges(root, "hi", self._logw)
        if not math.isfinite(hi):
            parts.append(self._stretch(lo if math.isfinite(lo) else 0.0,
                                       float(xs[-1]), 1.0, div_hi))
        if not math.isfinite(lo):
            parts.append(self._stretch(hi if math.isfinite(hi) else 0.0,
                                       float(xs[0]), -1.0, div_lo))
        ts = np.unique(np.concatenate([p for p in parts if len(p)]))
        ts = ts[(ts >= lo) & (ts <= hi)]
        rungs, stubs = self._ladders(ts)
        p, s, w1, gam, dk = stubs.T
        ts = np.unique(np.concatenate(
            [ts, rungs] + ([[self.zc]] if self.zc is not None else [])))
        # nodes closer to a point than its innermost rung fall in the stub
        x = (ts[:, None] - p) * s
        ts = ts[~np.any((x > 0.0) & (x < dk), axis=1)]

        # a finite edge whose weight mass diverges stays off the table; the
        # stub beyond its innermost rung has the closure's unbounded mass
        self.mass_lo = self.mass_hi = 0.0
        if math.isfinite(lo) and (div_lo or np.any(gam[p == lo] <= 0.0)):
            ts, self.mass_lo = ts[1:], INF
        if math.isfinite(hi) and (div_hi or np.any(gam[p == hi] <= 0.0)):
            ts, self.mass_hi = ts[:-1], INF
        self.ts = ts
        # table panel holding each stub; -1 and len(ts) - 1 stand for the
        # stretches below and above the table (divergent edges)
        panel = np.searchsorted(ts, p + 0.5 * s * dk, side="right") - 1
        conv = (panel >= 0) & (panel < len(ts) - 1)

        a, b = ts[:-1], ts[1:]
        with np.errstate(all="ignore"):
            masses, errs = _gk(self._w_root, a, b)
        refine = errs > 1e-15 + 1e-11 * np.abs(masses)
        cut_lo, cut_hi = (np.isin(e, root.interior_points) for e in (a, b))
        refine |= cut_lo | cut_hi
        masses[panel[conv]] = (w1 * dk / gam)[conv]
        refine[panel[conv]] = False
        # panels at a cut point keep integrate's peel; the rest refine to a
        # bound relative to their mass, which reaches 1e160 at divergent edges
        for i in np.nonzero(refine & (cut_lo | cut_hi))[0]:
            sub = Interval(a[i], b[i], bool(cut_lo[i]), bool(cut_hi[i]))
            masses[i] = integrate(self._w_root, sub, tol=1e-13).value
        j = refine & ~(cut_lo | cut_hi)
        masses[j] = _refine_panels(self._w_root, a[j], b[j], 1e-13, 1e-13, (masses[j], errs[j]))
        if not masses.any():
            raise AccuracyError(
                f"up(alpha={self.alpha!r}): the weight underflows to 0 on "
                f"every table panel of {root.label}")

        def tail(iv):
            r = integrate(self._w_root, iv, tol=1e-13)
            return r.value if r.converged and math.isfinite(r.value) else INF

        if not math.isfinite(hi):
            self.mass_hi = INF if div_hi else tail(Interval(float(ts[-1]), INF))
        if not math.isfinite(lo):
            self.mass_lo = INF if div_lo else tail(Interval(-INF, float(ts[0])))

        # partial sums pivoted at the node nearest the bulk: with a divergent
        # edge in play the one-sided running total grows enormous, and image
        # coordinates near the anchor would then be differences of giants,
        # rounded to the giants' ulp
        ip = int(np.clip(np.searchsorted(ts, float(root.median())),
                         0, len(masses)))
        left = (-np.cumsum(masses[:ip][::-1])[::-1]) if ip else np.empty(0)
        self.cums = np.concatenate([left, [0.0], np.cumsum(masses[ip:])])
        # per stub: point, direction, w1 dK, gam, dK and C at the rung
        self._stubs = np.column_stack(
            [p, s, w1 * dk, gam, dk, self.cums[panel + (s > 0)]])
        self._stub_at = np.full(len(ts) + 1, -1)
        self._stub_at[panel + 1] = np.arange(len(p))

    def _set_anchor(self):
        c_lo = float(self.cums[0]) - self.mass_lo
        c_hi = float(self.cums[-1]) + self.mass_hi
        want = c_hi if self.sigma > 0 else c_lo
        if math.isfinite(want):
            self.anchor_mode = "canonical"
            self.c_anchor = want
        else:
            self.anchor_mode = "median"
            self.c_anchor = float(self._cum_at(self._root.median())[0])
        u_lo = self.sigma * (self.c_anchor - (c_hi if self.sigma > 0 else c_lo))
        u_hi = self.sigma * (self.c_anchor - (c_lo if self.sigma > 0 else c_hi))
        self.u_support = (float(u_lo), float(u_hi))

    # -- evaluation -----------------------------------------------------------

    def _cum_at(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        ts, cums = self.ts, self.cums
        i = np.searchsorted(ts, t, side="right") - 1
        out = cums[np.clip(i, 0, len(ts) - 1)]
        out[t < ts[0]] = cums[0] - self.mass_lo
        out[t > ts[-1]] = cums[-1] + self.mass_hi
        k = self._stub_at[i + 1]
        stub = k >= 0
        if stub.any():
            p, s, w1dk, gam, dk, c_rung = self._stubs[k[stub]].T
            with np.errstate(all="ignore"):
                lx = np.log(s * (t[stub] - p) / dk)
                # mass between the point at d and the rung at dK
                part = np.where(gam == 0.0, -lx, -np.expm1(gam * lx)
                                / np.where(gam == 0.0, 1.0, gam)) * w1dk
            # at or beyond the point itself the values above stand
            ok = lx > -INF
            stub[stub] = ok
            out[stub] = (c_rung - s * part)[ok]
        ic = np.clip(i, 0, len(ts) - 2)
        pending = (i == ic) & (t > ts[ic]) & ~stub
        if pending.any():
            vals, _ = _gk(self._w_root, ts[i[pending]], t[pending])
            out[pending] += vals
        return out

    def u_eval(self, t):
        return self.sigma * (self.c_anchor - self._cum_at(t))

    def push(self, rx, coord, state, order):
        u = self.u_eval(rx)
        if order < 0:
            return u, ()
        wb = coord
        c = self.c
        # odd derivatives are odd under a coordinate reflection; flip is -1
        # exactly when a reseat reversed the image orientation
        flip = self.sigma * self._sign_chi
        with np.errstate(all="ignore"):
            if c == 0.0:
                h0 = np.exp(-wb)
                out = [h0]
                if order >= 1:
                    f0 = state[0]
                    out.append(flip * np.exp(-2.0 * wb) / f0)
                if order >= 2:
                    f0, f1 = state[0], state[1]
                    out.append(np.exp(-3.0 * wb) * (2.0 / f0 ** 2 + f1 / f0 ** 3))
            else:
                h0 = np.exp(-(math.log(abs(c)) + np.log(np.abs(wb))) / c)
                out = [h0]
                if order >= 1:
                    f0 = state[0]
                    t1 = c * wb * f0
                    out.append(flip * h0 * h0 / t1)
                if order >= 2:
                    f1 = state[1]
                    out.append(h0 ** 3 * ((2.0 + c) / t1 ** 2
                                          + f1 / (t1 * f0 ** 2)))
        return u, tuple(out)


def _down_coord_limit(v, alpha):
    """Limit of the down coordinate as the pdf tends to the edge value v."""
    if alpha == 2.0:
        if v == 0.0:
            return INF
        return -INF if v == INF else -math.log(v)
    c = alpha - 2.0
    if v == 0.0:
        return INF if c > 0 else 0.0
    if v == INF:
        return 0.0 if c > 0 else -INF
    return v ** -c / c


class TransformedDensity(Density):
    """A density produced by a stack of down/up layers over a root density.

    The forward map and the image pdf state are closed-form pushes through
    the layers, so all quadrature happens in the root's coordinates. The
    exposed fields are base (the immediate input density), root, kind and
    alpha of the last layer, and chain, the full (kind, alpha) provenance.
    """

    def __init__(self, base, kind, alpha):
        alpha = float(alpha)
        if isinstance(base, TransformedDensity):
            root, prefix, prov = base.root, base._layers, base.chain
        else:
            root, prefix, prov = base, (), ()
        self.base = base
        self.root = root
        self.kind = kind
        self.alpha = alpha
        layer = _DownLayer(alpha) if kind == "down" else _UpLayer(root, prefix, alpha)
        self._layers = prefix + (layer,)
        self.chain = prov + ((kind, alpha),)
        o = root.order
        for ly in self._layers:
            o = min(o - 1, 2) if ly.kind == "down" else min(o + 1, 2)
        self._img_order = max(o, 0)
        self._finish(f"{kind}({base.label},{alpha:g})")

    def _finish(self, label):
        """Brackets, image support and Density fields for the layer stack."""
        self._build_brackets()
        img = [functools.partial(self._img, order=k) for k in range(3)]
        super().__init__(img[0], self._image_support(self._layers[-1]),
                         d1=img[1] if self._img_order >= 1 else None,
                         d2=img[2] if self._img_order >= 2 else None,
                         label=label,
                         interior_points=self._image_cuts(),
                         cdf=self._cdf_img,
                         normalization_tol=None)
        self._probe()

    # -- coordinate map -------------------------------------------------------

    def _chi(self, t):
        coord, _ = _forward(self.root, self._layers, np.asarray(t, dtype=float), -1)
        return np.asarray(coord, dtype=float)

    def _build_brackets(self):
        root = self.root
        lo, hi = root.support.lo, root.support.hi
        parts = [root._node_table()[0],
                 root.quantile_many((np.arange(257) + 0.5) / 257.0)]
        for ly in self._layers:
            if ly.kind == "up":
                parts.append(ly.ts)
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

    def _invert(self, y):
        """Root abscissae whose image coordinate is y, and an out-of-range mask.

        Solved by _chandrupatla inside the bracket table, not _bisect: a
        round of the coordinate map costs 140-730 us on 64 points through
        one or two layers, against about 90 us of that solver's bookkeeping,
        and it takes about a quarter of the rounds. An out-of-range y lands
        on the nearest bracket-table end.
        """
        y = np.atleast_1d(np.asarray(y, dtype=float))
        z = self._sigma_total * y
        bz, bt = self._br_z, self._br_t
        idx = np.searchsorted(bz, z)
        oob = (idx <= 0) | (idx >= len(bz)) | ~np.isfinite(z)
        idc = np.clip(idx, 1, len(bz) - 1)
        lo, hi = _chandrupatla(lambda t: self._sigma_total * self._chi(t), z,
                               bt[idc - 1], bt[idc])
        return 0.5 * (lo + hi), oob

    def inverse_map(self, y):
        """Base-coordinate abscissae whose image coordinate equals y."""
        t, oob = self._invert(y)
        if len(self._layers) > 1:
            t, _ = _forward(self.root, self._layers[:-1], t, -1)
        return np.where(oob, np.nan, np.asarray(t, dtype=float))

    # -- pdf callables --------------------------------------------------------

    def _img(self, y, order):
        """Image pdf (order 0) or its derivative of the given order."""
        t, oob = self._invert(y)
        _, st = _forward(self.root, self._layers, t, order)
        v = np.asarray(st[order], dtype=float)
        return np.where(oob | ~np.isfinite(v), 0.0, v)

    def _cdf_img(self, y):
        t, _ = self._invert(y)  # out-of-range points land on the nearest edge
        r = self.root.cdf_at(t)
        return r if self._sigma_total > 0 else 1.0 - r

    # -- construction helpers ---------------------------------------------------

    def _image_support(self, layer):
        if layer.kind == "up":
            u_lo, u_hi = layer.u_support
        else:
            sa = _down_coord_limit(self.base.edge_value("lo"), layer.alpha)
            sb = _down_coord_limit(self.base.edge_value("hi"), layer.alpha)
            u_lo, u_hi = min(sa, sb), max(sa, sb)
        slo = math.isfinite(u_lo) and self._edge_singular("lo")
        shi = math.isfinite(u_hi) and self._edge_singular("hi")
        return Interval(u_lo, u_hi, singular_lo=slo, singular_hi=shi)

    def _edge_singular(self, side):
        toward_lo = (side == "lo") == (self._sigma_total > 0)
        lv = 2.0 ** -np.arange(6.0, 35.0)
        levels = lv if toward_lo else 1.0 - lv
        t = self.root.quantile_many(levels)
        _, st = _forward(self.root, self._layers, t, 0)
        h = np.asarray(st[0], dtype=float)
        if np.any(np.isposinf(h)):
            return True
        h = h[np.isfinite(h)]
        if h.size < 10:
            return False
        tail = h[-10:]
        return bool(np.all(np.diff(tail) > 0.0) and tail[-1] > 10.0 * tail[0])

    def _image_cuts(self):
        pts = set(self.root.interior_points)
        for ly in self._layers:
            if ly.kind == "up" and ly.zc is not None:
                pts.add(float(ly.zc))
        if not pts:
            return ()
        img = np.atleast_1d(self._chi(np.array(sorted(pts), dtype=float)))
        return tuple(float(v) for v in img if math.isfinite(v))

    def _probe(self):
        # the forward push and the bracket inversion must tell one story;
        # points next to an interior spike are excused, since the coordinate
        # map is locally flat there and pointwise inversion cannot resolve it
        tq = self.root.quantile_many(np.linspace(0.08, 0.92, 9))
        yq = self._chi(tq)
        _, st = _forward(self.root, self._layers, tq, 0)
        want = np.asarray(st[0], dtype=float)
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

    def integral(self, fn, *, needs=0, tol=1e-10, rtol=3e-8, extra_interior=(),
                 force_singular_edges=False):
        if needs > self._img_order:
            raise CapabilityError(
                f"{self.label}: derivative order {needs} requested,"
                f" have {self._img_order}")
        root, layers = self.root, self._layers
        cuts = [ly.zc for ly in layers if ly.kind == "up" and ly.zc is not None]
        extra = np.asarray(tuple(extra_interior), dtype=float)
        if extra.size:
            tt, oob = self._invert(extra)
            cuts.extend(float(v) for v, bad in zip(tt, oob) if not bad)

        def g(t, fr):
            coord, st = _forward(root, layers, t, needs)
            h0 = np.asarray(st[0], dtype=float)
            with np.errstate(all="ignore"):
                vals = np.asarray(fn(coord, *st), dtype=float) * (fr / h0)
            drop = (fr == 0.0) | (h0 == 0.0) | ~np.isfinite(h0) \
                | (~np.isfinite(vals) & (fr < 1e-160))
            return np.where(drop, 0.0, vals)

        return root.integral(g, needs=0, tol=tol, rtol=rtol,
                             extra_interior=tuple(cuts),
                             force_singular_edges=True)

    def quantile_many(self, levels):
        levels = np.atleast_1d(np.asarray(levels, dtype=float))
        if np.any((levels <= 0.0) | (levels >= 1.0)):
            raise DomainError("quantile levels must be inside (0, 1)")
        rl = levels if self._sigma_total > 0 else 1.0 - levels
        return self._chi(self.root.quantile_many(rl))

    def reseat(self, scale, shift):
        """Same transform stack with the image coordinate sent to
        scale * u + shift.

        An up anchor is a free constant, so the remap is absorbed into the
        top layer's orientation sign and anchor value and evaluation stays
        on the forward-push path; wrapping in a generic affine view instead
        would force every pdf query through bracket inversion, which is
        ruinous for stacked transforms. A down coordinate has no free
        constant, and |scale| != 1 would rescale the tabulated weight
        masses, so both are rejected.
        """
        scale, shift = float(scale), float(shift)
        if scale not in (1.0, -1.0):
            raise DomainError(f"reseat scale must be +1 or -1, got {scale:g}")
        old = self._layers[-1]
        if old.kind != "up":
            raise CapabilityError(
                f"{self.label}: only an up image can be reseated")
        top = copy.copy(old)
        top.sigma = scale * old.sigma
        top.c_anchor = old.c_anchor + top.sigma * shift
        a, b = old.u_support
        top.u_support = (a + shift, b + shift) if scale > 0 else \
            (shift - b, shift - a)
        out = object.__new__(TransformedDensity)
        out.base = self.base
        out.root = self.root
        out.kind = self.kind
        out.alpha = self.alpha
        out._layers = self._layers[:-1] + (top,)
        out.chain = self.chain
        out._img_order = self._img_order
        out._finish(f"reseat({self.label})")
        return out


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
    return TransformedDensity(f, "down", alpha)


def up(f, alpha):
    """Up image of a density; always defined except across an interior
    zero of the coordinate with a non-integrable weight."""
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise DomainError(f"up needs finite alpha, got {alpha}")
    return TransformedDensity(f, "up", alpha)


def down_applicable(f, alpha, n_grid=128):
    """Whether alpha clears the curvature-ratio supremum of f.

    Returns (flag, sup) where sup estimates sup f f''/f'^2 on a quantile
    grid. The flag also requires strict monotonicity, since that is what a
    further down step needs.
    """
    alpha = float(alpha)
    if f.order < 2:
        raise CapabilityError(f"down_applicable({f.label}): needs d1 and d2")
    x = f.quantiles(n_grid)
    f0, f1, f2 = (np.asarray(v, dtype=float) for v in f._state(x, 2))
    with np.errstate(all="ignore"):
        r = (f0 / f1) * (f2 / f1)
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

    The candidates are both orientations, each with the shifts that match
    a finite support edge and the one that matches medians. Returns
    (deviation, scale, shift): raw.reseat(scale, shift) is the placed copy
    and deviation its largest absolute pdf gap from target at y.
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


def verify_inversion(f, alpha, n_points=16):
    """Max pdf deviation of up(down(f, alpha), alpha) from f at quantiles,
    after aligning supports by translation or reflection."""
    return _rigid_fit(up(down(f, alpha), alpha), f, f.quantiles(n_points))[0]


def _rel_dev(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300)))


def verify_scaling(f, alpha, kappa, n_points=16):
    """Max relative deviation from the rescaling transport laws.

    Checks the down law at each alpha (the additive shift law at alpha = 2)
    and the up law when alpha != 2; f must satisfy the down preconditions.
    """
    alpha = float(alpha)
    kappa = float(kappa)
    fk = rescale(f, kappa)
    lv = (np.arange(n_points) + 0.5) / n_points
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
