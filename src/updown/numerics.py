"""Self-contained numerical kernels.

Adaptive Gauss-Kronrod 15(7) quadrature over extended-real intervals with
geometric peeling toward singular endpoints. Everything is deterministic:
fixed node tables, fixed budgets, no RNG, so repeated runs produce identical
bytes.
"""

import heapq
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, IntegrandError

INF = math.inf
_EPS = float(np.finfo(float).eps)

# 15-point Kronrod abscissae on (-1, 1); odd indices are the embedded Gauss-7.
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])


@dataclass(frozen=True)
class Interval:
    """Extended-real open interval with singular-endpoint flags.

    Singular flags are only meaningful on finite endpoints (an infinite end is
    always handled by substitution); lo must be strictly below hi.
    """

    lo: float
    hi: float
    singular_lo: bool = False
    singular_hi: bool = False

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise DomainError("interval endpoint is NaN")
        if not self.lo < self.hi:
            raise DomainError(f"empty interval [{self.lo}, {self.hi}]")
        if self.singular_lo and not math.isfinite(self.lo):
            raise DomainError("singular flag on infinite lower endpoint")
        if self.singular_hi and not math.isfinite(self.hi):
            raise DomainError("singular flag on infinite upper endpoint")

    @property
    def bounded(self):
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    def contains(self, x):
        return (self.lo < x) & (x < self.hi)


class QuadResult(NamedTuple):
    value: float
    abs_error_estimate: float
    converged: bool


def _as_interval(iv):
    if isinstance(iv, Interval):
        return iv
    lo, hi = iv
    return Interval(lo, hi)


def _gk(f, a, b):
    """Kronrod values and QUADPACK-style errors for a batch of panels."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    x = mid[:, None] + half[:, None] * _XK[None, :]
    y = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    if np.isnan(y).any():
        i, j = np.argwhere(np.isnan(y))[0]
        raise IntegrandError(f"integrand returned NaN at x={x[i, j]!r}")
    ik = half * (y * _WK).sum(axis=1)
    ig = half * (y[:, 1::2] * _WG).sum(axis=1)
    with np.errstate(invalid="ignore", over="ignore"):
        mean = ik / (b - a)
        resasc = half * (np.abs(y - mean[:, None]) * _WK).sum(axis=1)
        diff = np.abs(ik - ig)
        err = np.where(
            resasc > 0.0,
            resasc * np.minimum(1.0, (200.0 * diff / np.where(resasc > 0, resasc, 1.0)) ** 1.5),
            diff,
        )
    return ik, err


class _Piece:
    """One finite integration piece in (possibly transformed) coordinates."""

    __slots__ = ("g", "a", "b", "sing_lo", "sing_hi")

    def __init__(self, g, a, b, sing_lo, sing_hi):
        self.g = g
        self.a = a
        self.b = b
        self.sing_lo = sing_lo
        self.sing_hi = sing_hi


def _nan_guard(f, xmap):
    """Wrap f(xmap(t)); non-finite abscissae give 0, NaN values raise."""

    def g(t):
        x, jac = xmap(t)
        ok = np.isfinite(x)
        y = np.zeros_like(x)
        if ok.any():
            yi = np.asarray(f(x[ok]), dtype=float)
            if np.isnan(yi).any():
                bad = x[ok][np.isnan(yi)][0]
                raise IntegrandError(f"integrand returned NaN at x={bad!r}")
            y[ok] = yi
        return y * jac

    return g


def _wrap_right_inf(f, a):
    # x = a - 1 + 1/s maps s in (0,1) -> (a, inf); infinity sits at s = 0,
    # where float spacing is dense enough for the geometric peel.
    def xmap(s):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            x = (a - 1.0) + 1.0 / s
            jac = 1.0 / s**2
        return x, jac

    return _nan_guard(f, xmap)


def _wrap_left_inf(f, b):
    # x = b + 1 - 1/s maps s in (0,1) -> (-inf, b)
    def xmap(s):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            x = (b + 1.0) - 1.0 / s
            jac = 1.0 / s**2
        return x, jac

    return _nan_guard(f, xmap)


def _pieces(f, iv, interior):
    """Cut the interval at interior points; map infinite ends onto (0, 1)."""
    pts = sorted({float(p) for p in interior if iv.lo < p < iv.hi})
    edges = [iv.lo] + pts + [iv.hi]
    pieces = []
    for i in range(len(edges) - 1):
        a, b = edges[i], edges[i + 1]
        # interior cut points are treated as potentially singular on both sides
        s_lo = iv.singular_lo if i == 0 else True
        s_hi = iv.singular_hi if i == len(edges) - 2 else True
        if a == -INF and b == INF:
            pieces.append(_Piece(_wrap_left_inf(f, 0.0), 0.0, 1.0, True, False))
            pieces.append(_Piece(_wrap_right_inf(f, 0.0), 0.0, 1.0, True, False))
        elif b == INF:
            pieces.append(_Piece(_wrap_right_inf(f, a), 0.0, 1.0, True, s_lo))
        elif a == -INF:
            pieces.append(_Piece(_wrap_left_inf(f, b), 0.0, 1.0, True, s_hi))
        else:
            def direct(x, _f=f):
                y = np.asarray(_f(np.asarray(x, dtype=float)), dtype=float)
                if np.isnan(y).any():
                    bad = np.asarray(x, dtype=float)[np.isnan(y)][0]
                    raise IntegrandError(f"integrand returned NaN at x={bad!r}")
                return y
            pieces.append(_Piece(direct, a, b, s_lo, s_hi))
    return pieces


def _peel(g, edge, other, tol):
    """Geometric panels (ratio 1/2) from `other` toward a singular `edge`.

    Returns seed panels for adaptive refinement plus an extrapolated value
    and error charge for the unreachable stub next to the edge. Panel
    contributions of an integrable power singularity decay geometrically, so
    the stub is summed by its measured ratio; a ratio near 1 signals a
    non-integrable edge and is reported as a large error charge instead.
    """
    span = other - edge
    # Width floor balances abscissa quantization against extrapolation model
    # error: nodes near a nonzero edge are snapped to the ulp(edge) grid, so
    # stopping around width ~ 3e-8 * |edge| keeps both effects near 1e-10.
    # An edge at exactly 0 peels to full depth (floats are dense there).
    floor = max(3e-8 * abs(edge), 1e-300)
    kmax = 0
    while kmax < 64 and abs(span) * 0.5 ** (kmax + 1) >= floor:
        kmax += 1
    if kmax < 2:
        val, err = _gk(g, [min(edge, other)], [max(edge, other)])
        return [(min(edge, other), max(edge, other), val[0], err[0])], 0.0, float(err[0])
    xs = edge + span * 0.5 ** np.arange(kmax + 1)
    a = np.minimum(xs[1:], xs[:-1])
    b = np.maximum(xs[1:], xs[:-1])
    vals, errs = _gk(g, a, b)
    cut = kmax - 1
    for k in range(4, kmax):
        if abs(vals[k]) < tol / 8.0:
            cut = k
            break
    panels = [(a[k], b[k], vals[k], errs[k]) for k in range(cut + 1)]
    c0, c1, c2 = vals[cut], vals[cut - 1], vals[cut - 2]
    stub_val = 0.0
    stub_err = 8.0 * abs(c0)
    # an infinite panel leaves no ratio to fit
    if np.isfinite([c0, c1, c2]).all() and abs(c1) > 1e-300 and abs(c2) > 1e-300:
        r1 = c0 / c1
        r2 = c1 / c2
        drift = abs(r1 - r2)
        if abs(r1) <= 0.97 and drift <= 0.1:
            stub_val = c0 * r1 / (1.0 - r1)
            stub_err = abs(stub_val) * max(4.0 * drift, 1e-12)
        elif abs(r1) > 0.97:
            stub_err = 1000.0 * abs(c0)  # non-integrable edge: flag divergence
    return panels, stub_val, stub_err


def _adaptive(g, seeds, tol, budget):
    """Worst-first refinement of seed panels; returns (value, error, used)."""
    heap = []
    total_val = 0.0
    total_err = 0.0
    count = 0
    for (a, b, val, err) in seeds:
        heapq.heappush(heap, (-err, count, a, b, val, err))
        count += 1
        total_val += val
        total_err += err
    if not np.isfinite(total_val):
        return total_val, INF, len(seeds)
    frozen_val = 0.0
    frozen_err = 0.0
    used = len(seeds)
    while heap and used < budget and total_err > tol:
        _, _, a, b, val, err = heapq.heappop(heap)
        total_val -= val
        total_err -= err
        scale = max(abs(a), abs(b), 1.0)
        if (b - a) < 256.0 * _EPS * scale:
            frozen_val += val
            frozen_err += err
            continue
        m = 0.5 * (a + b)
        v2, e2 = _gk(g, [a, m], [m, b])
        if not np.isfinite(v2).all():
            return total_val + frozen_val + float(v2.sum()), INF, used
        for (aa, bb, vv, ee) in ((a, m, v2[0], e2[0]), (m, b, v2[1], e2[1])):
            heapq.heappush(heap, (-ee, count, aa, bb, vv, ee))
            count += 1
        total_val += float(v2.sum())
        total_err += float(e2.sum())
        used += 1
    return total_val + frozen_val, total_err + frozen_err, used


_ROUND_LEAVES = 64  # leaves bisected per round of _refine_panels
_BUDGET = 4096  # panels per integral


def _refine_panels(f, a, b, tol, rtol, first=None):
    """Masses of independent finite panels, refined together (after quad_vec).

    Each round bisects the _ROUND_LEAVES worst leaves, by error against their
    panel's bound max(tol, rtol |mass|), in one _gk call. A panel closes on
    that bound, on a non-finite value or at integrate's budget of _BUDGET
    panels (keeping its value). first holds _gk values and errors of the panels.
    """
    n = len(a)
    val, err = _gk(f, a, b) if first is None else first
    mass, used, live = np.array(val, dtype=float), np.ones(n, int), np.ones(n, bool)
    leaf, own = np.array([a, b, val, err], dtype=float), np.arange(n)  # ends, value, error
    with np.errstate(over="ignore", invalid="ignore"):
        while len(own):
            leaf, own = leaf[:, live[own]], own[live[own]]
            # as in _adaptive, leaves too narrow to split drop out of the error
            wide = leaf[1] - leaf[0] >= 256.0 * _EPS * np.maximum(abs(leaf[:2]).max(0), 1.0)
            mass[live] = np.bincount(own, leaf[2], n)[live]
            bound = np.maximum(tol, rtol * np.abs(mass))
            live &= (np.isfinite(mass) & (used < _BUDGET)
                     & (np.bincount(own, leaf[3] * wide, n) > bound))
            # leaves under an eighth of the bound per leaf of their panel
            # together carry under an eighth of it; they wait
            pick = np.nonzero(live[own] & wide & (
                8.0 * np.bincount(own, wide, n)[own] * leaf[3] >= bound[own]))[0]
            if not pick.size:
                break
            r = leaf[3, pick] / bound[own[pick]]
            pick = pick[np.argsort(-r, kind="stable")[:_ROUND_LEAVES]]
            o = own[pick]  # earlier picks of a panel count against its budget
            pick = pick[np.tril(o[:, None] == o, -1).sum(1) < _BUDGET - used[o]]
            np.add.at(used, own[pick], 1)
            lo, hi = leaf[0, pick], leaf[1, pick]
            kids = [np.r_[lo, 0.5 * (lo + hi)], np.r_[0.5 * (lo + hi), hi]]
            leaf = np.hstack([np.delete(leaf, pick, 1), [*kids, *_gk(f, *kids)]])
            own = np.r_[np.delete(own, pick), own[pick], own[pick]]
    return mass


def _key(x):
    """Integer keys ordered as the doubles are; -0.0 and 0.0 share key 0."""
    i = np.asarray(x, dtype=float).view(np.int64)
    return np.where(i < 0, -(i & 0x7FFFFFFFFFFFFFFF), i)


def _double(k):
    """The doubles whose _key is k."""
    return np.copysign(np.abs(k).view(np.float64), k)


def _bisect(g, target, lo, hi):
    """Bisect brackets [lo, hi] of a vectorized g down to adjacent doubles.

    Each round moves lo to the midpoint where g(mid) < target, hi elsewhere.
    Midpoints split the ordered bit patterns of doubles, not the values, so
    a bracket that straddles 0 or reaches into the subnormals closes as
    fast as any: in the bit length of the widest gap, at most 64 rounds.

    This serves Density.quantile_many. On 64 points a cdf round costs 4 us
    (closed form) to 70 us (node table), and this loop's bookkeeping about
    7 us, so _chandrupatla's fewer but heavier rounds (about 90 us of
    bookkeeping each) would not pay. The image coordinate, at 140-730 us a
    round through one or two layers, goes to _chandrupatla instead.
    (Timings on one core of a 2-vCPU Xeon.)
    """
    klo = _key(lo)
    gap = _key(hi).view(np.uint64) - klo.view(np.uint64)  # keys span < 2**64
    # closed brackets and an empty batch take no round
    for _ in range((int(gap.max(initial=1)) - 1).bit_length()):
        half = gap >> 1
        mid = klo + half.astype(np.int64)
        below = g(_double(mid)) < target
        klo = np.where(below, mid, klo)
        gap = np.where(below, gap - half, half)
    return _double(klo), _double(klo + gap.astype(np.int64))


_NARROW = 1 << 52  # a key gap under one binade's worth of doubles


def _chandrupatla(g, target, lo, hi):
    """_bisect's contract for an expensive monotone g, in fewer g calls.

    Two calls evaluate g at both ends of every open bracket. An end that
    hits the target, or past which the target lies (NaN counts as past lo),
    closes its bracket on itself: [lo, lo] or [hi, hi]. Each later round
    evaluates g once, on the brackets still open. Inside a key gap under
    2**52 a round takes Chandrupatla's step (Chandrupatla 1997, Adv. Eng.
    Softw. 28:145): inverse quadratic interpolation through both ends and
    the end replaced last, where his test finds it monotone, else the
    secant. Wider gaps, and any round after one that did not halve the
    gap, take _bisect's key midpoint, so every bracket closes within
    2 + 2*64 calls. A point with g(t) == target closes its bracket on
    [t, t]; elsewhere the result is _bisect's adjacent pair.
    """
    lo, hi, y = (np.array(v, dtype=float) for v in np.broadcast_arrays(lo, hi, target))
    out_lo, out_hi = lo.copy(), hi.copy()
    kl = _key(lo)
    gap = _key(hi).view(np.uint64) - kl.view(np.uint64)
    idx = np.nonzero(gap > 1)[0]
    if not idx.size:
        return out_lo, out_hi
    kl, gap, xl, xh, y = kl[idx], gap[idx], lo[idx], hi[idx], y[idx]
    # two calls, not one on twice the points: a round costs per point, and
    # twice the points double the transient memory of a deep layer stack
    gl, gh = np.asarray(g(xl), dtype=float), np.asarray(g(xh), dtype=float)
    end = np.where(~(gl < y), xl, np.where(gh <= y, xh, np.nan))
    stop = ~np.isnan(end)
    out_lo[idx[stop]] = out_hi[idx[stop]] = end[stop]
    keep = ~stop
    idx, kl, gap, xl, xh, y = idx[keep], kl[keep], gap[keep], xl[keep], xh[keep], y[keep]
    with np.errstate(all="ignore"):
        fl, fh = gl[keep] - y, gh[keep] - y
    xc = fc = np.full(idx.size, np.nan)  # the end replaced last round
    newest_lo = np.ones(idx.size, dtype=bool)
    stalled = np.zeros(idx.size, dtype=bool)  # last round did not halve the gap
    while idx.size:
        step = gap >> 1
        fit = (gap < _NARROW) & ~stalled
        if fit.any():
            xa, fa = np.where(newest_lo, xl, xh), np.where(newest_lo, fl, fh)
            xb, fb = np.where(newest_lo, xh, xl), np.where(newest_lo, fh, fl)
            with np.errstate(all="ignore"):
                xi = (xa - xb) / (xc - xb)
                phi = (fa - fb) / (fc - fb)
                iqi = (1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi))
                t = np.where(iqi, fa / (fb - fa) * fc / (fb - fc)
                             + (xc - xa) / (xb - xa) * fa / (fc - fa) * fb / (fc - fb),
                             fa / (fa - fb))
                x = xa + np.clip(t, 0.0, 1.0) * (xb - xa)
            fit &= np.isfinite(x)
            off = np.clip(_key(np.where(fit, x, xl)) - kl, 1, gap.astype(np.int64) - 1)
            step = np.where(fit, off.astype(np.uint64), step)
        kx = kl + step.astype(np.int64)
        x = _double(kx)
        gx = np.asarray(g(x), dtype=float)
        below = gx < y
        with np.errstate(all="ignore"):
            fx = gx - y
        xc, fc = np.where(below, xl, xh), np.where(below, fl, fh)
        xl, fl = np.where(below, x, xl), np.where(below, fx, fl)
        xh, fh = np.where(below, xh, x), np.where(below, fh, fx)
        kl = np.where(below, kx, kl)
        left = np.where(below, gap - step, step)
        stalled = left > gap - (gap >> 1)
        gap = left
        newest_lo = below
        hit = gx == y
        stop = hit | (gap <= 1)
        out_lo[idx[stop]] = np.where(hit, x, _double(kl))[stop]
        out_hi[idx[stop]] = np.where(hit, x, _double(kl + gap.astype(np.int64)))[stop]
        keep = ~stop
        idx, kl, gap, y = idx[keep], kl[keep], gap[keep], y[keep]
        xl, xh, xc, fl, fh, fc = xl[keep], xh[keep], xc[keep], fl[keep], fh[keep], fc[keep]
        newest_lo, stalled = newest_lo[keep], stalled[keep]
    return out_lo, out_hi


def _integrate_piece(piece, tol, budget):
    g, a, b = piece.g, piece.a, piece.b
    if piece.sing_lo and piece.sing_hi:
        m = 0.5 * (a + b)
        left = _integrate_piece(_Piece(g, a, m, True, False), tol / 2, budget // 2)
        right = _integrate_piece(_Piece(g, m, b, False, True), tol / 2, budget // 2)
        return left[0] + right[0], left[1] + right[1]
    if piece.sing_lo:
        seeds, stub_val, stub_err = _peel(g, a, b, tol)
    elif piece.sing_hi:
        seeds, stub_val, stub_err = _peel(g, b, a, tol)
    else:
        vals, errs = _gk(g, [a], [b])
        seeds, stub_val, stub_err = [(a, b, vals[0], errs[0])], 0.0, 0.0
    val, err, _ = _adaptive(g, seeds, max(tol - stub_err, tol / 4), budget)
    return val + stub_val, err + stub_err


def integrate(f, iv, tol=1e-10, *, rtol=None, interior=()):
    """Integrate a vectorized callable over an extended-real interval.

    interior lists abscissae where the integrand may be singular or kinked;
    the interval is cut there. Divergent integrals come back with converged
    False (value may be +-inf); NaN from the integrand raises IntegrandError
    naming the abscissa; infinite endpoints are mapped to (0, 1).

    Refinement always runs to the absolute tol (or the panel budget); rtol
    only widens the converged verdict afterwards, to max(tol, rtol*|value|).
    A kink not listed in interior can fool the GK15 error estimate:
    |sin(37x)| on (3.4, 3.5) comes back 2.4e-8 off with converged True.
    """
    iv = _as_interval(iv)
    pieces = _pieces(f, iv, interior)
    per_tol = tol / len(pieces)
    per_budget = max(64, _BUDGET // len(pieces))
    value = 0.0
    err = 0.0
    diverged = False
    for piece in pieces:
        v, e = _integrate_piece(piece, per_tol, per_budget)
        value += v
        err += e
        if not (np.isfinite(v) and np.isfinite(e)):
            diverged = True
    # a diverged value may be infinite, where rtol * |value| is undefined
    converged = bool(not diverged and err <= max(tol, (rtol or 0.0) * abs(value)))
    return QuadResult(float(value), float(err), converged)
