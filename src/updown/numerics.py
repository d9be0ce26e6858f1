"""Self-contained numerical kernels.

Adaptive Gauss-Kronrod 15(7) quadrature over extended-real intervals, and
one mechanism for singular points: a ladder of ratio-2 rungs toward the
point, with the stub under the innermost rung closed by the power law
through the two innermost rungs. integrate peels singular endpoints that
way. _CumTable, the one builder of cumulative tables, lays the same
ladders (_ladders) toward every singular point, refines every other panel
to one bound (_refine_panels) and reads the closure back. Its running
integral is 0 at a pivot node and reads each point from the node of its
panel on the pivot's side, so a value near the pivot is a sum of masses
of one sign, never a difference of large partial sums. Everything is
deterministic: fixed node tables, fixed budgets, no RNG, so repeated runs
produce identical bytes.
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


def _checked(f, x):
    """f at abscissae x, as floats; NaN raises, naming the first such x."""
    y = np.asarray(f(x), dtype=float)
    if np.count_nonzero(np.isnan(y)):
        raise IntegrandError(f"integrand returned NaN at x={x[np.isnan(y)][0]!r}")
    return y


def _kronrod(f, a, b, at=None):
    """GK15 Kronrod values of a batch of panels, float arrays a to b (a
    panel with a > b integrates backward, to the negated value): the one
    place f meets the GK15 nodes. Returns the values, the half-widths, f
    at the nodes (one row per panel) and, given abscissae at, f there from
    the same call of f. NaN raises."""
    half = 0.5 * (b - a)
    x = np.multiply.outer(half, _XK)
    x += (0.5 * (b + a))[:, None]
    xs = x.ravel() if at is None else np.concatenate([x.ravel(), at])
    y = _checked(f, xs)
    y, f_at = y[:x.size].reshape(x.shape), y[x.size:]
    return half * np.add.reduce(y * _WK, 1), half, y, f_at


def _gk(f, a, b, at=None):
    """_kronrod's values with QUADPACK-style errors from the embedded
    Gauss-7 rule; given abscissae at, f there as well."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ik, half, y, f_at = _kronrod(f, a, b, at)
    err = _qk_error(ik, half * np.add.reduce(y[:, 1::2] * _WG, 1), half, y, a, b)
    return (ik, err) if at is None else (ik, err, f_at)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _qk_error(ik, ig, half, y, a, b):
    """QUADPACK's error of Kronrod values ik against Gauss values ig from
    f's spread about its mean (resasc), under an errstate that f never
    runs in; where resasc is 0 the ratio is inf or NaN, the error diff."""
    resasc = half * np.add.reduce(np.abs(y - (ik / (b - a))[:, None]) * _WK, 1)
    diff = np.abs(ik - ig)
    return np.where(resasc > 0.0, resasc * np.minimum(1.0, (200.0 * diff / resasc) ** 1.5), diff)


def _wrap_inf(f, edge, side):
    """f(x) dx/ds on s in (0, 1), for x = edge - side L + side L/s.

    side +1 maps s onto (edge, inf), side -1 onto (-inf, edge); infinity
    sits at s = 0, where float spacing is dense enough for the geometric
    peel. The scale L = max(1, |edge|) keeps a far edge's tail spread over
    s: at unit scale the mass past an edge at 1e12 sits within 1e-12 of
    s = 0, and the peel stops short of it. Non-finite abscissae give 0, NaN
    values raise.
    """
    scale = max(1.0, abs(edge))
    shift, c = edge - side * scale, side * scale
    # above this floor s maps to finite x and dx/ds: no masking, no errstate
    floor = scale * 2.0 ** -500 if scale < 2.0 ** 500 else INF

    def g(s):
        if s.size and np.minimum.reduce(s) > floor:
            return _checked(f, shift + c / s) * (scale / s**2)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            x, jac = shift + c / s, scale / s**2
        ok = np.isfinite(x)
        y = np.zeros_like(x)
        if ok.any():
            y[ok] = _checked(f, x[ok])
        # where f is 0, dx/ds may have overflowed: the product is 0, not NaN
        return np.multiply(y, jac, out=y, where=y != 0.0)

    return g


def _pieces(f, iv, interior):
    """Cut the interval at interior points; map infinite ends onto (0, 1).

    Returns (g, a, b, sing_lo, sing_hi) tuples; a piece singular at both
    ends is halved at its midpoint, so each has at most one singular end.
    """
    pts = sorted({float(p) for p in interior if iv.lo < p < iv.hi})
    edges = [iv.lo] + pts + [iv.hi]
    pieces = []
    for i in range(len(edges) - 1):
        a, b = edges[i], edges[i + 1]
        # interior cut points are treated as potentially singular on both sides
        s_lo = iv.singular_lo if i == 0 else True
        s_hi = iv.singular_hi if i == len(edges) - 2 else True
        if a == -INF and b == INF:
            pieces.append((_wrap_inf(f, 0.0, -1.0), 0.0, 1.0, True, False))
            pieces.append((_wrap_inf(f, 0.0, 1.0), 0.0, 1.0, True, False))
        elif b == INF:
            pieces.append((_wrap_inf(f, a, 1.0), 0.0, 1.0, True, s_lo))
        elif a == -INF:
            pieces.append((_wrap_inf(f, b, -1.0), 0.0, 1.0, True, s_hi))
        else:
            pieces.append((f, a, b, s_lo, s_hi))
    out = []
    for g, a, b, s_lo, s_hi in pieces:
        m = 0.5 * (a + b)
        out += [(g, a, m, True, False), (g, m, b, False, True)] if s_lo and s_hi else \
            [(g, a, b, s_lo, s_hi)]
    return out


# A stub exponent under _SLOW counts as unbounded: the ladder cannot tell
# it from a divergent one (1/(d log(1/d)) measures 1/log(1/d), 0.023 at
# d = 2**-64). The tail of power_tail(1.03, 1) measures 0.03 and stays
# unconverged; that of power_tail(1.05, 1) measures 0.05 and closes. The
# condensation test holds tail slopes, in units of log 2, to the same bound
_SLOW = 0.04


def _rungs(p, d0, n=1144):
    """Rung distances d0, d0/2, ... toward a singular point p: at most n
    halvings (by default as many as any double d0 needs), none under
    max(3e-8 |p|, 2**-120); d0 itself is always kept.

    The floor balances abscissa quantization against the closure's model
    error: nodes near a nonzero p snap to the ulp(p) grid, so stopping at
    3e-8 |p| keeps both effects near 1e-10. At p = 0 floats are dense, and
    the rungs go on to 2**-120.
    """
    ds = d0 * 0.5 ** np.arange(n + 1.0)
    return ds[:max(1, np.count_nonzero(ds >= max(3e-8 * abs(p), 2.0 ** -120)))]


def _closure(w1, w2, dk):
    """Power law w ~ w1 (d/dK)**(gam-1) through w1 and w2, the weight at
    distances dK and 2 dK from a point (the two innermost rungs).

    gam = 1 + log2(w2/w1); the stub under the rung holds w1 dK/gam,
    unbounded when gam <= 0, and w1 dK (d/dK)**gam/gam of it lies within
    d of the point (_CumTable reads it back). Returns (w1 dK, gam); where
    w1 and w2 are not finite and of one sign there is no power law, and
    w1 dK is 0 with gam 1.
    """
    with np.errstate(all="ignore"):
        r = w2 / w1
        ok = np.isfinite(r) & (r > 0.0)
        return np.where(ok, w1 * dk, 0.0), np.where(ok, 1.0 + np.log2(r), 1.0)


def _peel(g, edge, other):
    """Geometric panels (ratio 1/2) from `other` toward a singular `edge`,
    to _rungs' depth at most 64 halvings in, whatever the caller's tol.

    Returns the panels as seeds for adaptive refinement plus the value and
    error charge of the stub next to the edge, closed by _closure at the
    innermost rung. The charge is the gap to the stub that the innermost
    panel's mass implies under the same exponent. An exponent <= 0
    diverges at any depth, and so does one within 64 eps of 0, the
    rounding of 1 + log2(w2/w1) on an x**-1 stub: the stub is +-inf,
    signed like the innermost rung, and its charge inf. One in (0, _SLOW)
    adds nothing and charges the mass it would hold at _SLOW.
    """
    span = other - edge
    # 64 halvings, not the floor: deeper rungs reach image abscissae where
    # TransformedDensity.integral's fr/h0 overflows, and
    # up(uniform(0, 1), 1.9) then reads mass inf in place of 1
    ds = _rungs(edge, abs(span), 64)
    if len(ds) < 3:  # the closure needs two inner rungs, floor or not
        ds = abs(span) * 0.5 ** np.arange(3.0)
    xs = edge + math.copysign(1.0, span) * ds
    a, b = np.minimum(xs[1:], xs[:-1]), np.maximum(xs[1:], xs[:-1])
    # rungs for the closure in the same call, but not xs[0], the piece end
    vals, errs, w = _gk(g, a, b, xs[1:])
    w1dk, gam = _closure(w[-1], w[-2], ds[-1])
    panels = list(zip(a.tolist(), b.tolist(), vals.tolist(), errs.tolist()))
    if gam <= 64.0 * _EPS:
        return panels, math.copysign(INF, w1dk), INF
    gam = max(float(gam), _SLOW)
    with np.errstate(over="ignore"):
        implied = float(vals[-1] / np.expm1(gam * np.log(2.0)))
    if gam == _SLOW:
        return panels, 0.0, abs(implied)
    stub = float(w1dk) / gam
    return panels, stub, abs(stub - implied)


def _adaptive(seeds, tol, budget):
    """Worst-first refinement of seed panels (a, b, value, error, g) in one
    heap, each split through its own g; returns (value, error)."""
    heap, total_val, total_err = [], 0.0, 0.0
    for count, (a, b, val, err, g) in enumerate(seeds):
        heapq.heappush(heap, (-err, count, a, b, val, err, g))
        total_val += val
        total_err += err
    if not math.isfinite(total_val):
        return total_val, INF
    count, frozen_val, frozen_err, room = len(seeds), 0.0, 0.0, budget - len(seeds)
    while heap and room > 0 and total_err > tol:
        _, _, a, b, val, err, g = heapq.heappop(heap)
        total_val -= val
        total_err -= err
        if (b - a) < 256.0 * _EPS * max(abs(a), abs(b), 1.0):
            frozen_val += val
            frozen_err += err
            continue
        m = 0.5 * (a + b)
        ends = np.array((a, m, b))
        (v1, v2), (e1, e2) = map(np.ndarray.tolist, _gk(g, ends[:2], ends[1:]))
        if not (math.isfinite(v1) and math.isfinite(v2)):
            return total_val + frozen_val + (v1 + v2), INF
        heapq.heappush(heap, (-e1, count, a, m, v1, e1, g))
        heapq.heappush(heap, (-e2, count + 1, m, b, v2, e2, g))
        count += 2
        total_val += v1 + v2
        total_err += e1 + e2
        room -= 1
    return total_val + frozen_val, total_err + frozen_err


_ROUND_LEAVES = 64  # leaves bisected per round of _refine_panels
_BUDGET = 4096  # panels per integral


def _refine_panels(f, a, b, tol, rtol):
    """Masses of independent finite panels, refined together (after quad_vec).

    One _gk call on every panel, then each round bisects the _ROUND_LEAVES
    worst leaves, by error against their panel's bound max(tol, rtol |mass|),
    in one _gk call. A panel closes on that bound, on a non-finite value or
    at integrate's budget of _BUDGET panels (keeping its value).
    """
    n = len(a)
    with np.errstate(over="ignore", invalid="ignore"):
        val, err = _gk(f, a, b)
        mass, used, live = np.array(val, dtype=float), np.ones(n, int), np.ones(n, bool)
        leaf, own = np.array([a, b, val, err], dtype=float), np.arange(n)  # ends, value, error
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
            kids = [np.concatenate([lo, 0.5 * (lo + hi)]), np.concatenate([0.5 * (lo + hi), hi])]
            leaf = np.hstack([np.delete(leaf, pick, 1), [*kids, *_gk(f, *kids)]])
            own = np.concatenate([np.delete(own, pick), own[pick], own[pick]])
    return mass


def _ladders(w, ts, ends):
    """Sorted nodes with a ladder toward each singular point of w.

    ends lists (p, s): a point p and the side s (+1 above, -1 below) on
    which the table continues. Each ladder starts at the nearest node
    beyond which ts is already graded (next node within ratio 2), so that
    no coarse panel is left between the ladder and the bulk, and stops
    at _rungs' floor, max(3e-8 |p|, 2**-120) short of p. The depth
    depends on p alone, so a table laid on the nodes of another adds no
    rung where that one already has a ladder. Returns the nodes, with the
    points and rungs added and any node inside a stub dropped, and one row
    (p, s, w1 dK, gam, dK) per stub from _closure at its innermost rung.
    """
    ends = list(dict.fromkeys(ends))
    rungs, rows = [ts, [p for p, _ in ends]], []
    for p, s in ends:
        d = np.sort(s * (ts - p))
        d = d[d > 0.0]
        graded = np.nonzero(d[1:] <= 2.0 * d[:-1])[0]
        d0 = d[graded[0]] if graded.size else d[-1]
        x = p + s * _rungs(p, d0)
        rungs.append(x)
        rows.append((p, s, abs(x[-1] - p)))
    ts = np.unique(np.concatenate(rungs))
    if not rows:
        return ts, np.empty((0, 5))
    p, s, dk = (np.array(v) for v in zip(*rows))
    w1, w2 = np.asarray(w(np.r_[p + s * dk, p + 2.0 * s * dk]), dtype=float).reshape(2, -1)
    x = (ts[:, None] - p) * s
    return ts[~np.any((x > 0.0) & (x < dk), axis=1)], \
        np.column_stack([p, s, *_closure(w1, w2, dk), dk])


class _CumTable:
    """Running integral C of a weight w, tabulated on sorted nodes ts.

    The one table builder: it lays _ladders toward each of the singular
    points in ends (pairs (p, s) as there) and fills the panel next to each
    point with its stub's closure mass; every other panel is refined to the
    bound max(1e-13, 1e-13 |mass|) by _refine_panels. mass_lo and mass_hi
    are the masses beyond the table ends. A finite end point whose mass is
    infinite, or whose closure exponent is under _SLOW, is dropped off the
    table with infinite mass beyond it; its stub then lies beyond the table
    end. C is 0 at the first node at or above pivot, the last node if none
    is; pivot=inf and -inf pick the end nodes. Calling the table reads C at
    any abscissae: one searchsorted, the closure's closed form inside a
    stub, and one batched partial GK15 panel elsewhere between nodes. That
    panel runs from the panel's node on the pivot's side to the point,
    backward below the pivot, so C near the pivot adds masses of one sign
    and cancels nothing. It is read as its Kronrod value alone (_kronrod,
    the same sum as _gk's value), with no error estimate: the table's bound
    was met when the panels were refined.
    """

    def __init__(self, w, ts, ends, *, pivot=-INF, mass_lo=0.0, mass_hi=0.0):
        self.w = w
        ts, stubs = _ladders(w, ts, ends)
        p, s, w1dk, gam, dk = stubs.T
        at = p == ts[0]
        if at.any() and (mass_lo == INF or np.any(gam[at] < _SLOW)):
            ts, mass_lo = ts[1:], INF
        at = p == ts[-1]
        if at.any() and (mass_hi == INF or np.any(gam[at] < _SLOW)):
            ts, mass_hi = ts[:-1], INF
        self._pivot = pivot = int(np.clip(np.searchsorted(ts, pivot), 0, len(ts) - 1))
        # table panel holding each stub; -1 and len(ts) - 1 stand for the
        # stretches below and above the table
        panel = np.searchsorted(ts, p + 0.5 * s * dk, side="right") - 1
        on = (panel >= 0) & (panel < len(ts) - 1)
        rest = np.bincount(panel[on], minlength=len(ts) - 1) == 0
        m = np.zeros(len(ts) - 1)
        m[rest] = _refine_panels(w, ts[:-1][rest], ts[1:][rest], 1e-13, 1e-13)
        m[panel[on]] = w1dk[on] / gam[on]
        # partial sums pivoted at one node: with a divergent edge in play a
        # one-sided running total grows enormous, and differences of C near
        # the pivot would be rounded to its ulp
        cums = np.concatenate([-np.cumsum(m[:pivot][::-1])[::-1], [0.0], np.cumsum(m[pivot:])])
        # searched against the nodes and the double after the last one, a
        # point's panel runs from -1 below the table to len(ts) above it;
        # ts and cums are views
        self._edges = np.concatenate([ts, [np.nextafter(ts[-1], INF)]])
        self._c = np.concatenate([[cums[0] - mass_lo], cums, [cums[-1] + mass_hi]])
        self.ts, self.cums, self.below, self.above = \
            self._edges[:-1], self._c[1:-1], self._c[0], self._c[-1]
        # per stub: point, side, w1 dK, gam, dK, whether it is on the table,
        # and C where its closed form is anchored: at the point, or for a
        # stub beyond a table end at its innermost rung
        self._stubs = np.column_stack([stubs, on, self.cums[panel + ((s > 0) != on)]])
        self._stub_at = np.full(len(ts) + 2, -1)
        self._stub_at[panel + 1] = np.arange(len(p))

    def __call__(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        ts = self.ts
        i = np.searchsorted(self._edges, t, side="right")
        out, k = self._c[i], self._stub_at[i]
        i -= 1
        stub = k >= 0
        if stub.any():
            p, s, w1dk, gam, dk, on, c = self._stubs[k[stub]].T
            with np.errstate(all="ignore"):
                lx = np.log(s * (t[stub] - p) / dk)
                # closure mass out to t from the point, or from the rung
                a = np.where(on > 0.0, np.exp(gam * lx),
                             np.where(gam == 0.0, lx, np.expm1(gam * lx)))
                v = c + s * w1dk * a / np.where(gam == 0.0, 1.0, gam)
            # at or beyond the point itself the values above stand
            ok = lx > -INF
            stub[stub] = ok
            out[stub] = v[ok]
        j = np.minimum(i, len(ts) - 2)
        pending = (i == np.maximum(j, 0)) & (t > ts[j]) & ~stub
        if pending.any():
            # from the panel's node on the pivot's side; below the pivot
            # that is the upper node, and GK15 from it runs backward
            k = i[pending]
            k += k < self._pivot
            out[pending] = self.cums[k] + _kronrod(self.w, ts[k], t[pending])[0]
        return out


def _key(x):
    """Integer keys ordered as the doubles are; -0.0 and 0.0 share key 0."""
    i = np.asarray(x, dtype=float).view(np.int64)
    return np.where(i < 0, -(i & 0x7FFFFFFFFFFFFFFF), i)


def _double(k):
    """The doubles whose _key is k."""
    return np.copysign(np.abs(k).view(np.float64), k)


_NARROW = 1 << 52  # a key gap under one binade's worth of doubles


def _chandrupatla(g, target, xs, zs):
    """Invert a vectorized increasing g on target inside its table zs = g(xs).

    zs holds g at the sorted nodes xs, a table the caller already has. The
    table brackets each target (searchsorted, clipped to the first and last
    bracket) and gives g at both ends, so g is never called there. A
    bracket of two adjacent doubles stays as the table gives it. An end of
    any other that hits the target, or past which the target lies (NaN
    counts as past lo), closes its bracket on itself: [lo, lo] or [hi, hi].
    Every bracket keeps its slot through the solve, and each round
    evaluates g once, on the brackets still open. Inside a key gap under
    2**52 a round takes Chandrupatla's step (Chandrupatla 1997, Adv. Eng.
    Softw. 28:145): inverse quadratic interpolation through both ends and
    the end replaced last, where his test finds it monotone, else the
    secant. Wider gaps, and any round after one that did not halve the gap,
    bisect the _key values (the ordered bit patterns of doubles), so every
    solve takes at most 2*64 rounds. A point with g(t) == target closes its
    bracket on [t, t]; elsewhere the result is the adjacent pair (a, b) of
    doubles with g(a) < target <= g(b).
    """
    y = np.array(target, dtype=float, ndmin=1)
    i = np.clip(np.searchsorted(zs, y), 1, len(xs) - 1)
    lo, hi, gl, gh = xs[i - 1], xs[i], zs[i - 1], zs[i]
    kl = _key(lo).view(np.uint64)
    gap = _key(hi).view(np.uint64) - kl
    # a bracket the solve leaves alone answers with its nodes, -0.0 included
    wide = gap > 1
    on_lo, on_hi = wide & ~(gl < y), wide & (gl < y) & (gh <= y)
    lo[on_hi], hi[on_lo] = hi[on_hi], lo[on_lo]
    solve = wide & ~(on_lo | on_hi)
    # Per bracket: (x, g - y) of the end moved last (a), of the other end
    # (b) and of the end a replaced (c); a_lo: a is the lo end; halved: the
    # last round halved the key gap. Slots of closed brackets keep only
    # their keys: key of lo, key gap
    with np.errstate(all="ignore"):
        xa, fa, xb, fb = lo, gl - y, hi, gh - y
    xc = fc = np.full(y.size, np.nan)
    a_lo = halved = np.ones(y.size, dtype=bool)
    live, gx = solve.copy(), None
    while True:
        # one errstate per round, never around g: its own warnings stand
        with np.errstate(all="ignore"):
            if gx is not None:
                below, hit = gx < y, gx == y
                # x replaces the end on its side: a's (c takes a, b stays) or
                # b's (c takes b, b takes a); x is the new a
                keep_b = below == a_lo
                xc, fc = np.where(keep_b, xa, xb), np.where(keep_b, fa, fb)
                xb, fb = np.where(keep_b, xb, xa), np.where(keep_b, fb, fa)
                xa, fa = x, gx - y
                left = np.where(below, gap - step, step)
                a_lo, halved = below, left <= gap - half
                left[hit] = 0
                kl = np.where(live & (below | hit), kx, kl)
                gap = np.where(live, left, gap)
                live &= gap > 1
            if not np.count_nonzero(live):
                break
            half = gap >> 1
            step = half
            fit = live & (gap < _NARROW) & halved
            if np.count_nonzero(fit):
                xi = (xa - xb) / (xc - xb)
                dab, dcb, dx = fa - fb, fc - fb, xb - xa
                phi = dab / dcb
                iqi = (1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi))
                # fa/(fb-fa) * fc/(fb-fc) is secant * fc/dcb exactly, as
                # negation is exact; it differs only at fa == fb or fc == fb,
                # where iqi is False
                secant = fa / dab
                t = np.where(iqi, secant * fc / dcb + (xc - xa) / dx * fa / (fc - fa) * fb / dcb,
                             secant)
                x = xa + np.minimum(np.maximum(t, 0.0), 1.0) * dx
                fit &= np.isfinite(x)
                # off is garbage where fit is False, and unused there
                off = np.minimum(np.maximum(_key(x) - kl.view(np.int64), 1),
                                 gap.view(np.int64) - 1)
                step = np.where(fit, off.view(np.uint64), half)
            kx = kl + step
            x = _double(kx.view(np.int64))
        gx = np.full(y.size, np.nan)
        gx[live] = g(x[live])
    lo[solve] = _double(kl[solve].view(np.int64))
    hi[solve] = _double((kl + gap)[solve].view(np.int64))
    return lo, hi


def integrate(f, iv, tol=1e-10, *, rtol=None, interior=()):
    """Integrate a vectorized callable over an extended-real interval.

    interior lists abscissae where the integrand may be singular or kinked;
    the interval is cut there. Divergent integrals come back with converged
    False (value may be +-inf); NaN from the integrand raises IntegrandError
    naming the abscissa; infinite endpoints are mapped to (0, 1).

    Singular ends, cut points and mapped infinities are peeled (_peel): a
    ratio-2 ladder of panels, with the stub under it closed by the power
    law through its two innermost rungs. The ladder is 64 halvings deep,
    or stops max(3e-8 |p|, 2**-120) short of its point p, whatever tol is;
    a piece too narrow for three rungs above that floor still gets three.
    A stub exponent <= 0 diverges at any depth: the call returns at once,
    refining nothing, with the stubs' sum (NaN if both signs diverge) and
    error inf. One in (0, 0.04) is left out and charged to the error.

    The pieces' seed panels share one heap (_adaptive), worst panel first,
    one absolute tol (less the stubs' error charges, at least tol/4) and
    one 4096-panel budget per call. rtol only widens the converged verdict
    afterwards: value and error finite, error <= max(tol, rtol*|value|).
    A kink not listed in interior can fool the GK15 error estimate:
    |sin(37x)| on (3.4, 3.5) comes back 2.4e-8 off with converged True.
    """
    iv = _as_interval(iv)
    seeds, stub_val, stub_err = [], 0.0, 0.0
    for g, a, b, sing_lo, sing_hi in _pieces(f, iv, interior):
        if sing_lo or sing_hi:
            panels, v, e = _peel(g, *((a, b) if sing_lo else (b, a)))
        else:
            vals, errs = _gk(g, [a], [b])
            panels, v, e = [(a, b, float(vals[0]), float(errs[0]))], 0.0, 0.0
        seeds += [(*p, g) for p in panels]
        stub_val += v
        stub_err += e
    if not math.isfinite(stub_val):  # a stub diverged: no refinement mends it
        return QuadResult(stub_val, INF, False)
    value, err = _adaptive(seeds, max(tol - stub_err, tol / 4), _BUDGET)
    value, err = value + stub_val, err + stub_err
    # a diverged value may be infinite, where rtol * |value| is undefined
    converged = bool(math.isfinite(value) and math.isfinite(err)
                     and err <= max(tol, (rtol or 0.0) * abs(value)))
    return QuadResult(float(value), float(err), converged)
