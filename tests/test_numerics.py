import math
import re
import warnings

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings, strategies as st

from updown import numerics
from updown.densities import gzero, half_restriction, power_tail, stretched_gaussian
from updown.errors import DomainError, IntegrandError
from updown.functionals import mu
from updown.numerics import (_ROUND_LEAVES, Interval, QuadResult, _CumTable, _double,
                             _gk, _key, _kronrod, _refine_panels, _rtsafe, integrate)


class TestInterval:
    def test_orders_endpoints(self):
        with pytest.raises(DomainError):
            Interval(2.0, 1.0)
        with pytest.raises(DomainError):
            Interval(1.0, 1.0)

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            Interval(math.nan, 1.0)

    def test_singular_flag_needs_finite_endpoint(self):
        with pytest.raises(DomainError):
            Interval(-math.inf, 0.0, singular_lo=True)
        with pytest.raises(DomainError):
            Interval(0.0, math.inf, singular_hi=True)

    def test_contains_and_bounded(self):
        iv = Interval(0.0, 1.0)
        assert iv.bounded
        assert iv.contains(0.5)
        assert not iv.contains(0.0)
        assert not Interval(0.0, math.inf).bounded


FINITE_CASES = [
    (lambda x: x**2, 0.0, 1.0),
    (lambda x: np.sin(3.0 * x), 0.0, 2.0),
    (lambda x: np.exp(x) * np.cos(5.0 * x), -1.0, 2.0),
    (lambda x: 1.0 / (1.0 + x**2), -3.0, 7.0),
]


@pytest.mark.parametrize("f,a,b", FINITE_CASES)
def test_matches_quadpack_on_smooth_integrands(f, a, b):
    want, _ = scipy.integrate.quad(f, a, b)
    got = integrate(f, (a, b))
    assert got.converged
    assert got.value == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("f,iv,want", [
    (lambda x: np.exp(-x), (0.0, math.inf), 1.0),
    (lambda x: np.exp(-x * x), (-math.inf, math.inf), math.sqrt(math.pi)),
    (lambda x: 2.0 * x**-3.0, (1.0, math.inf), 1.0),
    (lambda x: x**-1.2, (1.0, math.inf), 5.0),
    (lambda x: x * np.exp(-x), (0.0, math.inf), 1.0),
    (lambda x: np.exp(x), (-math.inf, 0.0), 1.0),
])
def test_infinite_ranges(f, iv, want):
    got = integrate(f, iv)
    assert got.converged
    assert got.value == pytest.approx(want, abs=1e-9)


_PT15 = power_tail(1.5, 1.0).pdf


@pytest.mark.parametrize("f,iv", [
    (_PT15, (1e12, math.inf)), (lambda x: _PT15(-x), (-math.inf, -1e12)),
    (lambda x: _PT15(x / 1e200) / 1e200, (1e212, math.inf)),
])
def test_far_offset_infinite_tails(f, iv):
    # mapped at unit scale, the mass past an edge at 1e12 sat within 1e-12
    # of s = 0, short of the peel, and came back as 1.55e-17, converged.
    # Past an edge of 2**500 the map takes its masked path
    got = integrate(f, iv)
    assert got.converged
    assert got.value == pytest.approx(1e-6, rel=1e-10)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("e", [1e280, 1e300])
@pytest.mark.parametrize("side", [1.0, -1.0])
def test_far_edge_tail_where_the_map_overflows(e, side):
    # past the edge, dx/ds overflows to inf where f has underflowed to 0;
    # their product is 0, not NaN
    got = integrate(lambda x: np.exp(-(side * x - e) / e) / e,
                    (e, math.inf) if side > 0 else (-math.inf, -e))
    assert got.converged
    assert got.value == pytest.approx(1.0, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("f,iv,want,tol", [
    (lambda x: 1.0 / np.sqrt(x), Interval(0, 1, singular_lo=True), 2.0, 1e-10),
    (lambda x: np.log(x), Interval(0, 1, singular_lo=True), -1.0, 1e-10),
    (lambda x: x**-0.9, Interval(0, 1, singular_lo=True), 10.0, 1e-9),
    (lambda x: (1.0 - x) ** (-2.0 / 3.0), Interval(0, 1, singular_hi=True), 3.0, 1e-9),
    (lambda x: (x - 1.0) ** -0.8, Interval(1, 2, singular_lo=True), 5.0, 1e-9),
    # log singularity at a nonzero edge: abscissa quantization caps accuracy
    (lambda x: np.log1p(-x), Interval(0, 1, singular_hi=True), -1.0, 5e-8),
])
def test_singular_endpoints(f, iv, want, tol):
    got = integrate(f, iv)
    assert got.value == pytest.approx(want, abs=tol)


@pytest.mark.parametrize("e, w", [(1.0, 1e-8), (1.0, 3e-8), (1e3, 1e-5), (1e3, 3e-5),
                                  (-2.0, 2e-8), (-2.0, 6e-8)])
@pytest.mark.parametrize("side", [1.0, -1.0], ids=["lo", "hi"])
def test_singular_piece_narrower_than_four_rung_floors(e, w, side):
    # under 4 * 3e-8 |e| wide the floor leaves fewer than three rungs; the
    # piece still gets three and its closure. Refined as one plain panel,
    # a node rounded onto e: inf at w = 3e-8, 2e-4 (1 - 6.5e-5) at 1e-8
    iv = Interval(e, e + w, singular_lo=True) if side > 0 else Interval(e - w, e, singular_hi=True)
    got = integrate(lambda x: np.abs(x - e) ** -0.5, iv)
    assert got.converged
    assert got.value == pytest.approx(2.0 * math.sqrt(w), rel=1e-7, abs=0.0)


@pytest.mark.parametrize("w", [1e-8, 3e-8])
def test_narrow_divergent_piece_reads_inf(w):
    got = integrate(lambda x: np.abs(x - 1.0) ** -1.0, Interval(1.0, 1.0 + w, singular_lo=True))
    assert not got.converged
    assert got.value == math.inf


def test_interior_singularity_with_cut():
    got = integrate(lambda x: 1.0 / np.sqrt(np.abs(x)), (-1.0, 1.0), interior=(0.0,))
    assert got.converged
    assert got.value == pytest.approx(4.0, abs=1e-10)


def test_interior_kink():
    got = integrate(lambda x: np.abs(x), (-1.0, 2.0), interior=(0.0,))
    assert got.converged
    assert got.value == pytest.approx(2.5, abs=1e-12)


@pytest.mark.parametrize("f,iv", [
    (lambda x: 1.0 / x, (1.0, math.inf)),
    (lambda x: 1.0 / x, Interval(0.0, 1.0, singular_lo=True)),
    (lambda x: x / (1.0 + x), (0.0, math.inf)),
    (lambda x: np.full_like(x, math.inf), (0.0, math.inf)),
])
def test_divergent_integrals_are_flagged_not_raised(f, iv):
    got = integrate(f, iv)
    assert not got.converged


_DIVERGENT = {
    "singular_lo": (lambda x: 1.0 / x, Interval(0.0, 1.0, singular_lo=True), math.inf),
    "singular_hi": (lambda x: 1.0 / (1.0 - x), Interval(0.0, 1.0, singular_hi=True), math.inf),
    "infinite": (lambda x: 1.0 / x, (1.0, math.inf), math.inf),
    "negative": (lambda x: -1.0 / x, Interval(0.0, 1.0, singular_lo=True), -math.inf),
    # 1/x through rounding: the closure exponent reads 3.3e-16 and 2.6e-15
    "rounded_lo": (lambda x: (x ** -0.5) ** 2, Interval(0.0, 1.0, singular_lo=True),
                   math.inf),
    "rounded_infinite": (lambda x: np.exp(0.5 * np.log(x ** -2.0)), (1.0, math.inf),
                         math.inf),
}


@pytest.mark.parametrize("floor", [False, True], ids=["64-halvings", "floor"])
@pytest.mark.parametrize("case", [*_DIVERGENT, "mu-power-tail"])
def test_divergence_verdict_does_not_depend_on_ladder_depth(case, floor, monkeypatch):
    # the closure exponent is <= 0 at any depth, and the ladder's one call
    # finds it; the error-to-value ratio of a refined sum is not: 1/x on
    # (0, 1) summed to 44.36 in 31 calls, and to 83.18 at the 2**-120 floor
    if floor:
        rungs = numerics._rungs
        monkeypatch.setattr(numerics, "_rungs", lambda p, d0, n=None: rungs(p, d0))
    if case == "mu-power-tail":
        got, want = mu(power_tail(2.0, 1.0), 1.0), math.inf
    else:
        f, iv, want = _DIVERGENT[case]
        f, seen = _recorded(f)
        got = integrate(f, iv)
        assert len(seen) == 1
        assert got.abs_error_estimate == math.inf
    assert got.value == want
    assert not got.converged


def test_slow_but_convergent_stub_is_not_called_divergent():
    # x**-1.0001 on (1, inf) closes with exponent 1e-4, far above rounding,
    # so the verdict stays an unconverged finite sum
    got = integrate(lambda x: x ** -1.0001, (1.0, math.inf))
    assert math.isfinite(got.value) and math.isfinite(got.abs_error_estimate)
    assert not got.converged


def test_nan_integrand_raises_with_abscissa():
    def f(x):
        x = np.asarray(x, dtype=float)
        y = np.ones_like(x)
        y[x > 0.5] = math.nan
        return y

    with pytest.raises(IntegrandError, match="NaN"):
        integrate(f, (0.0, 1.0))

    # the only NaN sits on a rung of the singular-edge ladder, which GK15
    # reads beside its nodes
    def g(x):
        x = np.asarray(x, dtype=float)
        return np.where(x == 0.5, math.nan, 1.0)

    with pytest.raises(IntegrandError, match=r"x=(np\.float64\()?0\.5\)?$"):
        integrate(g, Interval(0, 1, singular_lo=True))


def test_nan_on_an_infinite_piece_names_the_abscissa():
    # on (0, inf) the integrand is read at x = L/s on s in (0, 1); the
    # error names x, here past 5, not s
    def f(x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 5.0, math.nan, np.exp(-x))

    with pytest.raises(IntegrandError) as e:
        integrate(f, (0.0, math.inf))
    x = float(re.search(r"x=(?:np\.float64\()?([^)]+)\)?$", str(e.value)).group(1))
    assert x > 5.0


def test_error_estimate_is_honest():
    # converged implies the claimed error bound actually holds
    for f, iv, want in [
        (lambda x: 1.0 / np.sqrt(x), Interval(0, 1, singular_lo=True), 2.0),
        (lambda x: np.exp(-x), (0.0, math.inf), 1.0),
    ]:
        got = integrate(f, iv)
        assert abs(got.value - want) <= max(10.0 * got.abs_error_estimate, 1e-13)


def test_deterministic_repeat():
    f = lambda x: np.exp(-x) * np.sin(x)
    r1 = integrate(f, (0.0, math.inf))
    r2 = integrate(f, (0.0, math.inf))
    assert r1 == r2


@given(st.floats(min_value=-5.0, max_value=5.0),
       st.floats(min_value=-5.0, max_value=5.0),
       st.floats(min_value=-5.0, max_value=5.0))
@settings(max_examples=40, deadline=None)
def test_polynomial_exactness(c0, c1, c2):
    got = integrate(lambda x: c0 + c1 * x + c2 * x * x, (0.0, 2.0))
    want = 2.0 * c0 + 2.0 * c1 + (8.0 / 3.0) * c2
    assert got.converged
    assert got.value == pytest.approx(want, abs=1e-9, rel=1e-12)


def test_quadresult_fields_are_plain_types():
    r = integrate(lambda x: np.exp(-x), (0.0, math.inf))
    assert isinstance(r, QuadResult)
    assert type(r.value) is float
    assert type(r.converged) is bool


# ------------------------------------------------- batched panel refinement

def _recorded(f):
    """f plus the list of the point batches it was called with."""
    seen = []

    def g(x):
        seen.append(np.array(x))
        return f(x)

    return g, seen


def test_budget_bound_integral_counts_its_splits():
    # the 1e10-scaled half-Gaussian on (0, inf): its absolute error never
    # gets under tol, so after one call for the 64-panel ladder each call
    # splits one panel until the 4096-panel budget is spent
    f, seen = _recorded(lambda x: 1e10 * math.sqrt(2.0 / math.pi) * np.exp(-0.5 * x * x))
    got = integrate(f, (0.0, math.inf), tol=1e-10, rtol=1e-10)
    assert len(seen) == 1 + (4096 - 64)
    assert got.value == pytest.approx(1e10, rel=1e-9, abs=0.0)
    # converged through rtol alone
    assert got.converged and got.abs_error_estimate > 1e-10
    assert not integrate(f, (0.0, math.inf), tol=1e-10).converged


def test_budget_is_per_call_not_per_piece():
    # the same integrand cut at 40 makes three pieces: (0, 40) with a ladder
    # toward 40 and (40, inf), mapped to s in (0, 1) and halved, with ladders
    # toward s = 0 and s = 1. After one call per ladder, the pieces share
    # one heap and one 4096-panel budget; the hard piece may spend it all
    f, seen = _recorded(lambda x: 1e10 * math.sqrt(2.0 / math.pi) * np.exp(-0.5 * x * x))
    got = integrate(f, (0.0, math.inf), tol=1e-10, rtol=1e-10, interior=(40.0,))
    # one call per ladder (15 nodes plus one rung per panel; toward 40 the
    # rungs stop 3e-8 * 40 short, toward s = 0 after 64 halvings, toward
    # s = 1 3e-8 short), then one per split until 4096 panels are in play
    assert len(seen) == 3 + (4096 - (24 + 64 + 23))
    assert [len(x) for x in seen[:3]] == [16 * 24, 16 * 64, 16 * 23]
    assert got.value == pytest.approx(1e10, rel=1e-9, abs=0.0)
    assert got.converged


def test_gk_panel_values_do_not_depend_on_the_batch():
    # a panel's value and error carry the same bits alone, in a batch and
    # beside extra abscissae, and its value is _kronrod's: _CumTable reads
    # partial panels value-only and trusts them to match the table's own
    f = lambda x: np.exp(-x) * (1.5 + np.sin(7.0 * x))
    rng = np.random.default_rng(3)
    a = rng.uniform(-2.0, 2.0, 97)
    b = a + rng.uniform(-1.0, 1.0, 97)
    val, err = _gk(f, a, b)
    assert val.tobytes() == _kronrod(f, a, b)[0].tobytes()
    with_at = _gk(f, a, b, np.linspace(-2.0, 2.0, 5))
    assert (with_at[0].tobytes(), with_at[1].tobytes()) == (val.tobytes(), err.tobytes())
    for i in range(len(a)):
        one = _gk(f, a[i:i + 1], b[i:i + 1])
        assert (one[0].tobytes(), one[1].tobytes()) == (val[i:i + 1].tobytes(),
                                                        err[i:i + 1].tobytes())
        pair = _gk(f, a[i:i + 2], b[i:i + 2])
        assert pair[0].tobytes() == val[i:i + 2].tobytes()


def test_refine_panels_matches_integrate_on_smooth_panels():
    f = lambda x: np.exp(x) * np.sin(40.0 * x)
    a = np.array([-1.0, -0.9, 0.0, 1.0])
    b = np.array([-0.9, 0.0, 1.0, 4.0])
    got = _refine_panels(f, a, b, 1e-13, 1e-13)
    want = [integrate(f, (lo, hi), tol=1e-13).value for lo, hi in zip(a, b)]
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)


def test_refine_panels_stops_on_the_relative_bound():
    # an absolute 1e-13 is out of reach at this scale: integrate spends its
    # whole budget of 4096 panels here
    f, seen = _recorded(lambda x: 1e10 * np.exp(x) * np.cos(5.0 * x))
    got = _refine_panels(f, [-1.0], [2.0], 1e-13, 1e-13)[0]
    F = lambda x: 1e10 * np.exp(x) * (np.cos(5.0 * x) + 5.0 * np.sin(5.0 * x)) / 26.0
    assert got == pytest.approx(F(2.0) - F(-1.0), rel=1e-13)
    splits = (sum(x.size for x in seen) // 15 - 1) // 2
    assert splits < 0.05 * 4096


def test_refine_panels_keeps_a_budget_stopped_value():
    # at a bound of 1e-300 the panel holding the jump cannot converge
    f, seen = _recorded(lambda x: np.where(x < 0.3, 1.0, 2.0))
    got = _refine_panels(f, [0.0], [1.0], 1e-300, 1e-300)[0]
    assert sum(x.size for x in seen) == 15 * (1 + 2 * 4095)
    assert math.isfinite(got)
    assert got == pytest.approx(1.7, abs=1e-12)


def test_refine_panels_never_refines_an_infinite_panel():
    f, seen = _recorded(lambda x: np.where(x == 1.5, math.inf, np.sin(20.0 * x)))
    got = _refine_panels(f, [0.0, 1.0], [1.0, 2.0], 1e-13, 1e-13)
    assert got[1] == math.inf
    assert got[0] == pytest.approx((1.0 - math.cos(20.0)) / 20.0, abs=1e-13)
    assert len(seen) > 1
    assert all(np.all(x < 1.0) for x in seen[1:])


def test_refine_panels_bounds_every_batch():
    # five periods per panel: hundreds of splits in all, taken in rounds
    # whose one _gk call stays under 2 * _ROUND_LEAVES * 15 points
    f = lambda x: np.exp(-x) * np.sin(300.0 * x)
    edges = np.linspace(0.0, 10.0, 101)
    g, seen = _recorded(f)
    got = _refine_panels(g, edges[:-1], edges[1:], 1e-13, 1e-13)
    sizes = [x.size for x in seen]
    assert max(sizes) <= 2 * _ROUND_LEAVES * 15
    assert len(sizes) > 5
    F = lambda x: -np.exp(-x) * (np.sin(300.0 * x) + 300.0 * np.cos(300.0 * x)) / 90001.0
    assert got.sum() == pytest.approx(F(10.0) - F(0.0), abs=1e-12)


@given(st.floats(min_value=0.05, max_value=3.0), st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=40, deadline=None)
def test_ladder_closure_reproduces_power_laws(gam, u):
    # w(d) = d**(gam-1) toward 0 integrates to d**gam/gam: the power-law
    # closure is exact on it, inside the stub under the innermost rung as
    # well as between rungs and in the bulk
    w = lambda x: np.asarray(x, dtype=float) ** (gam - 1.0)
    table = _CumTable(w, np.linspace(0.0, 1.0, 9), [(0.0, 1.0)])
    # rungs from the graded node 1/8 down to the floor 2**-120 at p = 0
    dk = table._stubs[0, 4]
    assert dk == 2.0 ** -120
    t = np.array([dk * u, dk * u ** 12, 2.0 ** (-120.0 + u), 2.0 ** (-30.0 - u), 0.3 + 0.6 * u])
    np.testing.assert_allclose(table(t), t ** gam / gam, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("p", [1.0, 1000.0])
def test_ladder_toward_a_nonzero_point_stops_at_the_peel_depth(p):
    # |x - p|**-0.8 on (p, p + 1) holds 5. A ladder 64 ulp deep put the
    # innermost GK nodes on p's ulp grid, 9.8e-8 and 3.4e-7 off; at the
    # peel's 3e-8 |p| the closure carries the stub
    w = lambda x: np.abs(np.asarray(x, dtype=float) - p) ** -0.8
    table = _CumTable(w, p + np.linspace(0.0, 1.0, 9), [(p, 1.0)])
    assert table.cums[-1] - table.cums[0] == pytest.approx(5.0, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("w, end, side, flat", [
    (lambda x: 1.0 / x, 0.0, 1.0, math.log(2.0)),
    (lambda x: 1.0 / (1.0 - x), 1.0, -1.0, math.log(1.5)),
], ids=["lo", "hi"])
def test_divergent_end_drops_off_the_table(w, end, side, flat):
    # 1/d toward an end has closure exponent 0: the mass beyond the ladder
    # diverges, so the end leaves the table with infinite mass beyond it
    table = _CumTable(lambda x: w(np.asarray(x, dtype=float)), np.linspace(0.0, 1.0, 9),
                      [(end, side)])
    # the node next to the end is the ladder's innermost rung, within twice
    # the floor max(3e-8 |p|, 2**-120) of it
    if side > 0:
        assert (table.below, table.ts[-1]) == (-math.inf, 1.0)
        assert 0.0 < table.ts[0] < 2.0 * 2.0 ** -120
    else:
        assert (table.above, table.ts[0]) == (math.inf, 0.0)
        assert 0.0 < 1.0 - table.ts[-1] < 2.0 * 3e-8
    assert np.all(np.isfinite(table.cums))
    assert math.isfinite(table.above if side > 0 else table.below)
    # the running integral in between is log |d| up to a constant
    assert (table(0.5) - table(0.25))[0] == pytest.approx(flat, rel=1e-13)


@pytest.mark.parametrize("pivot", [-math.inf, 0.8, math.inf], ids=["forward", "mid", "backward"])
def test_cum_table_reads_partial_panels_as_gk_values(pivot):
    # a read between nodes is the Kronrod value of one partial panel from
    # the node on the pivot's side, the same sum _gk returns, bit for bit
    poison = [False]

    def w(x):
        x = np.asarray(x, dtype=float)
        return np.where(poison[0] & (x > 1.0), math.nan, np.exp(-x) * (1.5 + np.sin(7.0 * x)))

    table = _CumTable(w, np.linspace(0.0, 2.0, 17), [], pivot=pivot)
    t = np.random.default_rng(7).uniform(0.0, 2.0, 256)
    k = np.searchsorted(table.ts, t, side="right") - 1
    k += k < table._pivot
    assert table(t).tobytes() == (table.cums[k] + _gk(w, table.ts[k], t)[0]).tobytes()
    # a NaN weight raises, naming the abscissa inside the panel read
    poison[0] = True
    with pytest.raises(IntegrandError) as e:
        table(1.3)
    x = float(re.search(r"x=(?:np\.float64\()?([^)]+)\)?$", str(e.value)).group(1))
    assert 1.0 < x < 1.375


@pytest.mark.parametrize("make", [lambda: gzero(1.5), lambda: stretched_gaussian(2.0, 1.5),
                                  lambda: half_restriction(stretched_gaussian(2.0, 1.5))],
                         ids=["gzero", "sg", "half-sg"])
def test_node_table_reads_cums_at_its_nodes(make):
    # quantile_many hands the solver cums as g at its bracket ends, the
    # nodes; it holds next to the closure stubs on either side of a point
    table = make()._node_table()
    assert table(table.ts).tobytes() == table.cums.tobytes()


def _bisect(g, target, lo, hi):
    """Bisect brackets [lo, hi] of a vectorized g down to adjacent doubles.

    Each round moves lo to the midpoint where g(mid) < target, hi elsewhere.
    Midpoints split the ordered bit patterns of doubles, not the values, so
    a bracket that straddles 0 or reaches into the subnormals closes as
    fast as any: in the bit length of the widest gap, at most 64 rounds.

    The reference that _rtsafe's contract is tested against: the
    same adjacent pair, bit for bit, unless g hits the target exactly.
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



def test_bisect_closes_every_bracket_to_adjacent_doubles():
    # one bracket straddles 0 across nearly all doubles (a key gap just
    # under 2**64), one is negative, one subnormal
    lo = np.array([-1e300, -1e10, 0.0])
    hi = np.array([1e300, -1e-300, 1e-310])
    target = np.array([0.3, -2.5, 3e-320])
    calls = []

    def g(x):
        calls.append(x)
        return x

    a, b = _bisect(g, target, lo, hi)
    assert len(calls) <= 64
    np.testing.assert_array_equal(b, np.nextafter(a, math.inf))
    assert np.all((a < target) & (target <= b))
    # an empty batch, as from a pdf query at no points, takes no round
    calls.clear()
    assert _bisect(g, 0.0, np.empty(0), np.empty(0))[0].size == 0
    assert not calls


def _counted(g):
    calls = []

    def h(x):
        calls.append(x.size)
        return g(x)

    return h, calls


_SG = stretched_gaussian(2.0, 1.0)
_GZ = gzero(1.5)
_HALF = half_restriction(_SG)


@pytest.mark.parametrize("g, dg, lo, hi", [
    (np.expm1, np.exp, -3.0, 2.0),
    (lambda x: x ** 3, lambda x: 3.0 * x * x, -2.0, 1.5),
    (lambda x: -np.expm1(-1.3 * np.maximum(x, 0.0)), lambda x: 1.3 * np.exp(-1.3 * x), 0.0, 30.0),
    (_SG.cdf_at, _SG.pdf_at, -6.0, 6.0),
    (_GZ.cdf_at, _GZ.pdf_at, -1.0, 0.0),
    (_HALF.cdf_at, _HALF.pdf_at, 0.0, 6.0),
], ids=["expm1", "cube", "exp-cdf", "sg21-table-cdf", "gzero-table-cdf", "half-sg21-table-cdf"])
def test_chandrupatla_lands_where_bisect_does(g, dg, lo, hi):
    # on monotone g the pair is _bisect's, bit for bit, unless the solver
    # hit g(t) == target exactly: common where g compresses the doubles,
    # as the cdf does near 1; x**3 also hits at 0. The solver inverts a
    # table of g on 33 nodes, as in image inversion. The node-table cdfs are
    # the roots whose quantiles this solver inverts; gzero's right half runs
    # so flat in doubles that nearly every target is a hit, so its left
    # half is used
    rng = np.random.default_rng(3)
    target = np.concatenate([rng.uniform(g(lo), g(hi), 198), [0.0, g(hi) * (1 - 1e-15)]])
    nodes = np.linspace(lo, hi, 33)
    table = g(nodes)
    i = np.clip(np.searchsorted(table, target), 1, 32)
    h, bisect_calls = _counted(g)
    want = _bisect(h, target, nodes[i - 1], nodes[i])
    h, calls = _counted(g)
    a, b = _rtsafe(h, dg, target, nodes, table)
    same = (a == want[0]) & (b == want[1])
    hit = (a == b) & (g(a) == target)
    assert np.all(same | hit)
    assert np.count_nonzero(same & (b == np.nextafter(a, math.inf))) >= 10
    # Newton steps on the exact slope read g at 7-9% of bisection's points
    assert sum(calls) < 0.1 * sum(bisect_calls)


def _newton_bound(lo, hi):
    """_rtsafe's round bound for the bracket [lo, hi]: 1 + ceil(log2 G) +
    2 floor(log2 G), with G its key gap."""
    gap = int(_key(hi)) - int(_key(lo))
    return 1 + (gap - 1).bit_length() + 2 * (gap.bit_length() - 1)


@pytest.mark.parametrize("wrong", ["zero", "nan", "negated", "100x", "0.01x", "inf"])
@pytest.mark.parametrize("g, dg, lo, hi", [
    (np.expm1, np.exp, -3.0, 2.0),
    (lambda x: x ** 3, lambda x: 3.0 * x * x, -1e100, 1e100),
    (np.arcsinh, lambda x: 1.0 / np.hypot(1.0, x), -1e300, 1e300),
    (_SG.cdf_at, _SG.pdf_at, -6.0, 6.0),
], ids=["expm1", "cube-wide", "arcsinh-most-doubles", "sg21-table-cdf"])
def test_wrong_slopes_keep_the_round_bound(g, dg, lo, hi, wrong):
    # a slope of 0, NaN or inf gives no finite step, a negated one steps out
    # of the bracket, and one 100 times off creeps or overshoots: every
    # bracket still closes on a hit or on the adjacent pair across the
    # target, the exact slope's unless that one hit, within the documented
    # bound, counted one target at a time
    bad = {"zero": np.zeros_like, "nan": lambda x: np.full_like(x, np.nan),
           "negated": lambda x: -dg(x), "100x": lambda x: 100.0 * dg(x),
           "0.01x": lambda x: 0.01 * dg(x), "inf": lambda x: np.full_like(x, np.inf)}[wrong]
    nodes = np.array([lo, hi])
    table = g(nodes)
    rng = np.random.default_rng(5)
    target = np.concatenate([rng.uniform(table[0], table[1], 8),
                             [0.0] if table[0] < 0.0 < table[1] else []])
    exact = _rtsafe(g, dg, target, nodes, table)
    bound = _newton_bound(lo, hi)
    for j, y in enumerate(target):
        h, calls = _counted(g)
        a, b = _rtsafe(h, bad, y, nodes, table)
        assert len(calls) <= bound
        if a[0] == b[0]:
            assert g(a) == y
        else:
            assert b[0] == np.nextafter(a[0], math.inf) and g(a) < y <= g(b)
            assert (a[0], b[0]) == (exact[0][j], exact[1][j]) or exact[0][j] == exact[1][j]


def test_chandrupatla_keeps_the_target_shape():
    # an N-d target is solved flat and answered in its own shape; a scalar
    # comes back as (1,), with the bits of the one-element 1-D call
    nodes = np.linspace(-3.0, 2.0, 9)
    target = np.expm1(np.array([[-2.5, 0.1], [1.0, 1.9]]))
    lo, hi = _rtsafe(np.expm1, np.exp, target, nodes, np.expm1(nodes))
    flat = _rtsafe(np.expm1, np.exp, target.ravel(), nodes, np.expm1(nodes))
    assert lo.shape == hi.shape == (2, 2)
    assert lo.tobytes() == flat[0].tobytes() and hi.tobytes() == flat[1].tobytes()
    one = _rtsafe(np.expm1, np.exp, target[1, 0], nodes, np.expm1(nodes))
    assert one[0].shape == (1,)
    assert one[0][0] == lo[1, 0] and one[1][0] == hi[1, 0]


def test_chandrupatla_closes_brackets_that_miss_on_the_nearest_end():
    # out-of-range, NaN and infinite targets, as on the out-of-range path of
    # image inversion, whose cdf relies on landing on the nearest edge
    target = np.array([-5.0, 100.0, np.nan, np.inf, -np.inf])
    lo, hi = np.full(5, -1.0), np.full(5, 2.0)
    a, b = _rtsafe(np.expm1, np.exp, target, np.array([-1.0, 2.0]), np.expm1([-1.0, 2.0]))
    want = _bisect(np.expm1, target, lo, hi)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(a, [-1.0, 2.0, -1.0, 2.0, -1.0])
    np.testing.assert_array_equal(want[0][[0, 2, 4]], -1.0)
    np.testing.assert_array_equal(want[1][[1, 3]], 2.0)


def test_chandrupatla_closes_on_exact_hits_and_staircases():
    # a query at a table node, as when an image is queried at a
    # coordinate its bracket table holds, stops on that node; a staircase
    # and a jump, read with the slope of their trend, mislead every Newton
    # step and still close within the round bound of their brackets
    ident, calls = _counted(lambda x: x)
    nodes = np.array([0.25, 0.5])
    a, b = _rtsafe(ident, np.ones_like, np.array([0.5, 0.25, 0.3]), nodes, nodes)
    np.testing.assert_array_equal(a, [0.5, 0.25, 0.3])
    np.testing.assert_array_equal(b, a)
    assert len(calls) <= _newton_bound(0.25, 0.5)
    step = lambda x: np.floor(8.0 * x) / 8.0
    stairs, calls = _counted(step)
    nodes = np.array([0.0, 1.0])
    a, b = _rtsafe(stairs, np.ones_like, np.array([0.3, 0.25]), nodes, step(nodes))
    assert len(calls) <= _newton_bound(0.0, 1.0)
    assert b[0] == 0.375 and a[0] == np.nextafter(0.375, 0.0)
    # 0.25 is a step value: any point of its flat run is a hit
    assert a[1] == b[1] and stairs(a[1:]) == 0.25
    # a bracket across nearly all doubles, on its own solve
    stairs, calls = _counted(step)
    nodes = np.array([-1e300, 1e300])
    a, b = _rtsafe(stairs, np.ones_like, np.array([0.3]), nodes, step(nodes))
    assert len(calls) <= _newton_bound(-1e300, 1e300)
    assert b[0] == 0.375 and a[0] == np.nextafter(0.375, 0.0)
    leap = lambda x: x + 1e6 * (x > 0.7)
    jump, calls = _counted(leap)
    nodes = np.array([0.5, 1.0])
    a, b = _rtsafe(jump, np.ones_like, np.array([100.0]), nodes, leap(nodes))
    assert len(calls) <= _newton_bound(0.5, 1.0)
    assert a[0] == 0.7 and b[0] == np.nextafter(0.7, 1.0)


def test_chandrupatla_empty_batch_makes_no_call():
    g, calls = _counted(lambda x: x)
    dg, slopes = _counted(np.ones_like)
    nodes = np.array([0.0, 1.0])
    a, b = _rtsafe(g, dg, np.empty(0), nodes, nodes)
    assert a.size == b.size == 0 and not calls and not slopes


def _tiers(x):
    # increasing, in three regions: linear on [0, 1], a staircase of
    # eighths on (1, 2] and a cube on (2, 4]
    return np.where(x <= 1.0, x, np.where(x <= 2.0, 1.0 + np.floor(8.0 * (x - 1.0)) / 8.0,
                                          2.0 + (x - 2.0) ** 3))


def _tiers_slope(x):
    # the trend of each region: the staircase reads 1
    return np.where(x <= 2.0, 1.0, 3.0 * (x - 2.0) ** 2)


def test_chandrupatla_calls_g_on_the_open_brackets_only():
    # brackets that close in different rounds: an exact hit inside
    # [0.25, 0.75], a target past the last node (closed on its end, no
    # round), a bracket of two adjacent doubles (no round), a staircase and
    # a smooth target. Each round's g call holds exactly the brackets still
    # open, in batch order, at the points their own solves would take, and
    # dg then reads the points of those that g left open
    nodes = np.array([0.0, 0.25, 0.75, 1.0, 2.0, 3.0, np.nextafter(3.0, 4.0), 4.0])
    table = _tiers(nodes)
    target = np.array([0.5, 20.0, 3.0 + 2.0 ** -51, 1.3, 2.7])
    assert table[5] < target[2] < table[6]
    seen, slopes = [], []
    a, b = _rtsafe(lambda x: seen.append(x.copy()) or _tiers(x),
                   lambda x: slopes.append(x.copy()) or _tiers_slope(x), target, nodes, table)
    solo = []
    for j, y in enumerate(target):
        alone = []
        aj, bj = _rtsafe(lambda x: alone.append(x.copy()) or _tiers(x), _tiers_slope, y,
                         nodes, table)
        assert (aj[0], bj[0]) == (a[j], b[j])
        solo.append(alone)
    rounds = [len(s) for s in solo]
    assert len(set(rounds)) >= 4 and rounds[1] == rounds[2] == 0
    assert [x.size for x in seen] == [sum(r > k for r in rounds) for k in range(max(rounds))]
    for k, x in enumerate(seen):
        np.testing.assert_array_equal(x, [s[k][0] for s in solo if len(s) > k])
    assert len(slopes) == max(rounds) - 1
    for k, x in enumerate(slopes):
        np.testing.assert_array_equal(x, [s[k][0] for s in solo if len(s) > k + 1])
    assert a[0] == b[0] == 0.5
    assert a[1] == b[1] == 4.0
    assert (a[2], b[2]) == (3.0, nodes[6])
    assert b[3] == 1.375 and a[3] == np.nextafter(1.375, 0.0)
    assert _tiers(a[4:]) < 2.7 <= _tiers(b[4:]) and b[4] == np.nextafter(a[4], 4.0)


def test_chandrupatla_answers_unsolved_brackets_with_their_nodes():
    # a bracket of adjacent doubles stays open even where the target hits
    # its upper node, and an end closure returns the node itself, so the
    # sign of a -0.0 node survives
    g, calls = _counted(lambda x: x)
    nodes = np.array([-1.0, -0.0, 5e-324, 1.0])
    a, b = _rtsafe(g, np.ones_like, np.array([5e-324, 0.0]), nodes, nodes)
    assert not calls
    assert (a[0], b[0]) == (0.0, 5e-324) and math.copysign(1.0, a[0]) == -1.0
    assert a[1] == b[1] == 0.0 and np.all(np.signbit([a[1], b[1]]))


def test_chandrupatla_leaves_g_its_own_warnings():
    # the solver's errstate never wraps g: log of the negative points that
    # bisecting [-1, 0.5] probes warns as it would outside the solver, while
    # the other bracket of the batch stays clear of them. The secant across
    # [-1, 0.5] is NaN, from the -inf table end, so the first round bisects
    nodes = np.array([-1.0, 0.5, 2.0])
    table = np.array([-np.inf, math.log(0.5), math.log(2.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="invalid value encountered in log"):
            _rtsafe(np.log, np.reciprocal, np.array([-5.0, 0.0]), nodes, table)
