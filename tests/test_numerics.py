import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings, strategies as st

from updown.errors import DomainError, IntegrandError
from updown.numerics import (_ROUND_LEAVES, Interval, QuadResult, _bisect,
                             _chandrupatla, _gk, _refine_panels, integrate)


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


def test_nan_integrand_raises_with_abscissa():
    def f(x):
        x = np.asarray(x, dtype=float)
        y = np.ones_like(x)
        y[x > 0.5] = math.nan
        return y

    with pytest.raises(IntegrandError, match="NaN"):
        integrate(f, (0.0, 1.0))


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
    got = _refine_panels(g, edges[:-1], edges[1:], 1e-13, 1e-13,
                         first=_gk(f, edges[:-1], edges[1:]))
    sizes = [x.size for x in seen]
    assert max(sizes) <= 2 * _ROUND_LEAVES * 15
    assert len(sizes) > 5
    F = lambda x: -np.exp(-x) * (np.sin(300.0 * x) + 300.0 * np.cos(300.0 * x)) / 90001.0
    assert got.sum() == pytest.approx(F(10.0) - F(0.0), abs=1e-12)


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


@pytest.mark.parametrize("g, lo, hi", [
    (np.expm1, -3.0, 2.0),
    (lambda x: x ** 3, -2.0, 1.5),
    (lambda x: -np.expm1(-1.3 * np.maximum(x, 0.0)), 0.0, 30.0),
], ids=["expm1", "cube", "exp-cdf"])
def test_chandrupatla_lands_where_bisect_does(g, lo, hi):
    # on monotone g the pair is _bisect's, bit for bit, unless the solver
    # hit g(t) == target exactly: common where g compresses the doubles,
    # as the cdf does near 1; x**3 also hits at 0. Brackets come from a
    # node table, as in image inversion
    rng = np.random.default_rng(3)
    target = np.concatenate([rng.uniform(g(lo), g(hi), 198), [0.0, g(hi) * (1 - 1e-15)]])
    nodes = np.linspace(lo, hi, 33)
    i = np.clip(np.searchsorted(g(nodes), target), 1, 32)
    h, bisect_calls = _counted(g)
    want = _bisect(h, target, nodes[i - 1], nodes[i])
    h, calls = _counted(g)
    a, b = _chandrupatla(h, target, nodes[i - 1], nodes[i])
    same = (a == want[0]) & (b == want[1])
    hit = (a == b) & (g(a) == target)
    assert np.all(same | hit)
    assert np.count_nonzero(same & (b == np.nextafter(a, math.inf))) >= 10
    # brackets across 0 bisect their keys down to one binade first
    assert sum(calls) < 0.3 * sum(bisect_calls)


def test_chandrupatla_closes_brackets_that_miss_on_the_nearest_end():
    # out-of-range, NaN and infinite targets, as on the out-of-range path of
    # image inversion, whose cdf relies on landing on the nearest edge
    target = np.array([-5.0, 100.0, np.nan, np.inf, -np.inf])
    lo, hi = np.full(5, -1.0), np.full(5, 2.0)
    a, b = _chandrupatla(np.expm1, target, lo, hi)
    want = _bisect(np.expm1, target, lo, hi)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(a, [-1.0, 2.0, -1.0, 2.0, -1.0])
    np.testing.assert_array_equal(want[0][[0, 2, 4]], -1.0)
    np.testing.assert_array_equal(want[1][[1, 3]], 2.0)


def test_chandrupatla_closes_on_exact_hits_and_staircases():
    # a query at a bracket end, as when a probe point is a bracket-table
    # node, stops on that end; a staircase and a jump defeat interpolation
    # and still close, within two rounds per halving of the key gap (the
    # jump took 43,462 rounds without the halving rule)
    ident, calls = _counted(lambda x: x)
    a, b = _chandrupatla(ident, np.array([0.5, 0.25, 0.3]),
                         np.array([0.25, 0.25, 0.25]), np.array([0.5, 0.5, 0.5]))
    np.testing.assert_array_equal(a, [0.5, 0.25, 0.3])
    np.testing.assert_array_equal(b, a)
    assert len(calls) <= 2 * 64
    stairs, calls = _counted(lambda x: np.floor(8.0 * x) / 8.0)
    a, b = _chandrupatla(stairs, np.array([0.3, 0.3, 0.25]), np.array([0.0, -1e300, 0.0]),
                         np.array([1.0, 1e300, 1.0]))
    assert len(calls) <= 2 * 64
    np.testing.assert_array_equal(b[:2], [0.375, 0.375])
    np.testing.assert_array_equal(a[:2], np.nextafter(0.375, 0.0))
    # 0.25 is a step value: any point of its flat run is a hit
    assert a[2] == b[2] and stairs(a[2:]) == 0.25
    jump, calls = _counted(lambda x: x + 1e6 * (x > 0.7))
    a, b = _chandrupatla(jump, np.array([100.0]), np.array([0.5]), np.array([1.0]))
    assert len(calls) <= 2 * 64
    assert a[0] == 0.7 and b[0] == np.nextafter(0.7, 1.0)


def test_chandrupatla_empty_batch_makes_no_call():
    g, calls = _counted(lambda x: x)
    a, b = _chandrupatla(g, 0.0, np.empty(0), np.empty(0))
    assert a.size == b.size == 0 and not calls
