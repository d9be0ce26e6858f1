import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special
import sympy
from hypothesis import given, settings, strategies as st

from updown.densities import (
    Density,
    affine_image,
    corpus,
    exponential,
    gzero,
    half_restriction,
    power_tail,
    rescale,
    stretched_gaussian,
    texp,
    uniform,
)
from updown.errors import AccuracyError, CapabilityError, DomainError, UnsupportedCaseError
from updown.functionals import mu
from updown.numerics import Interval, _CumTable
from updown.transforms import down, up


def test_normalization_gate():
    with pytest.raises(DomainError, match="mass"):
        Density(lambda x: np.full_like(x, 2.0), Interval(0.0, 1.0))


@pytest.mark.parametrize("eta", [1.01, 1.03])
def test_unconverged_normalization_is_an_accuracy_error(eta):
    # valid under eta > 1, but the tail holds mass out past where the
    # quadrature can reach: the mass comes back short, unconverged
    with pytest.raises(AccuracyError, match=r"mass 0\.[37]\d+ did not converge "
                                            r"\(error estimate \d"):
        power_tail(eta, 1.0)


def test_corpus_members():
    cs = corpus()
    assert len(cs) == 6
    assert [f.label for f in cs] == [
        "exponential(1,0)", "exponential(2,1)", "power_tail(2,1)",
        "power_tail(3,2)", "stretched_gaussian(2,1)", "uniform(0,1)"]


@pytest.mark.parametrize("f", corpus(), ids=lambda f: f.label)
def test_unit_mass(f):
    got = f.expect(lambda x, f0: np.ones_like(x))
    assert got.value == pytest.approx(1.0, abs=1e-8)


QUANTILE_ORACLES = [
    (exponential(1.0, 0.0), lambda l: -np.log1p(-l)),
    (exponential(2.0, 1.0), lambda l: 1.0 - 0.5 * np.log1p(-l)),
    (power_tail(2.0, 1.0), lambda l: (1.0 - l) ** -1.0),
    (uniform(0.0, 1.0), lambda l: l),
    (stretched_gaussian(2.0, 1.0), lambda l: scipy.special.erfinv(2.0 * l - 1.0)),
    (uniform(-1.0, 2.0), lambda l: 3.0 * l - 1.0),
    (power_tail(3.0, 2.0), lambda l: 2.0 * (1.0 - l) ** -0.5),
    (affine_image(exponential(1.3, 0.0), -2.0, 0.5), lambda l: 0.25 + np.log(l) / 2.6),
    (affine_image(power_tail(2.0, 1.0), 3.0, 1.0), lambda l: ((1.0 - l) ** -1.0 - 1.0) / 3.0),
]


@pytest.mark.parametrize("f,qf", QUANTILE_ORACLES, ids=lambda v: getattr(v, "label", "oracle"))
def test_quantiles_match_closed_forms(f, qf):
    levels = np.array([0.01, 0.2, 0.5, 0.8, 0.99])
    assert np.max(np.abs(f.quantile_many(levels) - qf(levels))) < 1e-9


# exact parameters as mpmath numbers, so the oracle is the true quantile of
# the density the double parameters define
MP_QUANTILES = [
    (uniform(-1.0, 2.0), lambda l: -1 + 3 * l),
    (uniform(0.3, 0.7), lambda l: mpmath.mpf(0.3) + (mpmath.mpf(0.7) - mpmath.mpf(0.3)) * l),
    (exponential(1.3, -0.4), lambda l: mpmath.mpf(-0.4) - mpmath.log1p(-l) / mpmath.mpf(1.3)),
    (power_tail(2.0, 1.0), lambda l: 1 / (1 - l)),
    (power_tail(1.73, 1.3), lambda l: mpmath.mpf(1.3) * (1 - l) ** (-1 / (mpmath.mpf(1.73) - 1))),
    (power_tail(1.05, 1.0), lambda l: (1 - l) ** (-1 / (mpmath.mpf(1.05) - 1))),
]


@pytest.mark.parametrize("f,qf", MP_QUANTILES, ids=lambda v: getattr(v, "label", "oracle"))
def test_closed_form_quantiles_match_mpmath(f, qf):
    # within 4 ulp of max(|q|, 1) at every level, tails included. Bisection
    # on the cdf is 8-49 ulp off at level 0.99 and over 2e4 ulp from
    # 1 - 1e-6 on, where the cdf's doubles run flat. Rounding 1/(eta-1)
    # alone would cost 20 ulp at eta = 1.73, rounding 1 - level 10 ulp at
    # eta = 1.05
    levels = np.array([1e-12, 1e-6, 0.01, 0.2, 0.5, 0.8, 0.99, 1 - 1e-6, 1 - 2.0 ** -41])
    got = f.quantile_many(levels)
    with mpmath.workdps(30):
        err = [float(abs(mpmath.mpf(float(g)) - qf(mpmath.mpf(float(v)))))
               for g, v in zip(got, levels)]
    assert np.all(np.array(err) <= 4.0 * np.spacing(np.maximum(np.abs(got), 1.0)))


@pytest.mark.parametrize("f", [
    stretched_gaussian(2.0, 1.0), gzero(1.5), half_restriction(stretched_gaussian(2.0, 1.0)),
], ids=lambda f: f.label)
def test_node_table_quantiles_work_count(f, monkeypatch):
    # without a quantile hook the node table is inverted, at a partial
    # GK15 panel per point and read: 12-16 reads here, 52-53 by bisection
    f._node_table()
    read, calls = _CumTable.__call__, []
    monkeypatch.setattr(_CumTable, "__call__", lambda tab, t: calls.append(t.size) or read(tab, t))
    levels = (np.arange(64) + 0.5) / 64
    q = f.quantile_many(levels)
    monkeypatch.undo()
    assert len(calls) <= 24
    assert np.max(np.abs(f.cdf_at(q) - levels)) < 1e-12


@pytest.mark.parametrize("f", [
    stretched_gaussian(2.0, 1.0), gzero(1.5), half_restriction(stretched_gaussian(2.0, 1.0)),
], ids=lambda f: f.label)
def test_node_table_quantiles_of_an_nd_array(f):
    # a root without a quantile hook inverts its node table on the flat
    # levels and answers in their shape
    levels = np.array([[0.1, 0.3], [0.7, 0.95]])
    q = f.quantile_many(levels)
    assert q.shape == (2, 2)
    assert q.tobytes() == f.quantile_many(levels.ravel()).tobytes()


def test_node_table_holds_a_heavy_tail():
    # the pdf falls off as |x|**-1.23: the table missed the 1.3e-3 of mass
    # past its fixed nodes at 2**41 before its ends walked on to a
    # subnormal pdf
    f = stretched_gaussian(10.0, 0.1)
    levels = np.array([1e-6, 0.01, 0.3, 0.5, 0.7, 0.99, 1.0 - 1e-6])
    np.testing.assert_allclose(f.cdf_at(f.quantile_many(levels)), levels, rtol=0.0, atol=1e-12)
    assert f.cdf_at(1e300) == pytest.approx(1.0, abs=1e-12)


def test_node_table_on_a_support_with_no_finite_point():
    # (-inf, inf) and no interior point: the table's nodes grow both ways
    # from 0. The logistic pdf, in a form that cannot overflow
    f = Density(lambda x: np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))) ** 2,
                Interval(-math.inf, math.inf), label="logistic")
    x = np.array([-30.0, -3.0, 0.0, 0.5, 7.0, 40.0])
    np.testing.assert_allclose(f.cdf_at(x), 1.0 / (1.0 + np.exp(-x)), rtol=0.0, atol=1e-13)
    v = np.array([1e-9, 1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-6])
    np.testing.assert_allclose(f.quantile_many(v), np.log(v / (1.0 - v)), rtol=1e-9, atol=1e-12)
    assert mu(f, 2).value == pytest.approx(math.pi ** 2 / 3.0, rel=1e-9)


# the Cauchy pdf is normal out to 3.8e153, and each infinite end's nodes
# past 2**41 run outward from the cut at 5, not from 0
_CAUCHY = Density(lambda x: 1.0 / (math.pi * (1.0 + x * x)), Interval(-math.inf, math.inf),
                  interior_points=(5.0,), label="cauchy-cut-at-5")


@pytest.mark.parametrize("f, side", [
    (exponential(1.0, 0.0), "hi"), (exponential(2.0, 1.0), "hi"),
    (stretched_gaussian(2.0, 1.0), "lo"), (stretched_gaussian(2.0, 1.0), "hi"),
    (half_restriction(stretched_gaussian(2.0, 1.0)), "hi"), (power_tail(2.0, 1.0), "hi"),
    (_CAUCHY, "lo"), (_CAUCHY, "hi"),
], ids=lambda v: v if isinstance(v, str) else v.label)
def test_node_table_ends_at_the_subnormal_onset(f, side):
    # an infinite end is the first double past the bulk with a subnormal
    # pdf: exponential(1) ends at 708.4, not at its fixed node 2**41
    ts = f._node_table().ts
    end, bulk = (ts[-1], -math.inf) if side == "hi" else (ts[0], math.inf)
    tiny = np.finfo(float).tiny
    assert f.pdf(end) < tiny <= f.pdf(np.nextafter(end, bulk))


def test_node_table_keeps_mass_past_a_gap():
    # the pdf is 0 across (745, 1500) and normal again past 1500: the
    # table ends at the last onset, near 2207.7, not in the gap
    def pdf(x):
        with np.errstate(over="ignore"):
            return 0.5 * np.exp(-x) + np.where(x > 1500.0, 0.5 * np.exp(-(x - 1500.0)), 0.0)

    f = Density(pdf, Interval(0.0, math.inf), interior_points=(1500.0,), label="gap")
    ts = f._node_table().ts
    assert np.any(f.pdf(ts) == 0.0) and ts[-1] > 2200.0
    assert f.cdf_at(1600.0) == pytest.approx(1.0, abs=1e-12)
    assert f.quantile_many(0.75)[0] == pytest.approx(1500.0 + math.log(2.0), abs=1e-12)


def test_interior_point_past_the_subnormal_onset_gets_no_ladder():
    # the table of exp(-x) ends at 708.4, so the cut at 1000 has no node on
    # either side and no ladder; listing its sides used to raise IndexError
    f = Density(lambda x: np.exp(-x), Interval(0.0, math.inf), interior_points=(1000.0,))
    v = np.array([1e-6, 0.01, 0.3, 0.5, 0.7, 0.99, 0.999])
    assert f.median() == pytest.approx(math.log(2.0), rel=1e-12)
    np.testing.assert_allclose(f.quantile_many(v), -np.log1p(-v), rtol=1e-12)
    np.testing.assert_allclose(f.cdf_at(np.array([0.5, 700.0, 1000.0, 1200.0])),
                               -np.expm1([-0.5, -700.0, -1000.0, -1200.0]), rtol=1e-12)
    # its up image reads as up(exponential(1), 3) does
    img = up(f, 3.0)
    assert img.integral(lambda y, h: h).value == pytest.approx(1.0, abs=1e-9)
    assert mu(img, 1).value == pytest.approx(0.75, rel=1e-12)
    # the same on the lo side: the Laplace table starts near -708.4
    lap = Density(lambda x: 0.5 * np.exp(-np.abs(x)), Interval(-math.inf, math.inf),
                  interior_points=(-900.0, 0.0))
    assert abs(lap.median()) < 1e-12
    np.testing.assert_allclose(lap.quantile_many(np.array([0.2, 0.8])),
                               [-math.log(2.5), math.log(2.5)], rtol=1e-12)


def test_node_table_that_misses_the_mass_says_so():
    # a normal cut only at -900 lays its nodes outward from the cut, and only
    # -388 and 124 fall in (-500, 500): the table held 3.8e-70 of the mass
    # and read median() -16.36 with no error
    normal = Density(lambda x: np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi),
                     Interval(-math.inf, math.inf), interior_points=(-900.0,))
    with pytest.raises(AccuracyError, match=r"node table holds mass 3\.8\d*e-70, the pdf 0\.99"):
        normal.median()


def test_integral_calls_fn_only_where_the_pdf_is_nonzero():
    # the ladder toward a mapped infinite end runs far past the pdf's
    # underflow; fn, for an image the whole pullback, skips those points
    for f in (exponential(1.0), up(exponential(1.0), 3.0)):
        seen = []

        def spy(x, f0):
            seen.append((x.size, float(np.min(f0, initial=np.inf))))
            return x * f0

        assert f.integral(spy).converged
        sizes, lows = np.array(seen).T
        assert np.all(sizes > 0) and np.all(lows > 0.0)
    # skipping the zero-pdf points moves no bit of a nested image's moment
    assert mu(up(up(exponential(1.0), 1.5), 1.5), 1).value.hex() == "0x1.1a31ee2bda6b1p+38"


def test_grid_quantiles_memo_is_bounded_and_private():
    # the library's fixed grids are solved once per density; caller-chosen
    # levels stay out of the memo, and quantiles(n) hands out a fresh copy
    f = stretched_gaussian(2.0, 1.0)
    first = f.quantiles(8)
    med = f.median()
    size = len(f._grids)
    rng = np.random.default_rng(0)
    for _ in range(50):
        f.quantile_many(rng.uniform(0.01, 0.99, size=8))
    assert len(f._grids) == size
    first[:] = 7.0
    again = f.quantiles(8)
    assert again.flags.writeable and np.all(again != 7.0)
    assert np.array_equal(again, f.quantile_many((np.arange(8) + 0.5) / 8))
    assert isinstance(med, float) and med == f.quantile_many(0.5)[0]


def test_cdf_next_to_a_singular_node():
    # a partial GK15 panel from the node 0 to a subnormal x collapses its
    # nodes onto the log singularity there (a NaN warning at 5e-324, inf at
    # 1.5e-323); the stub under the innermost rung answers in closed form
    f = gzero(1.5)
    x = np.array([-5e-324, 0.0, 5e-324, 1.5e-323, 1e-300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = f.cdf_at(x)
        assert np.array_equal([f.cdf_at(v) for v in x], got)
    assert np.all(np.isfinite(got) & (got >= 0.0) & (got <= 1.0))
    assert np.all(np.diff(got) >= 0.0)


def _gzero15_cdf(x):
    # a0 = 1/4 and the antiderivative t (L**2 + 2 L + 2), L = -log t, of
    # (-log t)**2 on (0, 1)
    t = abs(mpmath.mpf(x))
    m = 0 if t == 0 else t * ((mpmath.log(t)) ** 2 - 2 * mpmath.log(t) + 2) / 4
    return mpmath.mpf(0.5) + (m if x > 0 else -m)


def _sg215_cdf(x):
    # a (1 - t**2/2)**2 on |t| < sqrt(2), a = 15/(16 sqrt(2))
    x = mpmath.mpf(x)
    return mpmath.mpf(0.5) + 15 / (16 * mpmath.sqrt(2)) * (x - x ** 3 / 3 + x ** 5 / 20)


@pytest.mark.parametrize("f, cdf, x", [
    (gzero(1.5), _gzero15_cdf, [-1.0 + 2.0 ** -45, -1.0 + 1e-13, -1e-13, -1e-30, -1e-300, 0.0,
                                1e-300, 1e-40, 1e-13, 2.0 ** -41, 1.0 - 1e-13]),
    (stretched_gaussian(2.0, 1.5), _sg215_cdf,
     [-math.sqrt(2.0) * (1.0 - 2.0 ** -k) for k in (30, 45)] + [-2.0 ** -20, -2.0 ** -150, 0.0,
                                                               2.0 ** -40, 2.0 ** -20]
     + [math.sqrt(2.0) * (1.0 - 2.0 ** -30)]),
], ids=["gzero(1.5)", "stretched_gaussian(2,1.5)"])
def test_node_table_cdf_at_singular_points_matches_mpmath(f, cdf, x):
    # inside the panels next to the singular edges and the interior point,
    # where the ladders and their closed stubs hold the table
    got = f.cdf_at(np.array(x))
    with mpmath.workdps(30):
        err = [float(abs(mpmath.mpf(float(g)) - cdf(v))) for g, v in zip(got, x)]
    assert max(err) < 1e-12


@pytest.mark.parametrize("f", corpus(), ids=lambda f: f.label)
def test_cdf_quantile_round_trip(f):
    levels = np.array([0.05, 0.3, 0.5, 0.7, 0.95])
    assert np.max(np.abs(f.cdf_at(f.quantile_many(levels)) - levels)) < 1e-9


@pytest.mark.parametrize("f,shift", [
    (exponential(1.0, 0.0), 0.0),
    (power_tail(2.0, 1.0), 0.0),
    (stretched_gaussian(2.0, 1.0), 0.0),
    (stretched_gaussian(3.0, 0.5), 0.0),
    (gzero(2.0), 0.35),
])
def test_derivatives_match_finite_differences(f, shift):
    x = np.array([0.31, 0.77, 1.4]) + shift
    x = x[(x > f.support.lo + 0.05) & (x < min(f.support.hi, 50.0))]
    h = 1e-5
    fd1 = (f.pdf(x + h) - f.pdf(x - h)) / (2 * h)
    assert np.max(np.abs(fd1 - f.d1(x))) < 1e-6 * (1 + np.max(np.abs(fd1)))
    fd2 = (f.pdf(x + h) - 2 * f.pdf(x) + f.pdf(x - h)) / h**2
    assert np.max(np.abs(fd2 - f.d2(x))) < 1e-4 * (1 + np.max(np.abs(fd2)))


def test_third_derivative_hook():
    f = exponential(2.0, 0.0)
    x = np.array([0.5, 1.0])
    assert np.allclose(f.d3(x), -8.0 * f.pdf(x))


def test_expect_moments():
    e = exponential(1.0, 0.0)
    assert e.expect(lambda x, f0: x).value == pytest.approx(1.0, abs=1e-10)
    g = stretched_gaussian(2.0, 1.0)
    assert g.expect(lambda x, f0: x * x).value == pytest.approx(0.5, abs=1e-10)


def test_expect_divergent_flagged():
    f = power_tail(2.0, 1.0)  # pdf x^-2: first moment diverges
    got = f.expect(lambda x, f0: x)
    assert not got.converged


def test_exponential_names_a_non_finite_shift():
    for shift in (math.nan, math.inf):
        with pytest.raises(DomainError, match=r"\bshift\b"):
            exponential(1.0, shift)


def test_power_tail_needs_eta_above_one():
    with pytest.raises(DomainError):
        power_tail(1.0, 1.0)
    with pytest.raises(DomainError):
        power_tail(0.5, 2.0)


def test_expect_needs_derivatives():
    f = Density(lambda x: np.full_like(x, 1.0), Interval(0.0, 1.0))
    with pytest.raises(CapabilityError):
        f.expect(lambda x, f0, f1: f1, needs=1)


def test_pdf_at_masks_outside():
    e = exponential(1.0, 0.0)
    assert e.pdf_at(np.array([-1.0, 0.5]))[0] == 0.0
    assert e.pdf_at(np.array([-1.0, 0.5]))[1] == pytest.approx(math.exp(-0.5))


def test_affine_image_reflection():
    m = affine_image(exponential(1.0, 0.0), -1.0)
    assert m.support.hi == 0.0 and m.support.lo == -math.inf
    assert m.pdf(np.array([-2.0]))[0] == pytest.approx(math.exp(-2.0))
    assert m.strict_monotone_sign() == 1


def test_rescale_mass_and_pdf():
    r = rescale(exponential(1.0, 0.0), 3.0)
    assert r.expect(lambda x, f0: np.ones_like(x)).value == pytest.approx(1.0, abs=1e-9)
    assert r.pdf(np.array([0.5]))[0] == pytest.approx(3.0 * math.exp(-1.5))


@given(st.floats(min_value=0.3, max_value=4.0))
@settings(max_examples=10, deadline=None)
def test_rescale_quantile_scaling(kappa):
    f = exponential(1.0, 0.0)
    levels = np.array([0.2, 0.5, 0.8])
    got = rescale(f, kappa).quantile_many(levels)
    assert np.allclose(got, f.quantile_many(levels) / kappa, atol=1e-9)


def test_half_restriction():
    h = half_restriction(stretched_gaussian(2.0, 1.0))
    assert h.support.lo == 0.0
    assert h.strict_monotone_sign() == -1
    assert h.expect(lambda x, f0: np.ones_like(x)).value == pytest.approx(1.0, abs=1e-8)
    assert h.pdf(np.array([0.5]))[0] == pytest.approx(
        2.0 * math.exp(-0.25) / math.sqrt(math.pi))


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("lam", [1.0, 1.5])
def test_stretched_gaussian_d3_matches_sympy(p, lam):
    # for x > 0 the profile is exp(-x**p*) at lam = 1, else
    # (1 - (lam - 1) x**p*)**(1/(lam - 1)); its third derivative is odd in x
    f = stretched_gaussian(p, lam)
    x = sympy.Symbol("x", positive=True)
    ps, lr = sympy.Rational(p) / (sympy.Rational(p) - 1), sympy.Rational(lam)
    prof = sympy.exp(-x ** ps) if lam == 1.0 else (1 - (lr - 1) * x ** ps) ** (1 / (lr - 1))
    d3 = sympy.lambdify(x, sympy.diff(prof, x, 3), "mpmath")
    xs = np.array([0.3, 0.7, 1.1, 1.35])
    want = f.pdf(0.0) * np.array([float(d3(v)) for v in xs])  # the profile is 1 at 0
    np.testing.assert_allclose(f.d3(xs), want, rtol=1e-12)
    np.testing.assert_allclose(f.d3(-xs), -want, rtol=1e-12)
    np.testing.assert_allclose(half_restriction(f).d3(xs), 2.0 * want, rtol=1e-12)


def test_half_restriction_needs_symmetric_support():
    with pytest.raises(DomainError):
        half_restriction(exponential(1.0, 0.0))


def test_texp_limits():
    y = np.array([-0.5, 0.0, 0.3])
    assert np.allclose(texp(y, 1.0), np.exp(y))
    # lam = 0: 1 + y clipped at zero
    assert np.allclose(texp(np.array([-2.0, 0.5]), 0.0), [0.0, 1.5])


def test_stretched_gaussian_rejects_bad_p():
    with pytest.raises(UnsupportedCaseError):
        stretched_gaussian(1.0, 1.0)
    with pytest.raises(UnsupportedCaseError):
        stretched_gaussian(0.5, 1.0)  # conjugate exponent negative
    with pytest.raises(UnsupportedCaseError):
        stretched_gaussian(0.0, 2.0)


def test_stretched_gaussian_compact_support():
    c = stretched_gaussian(2.0, 3.0)
    want = (3.0 - 1.0) ** -0.5
    assert c.support.hi == pytest.approx(want)
    assert c.support.lo == pytest.approx(-want)
    assert c.pdf(np.array([want * (1 - 1e-9)]))[0] < 1e-3


def test_stretched_gaussian_negative_p():
    g = stretched_gaussian(-1.0, 1.0)  # conjugate exponent 1/2: cusp at 0
    assert g.expect(lambda x, f0: np.ones_like(x)).value == pytest.approx(1.0, abs=1e-8)
    assert 0.0 in g.interior_points


def test_gzero_profile():
    gz = gzero(2.0)
    # normalizer 1/(2 Gamma(2)) = 1/2
    assert gz.pdf(np.array([0.5]))[0] == pytest.approx(0.5 * math.log(2.0))
    assert gz.median() == pytest.approx(0.0, abs=1e-12)
    assert gz.support.lo == -1.0 and gz.support.hi == 1.0
    with pytest.raises(DomainError):
        gzero(1.0)


def _mp_log(pdf):
    """x -> log pdf(x) in mpmath, at an exact double x."""
    return lambda x: mpmath.log(pdf(mpmath.mpf(float(x))))


def _mp_stretched(p, lam, a):
    # the pdf that the double parameters and the double normalizer
    # a = pdf(0) define
    ps, lam = mpmath.mpf(p) / (mpmath.mpf(p) - 1), mpmath.mpf(lam)
    if lam == 1:
        return lambda x: a * mpmath.exp(-abs(x) ** ps)
    return lambda x: a * (1 - (lam - 1) * abs(x) ** ps) ** (1 / (lam - 1))


_SG21 = stretched_gaussian(2.0, 1.0)
_SG3 = stretched_gaussian(3.0, 1.2)
_SG15 = stretched_gaussian(1.5, 0.8)
_A_SG21 = mpmath.mpf(float(_SG21.pdf(0.0)))
_EXP_RATE, _EXP_SHIFT = mpmath.mpf(2.7), mpmath.mpf(-0.3)
_PT_C = mpmath.mpf(0.5) * mpmath.mpf(0.7) ** mpmath.mpf(0.5)

# (density, its pdf in mpmath, far-tail points where the double pdf is
# subnormal or 0)
LOGPDF_ORACLES = [
    (exponential(2.7, -0.3),
     lambda x: _EXP_RATE * mpmath.exp(-_EXP_RATE * (x - _EXP_SHIFT)), [270.0, 300.0, 1e4]),
    (power_tail(1.5, 0.7), lambda x: _PT_C * x ** mpmath.mpf(-1.5), [1e206, 1e250, 1e300]),
    (uniform(-1.0, 2.0), lambda x: mpmath.mpf(1) / 3, []),
    (gzero(1.5), lambda x: (-mpmath.log(abs(x))) ** 2 / (2 * mpmath.gamma(3)), []),
    (half_restriction(_SG21), lambda x: 2 * _mp_stretched(2.0, 1.0, _A_SG21)(x),
     [27.0, 30.0, 100.0]),
    (_SG21, _mp_stretched(2.0, 1.0, _A_SG21), [-27.0, 30.0, -100.0]),
    (_SG3, _mp_stretched(3.0, 1.2, mpmath.mpf(float(_SG3.pdf(0.0)))), []),
    (_SG15, _mp_stretched(1.5, 0.8, mpmath.mpf(float(_SG15.pdf(0.0)))), [1e21, -1e22, 1e30]),
]


@pytest.mark.parametrize("f,pdf,far", LOGPDF_ORACLES,
                         ids=[f.label for f, _, _ in LOGPDF_ORACLES])
def test_logpdf_closed_forms_match_mpmath(f, pdf, far):
    # each family's closed-form log density, at 64 quantiles and where the
    # double pdf is subnormal or 0 (there np.log(pdf) is off or -inf)
    x = np.concatenate([f.quantiles(64), far])
    got = f.logpdf(x)
    with mpmath.workdps(40):
        want = np.array([float(_mp_log(pdf)(v)) for v in x])
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))
    if far:
        assert np.all(f.pdf(np.array(far)) < np.finfo(float).tiny)


def test_logpdf_without_a_hook_is_the_log_of_the_pdf():
    # a user-built density, out past the pdf's underflow
    lap = Density(lambda x: 0.5 * np.exp(-np.abs(x)), Interval(-math.inf, math.inf))
    x = np.concatenate([lap.quantiles(16), [lap.quantile_many(1e-15)[0], 750.0, 1e4]])
    with np.errstate(divide="ignore"):
        want = np.log(lap.pdf(x))
    assert lap.logpdf(x).tobytes() == want.tobytes()
    assert lap.logpdf(np.array([800.0]))[0] == -math.inf


def test_root_push_reads_the_pdf_once():
    # a root without a logpdf hook takes log f from the pdf values its
    # ratios read, not from a second pdf call
    sizes = []

    def pdf(x):
        sizes.append(x.size)
        return 0.5 * np.exp(-np.abs(x))

    lap = Density(pdf, Interval(-math.inf, math.inf), interior_points=(0.0,),
                  d1=lambda x: -0.5 * np.sign(x) * np.exp(-np.abs(x)),
                  d2=lambda x: 0.5 * np.exp(-np.abs(x)))
    t = np.array([-3.0, -0.5, 0.5, 3.0])
    sizes.clear()
    lf, s1, k = lap._push(t, 2)
    assert sizes == [4]
    np.testing.assert_allclose(lf, np.log(0.5) - np.abs(t), rtol=1e-15)
    np.testing.assert_array_equal(s1, -np.sign(t))
    np.testing.assert_array_equal(k, np.ones(4))


def test_image_logpdf_reads_log_h_off_its_push():
    # an image's log density is log h of one inversion and one push: the log
    # of its pdf inside the support, -inf outside it, and exact where h
    # underflows. down(exponential(1), 3) has h(y) = y**-2 on y > 1, where
    # np.log(pdf) read -inf at y = 1e200
    img = up(exponential(1.0), 3.0)
    x = np.concatenate([img.quantiles(16), [img.quantile_many(1e-15)[0], 750.0, 1e4]])
    with np.errstate(divide="ignore"):
        want = np.log(img.pdf(x))
    got = img.logpdf(x)
    assert np.all(np.abs(got[:-2] - want[:-2]) <= 4e-16 * np.maximum(1.0, np.abs(want[:-2])))
    assert np.all(got[-2:] == -math.inf) and np.all(want[-2:] == -math.inf)
    d = down(exponential(1.0), 3.0)
    y = np.array([1.5, 10.0, 1e100, 1e200, 1e300])
    np.testing.assert_allclose(d.logpdf(y), -2.0 * np.log(y), rtol=1e-14)
    assert d.logpdf(1e200)[0] == pytest.approx(-921.0340371976183, rel=1e-14)
    assert np.all(d.logpdf(np.array([0.5, -1.0, np.nan])) == -math.inf)


def test_edge_values():
    e = exponential(1.0, 0.0)
    assert e.edge_value("lo") == pytest.approx(1.0, abs=1e-6)
    assert e.edge_value("hi") == 0.0
    assert uniform(0.0, 1.0).edge_value("lo") == pytest.approx(1.0)
    assert gzero(2.0).edge_value("hi") == 0.0
    with pytest.raises(DomainError):
        e.edge_value("low")


def test_esssup():
    assert uniform(-2.0, 1.0).esssup_abs() == 2.0
    assert exponential(1.0, 0.0).esssup_abs() == math.inf


def test_strict_monotone_sign():
    assert exponential(1.0, 0.0).strict_monotone_sign() == -1
    assert stretched_gaussian(2.0, 1.0).strict_monotone_sign() is None
    assert uniform(0.0, 1.0).strict_monotone_sign() is None


def test_strict_monotone_sign_needs_d1():
    f = Density(lambda x: np.full_like(x, 1.0), Interval(0.0, 1.0))
    with pytest.raises(CapabilityError, match="monotone test needs d1"):
        f.strict_monotone_sign()
