import math

import mpmath
import numpy as np
import pytest
import scipy.special
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
from updown.errors import CapabilityError, DomainError, UnsupportedCaseError
from updown.numerics import Interval


def test_normalization_gate():
    with pytest.raises(DomainError, match="mass"):
        Density(lambda x: np.full_like(x, 2.0), Interval(0.0, 1.0))


def test_monotone_claim_checked():
    with pytest.raises(DomainError, match="decreasing"):
        Density(lambda x: np.full_like(x, 1.0), Interval(0.0, 1.0),
                d1=lambda x: np.zeros_like(x), monotone_decreasing=True)


def test_monotone_claim_needs_d1():
    with pytest.raises(CapabilityError):
        Density(lambda x: np.full_like(x, 1.0), Interval(0.0, 1.0),
                monotone_decreasing=True)


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
    assert m.monotone_decreasing is None


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
    assert h.monotone_decreasing is True
    assert h.expect(lambda x, f0: np.ones_like(x)).value == pytest.approx(1.0, abs=1e-8)
    assert h.pdf(np.array([0.5]))[0] == pytest.approx(
        2.0 * math.exp(-0.25) / math.sqrt(math.pi))


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


def test_edge_values():
    e = exponential(1.0, 0.0)
    assert e.edge_value("lo") == pytest.approx(1.0, abs=1e-6)
    assert e.edge_value("hi") == 0.0
    assert uniform(0.0, 1.0).edge_value("lo") == pytest.approx(1.0)
    assert gzero(2.0).edge_value("hi") == 0.0


def test_esssup():
    assert uniform(-2.0, 1.0).esssup_abs() == 2.0
    assert exponential(1.0, 0.0).esssup_abs() == math.inf


def test_strict_monotone_sign():
    assert exponential(1.0, 0.0).strict_monotone_sign() == -1
    assert stretched_gaussian(2.0, 1.0).strict_monotone_sign() is None
    assert uniform(0.0, 1.0).strict_monotone_sign() is None
