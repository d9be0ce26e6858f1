"""Functional values against closed forms computed by hand or scipy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from updown import functionals as F
from updown.densities import (exponential, gzero, half_restriction,
                              power_tail, rescale, stretched_gaussian,
                              uniform)
from updown.errors import CapabilityError, DomainError
from updown.numerics import Interval, integrate
from updown.transforms import down, up

EULER = 0.5772156649015329

u01 = uniform(0.0, 1.0)
u02 = uniform(0.0, 2.0)
e1 = exponential(1.0, 0.0)
e2 = exponential(2.0, 0.0)
e21 = exponential(2.0, 1.0)
pt21 = power_tail(2.0, 1.0)
g21 = stretched_gaussian(2.0, 1.0)


def close(q, want, tol=1e-9):
    assert q.converged
    assert q.value == pytest.approx(want, rel=tol, abs=tol)


# ---------------------------------------------------------------- moments

def test_abs_moment_exponential():
    # <x^p> for rate A is Gamma(p+1)/A^p
    close(F.mu(e1, 2.0), 2.0)
    close(F.mu(e2, 3.0), 6.0 / 8.0)
    close(F.mu(e1, -0.5), math.sqrt(math.pi))


def test_abs_moment_uniform():
    close(F.mu(u01, 2.0), 1.0 / 3.0)
    close(F.sigma(u01, 2.0), 1.0 / math.sqrt(3.0))


def test_abs_moment_power_tail_divergence():
    # pdf x^-2 on (1,inf): <x^p> finite only for p < 1
    close(F.mu(pt21, 0.5), 2.0)
    for p in (1.0, 2.0):
        q = F.mu(pt21, p)
        assert q.value == math.inf
        assert not q.converged


def test_sigma_limits():
    # p = 0 is the geometric deviation, p = inf the support radius
    close(F.sigma(e1, 0.0), math.exp(-EULER))
    q = F.sigma(u02, math.inf)
    assert q.value == 2.0 and q.converged
    close(F.mu(e1, 0.0), 1.0)


def test_log_moments():
    # int_0^1 |log x|^p dx = Gamma(p+1)
    close(F.log_moment(u01, 1.0), 1.0)
    close(F.log_moment(u01, 2.5), math.gamma(3.5))
    close(F.mean_log_abs(u01), -1.0)
    close(F.mean_log_abs(e1), -EULER)


def test_exp_moment():
    close(F.exp_moment(e2, 2.0), math.sqrt(0.5))
    # <e^(-p x)> = A/(A+p) for p > -A, then take the 1/p root
    close(F.exp_moment(e1, -0.5), (1.0 / 0.5) ** (1.0 / -0.5))
    with pytest.raises(DomainError):
        F.exp_moment(e1, 0.0)


def test_mean():
    close(F.mean(e21), 1.5)
    close(F.mean(u02), 1.0)


# ---------------------------------------------------------------- entropies

def test_shannon():
    close(F.shannon(e2), 1.0 - math.log(2.0))
    close(F.shannon(u02), math.log(2.0))
    # gaussian with p* = 2: S = (1 + log pi)/2
    close(F.shannon(g21), 0.5 * (1.0 + math.log(math.pi)), 1e-8)


def test_renyi_uniform_flat_in_order():
    for lam in (0.5, 2.0, 3.0, 7.0, 2000.0):
        close(F.renyi(u02, lam), math.log(2.0))


def test_renyi_exponential():
    # int f^lam = A^(lam-1)/lam, so R_lam = log A - log(lam)/(lam-1)... signs:
    # R_lam = (1/(1-lam)) log(A^(lam-1)/lam) = -log A + log(lam)/(lam-1)
    for lam in (0.5, 2.0, 4.0):
        close(F.renyi(e2, lam), -math.log(2.0) + math.log(lam) / (lam - 1.0))


def test_renyi_at_a_far_scale_and_a_large_order():
    # f**60 of a pdf near 1e6 overflows; its log does not
    close(F.renyi(rescale(e1, 1e6), 60.0), -math.log(1e6) + math.log(60.0) / 59.0)


def test_renyi_divergent_order_reads_inf():
    # int f**0.5 of the x**-2 tail is an x**-1 stub: divergent, as mu(pt21, 1)
    q = F.renyi(pt21, 0.5)
    assert (q.value, q.converged, q.err) == (math.inf, False, math.inf)


def test_renyi_snaps_to_shannon():
    close(F.renyi(e2, 1.0), 1.0 - math.log(2.0))
    close(F.renyi(e2, 1.0 + 1e-14), 1.0 - math.log(2.0))


def test_tsallis():
    close(F.tsallis(u02, 2.0), 0.5)
    close(F.tsallis(e1, 2.0), 0.5)
    close(F.tsallis(e2, 1.0), 1.0 - math.log(2.0))


def test_renyi_power():
    close(F.renyi_power(u02, 3.0), 2.0)
    close(F.renyi_power(u02, 2000.0), 2.0)
    close(F.renyi_power(e1, 2.0), 2.0)
    close(F.renyi_power(e1, 1.0), math.e)


def test_renyi_power_divergent_order():
    # lam < 0 against an exponential tail diverges, flagged not raised
    q = F.renyi_power(e1, -1.0)
    assert not q.converged


# ---------------------------------------------------------------- fisher

def test_fisher_exponential_closed_form():
    # |f'|^p f^(p(lam-2)+1) integrates to A^(p lam) / (1 + p(lam-1))
    for p in (0.5, 1.0, 2.0, 3.0):
        for lam in (0.8, 1.0, 1.5, 2.0):
            want = 2.0 ** (p * lam) / (1.0 + p * (lam - 1.0))
            close(F.fisher(e2, p, lam), want, 1e-8)


def test_fisher_gaussian():
    # classical Fisher information of the standard stretched case
    close(F.fisher(g21, 2.0, 1.0), 2.0, 1e-8)


def test_fisher_flat_is_zero():
    q = F.fisher(u01, 2.0, 1.0)
    assert q.value == 0.0 and q.converged


def test_phi():
    close(F.phi(e1, 2.0, 1.0), 1.0)
    close(F.phi(e2, 2.0, 1.0), 2.0, 1e-8)
    with pytest.raises(DomainError):
        F.phi(e1, 0.0, 1.0)
    with pytest.raises(DomainError):
        F.phi(e1, 2.0, 0.0)


def test_phi_flat_conventions():
    assert F.phi(u01, 2.0, 1.0).value == 0.0
    assert F.phi(u01, 2.0, -1.0).value == math.inf


def test_phi_limit0():
    # p -> 0 limit: exp(<log|f^(lam-2) f'|>/lam)
    close(F.phi_limit0(e1, 2.0), math.exp(-0.5))
    with pytest.raises(DomainError):
        F.phi_limit0(e1, 0.0)
    assert F.phi_limit0(u01, 2.0).value == 0.0
    assert F.phi_limit0(u01, -2.0).value == math.inf


def test_mean_log_abs_deriv():
    close(F.mean_log_abs_deriv(e2), 2.0 * math.log(2.0) - 1.0)
    q = F.mean_log_abs_deriv(u01)
    assert q.value == -math.inf and q.converged


# ---------------------------------------------------------------- curvature

def test_curvature_ratio_pointwise():
    # exponential: ratio is identically 1; power tail eta: (eta+1)/eta
    assert F.curvature_ratio(e1, 3.0) == pytest.approx(1.0, rel=1e-12)
    assert F.curvature_ratio(pt21, 5.0) == pytest.approx(1.5, rel=1e-12)


def test_curvature_sup_inf():
    assert F.curvature_sup(e1) == pytest.approx(1.0, rel=1e-10)
    assert F.curvature_inf(pt21) == pytest.approx(1.5, rel=1e-10)


def test_mean_log_curvature():
    close(F.mean_log_curvature(e21, 3.0), math.log(2.0))
    close(F.mean_log_curvature(pt21, 2.0), math.log(0.5))


def test_mean_log_curvature_domain_guard():
    with pytest.raises(DomainError):
        F.mean_log_curvature(pt21, 1.5)


def test_deep_tail_underflow_does_not_poison():
    # derivative products underflow far out in gaussian and power tails;
    # the integrals must still come back clean
    close(F.fisher(g21, 2.0, 1.0), 2.0, 1e-8)
    # eta = 3 has constant ratio 4/3, so the mean is log(2 - 4/3)
    close(F.mean_log_curvature(power_tail(3.0, 2.0), 2.0),
          math.log(2.0 / 3.0), 1e-8)


def test_gzero_entropy_finite():
    q = F.shannon(gzero(3.0))
    assert q.converged and math.isfinite(q.value)


# ---------------------------------------------------------------- scaling

@given(st.floats(min_value=0.3, max_value=8.0), st.sampled_from([0.5, 2.0, 3.0]))
@settings(max_examples=12, deadline=None)
def test_entropy_power_scaling(kappa, lam):
    got = F.renyi_power(rescale(e1, kappa), lam)
    close(got, F.renyi_power(e1, lam).value / kappa, 1e-7)


@given(st.floats(min_value=0.4, max_value=6.0))
@settings(max_examples=10, deadline=None)
def test_shannon_scaling(kappa):
    got = F.shannon(rescale(g21, kappa))
    close(got, F.shannon(g21).value - math.log(kappa), 1e-7)


@given(st.floats(min_value=0.4, max_value=6.0),
       st.floats(min_value=0.6, max_value=3.0))
@settings(max_examples=10, deadline=None)
def test_sigma_scaling(kappa, p):
    got = F.sigma(rescale(u02, kappa), p)
    close(got, F.sigma(u02, p).value / kappa, 1e-7)


@pytest.mark.parametrize("f", [e1, half_restriction(g21)], ids=["exp", "half-sg"])
@given(kappa=st.floats(min_value=0.4, max_value=6.0),
       p=st.floats(min_value=1.0, max_value=3.0),
       lam=st.floats(min_value=0.8, max_value=2.0))
@settings(max_examples=10, deadline=None)
def test_score_deviation_scale_degree(f, kappa, p, lam):
    # rescale(f, kappa) is the law of X/kappa: f^(lam-2) f' scales by
    # kappa^lam, so the Fisher form by kappa^(p lam) and phi by kappa
    got = F.phi(rescale(f, kappa), p, lam)
    assert got.converged
    assert got.value == pytest.approx(kappa * F.phi(f, p, lam).value, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("f", [e1, half_restriction(g21)], ids=["exp", "half-sg"])
@given(kappa=st.floats(min_value=0.4, max_value=6.0),
       p=st.floats(min_value=0.25, max_value=4.0))
@settings(max_examples=10, deadline=None)
def test_absolute_moment_scale_degree(f, kappa, p):
    # <|X/kappa|^p> = kappa^-p <|X|^p>
    got = F.mu(rescale(f, kappa), p)
    assert got.converged
    assert got.value == pytest.approx(kappa ** -p * F.mu(f, p).value, rel=1e-9, abs=0.0)


@given(st.floats(min_value=-6.0, max_value=6.0))
@settings(max_examples=20, deadline=None)
def test_rescaled_second_moment_is_exact_at_any_scale(log_kappa):
    # rescale is read in its root's coordinates: <(X/kappa)^2> = 2/kappa^2
    # for the unit exponential, with no quadrature at scale kappa
    kappa = 10.0 ** log_kappa
    got = F.mu(rescale(e1, kappa), 2.0)
    assert got.converged
    assert got.value * kappa**2 == pytest.approx(2.0, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("kappa", [6.0, 1e3, 1e6])
def test_rescaled_negative_moment(kappa):
    # <|X/kappa|^-1/2> = sqrt(kappa) Gamma(1/2) for the unit exponential
    got = F.mu(rescale(e1, kappa), -0.5)
    assert got.converged
    assert got.value == pytest.approx(math.sqrt(kappa * math.pi), rel=1e-9, abs=0.0)


def test_rescaled_image_moment_costs_what_the_image_costs():
    # the second moment of up(e1, 3) is 17/27; rescaled by 2 it is read
    # through the same pullback, so in at most twice the root-pdf points
    root = exponential(1.0, 0.0)
    img = up(root, 3.0)
    scaled = rescale(img, 2.0)
    pdf, points = root.pdf, []
    root.pdf = lambda x: points.append(np.size(x)) or pdf(x)
    own = F.mu(img, 2.0)
    n_own = sum(points)
    points.clear()
    got = F.mu(scaled, 2.0)
    assert own.converged and got.converged
    assert got.value * 4.0 == pytest.approx(17.0 / 27.0, rel=1e-13, abs=0.0)
    assert sum(points) <= 2 * n_own


@pytest.mark.parametrize("f", [g21, half_restriction(g21)], ids=["sg", "half-sg"])
@pytest.mark.parametrize("kappa", [1e-3, 1.0, 1e3, 1e4])
def test_gaussian_moments_over_scale_range(f, kappa):
    # rescale(f, kappa) is valid for every kappa > 0; for exp(-x^2)/sqrt(pi),
    # <X^2> = 1/2 and <|X|> = 1/sqrt(pi), scaled by kappa^-2 and kappa^-1
    r = rescale(f, kappa)
    m2, s1 = F.mu(r, 2.0), F.sigma(r, 1.0)
    assert m2.converged and s1.converged
    assert m2.value * kappa**2 == pytest.approx(0.5, rel=1e-9, abs=0.0)
    assert s1.value * kappa == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-9, abs=0.0)


def test_narrow_peak_at_singular_edge_keeps_its_mass():
    # all the mass lies within 1e-2 of the singular end: the ladder must
    # reach it whatever tol is
    kappa, h = 1e3, half_restriction(g21)
    q = integrate(lambda x: kappa * h.pdf(kappa * x), Interval(0.0, math.inf, singular_lo=True))
    assert q.converged
    assert q.value == pytest.approx(1.0, rel=0.0, abs=1e-9)


@given(st.floats(min_value=0.5, max_value=4.0))
@settings(max_examples=8, deadline=None)
def test_fisher_scaling(kappa):
    # F_{p,lam} picks up kappa^(p lam) .. for p=2, lam=1: kappa^2
    got = F.fisher(rescale(e1, kappa), 2.0, 1.0)
    close(got, kappa**2 * F.fisher(e1, 2.0, 1.0).value, 1e-7)


@pytest.mark.parametrize("fn", [F.curvature_sup, F.curvature_inf,
                                lambda f: F.mean_log_curvature(f, 3.0)],
                         ids=["sup", "inf", "mean-log"])
def test_curvature_needs_order_two(fn):
    # this down image has d1 but no d2; the curvature ratio asks for both
    # through the pdf state and gets a typed refusal, not a call of None
    f = down(half_restriction(gzero(1.5)), 3.0)
    assert f.order == 1
    with pytest.raises(CapabilityError, match="derivative order 2 requested, have 1"):
        fn(f)
