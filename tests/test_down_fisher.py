"""Curvature-weighted Fisher measures against integrals worked out by hand.

The measure is phi[p,q,lam] = integral of f**(1+p(lam-2)) |f'|**q
|p lam/(p-q) - r|**p with r = f f''/f'**2. The exponential e1 = exp(-x) has
r = 1 everywhere, so every phi over it is an elementary integral:
phi[2,1,2] = 9 int exp(-2x) = 4.5, phi[1,2,0] = int exp(-x) = 1,
phi[1,1/2,2] = 3 int exp(-3x/2) = 2, phi[2,1,3/2] = 4 int exp(-x) = 4.
Power tails have constant r as well: x**-2 on (1,inf) has r = 3/2 and
phi[2,1,3/2] = 4.5 int x**-3 = 9/4; 8 x**-3 on (2,inf) has r = 4/3,
phi[2,1,2] = (12288/9) int x**-7 = 32/9 and phi[1,1/2,2] = sqrt(8/3).

Down images used here also have elementary forms. exponential(2) at
alpha = 5/2 maps through s = 2 f**(-1/2) to 4 s**-3 on (sqrt(2), inf);
power_tail(3,2) at alpha = 4 maps through s = x**6/128 to
(2/3)(2s)**(-4/3) on (1/2, inf).

Entropy-limit values on e1 (r = 1, S = 1, so the comparison side is
exp(log(3-1)) = 2): q = 1 gives root 1 and lhs e; q = -1/2 gives root
(sqrt(2))**(-2) = 1/2 and lhs e/2; q = -1 makes the integrand the
constant 1/2, which diverges and must be reported as such.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from updown import functionals, numerics
from updown.down_fisher import (down_fisher, down_order_check,
                                order_minimizer, shannon_down_check,
                                verify_fisher_relation)
from updown.densities import (Density, exponential, half_restriction,
                              power_tail, rescale, stretched_gaussian,
                              uniform)
from updown.errors import (CapabilityError, DomainError, PreconditionError,
                           TransformChainError)
from updown.transforms import down

u01 = uniform(0.0, 1.0)
e1 = exponential(1.0, 0.0)
e2 = exponential(2.0, 0.0)
pt21 = power_tail(2.0, 1.0)
pt31 = power_tail(3.0, 2.0)
g21 = stretched_gaussian(2.0, 1.0)


# ------------------------------------------------------------- the measure

def test_measure_closed_forms():
    r = down_fisher(e1, 2.0, 1.0, 2.0)
    assert r.converged
    assert r.value == pytest.approx(4.5, rel=1e-10)
    assert down_fisher(e1, 1.0, 2.0, 0.0).value == pytest.approx(
        1.0, rel=1e-10)
    assert down_fisher(pt21, 2.0, 1.0, 1.5).value == pytest.approx(
        2.25, rel=1e-10)


@pytest.mark.parametrize("p, q, lam", [(2.0, 1.0, 1.5), (2.0, 0.0, 3.0)])
@given(st.floats(min_value=0.5, max_value=3.0))
@settings(max_examples=8, deadline=None)
def test_measure_scale_degree(p, q, lam, kappa):
    # under rescale f -> kappa f, f' -> kappa**2 f', r is invariant and
    # dx -> dx/kappa, so the measure picks up kappa**(p(lam-2) + 2q)
    got = down_fisher(rescale(e1, kappa), p, q, lam).value
    want = kappa ** (p * (lam - 2.0) + 2.0 * q) * down_fisher(e1, p, q, lam).value
    assert got == pytest.approx(want, rel=1e-12)


def test_measure_preconditions():
    with pytest.raises(PreconditionError):
        down_fisher(e1, 2.0, 2.0, 1.0)
    # flat pdf: the curvature ratio never exists
    with pytest.raises(CapabilityError):
        down_fisher(u01, 2.0, 1.0, 2.0)
    # one derivative order: the curvature ratio needs f''
    f = Density(e1.pdf, e1.support, d1=e1.d1)
    assert f.order == 1
    with pytest.raises(CapabilityError, match="needs d1 and d2"):
        down_fisher(f, 2.0, 1.0, 2.0)


def test_divergent_measure_reported_not_truncated():
    # integrand is the constant 1/2 on (0,inf); quadrature alone would
    # quietly converge on the part left of the pdf underflow horizon
    r = down_fisher(e1, -1.0, 0.0, 3.0)
    assert not r.converged
    assert math.isinf(r.value)


def test_infinite_measure_is_quiet():
    # at lam = 1 the ratio p lam/(p - q) equals f f''/f'**2, so the
    # integrand is infinite everywhere; no warning may escape on the way
    r = down_fisher(e1, -1.0, 0.0, 1.0)
    assert not r.converged
    assert math.isinf(r.value)


# ---------------------------------------------- down-image Fisher identity

def test_relation_cells():
    assert verify_fisher_relation(e1, 2.0, 0.5, 3.0) < 1e-6
    assert verify_fisher_relation(pt21, 2.0, 0.5, 3.0) < 1e-6
    assert verify_fisher_relation(e1, 1.5, 0.25, 4.0) < 1e-6
    assert verify_fisher_relation(pt21, 3.0, 0.5, 2.5) < 1e-6


def test_relation_sides_pinned():
    # both sides of the (e1, 2, 1/2, 3) cell are 4: the image of e1 at
    # alpha = 3 is s**-2 on (1,inf) with Fisher value 4 int s**-2, and the
    # measure side is phi[2,1,3/2]
    lhs = functionals.fisher(down(e1, 3.0), 2.0, 0.5)
    assert lhs.value == pytest.approx(4.0, rel=1e-9)
    assert down_fisher(e1, 2.0, 1.0, 1.5).value == pytest.approx(
        4.0, rel=1e-9)


def test_relation_rejects_nonmonotone():
    with pytest.raises(PreconditionError):
        verify_fisher_relation(u01, 2.0, 0.5, 3.0)


def test_relation_requires_both_sides_finite():
    # the flat edge of a half-restricted even density sends r ~ -1/x**2,
    # and both integrals diverge there together
    hg = half_restriction(g21)
    with pytest.raises(PreconditionError):
        verify_fisher_relation(hg, 2.0, 0.5, 3.0)


# ----------------------------------------------------------- the ordering

def test_order_margins_on_corpus():
    oc = down_order_check(e1, 2.0, 1.0, 1.0, 2.0)
    assert not oc.vacuous
    assert oc.lhs == pytest.approx(math.sqrt(4.5), rel=1e-9)
    assert oc.rhs == pytest.approx(2.0, rel=1e-9)
    assert oc.margin >= -1e-8
    oc = down_order_check(pt31, 2.0, 1.0, 1.0, 2.0)
    assert oc.lhs == pytest.approx(math.sqrt(32.0 / 9.0), rel=1e-9)
    assert oc.rhs == pytest.approx(math.sqrt(8.0 / 3.0), rel=1e-9)
    assert oc.margin >= -1e-8


def test_order_vacuous_when_measures_diverge():
    # even density: f' crosses zero inside the support and the measures
    # blow up there, so no inequality claim is made
    oc = down_order_check(g21, 2.0, 1.0, 1.0, 2.0)
    assert oc.vacuous


def test_vacuous_order_answers_without_refining(monkeypatch):
    # the divergent measures of g21 answer on their ladders' exponents; the
    # check spent 7,927 _kronrod calls while refinement ran on
    calls, kronrod = [0], numerics._kronrod

    def counted(*args):
        calls[0] += 1
        return kronrod(*args)

    monkeypatch.setattr(numerics, "_kronrod", counted)
    assert down_order_check(stretched_gaussian(2.0, 1.0), 2.0, 1.0, 1.0, 2.0).vacuous
    assert 0 < calls[0] <= 200


def test_order_preconditions():
    with pytest.raises(PreconditionError):
        down_order_check(e1, 0.0, -1.0, 1.0, 2.0)
    with pytest.raises(PreconditionError):
        down_order_check(e1, 2.0, 0.0, 1.0, 2.0)
    with pytest.raises(PreconditionError):
        down_order_check(e1, 1.0, 2.0, 1.0, 2.0)
    with pytest.raises(PreconditionError):
        down_order_check(e1, 2.0, 1.0, 2.0, 2.0)


def test_order_margin_scale_covariance():
    # both roots scale as kappa**(lam-2+2r/p) under dilation, so the margin
    # follows the same power and a saturated margin stays zero at any scale
    base = down_order_check(e1, 2.0, 1.0, 1.0, 2.0)
    for kappa in (2.0, 0.5):
        oc = down_order_check(rescale(e1, kappa), 2.0, 1.0, 1.0, 2.0)
        assert oc.margin == pytest.approx(kappa * base.margin, rel=1e-8)


# ------------------------------------------------------------- saturation

def test_saturating_chain_reaches_equality():
    # (2,1,2) and (0.6,0.3,2) share inner exponent 3/2 and outer 4, so one
    # chain serves both triples; equality must hold for every admissible q
    # over it, and the interval only sets the common value of both sides
    fm = order_minimizer(2.0, 1.0, 2.0, interval=(0.0, 2.0))
    oc = down_order_check(fm, 2.0, 1.0, 1.0, 2.0)
    assert not oc.vacuous
    assert abs(oc.margin) <= 1e-3
    assert abs(oc.margin) < 1e-9
    assert oc.lhs == pytest.approx(2.0, abs=1e-8)
    oc = down_order_check(fm, 0.6, -0.3, 0.3, 2.0)
    assert not oc.vacuous
    assert abs(oc.margin) < 1e-9
    assert oc.rhs == pytest.approx(2.0, abs=1e-8)


def test_minimizer_interval_must_not_straddle_zero():
    # the inner layer's coordinate is the uniform's own abscissa, and for
    # inner exponent in [1,2) its weight is not integrable across zero
    with pytest.raises(TransformChainError):
        order_minimizer(2.0, 1.0, 2.0, interval=(-1.0, 1.0))


def test_minimizer_preconditions():
    with pytest.raises(PreconditionError):
        order_minimizer(0.0, 1.0, 2.0)
    with pytest.raises(PreconditionError):
        order_minimizer(2.0, 2.0, 2.0)


# ----------------------------------------------------------- entropy limit

def test_entropy_limit_directions():
    ec = shannon_down_check(e1, 1.0, 3.0)
    assert ec.direction == "ge"
    assert not ec.vacuous
    assert ec.lhs == pytest.approx(math.e, abs=1e-8)
    assert ec.rhs == pytest.approx(2.0, abs=1e-8)
    assert ec.margin >= -1e-8
    ec = shannon_down_check(e1, -0.5, 3.0)
    assert ec.direction == "le"
    assert not ec.vacuous
    assert ec.lhs == pytest.approx(math.e / 2.0, abs=1e-8)
    assert ec.margin == pytest.approx(2.0 - math.e / 2.0, abs=1e-8)


def test_entropy_limit_divergent_root_is_vacuous():
    ec = shannon_down_check(e1, -1.0, 3.0)
    assert ec.direction == "le"
    assert ec.vacuous


def test_entropy_limit_preconditions():
    with pytest.raises(PreconditionError):
        shannon_down_check(e1, 0.0, 3.0)
    with pytest.raises(PreconditionError):
        shannon_down_check(e1, 1.0, 2.0)


def test_entropy_limit_curvature_domain():
    # power_tail(2,1) has r = 3/2 everywhere, so alpha = 1.4 makes the
    # log argument negative even though the measure itself converges
    with pytest.raises(DomainError):
        shannon_down_check(pt21, 0.5, 1.4)


# ------------------------------------------------------ down-image shapes

def test_down_image_closed_forms():
    img = down(e2, 2.5)
    assert img.support.lo == pytest.approx(math.sqrt(2.0), rel=1e-9)
    assert not img.support.bounded
    s = np.array([1.5, 2.0, 4.0])
    assert img.pdf(s) == pytest.approx(4.0 * s ** -3.0, rel=1e-8)
    img = down(pt31, 4.0)
    assert img.support.lo == pytest.approx(0.5, rel=1e-9)
    s = np.array([0.7, 1.0, 3.0])
    assert img.pdf(s) == pytest.approx(
        (2.0 / 3.0) * (2.0 * s) ** (-4.0 / 3.0), rel=1e-8)
