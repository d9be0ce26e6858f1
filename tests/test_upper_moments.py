"""Upper-moment routes against integrals worked out by hand.

First-order oracles. uniform(0,1) at alpha = 3 has the inner cumulative
u(x) = (1 - x**2)/2, so M_1 = 1/3 and M_2 = 2/15. exponential(2) at
alpha = 2 has u(x) = 2 exp(-x) and M_1 = 4/3. exponential(1) at alpha = 3
has u(x) = (1+x) exp(-x) and M_1 = 3/4. power_tail(2,1) at alpha = 3 puts
divergent weight mass at the upper edge, so the cumulative anchors at the
median x = 2: u(x) = log(2/x), M_1 = log 2 and the signed variant is
log 2 - 1.

Second order on uniform(0,1): vec (3,3) gives the middle cumulative
V(x) = x/2 - x**3/6 and M_1 = 5/24; vec (3,2) gives V(x) = e x - e**x + 1
and M_1 = 2 - e/2. The (2,3) value has no elementary form and is pinned
by the chain and nested routes agreeing to 1e-14. Third order, vec
(3,3,3), has the outer cumulative W(x) = 5/24 - x**2/4 + x**4/24 and
M_1 = 2/15.
"""

import math

import numpy as np
import pytest

from updown import numerics
from updown import upper_moments as UM
from updown.densities import (exponential, half_restriction, power_tail,
                              rescale, stretched_gaussian, uniform)
from updown.errors import (AccuracyError, DomainError, PreconditionError,
                           TransformChainError, UnsupportedCaseError)

u01 = uniform(0.0, 1.0)
e1 = exponential(1.0, 0.0)
e2 = exponential(2.0, 0.0)
pt21 = power_tail(2.0, 1.0)
pt31 = power_tail(3.0, 2.0)
g21 = stretched_gaussian(2.0, 1.0)

# shared across several tests; the nested literal run is the expensive one
d13 = UM.upper_moment(u01, 1.0, 3.0)
v13 = UM.upper_moment_n(u01, 1.0, 3.0)
n2_chain = UM.upper_moment_n(u01, 1.0, (3.0, 3.0))
n2_lit = UM.upper_moment(u01, 1.0, (3.0, 3.0))


# ------------------------------------------------------------ first order

def test_uniform_direct_closed_forms():
    assert d13.M == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert d13.path == "direct"
    assert d13.converged
    assert d13.K == 1.0
    # prod(alpha-2)/p = 1 here, so the deviation coincides with M
    assert d13.m == pytest.approx(d13.M, rel=1e-14)
    r = UM.upper_moment(u01, 2.0, 3.0)
    assert r.M == pytest.approx(2.0 / 15.0, abs=1e-9)
    assert r.m == pytest.approx(math.sqrt(2.0 / 15.0), rel=1e-9)


def test_via_up_matches_direct():
    assert v13.path == "via-up"
    assert v13.M == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert abs(v13.M - d13.M) <= 1e-9
    rel = UM.verify_path_agreement(u01, 2.0, 3.0)
    assert rel < 1e-8


def _nested_reading_one(monkeypatch):
    monkeypatch.setattr(UM, "_nested", lambda f, p, vec, tol: UM._package(
        1.0, p, vec, "direct", True, 0.0))


def test_path_disagreement_is_an_accuracy_error(monkeypatch):
    # a direct route that reads 1.0 must not pass for 2/15
    _nested_reading_one(monkeypatch)
    with pytest.raises(AccuracyError):
        UM.verify_path_agreement(u01, 2.0, 3.0)


def test_exponential_alpha2_keeps_m_undefined():
    r = UM.upper_moment(e2, 1.0, 2.0)
    assert r.M == pytest.approx(4.0 / 3.0, abs=1e-8)
    assert math.isnan(r.m)
    assert r.K == 1.0


def test_exponential_alpha3():
    r = UM.upper_moment(e1, 1.0, 3.0)
    assert r.M == pytest.approx(0.75, abs=1e-8)


def test_median_anchored_power_tail():
    # weight mass toward the upper edge diverges; both routes must settle
    # on the median anchor to agree
    a = UM.upper_moment(pt21, 1.0, 3.0)
    b = UM.upper_moment_n(pt21, 1.0, 3.0)
    assert a.M == pytest.approx(math.log(2.0), abs=1e-8)
    assert b.M == pytest.approx(math.log(2.0), abs=1e-8)


def test_nested_levels_integrate_gaps_not_spans(monkeypatch):
    # each level integrates the gaps between neighbouring points once; a
    # span from each point to the median anchor crosses 19 decades of peel
    # points again and again (59,597 GK15 batches, where gaps take 1,025)
    f, n = power_tail(2.0, 1.0), [0]
    kronrod = numerics._kronrod

    def counted(w, a, b, at=None):
        n[0] += 1
        return kronrod(w, a, b, at)

    monkeypatch.setattr(numerics, "_kronrod", counted)
    assert UM.upper_moment(f, 1.0, 3.0).converged
    assert 0 < n[0] <= 2048


# ----------------------------------------------------------- second order

def test_second_order_routes_agree():
    assert n2_chain.M == pytest.approx(5.0 / 24.0, abs=1e-8)
    assert n2_lit.M == pytest.approx(5.0 / 24.0, abs=1e-6)
    assert n2_chain.path == "via-up"
    assert n2_lit.path == "direct"
    assert n2_chain.K == 1.0
    assert n2_chain.m == pytest.approx(n2_chain.M, rel=1e-12)


def test_second_order_alpha2_positions():
    r = UM.upper_moment_n(u01, 1.0, (3.0, 2.0))
    assert r.M == pytest.approx(2.0 - math.e / 2.0, abs=1e-8)
    assert math.isnan(r.m)
    assert UM.verify_path_agreement(u01, 1.0, (3.0, 2.0)) <= 1e-5
    s = UM.upper_moment_n(u01, 1.0, (2.0, 3.0))
    # pinned by the two independent routes agreeing to 1e-14
    assert s.M == pytest.approx(0.7619648639423217, abs=1e-8)
    assert UM.verify_path_agreement(u01, 1.0, (2.0, 3.0)) <= 1e-5


def test_third_order_cross_check():
    r = UM.upper_moment_n(u01, 1.0, (3.0, 3.0, 3.0))
    assert r.M == pytest.approx(2.0 / 15.0, abs=1e-8)
    assert UM.verify_path_agreement(u01, 1.0, (3.0, 3.0, 3.0)) <= 1e-5


def test_third_order_cross_check_catches_a_gap(monkeypatch):
    # a nested route that reads 1.0 must not pass for 2/15
    _nested_reading_one(monkeypatch)
    with pytest.raises(AccuracyError):
        UM.verify_path_agreement(u01, 1.0, (3.0, 3.0, 3.0))


def test_order_one_collapse():
    r = UM.upper_moment_n(e2, 1.0, 2.0)
    assert r.M == pytest.approx(4.0 / 3.0, abs=1e-8)


def test_prefactor_values():
    assert UM.prefactor(1.0, 3.0) == 1.0
    assert UM.prefactor(2.0, (3.0, 4.0)) == pytest.approx(2.0, rel=1e-14)
    assert UM.prefactor(1.0, (0.5, 3.0)) == pytest.approx(1.5 ** (-2.0 / 3.0),
                                                          rel=1e-14)
    # an alpha = 2 entry stops the product
    assert UM.prefactor(5.0, (2.0, 3.0)) == 1.0
    assert UM.prefactor(1.0, (3.0, 2.0)) == 1.0


# ---------------------------------------------------------- signed variant

def test_signed_moments():
    assert UM.signed_upper_moment(u01, 1, 3.0).value == pytest.approx(
        1.0 / 3.0, abs=1e-9)
    assert UM.signed_upper_moment(u01, 2, 3.0).value == pytest.approx(
        2.0 / 15.0, abs=1e-9)
    # median anchor makes u negative past x = 2, and the sign survives
    assert UM.signed_upper_moment(pt21, 1, 3.0).value == pytest.approx(
        math.log(2.0) - 1.0, abs=1e-8)


def test_signed_needs_natural_exponent():
    with pytest.raises(PreconditionError):
        UM.signed_upper_moment(u01, 1.5, 3.0)
    with pytest.raises(PreconditionError):
        UM.signed_upper_moment(u01, 0, 3.0)
    for p in (math.inf, math.nan):
        with pytest.raises(PreconditionError):
            UM.signed_upper_moment(u01, p, 3.0)


# ------------------------------------------------------------- validation

def test_alpha_vector_rules():
    assert UM.AlphaVector(3.0).order == 1
    assert UM.AlphaVector(np.int64(3)) == (3.0,)  # a 0-d number, as an int
    assert UM.AlphaVector((3, 4))[1] == 4.0
    with pytest.raises(UnsupportedCaseError):
        UM.AlphaVector((2.0, 2.0))
    with pytest.raises(UnsupportedCaseError):
        UM.AlphaVector((3.0, 2.0, 3.0))
    with pytest.raises(DomainError):
        UM.AlphaVector(())
    with pytest.raises(DomainError):
        UM.AlphaVector((math.inf,))
    with pytest.raises(DomainError):
        UM.upper_moment(u01, 1.0, math.nan)


def test_interior_zero_rejected():
    # alpha in [1,2): the weight is not integrable across a zero of the
    # coordinate it weighs
    with pytest.raises(PreconditionError):
        UM.upper_moment(g21, 1.0, 1.5)
    # level 1 anchors power_tail(2,1) at its median, so the coordinate that
    # level 2 weighs by |-0.5 U|^(-2) has a zero inside the support
    with pytest.raises(PreconditionError):
        UM.upper_moment(pt21, 1.0, (1.5, 3.0))


def test_median_anchored_zero_rejected_on_both_routes():
    # up(pt21, 2.5) is median-anchored and its coordinate runs to about
    # 1e153 on one side; the chain route read M = 1.84e8 with converged=True
    with pytest.raises(PreconditionError):
        UM.upper_moment(pt21, 0.5, (1.5, 2.5))
    with pytest.raises(TransformChainError, match="interior zero"):
        UM.upper_moment_n(pt21, 0.5, (1.5, 2.5))


# ---------------------------------------------------------------- ordering

def test_deviation_ordering_in_p():
    up3 = [UM.upper_moment_n(e1, p, 3.0).m for p in (0.5, 1.0, 2.0)]
    assert np.all(np.diff(up3) > 0.0)
    dn = [UM.upper_moment_n(e1, p, 0.5).m for p in (0.5, 1.0, 2.0)]
    assert np.all(np.diff(dn) < 0.0)


def test_deviation_scale_invariance():
    # kappa * m_(1,3) of the kappa-dilated density stays at m_(1,3)[e1] = 3/4
    for k in (0.5, 10.0):
        got = k * UM.upper_moment_n(rescale(e1, k), 1.0, 3.0).m
        assert got == pytest.approx(0.75, abs=1e-8)
    # and kappa * m_(1,(3,3)) at m_(1,(3,3)) of the undilated root, and the
    # same for the direct route's m_(1,3)
    for f in (u01, e1, half_restriction(g21)):
        m = UM.upper_moment_n(f, 1.0, (3.0, 3.0)).m
        md = UM.upper_moment(f, 1.0, 3.0).m
        for k in (0.5, 10.0):
            got = k * UM.upper_moment_n(rescale(f, k), 1.0, (3.0, 3.0)).m
            assert got == pytest.approx(m, rel=1e-12)
            got = k * UM.upper_moment(rescale(f, k), 1.0, 3.0).m
            assert got == pytest.approx(md, rel=1e-12)


# ------------------------------------------------- moment-sequence check

def test_moment_sequence_single_down():
    res = UM.moment_sequence_check(e1, (-1.0,), 3)
    assert res.deviation < 1e-8
    assert res.skipped == ()
    got = {r[0]: r[1] for r in res.moments}
    assert got[1] == pytest.approx(1.0, abs=1e-9)
    assert got[2] == pytest.approx(2.0, abs=1e-9)
    assert got[3] == pytest.approx(6.0, abs=1e-8)


def test_moment_sequence_skips_divergent_orders():
    # 8 x**-3 on (2,inf): the first moment is 4, the second diverges
    res = UM.moment_sequence_check(pt31, (-1.0,), 2)
    assert res.skipped == (2,)
    assert res.deviation < 1e-8
    assert res.moments[0][1] == pytest.approx(4.0, abs=1e-8)


def test_moment_sequence_two_layers():
    # the reconstruction re-seats each up lift against its tower target
    res = UM.moment_sequence_check(e1, (1.5, 1.5), 2)
    assert res.deviation < 1e-8
    assert res.skipped == ()
    assert res.moments[1][1] == pytest.approx(2.0, abs=1e-9)


def test_moment_sequence_gate_and_validation():
    # the second down of exponential(1) at alpha = -1 fails the curvature
    # gate: sup f f''/f'**2 over the first image is 2.5
    with pytest.raises(TransformChainError) as ei:
        UM.moment_sequence_check(e1, (-1.0, -1.0), 2)
    assert ei.value.index == 1
    # a third down meets an image without d2, and the step is named
    with pytest.raises(TransformChainError) as ei:
        UM.moment_sequence_check(e1, (1.5, 1.5, 1.5), 1)
    assert ei.value.index == 2
    with pytest.raises(DomainError):
        UM.moment_sequence_check(e1, (3.0,), 2)
    with pytest.raises(DomainError):
        UM.moment_sequence_check(e1, (-1.0,), 0)
    # a count is whole and finite; 2.5 is not read as 2
    for n in (2.5, math.inf, math.nan):
        with pytest.raises(DomainError):
            UM.moment_sequence_check(e1, 1.5, n)
