"""Transform images against closed forms worked out by hand.

The recurring fixtures: the exponential with rate 1 maps under the
alpha = 3 down step to s**-2 on (1, inf), the unit uniform maps under the
alpha = 3 up step to (1 - 2u)**-1/2 on (0, 1/2), and the rate-2
exponential under the alpha = 2 up step to the linear density u/2 on
(0, 2). Everything else here is a variation on those.
"""

import math
import warnings

import numpy as np
import pytest

from updown import functionals as F
from updown.densities import (Density, affine_image, exponential,
                              half_restriction, power_tail,
                              stretched_gaussian, uniform)
from updown.errors import (AccuracyError, CapabilityError, DomainError,
                           PreconditionError, TransformChainError)
from updown.numerics import integrate
from updown.transforms import (_rigid_fit, _UpLayer, chain, down, down_applicable,
                               up, verify_inversion, verify_scaling)

EULER = 0.5772156649015329

u01 = uniform(0.0, 1.0)
e1 = exponential(1.0, 0.0)
e2 = exponential(2.0, 0.0)
e21 = exponential(2.0, 1.0)
pt21 = power_tail(2.0, 1.0)
pt31 = power_tail(3.0, 2.0)
g21 = stretched_gaussian(2.0, 1.0)

# shared images, each used by several tests below
d3e1 = down(e1, 3.0)
u3u01 = up(u01, 3.0)


def mass_of(g):
    r = g.integral(lambda x, f: f, needs=0)
    assert r.converged
    return r.value


# ------------------------------------------------------------------ down

def test_down_exponential_alpha3():
    assert d3e1.support.lo == pytest.approx(1.0, abs=1e-10)
    assert d3e1.support.hi == math.inf
    s = np.array([1.25, 2.0, 7.0, 40.0])
    np.testing.assert_allclose(d3e1.pdf(s), s ** -2.0, rtol=1e-13)
    np.testing.assert_allclose(d3e1.d1(s), -2.0 * s ** -3.0, rtol=1e-13)
    np.testing.assert_allclose(d3e1.d2(s), 6.0 * s ** -4.0, rtol=1e-13)
    assert mass_of(d3e1) == pytest.approx(1.0, abs=1e-10)


def test_down_power_tail_alpha3():
    # x**-2 on (1,inf): s = x**2, pdf x**-6/(2 x**-3) = s**-1.5/2
    g = down(pt21, 3.0)
    assert g.support.lo == pytest.approx(1.0, abs=1e-9)
    s = np.array([1.5, 4.0, 100.0])
    np.testing.assert_allclose(g.pdf(s), 0.5 * s ** -1.5, rtol=1e-12)
    np.testing.assert_allclose(g.d1(s), -0.75 * s ** -2.5, rtol=1e-12)


def test_down_alpha2_and_alpha1():
    g = down(e1, 2.0)
    s = np.array([0.05, 1.0, 4.0])
    np.testing.assert_allclose(g.pdf(s), np.exp(-s), rtol=1e-13)
    assert g.support.hi == math.inf
    # alpha = 1 flattens the exponential completely
    g = down(e1, 1.0)
    assert g.support.lo == pytest.approx(-1.0, abs=1e-9)
    assert g.support.hi == pytest.approx(0.0, abs=1e-9)
    np.testing.assert_allclose(g.pdf(np.array([-0.9, -0.5, -0.1])), 1.0,
                               rtol=1e-12)


def test_down_increasing_base():
    # the reflected exponential is increasing; its image matches the
    # unreflected one because the coordinate only sees pdf values
    g = down(affine_image(e1, -1.0), 3.0)
    s = np.array([1.5, 3.0, 10.0])
    np.testing.assert_allclose(g.pdf(s), s ** -2.0, rtol=1e-12)
    np.testing.assert_allclose(g.d1(s), -2.0 * s ** -3.0, rtol=1e-12)


def test_down_requires_monotone():
    with pytest.raises(PreconditionError):
        down(g21, 3.0)


def test_down_requires_derivative():
    flat = Density(lambda x: np.ones_like(x), uniform(0.0, 1.0).support,
                   label="bare")
    with pytest.raises(CapabilityError):
        down(flat, 3.0)


def test_down_rejects_non_finite_alpha():
    with pytest.raises(DomainError):
        down(e1, math.inf)


def test_down_coordinate_sign():
    # (alpha - 2) s stays positive on every image
    for al in (-1.0, 0.5, 3.0, 4.0):
        g = down(e21, al)
        s = g.quantiles(32)
        assert np.all((al - 2.0) * s > 0.0)


# -------------------------------------------------------------------- up

def test_up_uniform_alpha3():
    sup = u3u01.support
    assert sup.lo == 0.0
    assert sup.hi == pytest.approx(0.5, abs=1e-12)
    assert sup.singular_hi
    u = np.array([0.02, 0.2, 0.4, 0.497])
    np.testing.assert_allclose(u3u01.pdf(u), (1.0 - 2.0 * u) ** -0.5,
                               rtol=1e-9)
    assert mass_of(u3u01) == pytest.approx(1.0, abs=1e-10)


def test_up_exponential_alpha2_linear_image():
    # weight e^x against 2e^-2x: u = 2e^-x on (0,2), pdf u/2
    g = up(e2, 2.0)
    assert g.support.hi == pytest.approx(2.0, abs=1e-9)
    u = np.array([0.25, 1.0, 1.75])
    np.testing.assert_allclose(g.pdf(u), u / 2.0, rtol=1e-12)
    np.testing.assert_allclose(g.d1(u), 0.5, rtol=1e-10)
    np.testing.assert_allclose(g.d2(u), 0.0, atol=1e-10)


def test_up_median_anchor_fallback():
    # weight e^x exactly cancels e^-x, so the edge anchor diverges and the
    # map anchors at the median instead: u = ln 2 - x, pdf e^u/2
    g = up(e1, 2.0)
    assert g.support.lo == -math.inf
    assert g.support.hi == pytest.approx(math.log(2.0), abs=1e-12)
    u = np.array([-3.0, -0.4, 0.6])
    np.testing.assert_allclose(g.pdf(u), np.exp(u) / 2.0, rtol=1e-12)
    assert mass_of(g) == pytest.approx(1.0, abs=1e-10)


def test_up_median_anchor_log_tail():
    # weight |v| against v**-2 leaves a log-divergent tail that plain
    # quadrature cannot see past the float horizon
    g = up(pt21, 3.0)
    assert g.support.lo == -math.inf
    assert g.support.hi == pytest.approx(math.log(2.0), abs=1e-12)
    u = np.array([-1.5, 0.0, 0.4])
    x = 2.0 * np.exp(-u)  # u = log(2/x) from the median at 2
    np.testing.assert_allclose(g.pdf(u), 1.0 / x, rtol=1e-12)
    assert mass_of(g) == pytest.approx(1.0, abs=1e-10)


def test_up_negative_alpha():
    g = up(u01, -1.0)
    c = 3.0 ** (2.0 / 3.0) / 2.0
    assert g.support.hi == pytest.approx(c, abs=1e-12)
    u = np.array([0.1, 0.45, 0.9])
    x = (1.0 - u / c) ** 1.5
    np.testing.assert_allclose(g.pdf(u), (3.0 * x) ** (1.0 / 3.0), rtol=1e-11)
    np.testing.assert_allclose(g.d1(u), -(3.0 ** (-1.0 / 3.0)) * x ** (-1.0 / 3.0),
                               rtol=1e-9)


def test_up_inverse_map():
    g = up(e1, 3.0)
    assert g.support.hi == pytest.approx(1.0, abs=1e-10)
    u = np.array([0.15, 0.5, 0.85])
    x = g.inverse_map(u)
    np.testing.assert_allclose((1.0 + x) * np.exp(-x), u, rtol=1e-12)
    np.testing.assert_allclose(g.pdf(u), 1.0 / x, rtol=1e-12)
    assert np.isnan(g.inverse_map(np.array([1.5]))[0])


def test_up_deep_divergent_edge():
    # weight 4/v**2 diverges at the lower edge: u = 4/t - 4 with pdf t**2/4,
    # read far below the first node of the root's table
    g = up(u01, 1.5)
    t = np.array([1e-12, 1e-20, 1e-30])
    u = 4.0 / t - 4.0
    np.testing.assert_allclose(g.pdf(u), t ** 2 / 4.0, rtol=1e-12)
    np.testing.assert_allclose(g.inverse_map(u), t, rtol=1e-12)


def test_up_interior_spike():
    # |x| weight across the symmetric bump: an integrable inverse-sqrt
    # spike sits at the image of the origin
    g = up(g21, 3.0)
    (cut,) = g.interior_points
    assert cut == pytest.approx(0.5 / math.sqrt(math.pi), rel=1e-10)
    assert mass_of(g) == pytest.approx(1.0, abs=5e-10)


def test_up_interior_zero_weight_mass():
    # the weight |c v|**(1/c) against exp(-v**2)/sqrt(pi) spans an image of
    # length |c|**(1/c) Gamma((1 + 1/c)/2)/sqrt(pi); at alpha = 0.9 the
    # spike at the zero is barely integrable
    for al in (0.5, 0.9, 3.0):
        c = al - 2.0
        want = abs(c) ** (1.0 / c) * math.gamma((1.0 + 1.0 / c) / 2.0) \
            / math.sqrt(math.pi)
        sup = up(g21, al).support
        assert sup.hi - sup.lo == pytest.approx(want, rel=1e-10)


def test_up_non_integrable_interior_zero():
    for al in (1.5, 1.0):
        with pytest.raises(PreconditionError):
            up(g21, al)
    # clear of the blocked band the same base is fine
    assert mass_of(up(g21, 0.5)) == pytest.approx(1.0, abs=1e-9)


def test_up_rejects_non_finite_alpha():
    with pytest.raises(DomainError):
        up(e1, math.nan)


def test_up_weight_underflow_is_an_accuracy_error():
    # at alpha = 2 + 1e-6 the weight (1e-6 v)**1e6 underflows wherever the
    # root pdf does not, so the image mass cannot be represented; the
    # message keeps alpha apart from 2
    for f in (e1, u01):
        with pytest.raises(AccuracyError, match=r"alpha=2\.000001"):
            up(f, 2.0 + 1e-6)


def _build_points(f, alpha):
    """Root-pdf points spent building up(f, alpha)."""
    pdf, n = f.pdf, [0]

    def counted(x):
        n[0] += np.size(x)
        return pdf(x)

    f.pdf = counted
    up(f, alpha)
    return n[0]


def test_up_build_work_count():
    # the table refines its flagged panels together, to a bound relative to
    # their mass; one integrate call each, to an absolute 1e-13, spent 4.7M
    # root-pdf points on this build
    assert _build_points(uniform(0.0, 1.0), 1.5) <= 200_000


@pytest.mark.parametrize("alpha", [2.5, 3.0])
def test_up_subnormal_tail_work_count(alpha):
    # the divergent upper tail reaches pdf values near 3e-313, whose ~1e-11
    # relative rounding no panel refinement can bring under the table's
    # 1e-13 relative bound; the walk must stop before spending on them
    assert _build_points(power_tail(2.0, 1.0), alpha) <= 200_000


def test_image_pdf_inversion_work_count():
    # bisection over the bit patterns of doubles closes every bracket in
    # the bit length of the widest; 80 fixed halvings took 80 _chi calls
    g = up(up(e1, 3.0), 3.0)
    y = g.quantile_many((np.arange(64) + 0.5) / 64.0)
    chi, n = g._chi, [0]

    def counted(t):
        n[0] += 1
        return chi(t)

    g._chi = counted
    g.pdf(y)
    assert n[0] <= 64


def test_image_pdf_interpolated_inversion_work_count():
    # two calls at the bracket-table ends, then Chandrupatla's steps inside
    # each bracket, on the still-open brackets only; bisection took 51
    g = up(up(e1, 3.0), 3.0)
    y = g.quantile_many((np.arange(64) + 0.5) / 64.0)
    chi, n = g._chi, [0]

    def counted(t):
        n[0] += 1
        return chi(t)

    g._chi = counted
    g.pdf(y)
    assert n[0] <= 24


class _ZeroCounted(_UpLayer):
    """An up layer that counts the _chi calls of its _locate_zero."""

    def _locate_zero(self):
        chi, self.zero_calls = self._chi, 0

        def counted(t):
            self.zero_calls += 1
            return chi(t)

        self._chi = counted
        super()._locate_zero()
        del self._chi


@pytest.mark.parametrize("make", [lambda: (g21, ()), lambda: (pt21, up(pt21, 3.0)._layers)],
                         ids=["sg21", "up-pt21"])
def test_locate_zero_work_count(make):
    # bisection to adjacent doubles took 52-64 calls after the grid's one;
    # the zero is exact, or the upper of two adjacent doubles around it
    layer = _ZeroCounted(*make(), 3.0)
    assert layer.zero_calls <= 16
    below, at = layer._chi(np.array([np.nextafter(layer.zc, -np.inf), layer.zc]))
    assert at == 0.0 or below * at < 0.0


@pytest.mark.parametrize("make, alpha", [
    (lambda: exponential(1.0, 0.0), 1.5), (lambda: exponential(1.0, 0.0), 1.9),
    (lambda: uniform(0.0, 1.0), 1.5), (lambda: uniform(0.0, 1.0), 1.9),
    (lambda: half_restriction(stretched_gaussian(2.0, 1.0)), 1.5),
    (lambda: half_restriction(stretched_gaussian(2.0, 1.0)), 1.9),
    (lambda: power_tail(2.0, 1.0), 2.05), (lambda: power_tail(2.0, 1.0), 2.5),
    (lambda: power_tail(2.0, 1.0), 3.0), (lambda: power_tail(3.0, 2.0), 2.05),
    (lambda: power_tail(3.0, 2.0), 2.5),
], ids=["exp-1.5", "exp-1.9", "uniform-1.5", "uniform-1.9", "half-sg-1.5",
        "half-sg-1.9", "pt21-2.05", "pt21-2.5", "pt21-3", "pt32-2.05", "pt32-2.5"])
def test_up_grid_cell_mass(make, alpha):
    # the up cells of the alpha grid whose builds took 2-18 s each
    r = up(make(), alpha).integral(lambda y, h: h)
    assert r.converged
    assert r.value == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("make", [lambda: power_tail(2.0, 1.0),
                                  lambda: power_tail(3.0, 2.0)],
                         ids=["pt21", "pt32"])
def test_up_divergent_edge_table_is_quiet(make):
    # the weight mass toward the upper edge diverges at alpha = 2, so the
    # table's panels there overflow; that must stay silent. The mass itself
    # is a known defect: the image pdf underflows where the root has mass
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        r = up(make(), 2.0).integral(lambda y, h: h)
    assert not r.converged


# ------------------------------------------------------------ round trips

def test_up_after_down_recovers():
    for f in (e21, pt31, half_restriction(g21)):
        for al in (-1.0, 0.5, 3.0, 4.0):
            assert verify_inversion(f, al) < 1e-8


def test_rigid_fit_recovers_a_reseat():
    g = up(e1, 3.0)
    target = g.reseat(-1.0, 0.3)
    dev, scale, shift = _rigid_fit(
        g, target, target.quantile_many(np.linspace(0.06, 0.94, 23)))
    assert scale == -1.0
    assert shift == pytest.approx(0.3, abs=1e-12)
    assert dev < 1e-10


def test_down_after_up_recovers():
    for f, al in [(u01, 3.0), (u01, 4.0), (e1, 3.0), (e2, 4.0)]:
        g = down(up(f, al), al)
        xq = f.quantiles(9)
        assert np.max(np.abs(g.pdf_at(xq) - f.pdf(xq))) < 1e-10


def test_up_down_chain_is_exact_uniform():
    g = chain(u01, [("up", 3.0), ("down", 3.0)])
    assert g.support.lo == pytest.approx(0.0, abs=1e-6)
    assert g.support.hi == pytest.approx(1.0, abs=1e-6)
    x = np.array([0.05, 0.3, 0.62, 0.99])
    np.testing.assert_allclose(g.pdf(x), 1.0, rtol=1e-10)


# ----------------------------------------------------------------- chains

def test_chain_double_down():
    g = chain(e1, [("down", 3.0), ("down", 3.0)])
    assert g.chain == (("down", 3.0), ("down", 3.0))
    assert mass_of(g) == pytest.approx(1.0, abs=1e-9)


def test_chain_gate_failure_carries_index():
    with pytest.raises(TransformChainError) as ei:
        chain(e1, [("down", 1.0), ("down", 2.0)])
    assert ei.value.index == 1


def test_chain_bad_kind():
    with pytest.raises(TransformChainError) as ei:
        chain(e1, [("sideways", 3.0)])
    assert ei.value.index == 0


def test_down_applicable():
    assert down_applicable(e1, 3.0) == (True, pytest.approx(1.0, abs=1e-9))
    ok, sup = down_applicable(e1, 1.0)
    assert not ok and sup == pytest.approx(1.0, abs=1e-9)
    ok, sup = down_applicable(pt21, 2.0)
    assert ok and sup == pytest.approx(1.5, abs=1e-6)


def test_provenance_fields():
    g = down(e1, 3.0)
    assert g.kind == "down" and g.alpha == 3.0
    assert g.base is e1 and g.root is e1
    h = up(g, 0.5)
    assert h.base is g and h.root is e1
    assert h.chain == (("down", 3.0), ("up", 0.5))


# ------------------------------------------------- image-space evaluation

def test_image_mass_direct_quadrature():
    # integrate the image pdf in its own coordinates, bypassing pullback
    for g, tol in ((d3e1, 1e-7), (u3u01, 1e-7), (up(pt21, 3.0), 1e-5)):
        r = integrate(g.pdf_at, g.support, tol=1e-9)
        assert abs(r.value - 1.0) < tol


def test_image_cdf_quantile_consistency():
    lv = np.array([0.05, 0.3, 0.5, 0.8, 0.99])
    for g in (d3e1, u3u01, up(e1, 2.0)):
        np.testing.assert_allclose(g.cdf_at(g.quantile_many(lv)), lv,
                                   atol=1e-9)


def test_image_zero_outside_support():
    assert d3e1.pdf_at(np.array([0.5]))[0] == 0.0
    assert u3u01.pdf_at(np.array([0.6]))[0] == 0.0


def test_reseat_shift():
    r = u3u01.reseat(1.0, 0.25)
    assert r.support.lo == pytest.approx(0.25, abs=1e-12)
    assert r.support.hi == pytest.approx(0.75, abs=1e-12)
    x = np.array([0.3, 0.5, 0.7])
    np.testing.assert_allclose(r.pdf(x), (1.5 - 2.0 * x) ** -0.5, rtol=1e-12)
    np.testing.assert_allclose(r.d1(x), (1.5 - 2.0 * x) ** -1.5, rtol=1e-12)
    assert mass_of(r) == pytest.approx(1.0, abs=1e-9)


def test_reseat_reflection():
    # u -> 1/2 - u sends (1-2u)**-1/2 on (0,1/2) to (2y)**-1/2, and the
    # image derivative must flip sign with the orientation
    r = u3u01.reseat(-1.0, 0.5)
    y = np.array([0.1, 0.25, 0.4])
    np.testing.assert_allclose(r.pdf(y), (2.0 * y) ** -0.5, rtol=1e-12)
    np.testing.assert_allclose(r.d1(y), -((2.0 * y) ** -1.5), rtol=1e-12)
    assert r.median() == pytest.approx(0.125, abs=1e-9)
    assert mass_of(r) == pytest.approx(1.0, abs=1e-9)


def test_reseat_rejects_rescale_and_down_tops():
    with pytest.raises(DomainError):
        u3u01.reseat(2.0, 0.0)
    with pytest.raises(CapabilityError):
        d3e1.reseat(1.0, 1.0)


# ------------------------------------------------------------- rescaling

def test_scaling_laws():
    for f in (e1, pt31):
        for al in (3.0, 0.5, 2.0):
            assert verify_scaling(f, al, 2.5) < 1e-7
    assert verify_scaling(e21, 4.0, 0.3) < 1e-7


# ------------------------------------------- functional carriage identities

def rel_ok(lhs, rhs, tol=1e-6):
    assert math.isfinite(lhs) and math.isfinite(rhs)
    assert abs(lhs - rhs) <= tol * max(abs(rhs), 1e-12)


def test_moment_carriage_down():
    # sigma_p of the down image equals a Renyi power of the base
    for f in (e1, e21):
        for al, ps in [(3.0, (0.5, -1.0)), (0.5, (1.0, 2.0))]:
            for p in ps:
                lam = 1.0 + (2.0 - al) * p
                lhs = F.sigma(down(f, al), p).value
                rhs = F.renyi_power(f, lam).value ** (al - 2.0) / abs(2.0 - al)
                rel_ok(lhs, rhs)


def test_moment_carriage_up():
    for f in (e1, e21):
        for al in (3.0, 0.5):
            for lam in (0.5, 2.0):
                p = (lam - 1.0) / (2.0 - al)
                lhs = F.renyi_power(up(f, al), lam).value
                rhs = (abs(2.0 - al) * F.sigma(f, p).value) ** (1.0 / (al - 2.0))
                rel_ok(lhs, rhs)


def test_fisher_carriage_down():
    for f in (e1, e21):
        for al, lams in [(3.0, (1.5, 2.0)), (0.5, (0.5, 2.0))]:
            for lam in lams:
                lhs = F.renyi_power(down(f, al), lam).value
                rhs = F.fisher(f, 1.0 - lam, 2.0 - al).value ** (1.0 / (1.0 - lam))
                rel_ok(lhs, rhs)


def test_fisher_carriage_up():
    for f in (e1, e21):
        for b in (-1.0, 1.5):
            for p in (0.5, -1.0):
                lhs = F.phi(up(f, 2.0 - b), p, b).value
                rhs = F.renyi_power(f, 1.0 - p).value ** (1.0 / b)
                rel_ok(lhs, rhs)


def test_entropy_carriage_down():
    for f in (e1, e21):
        for al in (3.0, 0.5, 2.0):
            lhs = F.shannon(down(f, al)).value
            rhs = al * F.shannon(f).value + F.mean_log_abs_deriv(f).value
            rel_ok(lhs, rhs)


def test_entropy_carriage_up():
    for f in (e1, e21, u01):
        for al in (3.0, 0.5, 1.0, -1.0):
            lhs = F.shannon(up(f, al)).value
            rhs = (F.mean_log_abs(f).value + math.log(abs(al - 2.0))) \
                / (al - 2.0)
            rel_ok(lhs, rhs)
    # two exact anchors of the same identity
    rel_ok(F.shannon(up(u01, 3.0)).value, -1.0)
    rel_ok(F.shannon(up(e1, 3.0)).value, -EULER, tol=1e-6)


def test_alpha2_down_special_forms():
    g = down(e1, 2.0)
    # log-moment image: sigma_p = Gamma(p+1)^(1/p) for the unit rate
    for p in (1.0, 2.0, 3.5):
        rel_ok(F.sigma(g, p).value, math.gamma(p + 1.0) ** (1.0 / p),
               tol=1e-9)
    for lam in (0.5, 2.0):
        rel_ok(F.renyi_power(g, lam).value, (1.0 / lam) ** (1.0 / (1.0 - lam)),
               tol=1e-9)


def test_entropy_two_downs():
    lhs = F.shannon(chain(e1, [("down", 3.0), ("down", 3.0)])).value
    rel_ok(lhs, 3.0 + math.log(2.0), tol=1e-9)
    # general coefficients, second step taken directly
    al, be = 3.0, 0.5
    lhs = F.shannon(down(down(e1, al), be)).value
    rhs = (al * be - 2.0 * al + 2.0) * F.shannon(e1).value \
        + (be - 1.0) * F.mean_log_abs_deriv(e1).value \
        + F.mean_log_curvature(e1, al).value
    rel_ok(lhs, rhs, tol=1e-9)


def test_moment_spot_values():
    rel_ok(F.sigma(d3e1, 0.5).value, 4.0, tol=1e-9)
    rel_ok(F.sigma(d3e1, -1.0).value, 2.0, tol=1e-9)
    lam = 0.5
    rel_ok(F.renyi_power(up(e1, 3.0), lam).value,
           math.gamma(2.0 - lam) ** (1.0 / (1.0 - lam)), tol=1e-9)
