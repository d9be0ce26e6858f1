"""Transform images against closed forms worked out by hand.

The recurring fixtures: the exponential with rate 1 maps under the
alpha = 3 down step to s**-2 on (1, inf), the unit uniform maps under the
alpha = 3 up step to (1 - 2u)**-1/2 on (0, 1/2), and the rate-2
exponential under the alpha = 2 up step to the linear density u/2 on
(0, 2). Everything else here is a variation on those.
"""

import functools
import inspect
import math
import warnings

import mpmath
import numpy as np
import pytest

from updown import densities, numerics, transforms
from updown import functionals as F
from updown.densities import (Density, affine_image, exponential, gzero,
                              half_restriction, power_tail, rescale,
                              stretched_gaussian, uniform)
from updown.down_fisher import down_fisher, down_order_check, order_minimizer
from updown.errors import (AccuracyError, CapabilityError, DomainError,
                           PreconditionError, TransformChainError)
from updown.numerics import _CumTable, integrate
from updown.transforms import (_placement, chain, down, down_applicable, up,
                               verify_inversion, verify_scaling)
from updown.upper_moments import moment_sequence_check

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


def test_down_needs_a_finite_edge_under_the_pdf_supremum():
    # pdf e^(-x) expit(k x) / Z on the whole line, Z = (pi/k)/sin(pi/k),
    # peaks at log(k - 1)/k, below the 64-point quantile grid, so the grid
    # reads it as falling toward its edge at -inf
    k = 1e4
    logz = math.log(math.pi / k / math.sin(math.pi / k))
    logpdf = lambda x: -x - np.logaddexp(0.0, -k * x) - logz
    f = Density(lambda x: np.exp(logpdf(x)), (-math.inf, math.inf), logpdf=logpdf,
                d1=lambda x: np.exp(logpdf(x)) * (k * np.exp(-np.logaddexp(0.0, k * x)) - 1.0),
                interior_points=(0.0,), label="skewed")
    assert f.strict_monotone_sign() == -1
    with pytest.raises(PreconditionError, match="support edge under the pdf supremum"):
        down(f, 3.0)


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


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
def test_down_support_edges_at_edge_values_zero_finite_and_infinite(alpha):
    # the image edges are the down coordinate's values at the base's edge
    # values: its limits at 0 and inf, v**-c/c (-log v at alpha = 2) at a
    # finite v. e1 has edge values 1 and 0, u3u01 (increasing) 1 and inf
    c = alpha - 2.0
    at_zero = math.inf if c >= 0.0 else 0.0
    at_inf = 0.0 if c > 0.0 else -math.inf
    for f, at_edge in ((e1, at_zero), (u3u01, at_inf)):
        v = f.edge_value("lo")
        want = sorted([-math.log(v) if c == 0.0 else v ** -c / c, at_edge])
        got = down(f, alpha).support
        assert [got.lo, got.hi] == pytest.approx(want, rel=1e-14, abs=0.0)


hgz = half_restriction(gzero(1.5))
hg21 = half_restriction(g21)


EDGE_LIMITS = [
    # 2 a0 (-log x)**2 grows without bound at 0, so the down edge at 0 sits
    # at the coordinate's limit there: -inf for alpha <= 2, 0 above
    ("half(gzero).lo", lambda: hgz.edge_value("lo"), math.inf),
    ("down(half(gzero),1.5).support.lo", lambda: down(hgz, 1.5).support.lo, -math.inf),
    ("down(half(gzero),2).support.lo", lambda: down(hgz, 2.0).support.lo, -math.inf),
    ("down(half(gzero),3).support.lo", lambda: down(hgz, 3.0).support.lo, 0.0),
    ("uniform(0,1e-14).lo", lambda: uniform(0.0, 1e-14).edge_value("lo"), 1e14),
    # every tail quantile rounds to the edge itself
    ("uniform(1e15,1e15+1).lo", lambda: uniform(1e15, 1e15 + 1.0).edge_value("lo"), 1.0),
    # an up pdf is 1/w(v), w = |(alpha-2) v|**(1/(alpha-2)), at the base
    # edge v the side maps to; an up image of an increasing coordinate
    # reverses it, so its lo edge is the base's hi edge
    ("up(e1,3).lo", lambda: up(e1, 3.0).edge_value("lo"), 0.0),
    ("down(up(e1,3),2).support.hi", lambda: down(up(e1, 3.0), 2.0).support.hi, math.inf),
    ("up(e1,1.5).lo", lambda: up(e1, 1.5).edge_value("lo"), math.inf),
    ("up(e1,1.5).singular_lo", lambda: up(e1, 1.5).support.singular_lo, True),
    ("up(gzero,3).lo", lambda: up(gzero(1.5), 3.0).edge_value("lo"), 1.0),
    ("up(gzero,2.05).lo", lambda: up(gzero(1.5), 2.05).edge_value("lo"), 20.0 ** 20),
    ("up(sg(2,1.5),3).lo", lambda: up(stretched_gaussian(2.0, 1.5), 3.0).edge_value("lo"),
     2.0 ** -0.5),
    ("up(g21,3).lo", lambda: up(g21, 3.0).edge_value("lo"), 0.0),
    ("up(u01,3).lo", lambda: u3u01.edge_value("lo"), 1.0),
    ("up(u01,3).hi", lambda: u3u01.edge_value("hi"), math.inf),
    ("reseat(up(u01,3)).lo", lambda: u3u01.reseat(-1.0, 0.0).edge_value("lo"), math.inf),
    ("reseat(up(u01,3)).hi", lambda: u3u01.reseat(-1.0, 0.0).edge_value("hi"), 1.0),
    # a down pdf is f**alpha/|f'|: e**(-(alpha-1) x) on e1 and
    # f**(alpha-1)/(2x) on half(g21), which blows up at 0; x**-1/2 on pt31
    ("down(e1,2+1e-6).lo", lambda: down(e1, 2.0 + 1e-6).edge_value("lo"), 1.0),
    ("down(half(g21),2+1e-6).lo", lambda: down(hg21, 2.0 + 1e-6).edge_value("lo"), math.inf),
    ("down(pt31,1.5).hi", lambda: down(pt31, 1.5).edge_value("hi"), 0.0),
    ("down(half(g21),1.5).hi", lambda: down(hg21, 1.5).edge_value("hi"), 0.0),
    ("gzero.hi", lambda: gzero(1.5).edge_value("hi"), 0.0),
    # the last tail quantile alone reads 1 - 2**-41, 4.5e-13 short; the
    # geometric approach is extrapolated
    ("e1.lo", lambda: abs(e1.edge_value("lo") - 1.0) <= 5.7e-14, True),
]


@pytest.mark.parametrize("read, want", [r[1:] for r in EDGE_LIMITS],
                         ids=[r[0] for r in EDGE_LIMITS])
def test_edge_limits_match_closed_forms(read, want):
    # a finite limit to 1e-12; 0, inf and the flags exactly
    got = read()
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


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


def test_up_second_derivative_away_from_alpha2():
    # d2 of (1 - 2u)**-1/2 is 3 (1 - 2u)**-5/2; under the reflection
    # u -> 1/2 - u an even derivative keeps its sign: 3 (2y)**-5/2
    u = np.array([0.02, 0.2, 0.4])
    np.testing.assert_allclose(u3u01.d2(u), 3.0 * (1.0 - 2.0 * u) ** -2.5, rtol=1e-12)
    y = np.array([0.1, 0.25, 0.4])
    np.testing.assert_allclose(u3u01.reseat(-1.0, 0.5).d2(y), 3.0 * (2.0 * y) ** -2.5,
                               rtol=1e-12)


@pytest.mark.parametrize("f", [gzero(1.5), g21], ids=["gzero(1.5)", "sg(2,1)"])
def test_up_table_ladders_stop_at_the_root_depth(f):
    # an up table is laid on its root's nodes; toward a point the root
    # table already ladders, its own ladder adds no deeper rung
    def depth(table):
        return {(p, s): dk for p, s, _, _, dk, _, _ in table._stubs}

    root, img = depth(f._node_table()), depth(up(f, 3.0).table)
    shared = root.keys() & img.keys()
    assert shared
    assert all(img[k] >= root[k] for k in shared)


def test_up_table_ladders_at_every_zero_of_the_stack():
    # the middle step of up(up(up(pt21, 3), 3), 3) has the zero 2.0, its
    # base's median anchor; the outer weight, a function of the middle
    # coordinate, is kinked there, so the outer table lays a stub at 2.0 on
    # each side beside the one at the root's edge 1.0, with unit mass
    inner = up(pt21, 3.0)
    middle = up(inner, 3.0)
    outer = up(middle, 3.0)
    assert (inner.zc, middle.zc, outer.zc) == (None, 2.0, None)
    assert outer._stack_cuts() == (2.0,)
    assert sorted(map(tuple, outer.table._stubs[:, :2].tolist())) == \
        [(1.0, 1.0), (2.0, -1.0), (2.0, 1.0)]
    assert mass_of(outer) == pytest.approx(1.0, abs=1e-12)


def test_up_uniform_alpha3_is_a_beta_density():
    # rescaled to (0, 1), the pdf (1 - 2u)**-1/2 on (0, 1/2) is Beta(1, 1/2),
    # whose n-th moment is n! Gamma(3/2) / Gamma(n + 3/2)
    for n in range(1, 9):
        with mpmath.workdps(30):
            want = mpmath.gamma(n + 1) * mpmath.gamma(1.5) / mpmath.gamma(n + 1.5)
        assert 2.0 ** n * F.mu(u3u01, n).value == pytest.approx(float(want), rel=1e-12)


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


def test_up_coordinate_keeps_its_digits_toward_the_anchor():
    # weight 4/v**2 against e^-v from the anchor at inf: u = 4 E2(t)/t.
    # Read as C(anchor) - C(t) with C pivoted at the median, u was 1.8e-8
    # off at t = 16 and exactly 0.0 from t = 32 on
    g = up(e1, 1.5)
    t = np.array([0.5, 1.0, 4.0, 12.0, 16.0, 20.0])
    with mpmath.workdps(30):
        want = [float(4 * mpmath.expint(2, x) / x) for x in t]
    np.testing.assert_allclose(g._chi(t), want, rtol=1e-12, atol=0.0)
    u = g._chi(np.linspace(0.01, 700.0, 20_001))
    assert np.all(np.isfinite(u)) and np.all(u > 0.0) and np.all(np.diff(u) < 0.0)


@pytest.mark.parametrize("alpha, hi", [(3.5, 3.0 * 1.5 ** (2.0 / 3.0)),
                                       (4.0, 2.0 * math.sqrt(2.0))])
def test_up_power_tail_canonical_edge(alpha, hi):
    # weight (c v)**(1/c) against v**-2 from 1; the tail integral past the
    # table's last node, mapped at unit scale, left 7.6e-7 out at alpha = 3.5
    assert up(pt21, alpha).support.hi == pytest.approx(hi, rel=1e-12)


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


def test_nested_up_build_gk_points(monkeypatch):
    # the outer weight |c u|**(1/c), c = -1/2, amplifies any noise in the
    # inner coordinate u toward its anchor; while u was a difference of
    # partial sums there, two outer panels ran to the panel budget and the
    # build cost 4,094,599 GK points
    f, n = exponential(1.0), [0]
    up(f, 1.5)
    kronrod = numerics._kronrod

    def counted(w, a, b, at=None):
        n[0] += 15 * np.size(a) + (0 if at is None else np.size(at))
        return kronrod(w, a, b, at)

    monkeypatch.setattr(numerics, "_kronrod", counted)
    up(up(f, 1.5), 1.5)
    assert 0 < n[0] < 400_000


def _count_gk_points(monkeypatch):
    """A one-item list that counts the GK15 points spent from here on."""
    n, kronrod = [0], numerics._kronrod

    def counted(w, a, b, at=None):
        n[0] += 15 * np.size(a) + (0 if at is None else np.size(at))
        return kronrod(w, a, b, at)

    monkeypatch.setattr(numerics, "_kronrod", counted)
    return n


def test_up_table_spends_nothing_past_the_root_underflow(monkeypatch):
    # the weight times the pdf is 1 up to x = 745, where the pdf falls to
    # 0; while the node table ran on to 2**41, the panel [512, 1024] held
    # that step, and the build spent 134,014 points
    f = exponential(1.0)
    f._node_table()
    n = _count_gk_points(monkeypatch)
    up(f, 2.0)
    assert 0 < n[0] <= 16_384


def test_moment_sequence_check_work_count(monkeypatch):
    # 799,510 points while integrands and up tables still ran past the
    # root pdf's underflow
    n = _count_gk_points(monkeypatch)
    moment_sequence_check(exponential(1.0), (1.5, 1.5), 2)
    assert 0 < n[0] <= 640_000


@pytest.mark.parametrize("make", [
    lambda: gzero(1.5), lambda: stretched_gaussian(2.0, 1.5),
    lambda: half_restriction(stretched_gaussian(2.0, 1.0)), lambda: stretched_gaussian(2.0, 1.0),
    lambda: power_tail(2.0, 1.0),
], ids=["gzero", "sg-1.5", "half-sg", "sg", "power-tail"])
def test_tables_integrate_only_infinite_tails(make, monkeypatch):
    # ladders with closed stubs hold the panels next to singular points,
    # so neither table calls integrate per panel; an up table still
    # integrates the tails beyond its ends on an infinite support
    f, seen = make(), []

    def spy(module):
        real = module.integrate

        def counted(fn, iv, *args, **kw):
            seen.append(iv)
            return real(fn, iv, *args, **kw)

        monkeypatch.setattr(module, "integrate", counted)

    spy(densities)
    spy(transforms)
    f._table = None
    f._node_table()
    assert not seen
    up(f, 3.0)
    assert all(not iv.bounded for iv in seen)


@pytest.mark.parametrize("make", [
    lambda: stretched_gaussian(2.0, 1.0), lambda: up(exponential(1.0), 3.0),
    lambda: exponential(1.0),
], ids=["node-table", "image", "closed-form"])
def test_nan_quantile_level_is_a_domain_error(make):
    # NaN fails every comparison, so levels are checked for lying inside
    # (0, 1); a check for lying outside passed NaN on to the solver
    with pytest.raises(DomainError, match="inside"):
        make().quantile_many(np.array([0.5, math.nan]))


@pytest.mark.parametrize("make", [lambda: up(exponential(1.0), 3.0),
                                  lambda: up(uniform(0.0, 1.0), 3.0)],
                         ids=["exp", "uniform"])
def test_flipped_quantile_levels_resolve_to_2_53(make):
    # a decreasing coordinate reads the root at 1 - v: 1e-16 is solved as
    # 2**-53 = 1.11e-16, and a level whose 1 - v rounds to 1 is valid but
    # lost, not a level outside (0, 1)
    img = make()
    assert img._sigma_total < 0.0
    assert img.quantile_many([1e-16]).tobytes() == img.quantile_many([2.0 ** -53]).tobytes()
    with pytest.raises(AccuracyError, match=r"1e-17 .*2\*\*-53 absolute"):
        img.quantile_many([0.5, 1e-17])
    with pytest.raises(AccuracyError, match=r"5\.551115123125783e-17"):
        img.quantile_many([2.0 ** -54])
    for bad in ([0.0], [1.0], [-0.5], [1e-17, 1.5], [1e-17, math.nan]):
        with pytest.raises(DomainError, match="inside"):
            img.quantile_many(bad)


def test_second_up_build_reuses_root_quantile_grids():
    # every fixed quantile grid an up build reads (orientation, table
    # nodes, median pivot and anchor, tail tests, brackets) is solved once
    # per root: the first build here makes 4 quantile solves (458 levels),
    # and the second none
    f = stretched_gaussian(2.0, 1.0)
    solve, calls = f.quantile_many, []

    def counted(levels):
        calls.append(np.size(levels))
        return solve(levels)

    f.quantile_many = counted
    up(f, 3.0)
    assert calls
    calls.clear()
    up(f, 4.0)
    assert calls == []


def test_up_on_a_warmed_root_is_bit_identical():
    # the memo changes no value: a build on a root that already served
    # another alpha matches one on a fresh root bit for bit
    warm, fresh = stretched_gaussian(2.0, 1.0), stretched_gaussian(2.0, 1.0)
    up(warm, 2.5)
    a, b = up(warm, 3.0), up(fresh, 3.0)
    assert mass_of(a).hex() == mass_of(b).hex()
    assert (a.c_anchor.hex(), a.zc.hex()) == (b.c_anchor.hex(), b.zc.hex())
    assert a.table.cums.tobytes() == b.table.cums.tobytes()


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


def test_coordinate_read_is_one_table_read_per_up_step(monkeypatch):
    # a coordinate-only read of an up image reads its own table and pushes
    # nothing into its base: one read per table (the inner one by the outer
    # table's weight) and one root log-pdf call per table, the weight's.
    # Pushing the whole stack read the inner table twice and called the
    # root pdf 5 times
    root = exponential(1.0, 0.0)
    g = up(up(root, 3.0), 3.0)
    t = root.quantiles(16)
    reads, log_calls, read, logpdf = {}, [], _CumTable.__call__, root.logpdf

    def counted_read(table, x):
        reads[id(table)] = reads.get(id(table), 0) + 1
        return read(table, x)

    def no_pdf(x):
        raise AssertionError("the up weights read logpdf, not pdf")

    monkeypatch.setattr(_CumTable, "__call__", counted_read)
    monkeypatch.setattr(root, "logpdf", lambda x: log_calls.append(x) or logpdf(x))
    monkeypatch.setattr(root, "pdf", no_pdf)
    g._chi(t)
    assert reads == {id(g.table): 1, id(g.base.table): 1}
    assert len(log_calls) == 2


@pytest.mark.parametrize("name", ["pdf", "d1", "cdf_at", "inverse_map"])
def test_image_queries_of_an_nd_array(name):
    # every image-space query inverts through the bracket table; on an
    # in-range 2x2 array it equals the flat call reshaped, bit for bit
    g = up(e1, 3.0)
    y = g.quantile_many(np.array([[0.1, 0.3], [0.7, 0.95]]))
    fn = getattr(g, name)
    got = np.asarray(fn(y))
    assert got.shape == (2, 2)
    assert got.tobytes() == np.asarray(fn(y.ravel())).tobytes()


def test_up_weight_where_the_root_pdf_is_subnormal():
    # the double e**-740 is about 4e-322 and carries about 7 significant
    # bits, so w*f = (c t)**(1/c) e**-t must be formed from the root's
    # closed-form log density, not from its pdf
    g = up(e1, 2.05)
    t = np.array([730.0, 740.0])
    got = g.table.w(t)
    c = mpmath.mpf(2.05) - 2  # the double alpha - 2, exactly
    with mpmath.workdps(40):
        want = [(c * mpmath.mpf(x)) ** (1 / c) * mpmath.exp(-mpmath.mpf(x)) for x in t]
        rel = [abs(mpmath.mpf(float(a)) - b) / b for a, b in zip(got, want)]
    assert max(rel) < 1e-12


def test_state_push_asks_its_base_only_for_what_its_step_needs(monkeypatch):
    # a down step asks its up base for one order more, and that needs only
    # the root's abscissae and log pdf; an up step at order 0 needs its
    # base's coordinate alone, and never reads its own table. While every
    # push also returned its own coordinate, the pdf query below cost 3,889
    # root-pdf points and the push read its own table and the inner twice.
    # The inversion's slope reads the root's log pdf and the state of order
    # 0, so two log pdf points per slope point; the state costs 64
    u = uniform(0.0, 1.0)
    img = down(up(u, 3.0), 3.0)
    y = img._chi(u.quantiles(64))
    logpdf, n = u.logpdf, [0]
    dz, slopes = img._dz, [0]

    def counted(x):
        n[0] += np.size(x)
        return logpdf(x)

    def no_pdf(x):
        raise AssertionError("the state reads the root's logpdf, not its pdf")

    def counted_dz(t):
        slopes[0] += np.size(t)
        return dz(t)

    u.logpdf, u.pdf = counted, no_pdf
    monkeypatch.setattr(img, "_dz", counted_dz)
    img.pdf(y)
    assert slopes[0] == 3 and n[0] == 64 + 2 * slopes[0]

    g = up(up(exponential(1.0, 0.0), 3.0), 3.0)
    reads, read = {}, _CumTable.__call__

    def counted_read(table, x):
        reads[id(table)] = reads.get(id(table), 0) + 1
        return read(table, x)

    monkeypatch.setattr(_CumTable, "__call__", counted_read)
    g._push(g.root.quantiles(16), 0)
    assert reads == {id(g.base.table): 1}


@pytest.mark.parametrize("make", [
    lambda: down(half_restriction(stretched_gaussian(2.0, 1.5)), 1.5),
    lambda: order_minimizer(2.0, 1.0, 2.0),
], ids=["down-half-sg", "minimizer"])
def test_image_state_inverts_once(make, monkeypatch):
    # the pdf and both derivatives of an image at the same points share one
    # bracket inversion, which reads the state log h, h'/h and h h''/h'**2;
    # read one at a time they took three
    img = make()
    y = img.quantiles(64)
    invert, calls = img._invert, []
    monkeypatch.setattr(img, "_invert", lambda v: calls.append(v) or invert(v))
    lf, s1, k = img._state(y, 2)
    assert len(calls) == 1
    f0 = np.exp(lf)
    for got, want in ((f0, img.pdf(y)), (f0 * s1, img.d1(y)), (f0 * (s1 ** 2 * k), img.d2(y))):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("make, most", [(lambda: stretched_gaussian(2.0, 1.0), 0),
                                        (lambda: up(pt21, 3.0), 0),
                                        (lambda: down(e21, 2.0), 16)],
                         ids=["sg21", "up-pt21", "down2-e21"])
def test_locate_zero_work_count(make, most):
    # an up layer reads its coordinate's zero off the base: a root answers
    # 0.0 and an up image its median anchor with no coordinate call, a down
    # image closes one bracket of its table (bisection to adjacent doubles
    # took 52-64 calls after a grid push). The zero is exact, or the upper
    # of two adjacent doubles around it
    base = make()
    chi, zero, calls = base._chi, base._zero, []

    def counted_zero():
        base._chi = lambda t: calls.append(t) or chi(t)
        try:
            return zero()
        finally:
            del base._chi

    base._zero = counted_zero
    zc = up(base, 3.0).zc
    assert len(calls) <= most
    below, at = base._chi(np.array([np.nextafter(zc, -np.inf), zc]))
    assert at == 0.0 or below * at < 0.0


@pytest.mark.parametrize("make, zc, sigma", [
    # the reseated coordinate t**2/2 - 0.2 is 0 at sqrt(0.4), 12 ulp above
    (lambda: up(up(u01, 3.0).reseat(-1.0, 0.3), 3.0), "0x1.43d1362484903p-1", 1.0),
    # the pdf of the down base crosses 1, its log 0, at 1 + ln 2 / 2
    (lambda: up(down(e21, 2.0), 3.0), "0x1.58b90bfbe8e7cp+0", 1.0),
    # a median-anchored coordinate is 0 at the root median, also where it
    # runs to about 1e153 on one side
    (lambda: up(up(pt21, 3.0), 3.0), "0x1.0p+1", -1.0),
    (lambda: up(up(pt21, 2.5), 3.0), "0x1.0p+1", -1.0),
    (lambda: up(up(e1, 3.0), 3.0), None, -1.0),
    (lambda: up(up(e1, 1.5), 1.5), None, -1.0),
    (lambda: up(up(g21, 3.0), 3.0), None, -1.0),
    # an identity reseat and a reflection keep the median crossing, which no
    # floor on the bracket table's ends hides
    (lambda: up(up(pt21, 2.5).reseat(1.0, 0.0), 3.0), "0x1.0p+1", -1.0),
    (lambda: up(up(pt21, 2.5).reseat(-1.0, 0.0), 3.0), "0x1.0p+1", 1.0),
], ids=["reseat", "down2", "median", "median-2.5", "up3-e1", "up1.5-e1", "up3-sg21",
        "median-2.5-reseat", "median-2.5-reflect"])
def test_up_layer_reads_zero_and_orientation_off_its_base(make, zc, sigma):
    # the zero and orientation read off the base, pinned bit for bit; a
    # canonical coordinate runs from 0 at its anchor edge, so crosses 0
    # nowhere inside
    g = make()
    assert (g.zc, g.sigma) == (zc and float.fromhex(zc), sigma)


def test_up_across_a_median_anchor_zero_needs_an_integrable_weight():
    # up(pt21, 2.5) is anchored at the root median 2, where its coordinate
    # is 0; the weight |-0.5 v|**-2 of a 1.5 step is not integrable there
    with pytest.raises(PreconditionError, match="interior zero at 2"):
        up(up(pt21, 2.5), 1.5)
    # so is it under an identity reseat, whose zero the base's table holds
    with pytest.raises(PreconditionError, match="interior zero at 2"):
        up(up(pt21, 2.5).reseat(1.0, 0.0), 1.5)


@pytest.mark.parametrize("make, sigma", [
    (lambda: down(u3u01, 3.0), 1.0),
    (lambda: up(down(u3u01, 3.0), 3.0), -1.0),
    # reseat(-2, .) is an affine step of scale 1/-2, over a decreasing coordinate
    (lambda: up(e1, 3.0).reseat(-2.0, 0.5), 1.0),
], ids=["down-up", "up-down-up", "reseat-negative"])
def test_step_orientation_matches_its_coordinate(make, sigma):
    # each step states its orientation; the coordinate, read at the bracket
    # nodes and at the root's outer quantiles, must move that way
    g = make()
    assert g._sigma_total == sigma
    t, _ = g._brackets
    assert t.size > 100
    assert np.all(np.sign(np.diff(g._chi(t))) == sigma)
    y = g._chi(g.root.quantiles(64)[[0, -1]])
    assert np.sign(y[1] - y[0]) == sigma


@pytest.mark.parametrize("make, based", [
    (lambda: up(exponential(1.0), 3.0), False),
    (lambda: down(exponential(1.0), 3.0), False),
    (lambda: up(up(exponential(1.0), 3.0), 3.0), False),
    # a down step off alpha = 2 states that its coordinate keeps one sign
    (lambda: up(down(exponential(1.0), 3.0), 3.0), False),
    # the up step reads the zero of an alpha = 2 down base off its table
    (lambda: up(down(exponential(2.0, 1.0), 2.0), 3.0), True),
], ids=["up", "down", "up-up", "up-down", "up-down2"])
def test_image_builds_its_bracket_table_on_first_inversion(make, based):
    # a build and a pullback integral invert nothing, so no step of the
    # stack holds a bracket table until an image-space query
    g = make()
    g.integral(lambda y, h: h)
    assert "_brackets" not in vars(g)
    assert ("_brackets" in vars(g.base)) == based
    if g.base is not g.root:
        assert "_brackets" not in vars(g.base.base)
    g.pdf(g.quantiles(4))
    assert "_brackets" in vars(g)


def test_library_checks_read_images_without_inversion(monkeypatch):
    # the checks read an image at its own quantiles by pushing the root's,
    # so none of them inverts a coordinate the library has just pushed;
    # moment_sequence_check reads each layer's placement off the coordinates
    calls, invert = [], transforms.TransformedDensity._invert
    monkeypatch.setattr(transforms.TransformedDensity, "_invert",
                        lambda self, y: calls.append(y) or invert(self, y))
    builds, brackets = [], transforms.TransformedDensity._brackets.func
    counted = functools.cached_property(lambda self: builds.append(self) or brackets(self))
    counted.__set_name__(transforms.TransformedDensity, "_brackets")
    monkeypatch.setattr(transforms.TransformedDensity, "_brackets", counted)
    for g in (order_minimizer(2.0, 1.0, 2.0),
              down(half_restriction(stretched_gaussian(2.0, 1.5)), 1.5),
              up(e1, 3.0)):  # sigma < 0
        assert g.order == 2
        assert g.strict_monotone_sign() is not None
        down_applicable(g, 3.0)
        F.curvature_sup(g), F.curvature_inf(g)
        F.renyi(g, 2.0), down_fisher(g, 2.0, 1.0, 2.0)
        F.mean_log_curvature(g, 4.0)
    down_order_check(order_minimizer(2.0, 1.0, 2.0), 2.0, 1.0, 1.0, 2.0)
    assert len(calls) == 0
    builds.clear()
    moment_sequence_check(e1, (1.5, 1.5), 2)
    assert len(calls) == 0
    assert len(builds) == 0


def test_up_curvature_is_closed_form_deep_in_the_tail():
    # up(e1, 3) has h h''/h'**2 = (2 + c) + s1/q = 3 - t in closed form; the
    # linear state read -inf at t = 250 and NaN at 360, where h**3 underflowed
    t = np.linspace(0.5, 700.0, 1400)
    np.testing.assert_allclose(up(e1, 3.0)._push(t, 2)[2], 3.0 - t, rtol=1e-12)


def test_mean_log_curvature_of_up_exponential():
    # 4 - kappa = 1 + t, so the mean is E[log(1 + T)] for T ~ Exp(1), e E1(1);
    # the linear state's NaN at t = 360 raised IntegrandError
    with mpmath.workdps(30):
        want = float(mpmath.e * mpmath.e1(1))
    got = F.mean_log_curvature(up(e1, 3.0), 4.0)
    assert got.converged
    assert got.value == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("f", [u01, e1, half_restriction(g21)], ids=["u01", "e1", "half-sg"])
def test_down_undoes_up_near_alpha_2_with_unit_mass(f):
    # the up image's h' passes 1e308 near its flat end at alpha = 2.05; the
    # down pdf formed from it read 0 there, and the pullback lost 6e-7 of
    # the mass with converged=True
    r = down(up(f, 2.05), 2.05).integral(lambda y, h: h)
    assert r.converged
    assert r.value == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("scale", [2.0, -2.0])
def test_affine_derivatives_at_the_base_mode(scale):
    # at its base's mode an affine image's state has s1 = 0 and kappa and
    # tau not finite, so h s1**2 kappa cannot give h''; the image scales its
    # base's derivatives: |scale| scale**j f^(j)(scale y), f(x) =
    # e**(-x**2)/sqrt(pi), even in the sign of scale for j = 2 and 3. Out
    # to |y| ~ 1e-154 s1**2 also underflows
    g = affine_image(g21, scale)
    y = np.array([0.0, 1e-160, 1e-9, 0.3])
    x, f = 2.0 * y, np.exp(-4.0 * y ** 2) / math.sqrt(math.pi)
    np.testing.assert_allclose(g.d2(y), 8.0 * (4.0 * x ** 2 - 2.0) * f, rtol=1e-12)
    np.testing.assert_allclose(g.d3(y), 16.0 * (12.0 * x - 8.0 * x ** 3) * f, rtol=1e-12)
    assert np.ravel(rescale(g21, 2.0).d2(0.0))[0] == pytest.approx(-9.027033336764101, rel=1e-12)


@pytest.mark.parametrize("make", [
    lambda: down(pt21, 2.5),
    lambda: down(half_restriction(g21), 3.0),
    lambda: down(e21, 2.0),
    lambda: down(half_restriction(gzero(1.5)), 3.0),
    lambda: affine_image(pt21, -2.0, 1.0),
    lambda: down(pt21, 2.5).reseat(-3.0, 1.0),
    lambda: up(e1, 3.0).reseat(2.0, 0.5),
], ids=["down-pt21", "down-half-sg", "down2-e21", "down-half-gzero", "affine-pt21",
        "reseat-down", "reseat-up"])
def test_step_ratios_match_central_differences(make):
    # s1 = dl/dy and kappa = 1 + (ds1/dy)/s1**2, with d/dy = (d/dt)/(dchi/dt),
    # read by central differences of the pushed state over root abscissae
    g = make()
    t = g.root.quantiles(32)
    d = 1e-6 * np.abs(t)
    lo, mid, hi = (g._push(x, g.order) for x in (t - d, t, t + d))
    dy = g._chi(t + d) - g._chi(t - d)
    np.testing.assert_allclose((hi[0] - lo[0]) / dy, mid[1], rtol=1e-6)
    if g.order >= 2:
        np.testing.assert_allclose(1.0 + (hi[1] - lo[1]) / dy / mid[1] ** 2, mid[2], rtol=1e-6)


@pytest.mark.parametrize("alpha", [2.05, 2.1, 3.0])
def test_up_uniform_reads_its_monotone_sign_and_curvature_near_alpha_2(alpha):
    # h h''/h'**2 = 2 + c = alpha in closed form, also near alpha = 2, where
    # the coordinate is flat to float resolution and only a push reads h
    g = up(u01, alpha)
    assert g.strict_monotone_sign() == 1
    assert F.curvature_sup(g) == pytest.approx(alpha, abs=1e-12)
    assert F.curvature_inf(g) == pytest.approx(alpha, abs=1e-12)


def test_mean_log_curvature_names_an_image_abscissa():
    # h h''/h'**2 = 3 on up(u01, 3), whose coordinate is (1 - t**2)/2: the
    # first root quantile t = 1/256 is named by its image abscissa
    with pytest.raises(DomainError, match=r"at x=0\.499992$"):
        F.mean_log_curvature(u3u01, 2.0)


@pytest.mark.parametrize("alpha", [2.05, 2.1])
@pytest.mark.parametrize("f", [u01, e1, half_restriction(g21)],
                         ids=["u01", "e1", "half-sg21"])
def test_down_undoes_up_near_alpha_2(f, alpha):
    y = f.quantiles(16)
    g = down(up(f, alpha), alpha)
    gap = np.max(np.abs(g.reseat(*_placement(g, f)).pdf_at(y) - f.pdf_at(y)))
    assert gap <= 1e-12


def _solve_counted(run, monkeypatch):
    """run() with the transforms solver's g counted; (result, g calls)."""
    solve, calls = numerics._rtsafe, []

    def solver(g, *table):
        return solve(lambda t: calls.append(t) or g(t), *table)

    monkeypatch.setattr(transforms, "_rtsafe", solver)
    return run(), len(calls)


@pytest.mark.parametrize("make, straddles", [
    (lambda: up(e1, 3.0), False),
    (lambda: up(u3u01, 3.0), False),
    (lambda: down(u3u01, 3.0), False),
    (lambda: u3u01.reseat(-1.0, 0.5), False),
    # shifted by its median, the coordinate crosses 0 inside the table
    (lambda: (lambda g: g.reseat(1.0, -g.median()))(up(g21, 3.0)), True),
], ids=["up3-e1", "up3-up3-u01", "down3-up3-u01", "reseat", "straddle-sg21"])
def test_seeded_solves_match_unseeded(make, straddles, monkeypatch):
    # the bracket table holds the solver's g at every node, bit for bit,
    # so a solve seeded from it starts where one that called g there would.
    # An affine step solves only its zero on the table: it inverts through
    # its base, bit for bit, and its queries build no table
    img = make()
    affine = img.kind == "affine"
    if affine:
        y = np.r_[img.quantiles(32), -1e300, 1e300, -np.inf, np.inf, np.nan]
        t, oob = img._invert(y)
        tb, oob_b = img.base._invert(img.scale * y + img.shift)
        assert t.tobytes() == tb.tobytes() and oob.tobytes() == oob_b.tobytes()
        assert not oob[:32].any() and oob[32:].all()
        assert "_brackets" not in vars(img)
    (bt, bz), sigma = img._brackets, img._sigma_total
    assert (bz[0] < 0.0 < bz[-1]) == straddles
    assert (sigma * img._chi(bt)).tobytes() == bz.tobytes()
    if not affine:
        # at a node the solve lands on it with no coordinate call; a bracket
        # of two adjacent doubles stays open, and its midpoint may round down
        (t, oob), n = _solve_counted(lambda: img._invert(sigma * bz), monkeypatch)
        assert n == 0 and not oob[1:].any() and oob[0]
        i = np.nonzero(t != bt)[0]
        assert np.all(np.nextafter(bt[i - 1], np.inf) == bt[i]) and np.all(t[i] == bt[i - 1])
        # in range, beyond both bracket-table ends, infinite and NaN
        ends = bz[[0, -1]]
        y = np.r_[img.quantiles(32), sigma * (ends + [-1.0, 1.0] * (1.0 + abs(ends))),
                  -np.inf, np.inf, np.nan]
        _, oob = img._invert(y)
        assert not oob[:32].any() and oob[32:].all()
        idx = np.searchsorted(bz, sigma * y)
        np.testing.assert_array_equal(oob, (idx <= 0) | (idx >= len(bz)) | ~np.isfinite(y))
    if straddles:
        zc = img._zero()
        z = sigma * img._chi(np.array([zc, np.nextafter(zc, -np.inf)]))
        assert z[0] == 0.0 or (z[0] > 0.0 and z[1] < 0.0)


@pytest.mark.parametrize("make, rounds, points, slopes", [
    (lambda: up(e1, 3.0), 5, 197, 133),
    (lambda: up(up(e1, 3.0), 3.0), 5, 200, 136),
], ids=["up3-e1", "up3-up3-e1"])
def test_newton_inversion_work_count(make, rounds, points, slopes, monkeypatch):
    # 64 image coordinates at seeded root quantiles, inverted on a built
    # bracket table: the secant and Newton steps on the slope f_root/h take
    # 5 rounds, reading the coordinate at about 3 points per query. The
    # interpolating solver this replaced took 9 and 10 rounds at 288 and
    # 279 points; key bisection alone takes 48 and 50 rounds
    img = make()
    t = e1.quantile_many(np.random.default_rng(7).uniform(0.02, 0.98, 64))
    y = img._chi(t)
    img._brackets
    reads = {"_z": [], "_dz": []}
    for name, seen in reads.items():
        read = getattr(img, name)
        monkeypatch.setattr(img, name,
                            lambda x, read=read, seen=seen: seen.append(x.size) or read(x))
    got, oob = img._invert(y)
    assert (len(reads["_z"]), sum(reads["_z"]), sum(reads["_dz"])) == (rounds, points, slopes)
    assert not oob.any()
    np.testing.assert_allclose(img._chi(got), y, rtol=1e-14)


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


@pytest.mark.parametrize("make, alpha", [
    (lambda: exponential(1.0, 0.0), 2.05), (lambda: exponential(1.0, 0.0), 2.1),
    (lambda: exponential(2.0, 1.0), 2.05), (lambda: uniform(0.0, 1.0), 2.05),
    (lambda: uniform(0.0, 1.0), 2.1),
    (lambda: half_restriction(stretched_gaussian(2.0, 1.0)), 2.05),
    (lambda: half_restriction(stretched_gaussian(2.0, 1.0)), 2.1),
], ids=["exp-2.05", "exp-2.1", "exp21-2.05", "uniform-2.05", "uniform-2.1",
        "half-sg-2.05", "half-sg-2.1"])
def test_defect_4a_cells_hold_unit_mass(make, alpha):
    # these images pile their mass within a few thousand ulp of y, so an
    # image-space pdf query is ill-conditioned there; the build and the
    # pullback mass are not (mass 1 to 1.1e-14 on every cell)
    r = up(make(), alpha).integral(lambda y, h: h)
    assert r.converged
    assert r.value == pytest.approx(1.0, abs=1e-9)


def _up_coordinate_errors(g, tail):
    """Largest relative gap of _chi from its closed form c**(1/c) * tail,
    and of the pushed pdf e**l times the weight (c t)**(1/c) from 1, at 16 root
    quantiles of an up image over a root with no base step."""
    c = g.c
    t = g.root.quantile_many((np.arange(16) + 0.5) / 16)
    with mpmath.workdps(30):
        k = 1 / mpmath.mpf(c)
        ref = np.array([float(mpmath.mpf(c) ** k * tail(k, mpmath.mpf(x))) for x in t])
    chi = np.max(np.abs(g._chi(t) / ref - 1.0))
    push = np.max(np.abs(np.exp(g._push(t, 0)[0]) * (c * t) ** (1.0 / c) - 1.0))
    return chi, push


@pytest.mark.parametrize("alpha", [2.05, 2.1, 3.0])
@pytest.mark.parametrize("root, tail", [
    (u01, lambda k, t: (1 - t ** (k + 1)) / (k + 1)),
    (e1, lambda k, t: mpmath.gammainc(k + 1, t)),
], ids=["uniform", "exp"])
def test_up_coordinate_matches_closed_form(root, tail, alpha):
    # u(t) is the weight mass t**(1/c) f(t) beyond t, times c**(1/c): the
    # worst measured gaps are 1.1e-14 for _chi and 1.4e-14 for the push.
    # 1e-3 of the mass added to every running sum past the middle node
    # bends the coordinate, and the same check sees it (by 1e-3 to 1.6e-2
    # relative)
    g = up(root, alpha)
    chi, push = _up_coordinate_errors(g, tail)
    assert chi < 1e-12
    assert push < 1e-13
    cums = g.table.cums
    cums[len(cums) // 2 + 1:] += 1e-3 * (cums[-1] - cums[0])
    assert _up_coordinate_errors(g, tail)[0] > 1e-4


# ------------------------------------------------------------ round trips

def test_up_after_down_recovers():
    # the read placement is the best of both orientations with the
    # edge-matching and median shifts, judged by pdf gap: a reflection
    # and the median shift, f's median
    for f, shift in ((e21, 1.3465735902799718), (pt31, 2.8284271247461885),
                     (half_restriction(g21), 0.4769362762044697)):
        for al in (-1.0, 0.5, 3.0, 4.0):
            assert verify_inversion(f, al) < 1e-8
            got = _placement(up(down(f, al), al), f)
            assert got[0] == -1.0
            assert got[1] == pytest.approx(shift, abs=1e-12)


def test_placement_recovers_a_reseat():
    g = up(e1, 3.0)
    target = g.reseat(-1.0, 0.3)
    scale, shift = _placement(g, target)
    assert scale == -1.0
    assert shift == pytest.approx(0.3, abs=1e-12)
    y = target.quantile_many(np.linspace(0.06, 0.94, 23))
    assert np.max(np.abs(g.reseat(scale, shift).pdf_at(y) - target.pdf_at(y))) < 1e-10


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
    # the caller's step, like one that is not a (kind, alpha) pair: a
    # DomainError naming its index, not a failed step's TransformChainError
    with pytest.raises(DomainError, match="chain step 0 has unknown transform kind") as ei:
        chain(e1, [("sideways", 3.0)])
    assert not isinstance(ei.value, TransformChainError)


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


@pytest.mark.parametrize("make", [
    lambda: u01, lambda: e1, lambda: g21, lambda: pt21, lambda: gzero(1.5),
    lambda: half_restriction(g21), lambda: rescale(e1, 3.0), lambda: u3u01,
    lambda: up(u3u01, 3.0), lambda: up(e1, 3.0), lambda: d3e1,
    lambda: up(d3e1, 3.0), lambda: up(e1, 3.0).reseat(-2.0, 0.5),
], ids=["u01", "e1", "sg21", "pt21", "gzero", "half-sg21", "rescale-e1", "up-u01",
        "up-up-u01", "up-e1", "down-e1", "up-down-e1", "reseat-up-e1"])
def test_cdf_is_exact_off_the_support_and_nan_at_nan(make):
    # a nested image read 0.999999993 at its upper edge and at inf, and at
    # NaN images read 0, 1 or values between, sg21 1.0 and closed forms NaN
    f = make()
    lo, hi = f.support.lo, f.support.hi
    x = np.array([lo, lo - 1.0, -np.inf, hi, hi + 1.0, np.inf, np.nan])
    got = f.cdf_at(x)
    np.testing.assert_array_equal(got, [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, np.nan])
    assert (f.cdf_at(lo), f.cdf_at(hi)) == (0.0, 1.0) and math.isnan(f.cdf_at(math.nan))


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


def test_reseat_keeps_no_quantile_memo_of_the_original():
    m = u3u01.median()
    r = u3u01.reseat(-1.0, 0.3)
    assert r._grids is not u3u01._grids
    assert r.median() == pytest.approx(0.3 - m, abs=1e-12)


def test_integral_beyond_the_image_order_names_the_image():
    g = down(down(e1, 3.0), 3.0)
    with pytest.raises(CapabilityError, match=r"^down\(down\(exponential\(1,0\),3\),3\): "
                       "derivative order 2 requested, have 1$"):
        g.integral(lambda y, h, h1, h2: h, needs=2)


@pytest.mark.parametrize("make", [
    lambda: affine_image(e1, 0.0),
    lambda: affine_image(e1, math.inf),
    lambda: affine_image(e1, 1.0, math.nan),
    lambda: u3u01.reseat(0.0, 0.0),
    lambda: d3e1.reseat(math.inf, 0.0),
], ids=["affine-zero", "affine-inf", "affine-nan-shift", "reseat-zero", "reseat-inf"])
def test_affine_steps_need_a_finite_nonzero_scale(make):
    with pytest.raises(DomainError):
        make()


@pytest.mark.parametrize("make, lo, hi, pdf", [
    # 2U + 0.1 for U with pdf (1 - 2u)**-1/2 on (0, 1/2)
    (lambda: u3u01.reseat(2.0, 0.1), 0.1, 1.1, lambda v: 0.5 * (1.1 - v) ** -0.5),
    # -U/2: the reflection with a scale
    (lambda: u3u01.reseat(-0.5, 0.0), -0.25, 0.0, lambda v: 2.0 * (1.0 + 4.0 * v) ** -0.5),
    # 3S - 1 for S with pdf s**-2 on (1, inf)
    (lambda: d3e1.reseat(3.0, -1.0), 2.0, math.inf, lambda v: 3.0 * (v + 1.0) ** -2),
], ids=["up-scale2", "up-scale-half-reflected", "down-scale3"])
def test_reseat_scales_up_and_down_images(make, lo, hi, pdf):
    r = make()
    assert (r.support.lo, r.support.hi) == pytest.approx((lo, hi), rel=1e-12, abs=1e-12)
    v = r.quantile_many(np.array([0.05, 0.3, 0.6, 0.9]))
    np.testing.assert_allclose(r.pdf(v), pdf(v), rtol=1e-12)
    assert mass_of(r) == pytest.approx(1.0, abs=1e-9)


# ------------------------------------------------------------- rescaling

def test_rescale_keeps_every_derivative_order():
    # an affine step passes d3 through, so a down step on top loses only
    # its own order
    r = rescale(e1, 2.0)
    assert r.order == 3
    assert down(r, 3.0).order == down(e1, 3.0).order


def test_scaling_laws():
    for f in (e1, pt31):
        for al in (3.0, 0.5, 2.0):
            assert verify_scaling(f, al, 2.5) < 1e-7
    assert verify_scaling(e21, 4.0, 0.3) < 1e-7


def _gauss_cdf(x):
    # stretched_gaussian(2, 1) is exp(-x**2)/sqrt(pi)
    return np.array([0.5 * math.erfc(-v) for v in x])


@pytest.mark.parametrize("root, scale, shift, cdf", [
    (exponential(1.3), -2.0, 0.5, lambda x: -np.expm1(-1.3 * x)),
    (e1, 1e-6, 0.0, lambda x: -np.expm1(-x)),
    (e1, 3.0, 0.0, lambda x: -np.expm1(-x)),
    (e1, 1e6, 0.0, lambda x: -np.expm1(-x)),
    (pt21, 3.0, 0.0, lambda x: 1.0 - 1.0 / x),
    (g21, -0.5, 0.25, _gauss_cdf),
], ids=["exp-reflected", "exp-1e-6", "exp-3", "exp-1e6", "power-tail-3", "gauss-reflected"])
def test_affine_step_over_a_root_inverts_through_its_base(root, scale, shift, cdf):
    # y = (x - shift)/scale: the inverse is scale*y + shift, the pdf
    # |scale| f(scale*y + shift), and the cdf reads F or 1 - F there
    g = affine_image(root, scale, shift)
    y = (root.quantiles(64) - shift) / scale
    x = scale * y + shift
    np.testing.assert_allclose(g.inverse_map(y), x, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(g.pdf(y), abs(scale) * root.pdf(x), rtol=1e-14, atol=0.0)
    want = cdf(x) if scale > 0 else 1.0 - cdf(x)
    np.testing.assert_allclose(g.cdf_at(y), want, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("root", [e1, g21, pt21], ids=["e1", "sg21", "pt21"])
def test_rescaled_pdf_solves_nothing(root, monkeypatch):
    # the inverse of an affine step over a root is closed form: a pdf read
    # calls no solver and builds no bracket table
    g = rescale(root, 3.0)
    y = g.quantiles(64)
    h, n = _solve_counted(lambda: g.pdf(y), monkeypatch)
    assert n == 0 and "_brackets" not in vars(g)
    np.testing.assert_allclose(h, 3.0 * root.pdf(3.0 * y), rtol=1e-14, atol=0.0)


def test_images_share_the_read_surface_of_density():
    # the state, quantile and cdf reads and the pullback integral are
    # written once, on Density; an image class states only step primitives.
    # bench/tracing's uninstall can leave its wrapper of an inherited method
    # on a class: unwrapped, that is Density's own
    for cls in (transforms.TransformedDensity, transforms._UpImage,
                transforms._DownImage, transforms._AffineImage):
        for name in ("_state", "quantile_many", "cdf_at", "_cdf_img", "integral"):
            own = vars(cls).get(name)
            assert own is None or inspect.unwrap(own) is vars(Density).get(name), \
                f"{cls.__name__} defines {name}"


def test_affine_reads_outside_the_support_of_a_root():
    # the root's inverse marks what lies outside its open support, so an
    # affine image over it reads 0 there, not the root's hooks off the support
    g = rescale(e1, 2.0)
    np.testing.assert_array_equal(np.r_[g.pdf(-1.0), g.d1(-1.0), g.logpdf(-1.0), g.cdf_at(-1.0)],
                                  [0.0, 0.0, -np.inf, 0.0])
    assert np.isnan(g.inverse_map(-1.0)).all()
    # support (-0.25, 0.25); -0.3 and 0.3 lie strictly outside it
    h = affine_image(u01, -2.0, 0.5)
    y = np.array([-0.3, 0.3])
    np.testing.assert_array_equal(h.pdf(y), 0.0)
    np.testing.assert_array_equal(h.logpdf(y), -np.inf)
    assert np.isnan(h.inverse_map(y)).all()


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
