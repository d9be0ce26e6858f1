"""Iterated upper-moments and deviations, with the moment-sequence check.

The (p, alpha)-upper-moment weighs each point of a density by the p-th
power of the cumulative |(alpha-2)v|^(1/(alpha-2)) f(v) mass above it
(e^v at alpha = 2). Two evaluation routes exist: direct nested quadrature
of the definition, and the p-th absolute moment of the up-transformed
density. They must agree; tests and the cross-check keyword hold them to
1e-5 relative. Higher orders iterate the up transform, innermost exponent
last in the vector.

Anchoring follows the up transform exactly: the inner cumulative runs to
the upper support edge when the weighted mass converges there and to the
median otherwise. The decision is made by a dyadic condensation series on
quantiles so that float underflow of the pdf cannot mask a divergent
tail.
"""

import math
from typing import NamedTuple

import numpy as np

from . import functionals
from .densities import _condensation_diverges
from .errors import (AccuracyError, CapabilityError, DomainError,
                     PreconditionError, TransformChainError,
                     UnsupportedCaseError)
from .numerics import Interval, integrate
from .transforms import _log_weight, chain, down, down_applicable, up

__all__ = [
    "AlphaVector", "UpperMomentResult", "MomentCheckResult", "prefactor",
    "upper_moment", "upper_moment_via_up", "verify_path_agreement",
    "upper_moment_n", "upper_moment_n2_literal", "signed_upper_moment",
    "moment_sequence_check",
]


class AlphaVector(tuple):
    """Ordered exponent vector (alpha_0, ..., alpha_{n-1}).

    alpha = 2 is covered in any single position for orders one and two,
    and only in the last position above that; the (2, 2) pair and other
    interior placements have no defining formula and are rejected.
    """

    def __new__(cls, entries):
        if isinstance(entries, (int, float)):
            entries = (entries,)
        vec = tuple(float(a) for a in entries)
        if not vec:
            raise DomainError("alpha vector needs at least one entry")
        for a in vec:
            if not math.isfinite(a):
                raise DomainError(f"alpha entries must be finite, got {a!r}")
        twos = [i for i, a in enumerate(vec) if a == 2.0]
        if len(vec) == 2 and len(twos) == 2:
            raise UnsupportedCaseError("the (2, 2) exponent vector is not covered")
        if len(vec) > 2 and any(i != len(vec) - 1 for i in twos):
            raise UnsupportedCaseError(
                "alpha = 2 is only covered in the last position for orders above two")
        return tuple.__new__(cls, vec)

    @property
    def order(self):
        return len(self)


class UpperMomentResult(NamedTuple):
    M: float            # the upper-moment
    m: float            # deviation M^(prod(alpha_i - 2)/p); NaN when some alpha_i = 2
    K: float            # constant prefactor of the raw nested form
    path: str           # "direct" or "via-up"
    converged: bool
    err: float


class MomentCheckResult(NamedTuple):
    deviation: float    # worst relative deviation over the checked moments
    moments: tuple      # rows (i, classical, reconstructed, rel)
    skipped: tuple      # orders whose classical moment diverges


def prefactor(p, alphas):
    """K(p, vec-alpha): the constant split off the raw nested form.

    Accumulated in log space; an alpha = 2 entry stops the product, since
    nothing can be pulled out through an exponential kernel.
    """
    vec = AlphaVector(alphas)
    logk = 0.0
    acc = 1.0
    for a in vec:
        if a == 2.0:
            break
        acc /= a - 2.0
        logk += acc * math.log(abs(a - 2.0))
    return math.exp(float(p) * logk)


def _weighted_pdf(f, c, raw=False):
    """Integrand w(v) f(v) with w = |(c) v|^(1/c), e^v at c = 0.

    raw=True drops the |c|^(1/c) constant (it lives in the prefactor).
    Formed in log space; points where the pdf is exactly zero are dropped,
    as are overflow artifacts (divergence detection is the condensation
    test's job, not the integrand's).
    """
    lc = 0.0 if (c == 0.0 or raw) else math.log(abs(c)) / c

    def wf(v):
        v = np.asarray(v, dtype=float)
        fr = f.pdf(v)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            lw = v if c == 0.0 else np.log(np.abs(v)) / c + lc
            y = np.exp(lw + np.log(fr))
        return np.where((fr > 0.0) & np.isfinite(y), y, 0.0)

    return wf


def _tail_mass_diverges(f, alpha):
    # flat or growing condensation terms toward the upper edge mean the
    # weighted mass diverges there
    return _condensation_diverges(f, "hi", lambda t: _log_weight(t, alpha - 2.0))


def _check_interior_zero(f, alpha):
    c = alpha - 2.0
    if -1.0 <= c < 0.0 and f.support.lo < 0.0 < f.support.hi:
        raise PreconditionError(
            f"{f.label}: weight |{c:g} v|^(1/{c:g}) is not integrable across "
            "the interior zero of the support")


def _package(M, p, vec, path, converged, err):
    prod = 1.0
    for a in vec:
        prod *= a - 2.0
    m = math.nan
    if prod != 0.0 and p != 0.0 and M >= 0.0:
        m = M ** (prod / p)
    return UpperMomentResult(float(M), m, prefactor(p, vec), path,
                             bool(converged), float(err))


def upper_moment(f, p, alpha, *, tol=1e-10):
    """(p, alpha)-upper-moment of f by direct nested quadrature."""
    p, alpha = float(p), float(alpha)
    if not math.isfinite(alpha):
        raise DomainError(f"alpha must be finite, got {alpha!r}")
    c = alpha - 2.0
    _check_interior_zero(f, alpha)
    median_anchored = _tail_mass_diverges(f, alpha)
    anchor = f.median() if median_anchored else f.support.hi
    wf = _weighted_pdf(f, c)
    inner_tol = min(tol * 1e-2, 1e-12)
    bad = []

    def u_of(xi):
        a, b = (xi, anchor) if xi <= anchor else (anchor, xi)
        cuts = (0.0,) if (c != 0.0 and a < 0.0 < b) else ()
        r = integrate(wf, Interval(a, b), tol=inner_tol, interior=cuts)
        if not r.converged:
            bad.append(xi)
        return r.value if xi <= anchor else -r.value

    def outer(x, f0):
        u = np.array([u_of(xi) for xi in np.asarray(x, dtype=float)])
        with np.errstate(divide="ignore"):
            y = np.abs(u) ** p * f0
        return np.where(f0 > 0.0, y, 0.0)

    extra = (anchor,) if (median_anchored and p < 0.0) else ()
    q = f.integral(outer, needs=0, tol=tol, extra_interior=extra,
                   force_singular_edges=p < 0.0)
    return _package(q.value, p, (alpha,), "direct",
                    q.converged and not bad, q.abs_error_estimate)


def upper_moment_via_up(f, p, alpha, *, tol=1e-10):
    """(p, alpha)-upper-moment as the p-th absolute moment of up(f, alpha)."""
    p, alpha = float(p), float(alpha)
    q = functionals.mu(up(f, alpha), p, tol=tol)
    return _package(q.value, p, (alpha,), "via-up", q.converged, q.err)


def verify_path_agreement(f, p, alpha, *, rel_tol=1e-5, tol=1e-10):
    """Relative gap between the two first-order routes; raises above rel_tol."""
    a = upper_moment(f, p, alpha, tol=tol)
    b = upper_moment_via_up(f, p, alpha, tol=tol)
    rel = abs(a.M - b.M) / max(abs(a.M), abs(b.M), 1e-300)
    if rel > rel_tol:
        raise AccuracyError(
            f"upper-moment paths disagree: direct {a.M!r} vs via-up {b.M!r}")
    return rel


def upper_moment_n(f, p, alphas, *, tol=1e-10, cross_check=False):
    """Order-n upper-moment via the iterated up chain, innermost alpha last.

    cross_check=True (order two only) also runs the literal nested
    quadrature and raises if the routes drift beyond 1e-5 relative.
    """
    vec = AlphaVector(alphas)
    p = float(p)
    g = chain(f, [("up", a) for a in reversed(vec)])
    q = functionals.mu(g, p, tol=tol)
    out = _package(q.value, p, vec, "via-up", q.converged, q.err)
    if cross_check and vec.order == 2:
        lit = upper_moment_n2_literal(f, p, vec, tol=max(tol, 1e-9))
        rel = abs(out.M - lit.M) / max(abs(out.M), abs(lit.M), 1e-300)
        if rel > 1e-5:
            raise AccuracyError(
                f"second-order upper-moment paths disagree: via-up {out.M!r} "
                f"vs nested {lit.M!r}")
    return out


def upper_moment_n2_literal(f, p, alphas, *, tol=1e-9):
    """Order-two upper-moment by explicit double-nested quadrature.

    Kept as an independent oracle for the chain route. The middle integral
    anchors at the pullback of the outer canonical anchor: the inner
    cumulative runs against the coordinate, so the outer sup-side anchor
    lands on the lower support edge (median fallback as usual).
    """
    vec = AlphaVector(alphas)
    if vec.order != 2:
        raise DomainError("the literal nested form is written for order two")
    p = float(p)
    a0, a1 = vec
    c0, c1 = a0 - 2.0, a1 - 2.0
    sup = f.support
    _check_interior_zero(f, a1)

    med1 = _tail_mass_diverges(f, a1)
    A1 = f.median() if med1 else sup.hi
    # alpha0 = 2 keeps the inner constant inside the exponential kernel
    wf1 = _weighted_pdf(f, c1, raw=c0 != 0.0)
    inner_tol = min(tol * 1e-3, 1e-12)
    bad = []

    def inner(xi):
        a, b = (xi, A1) if xi <= A1 else (A1, xi)
        cuts = (0.0,) if (c1 != 0.0 and a < 0.0 < b) else ()
        r = integrate(wf1, Interval(a, b), tol=inner_tol, interior=cuts)
        if not r.converged:
            bad.append(xi)
        return r.value if xi <= A1 else -r.value

    if med1 and -1.0 <= c0 < 0.0:
        raise PreconditionError(
            f"{f.label}: outer weight is not integrable across the interior "
            "zero left by the median-anchored inner cumulative")

    def wlog0(x):
        v = inner(x)
        if c0 == 0.0:
            return v
        if v == 0.0:
            return math.inf if c0 < 0.0 else -math.inf
        return math.log(abs(v)) / c0

    # condensation toward the lower edge decides the middle anchor
    med0 = _condensation_diverges(f, "lo", lambda t: [wlog0(ti) for ti in t])
    B = f.median() if med0 else sup.lo

    def wmid(x):
        x = np.asarray(x, dtype=float)
        fr = f.pdf(x)
        lw = np.array([wlog0(xi) for xi in x])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            y = np.exp(lw + np.log(fr))
        return np.where((fr > 0.0) & np.isfinite(y), y, 0.0)

    mid_tol = min(tol * 1e-1, 1e-11)

    def V(x0):
        a, b = (B, x0) if B <= x0 else (x0, B)
        cuts = (A1,) if (med1 and a < A1 < b) else ()
        r = integrate(wmid, Interval(a, b), tol=mid_tol, interior=cuts)
        if not r.converged:
            bad.append(x0)
        return r.value if B <= x0 else -r.value

    def outer(x, f0):
        v = np.array([V(xi) for xi in np.asarray(x, dtype=float)])
        with np.errstate(divide="ignore"):
            y = np.abs(v) ** p * f0
        return np.where(f0 > 0.0, y, 0.0)

    extra = (B,) if (med0 and p < 0.0) else ()
    q = f.integral(outer, needs=0, tol=tol, extra_interior=extra,
                   force_singular_edges=p < 0.0)
    K = prefactor(p, vec)
    return _package(K * q.value, p, vec, "direct",
                    q.converged and not bad, K * q.abs_error_estimate)


def signed_upper_moment(f, p, alphas, *, tol=1e-10):
    """Upper-moment with the outer absolute value removed; p natural."""
    if float(p) != int(p) or int(p) < 1:
        raise PreconditionError(
            f"signed upper-moments need a natural exponent, got p={p!r}")
    k = int(p)
    vec = AlphaVector(alphas)
    g = chain(f, [("up", a) for a in reversed(vec)])
    q = g.integral(lambda u, h0: u ** k * h0, needs=0, tol=tol)
    return functionals.Quantity(q.value, q.converged, q.abs_error_estimate)


def _aligned_to(raw, target):
    """Rigid copy of raw (translation, optional reflection) matched to target.

    Down transforms forget location and orientation; the reconstruction is
    re-seated by whichever edge/median candidate minimizes the pointwise
    pdf deviation at target quantiles.
    """
    ts, rs = target.support, raw.support
    cands = []
    for scale in (1.0, -1.0):
        shifts = []
        if scale > 0:
            if math.isfinite(ts.lo) and math.isfinite(rs.lo):
                shifts.append(ts.lo - rs.lo)
            if math.isfinite(ts.hi) and math.isfinite(rs.hi):
                shifts.append(ts.hi - rs.hi)
        else:
            if math.isfinite(ts.lo) and math.isfinite(rs.hi):
                shifts.append(ts.lo + rs.hi)
            if math.isfinite(ts.hi) and math.isfinite(rs.lo):
                shifts.append(ts.hi + rs.lo)
        shifts.append(target.median() - scale * raw.median())
        cands.extend((scale, b) for b in shifts)
    yq = target.quantile_many(np.linspace(0.06, 0.94, 23))
    tv = target.pdf_at(yq)
    best = None
    for scale, b in cands:
        rv = raw.pdf_at((yq - b) / scale)
        dev = float(np.max(np.abs(rv - tv) / np.maximum(np.abs(tv), 1e-12)))
        if best is None or dev < best[0]:
            best = (dev, scale, b)
    _, scale, b = best
    # reseat keeps the result on the transform fast path; an affine wrapper
    # would push every later pdf query through bracket inversion
    return raw.reseat(scale, b)


def moment_sequence_check(f, alphas, n_moments, *, tol=1e-10):
    """Signed moments of f against its down-chain reconstruction.

    Applies the downs in vector order, undoes them with ups (re-seating
    each layer rigidly), and compares signed moments i = 1..n_moments of f
    with those of the reconstruction. Orders whose classical moment
    diverges are skipped and reported.
    """
    vec = AlphaVector(alphas)
    if any(a >= 2.0 for a in vec):
        raise DomainError("the moment-sequence equivalence needs every alpha below two")
    n_moments = int(n_moments)
    if n_moments < 1:
        raise DomainError("n_moments must be at least one")

    tower = [f]
    g = f
    for i, a in enumerate(vec):
        if i:
            ok, sup_r = down_applicable(g, a)
            if not ok:
                raise TransformChainError(
                    i, f"alpha={a:g} does not clear the curvature supremum {sup_r:g}")
        try:
            g = down(g, a)
        except (DomainError, PreconditionError, CapabilityError) as e:
            raise TransformChainError(i, str(e)) from e
        tower.append(g)

    recon = tower[-1]
    for k in range(vec.order - 1, -1, -1):
        try:
            lifted = up(recon, vec[k])
        except (DomainError, PreconditionError, CapabilityError) as e:
            raise TransformChainError(k, str(e)) from e
        recon = _aligned_to(lifted, tower[k])

    rows = []
    skipped = []
    worst = 0.0
    for i in range(1, n_moments + 1):
        want = f.integral(lambda x, f0: x ** i * f0, needs=0, tol=tol)
        if not want.converged or not math.isfinite(want.value):
            skipped.append(i)
            continue
        got = recon.integral(lambda x, f0: x ** i * f0, needs=0, tol=tol)
        if got.converged and math.isfinite(got.value):
            rel = abs(got.value - want.value) / max(abs(want.value), 1e-12)
        else:
            rel = math.inf
        rows.append((i, want.value, got.value, rel))
        worst = max(worst, rel)
    return MomentCheckResult(worst, tuple(rows), tuple(skipped))
