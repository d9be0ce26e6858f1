"""Iterated upper-moments and deviations, with the moment-sequence check.

The (p, alpha)-upper-moment weighs each point of a density by the p-th
power of the cumulative |(alpha-2)v|^(1/(alpha-2)) f(v) mass above it
(e^v at alpha = 2). Higher orders iterate that step, innermost exponent
last in the vector: each level weighs f by the same kernel of the
coordinate from the level below. Two evaluation routes exist, each for
any order. The chain route, upper_moment_n, takes the p-th absolute
moment of the iterated up image. The direct route, upper_moment, is the
nested-quadrature oracle _nested: it evaluates the definition literally
and shares no up-layer table with the chain. verify_path_agreement holds
the two routes to 1e-5 relative.

Anchoring follows the up transform: each level's cumulative runs toward
the end where the coordinate below is largest (the upper edge, then the
lower edge, alternating) when the weighted mass converges there, and to
the median otherwise. The decision is made by a dyadic condensation
series on quantiles so that float underflow of the pdf cannot mask a
divergent tail.
"""

import math
from typing import NamedTuple

import numpy as np

from . import functionals
from .densities import Density, _condensation_diverges, _finite, _weighted_pdf
from .errors import (AccuracyError, CapabilityError, DomainError,
                     PreconditionError, TransformChainError,
                     UnsupportedCaseError)
from .numerics import Interval, integrate
from .transforms import _log_weight, _placement, chain, up

__all__ = [
    "AlphaVector", "UpperMomentResult", "MomentCheckResult", "prefactor",
    "upper_moment", "verify_path_agreement", "upper_moment_n",
    "signed_upper_moment", "moment_sequence_check",
]


class AlphaVector(tuple):
    """Ordered exponent vector (alpha_0, ..., alpha_{n-1}).

    alpha = 2 is covered in any single position for orders one and two,
    and only in the last position above that; the (2, 2) pair and other
    interior placements have no defining formula and are rejected.
    """

    def __new__(cls, entries):
        if isinstance(entries, (int, float, np.number)):
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
    """K(p, vec-alpha): the share of M carried by the |c|^(1/c) constants.

    M is K times the nested form with raw weights |U|^(1/c). Accumulated in
    log space; an alpha = 2 entry stops the product, since nothing can be
    pulled out through an exponential kernel.
    """
    p, = _finite(p=p)
    vec = AlphaVector(alphas)
    logk = 0.0
    acc = 1.0
    for a in vec:
        if a == 2.0:
            break
        acc /= a - 2.0
        logk += acc * math.log(abs(a - 2.0))
    return math.exp(p * logk)


def _package(M, p, vec, path, converged, err):
    prod = 1.0
    for a in vec:
        prod *= a - 2.0
    m = math.nan
    if prod != 0.0 and p != 0.0 and M >= 0.0:
        m = M ** (prod / p)
    return UpperMomentResult(float(M), m, prefactor(p, vec), path,
                             bool(converged), float(err))


def _nested(f, p, vec, tol):
    """Upper-moment of any order by literal nested quadrature.

    Level k = 1..n weighs f by |c U|^(1/c) (e^U at c = 0), c = vec[-k] - 2,
    of the coordinate U of the level below (U = x at the bottom), and
    integrates from x toward the end where U is largest: the upper edge at
    odd levels, the lower edge at even ones, or the median when the
    condensation test finds the weighted mass divergent there. A level
    sorts each batch of points with its anchor, integrates every gap
    between neighbours once, at its tol over the number of points, and
    sums the gaps outward from the anchor. Each gap is cut at U's interior
    zero (x = 0 on a support that straddles 0 at the bottom, a median
    anchor above), and a weight with -1 <= c < 0 is not integrable across
    it. The top level runs at min(tol/100, 10**(n-13)), each level below
    ten times tighter.
    """
    bad = []

    def level(k, level_tol):
        """Coordinate of level k and its interior zero (None if none)."""
        if k == 0:
            # the root rule on f's own abscissa: an image's _zero() is a
            # root abscissa
            return (lambda x: np.asarray(x, dtype=float)), Density._zero(f)
        U, zero = level(k - 1, level_tol / 10.0)
        c = vec[-k] - 2.0
        if zero is not None and -1.0 <= c < 0.0:
            raise PreconditionError(
                f"{f.label}: weight |{c:g} U|^(1/{c:g}) of level {k} is not "
                f"integrable across the interior zero of U at {zero:.6g}")
        logw = lambda x: _log_weight(U(x), c)
        wf = _weighted_pdf(f, logw)

        hi = k % 2 == 1
        median = _condensation_diverges(f, "hi" if hi else "lo", logw)
        anchor = f.median() if median else (f.support.hi if hi else f.support.lo)
        d = 1.0 if hi else -1.0

        def U_next(x):
            pts, at = np.unique(np.r_[anchor, x], return_inverse=True)
            m = np.empty(len(pts) - 1)
            for i, (a, b) in enumerate(zip(pts[:-1], pts[1:])):
                cuts = (zero,) if zero is not None and a < zero < b else ()
                r = integrate(wf, Interval(a, b), tol=level_tol / len(pts), interior=cuts)
                if not r.converged:
                    bad.append((a, b))
                m[i] = r.value
            j = at[0]
            cum = np.r_[-np.cumsum(m[:j][::-1])[::-1], 0.0, np.cumsum(m[j:])]
            return -d * cum[at[1:]]

        return U_next, (anchor if median else None)

    n = vec.order
    U, zero = level(n, min(tol / 100.0, 10.0 ** (n - 13)))

    extra = (zero,) if (zero is not None and p < 0.0) else ()
    q = f.integral(lambda x, f0: np.abs(U(x)) ** p * f0, needs=0, tol=tol,
                   extra_interior=extra, force_singular_edges=p < 0.0)
    return _package(q.value, p, vec, "direct",
                    q.converged and not bad, q.abs_error_estimate)


def upper_moment(f, p, alphas, *, tol=1e-10):
    """(p, vec-alpha)-upper-moment of f by direct nested quadrature.

    Above order one the outer quadrature runs no tighter than 1e-9: each
    level under it runs tighter still, one integrate call per gap between
    the sorted points of the level above and its anchor.
    """
    vec = AlphaVector(alphas)
    p, = _finite(p=p)
    return _nested(f, p, vec, tol if vec.order == 1 else max(tol, 1e-9))


def upper_moment_n(f, p, alphas, *, tol=1e-10):
    """(p, vec-alpha)-upper-moment as the p-th absolute moment of the
    iterated up chain of f, innermost alpha last."""
    vec = AlphaVector(alphas)
    p, = _finite(p=p)
    q = functionals.mu(chain(f, [("up", a) for a in reversed(vec)]), p, tol=tol)
    return _package(q.value, p, vec, "via-up", q.converged, q.err)


def verify_path_agreement(f, p, alphas, *, tol=1e-10):
    """Relative gap between the direct and chain routes; raises above 1e-5."""
    vec = AlphaVector(alphas)
    a = upper_moment(f, p, vec, tol=tol)
    b = upper_moment_n(f, p, vec, tol=tol)
    rel = abs(a.M - b.M) / max(abs(a.M), abs(b.M), 1e-300)
    if rel > 1e-5:
        raise AccuracyError(
            f"order-{vec.order} upper-moment paths disagree: "
            f"direct {a.M!r} vs via-up {b.M!r}")
    return rel


def signed_upper_moment(f, p, alphas, *, tol=1e-10):
    """Upper-moment with the outer absolute value removed; p natural."""
    if not (math.isfinite(p) and float(p) == int(p) >= 1):
        raise PreconditionError(
            f"signed upper-moments need a natural exponent, got p={p!r}")
    k = int(p)
    vec = AlphaVector(alphas)
    g = chain(f, [("up", a) for a in reversed(vec)])
    q = g.integral(lambda u, h0: u ** k * h0, needs=0, tol=tol)
    return functionals.Quantity(q.value, q.converged, q.abs_error_estimate)


def moment_sequence_check(f, alphas, n_moments, *, tol=1e-10):
    """Signed moments of f against its down-chain reconstruction.

    Applies the downs in vector order, undoes them with ups (re-seating
    each layer where its coordinate, read against the layer it undoes,
    places it), and compares signed moments i = 1..n_moments of f with
    those of the reconstruction. Orders whose classical moment
    diverges are skipped and reported.
    """
    vec = AlphaVector(alphas)
    if any(a >= 2.0 for a in vec):
        raise DomainError("the moment-sequence equivalence needs every alpha below two")
    if not (math.isfinite(n_moments) and n_moments == int(n_moments) >= 1):
        raise DomainError(f"n_moments must be a whole number, at least one, got {n_moments!r}")
    n_moments = int(n_moments)

    # tower[k] is the base of the k-th down; chain consults the curvature
    # gate between consecutive downs
    tower = [chain(f, [("down", a) for a in vec])]
    while tower[0] is not f:
        tower.insert(0, tower[0].base)

    recon = tower[-1]
    for k in range(vec.order - 1, -1, -1):
        try:
            lifted = up(recon, vec[k])
        except (DomainError, PreconditionError, CapabilityError) as e:
            raise TransformChainError(k, str(e)) from e
        # down forgets location and orientation; reseat puts back the ones
        # read off the two coordinates as an affine step, which the next up
        # reads like any other base
        recon = lifted.reseat(*_placement(lifted, tower[k]))

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
