"""Curvature-weighted Fisher measures of a density and their ordering.

phi[p, q, lam] integrates f^(1+p(lam-2)) |f'|^q |p lam/(p-q) - r|^p with
r = f f''/f'^2, the scale-free curvature of the pdf. The expression is
what the generalized Fisher information of a down transform looks like
after pulling the integral back to the base density: the (p, lam) Fisher
information of down(f, alpha) equals phi[p, p(1-lam), alpha lam], checked
numerically by verify_fisher_relation.

The measures with a common lam are ordered: the 1/p root at (p, r) never
drops below the 1/q root at (q, qr/p) when p > q. Equality is reached on
two-step up chains of a uniform density, built by order_minimizer. The
q -> 0 limit of the ordering trades the measure root against the Shannon
entropy and the mean log-curvature, with the inequality direction tied to
the sign of q; shannon_down_check evaluates both sides.
"""

import math
from typing import NamedTuple

import numpy as np

from . import functionals
from .densities import _condensation_diverges, _finite, _numbers, uniform
from .errors import CapabilityError, PreconditionError
from .functionals import Quantity, _from_quad, _pow, _zero_slope
from .transforms import chain, down

__all__ = [
    "OrderCheckResult", "EntropyCheckResult", "down_fisher",
    "verify_fisher_relation", "down_order_check", "order_minimizer",
    "shannon_down_check",
]


class OrderCheckResult(NamedTuple):
    margin: float       # lhs - rhs; the ordering claims it is nonnegative
    lhs: float
    rhs: float
    vacuous: bool       # a side diverged or failed to converge


class EntropyCheckResult(NamedTuple):
    margin: float       # signed so that margin >= 0 means the bound holds
    lhs: float
    rhs: float
    direction: str      # "ge" for q > 0, "le" for q < 0
    vacuous: bool


def down_fisher(f, p, q, lam, *, tol=1e-10):
    """The (p, q, lam) curvature-weighted Fisher measure of f.

    Needs two derivative orders and a pdf that is not flat: the curvature
    ratio divides by f'. Divergent integrals come back as inf with
    converged False, matching the other functionals.
    """
    p, = _finite(p=p)
    q, lam = _numbers(q=q, lam=lam)
    if p == q:
        raise PreconditionError("the measure needs p != q")
    if f.order < 2:
        raise CapabilityError(f"down_fisher({f.label}): needs d1 and d2")
    if _zero_slope(f):
        raise CapabilityError(
            f"down_fisher({f.label}): f' vanishes identically, the "
            "curvature ratio is undefined")
    ratio = p * lam / (p - q)
    e0 = 1.0 + p * (lam - 2.0)

    def logw(lf, s1, k):
        # log of integrand over pdf, f**(e0+q-1) |s1|**q |ratio - kappa|**p,
        # from the pdf state; a zero exponent drops its factor
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = (lf, np.log(np.abs(s1)), np.log(np.abs(ratio - k)))
            return sum(c * v for c, v in zip((e0 + q - 1.0, q, p), logs) if c != 0.0)

    # checked up front: quadrature cannot see a divergence past the pdf's underflow
    if any(_condensation_diverges(f.root, side, lambda t: logw(*f._push(t, 2)))
           for side in ("lo", "hi")):
        return Quantity(math.inf, False, math.inf)

    def fn(x, f0, s1, k):
        lf = np.log(f0)
        y = np.exp(lf + logw(lf, s1, k))
        # points where the slope is zero carry no resolvable mass; the tail
        # probe above already ruled out divergence hiding past the
        # underflow horizon
        return np.where((s1 != 0.0) & np.isfinite(s1) & np.isfinite(f0), y, 0.0)

    return _from_quad(f.integral(fn, needs=2, tol=tol, force_singular_edges=True))


def verify_fisher_relation(f, p, lam, alpha, *, tol=1e-10):
    """Relative gap between the Fisher information of down(f, alpha) and
    the equivalent curvature-weighted measure of f itself."""
    p, lam, alpha = _numbers(p=p, lam=lam, alpha=alpha)
    lhs = functionals.fisher(down(f, alpha), p, lam, tol=tol)
    rhs = down_fisher(f, p, p * (1.0 - lam), alpha * lam, tol=tol)
    if not (lhs.converged and rhs.converged):
        raise PreconditionError(
            f"{f.label}: the compared integrals do not both converge at "
            f"p={p:g}, lam={lam:g}, alpha={alpha:g}")
    return abs(lhs.value - rhs.value) / max(abs(lhs.value), abs(rhs.value),
                                            1e-300)


def down_order_check(f, p, q, r, lam, *, tol=1e-10):
    """Margin of the measure-root ordering between (p, r) and (q, qr/p).

    The claim is lhs >= rhs for p > q (both nonzero, r != p). Divergence
    of either side makes the verdict vacuous rather than an error.
    """
    p, q, r, lam = _numbers(p=p, q=q, r=r, lam=lam)
    if p == 0.0 or q == 0.0:
        raise PreconditionError("the ordering needs nonzero p and q")
    if p <= q:
        raise PreconditionError(f"the ordering needs p > q, got p={p:g}, q={q:g}")
    if r == p:
        raise PreconditionError("r = p leaves both measures undefined")
    lhs = _pow(down_fisher(f, p, r, lam, tol=tol), 1.0 / p)
    rhs = _pow(down_fisher(f, q, q * r / p, lam, tol=tol), 1.0 / q)
    vac = not (lhs.converged and rhs.converged
               and math.isfinite(lhs.value) and math.isfinite(rhs.value))
    return OrderCheckResult(lhs.value - rhs.value, lhs.value, rhs.value, vac)


def order_minimizer(p, r, lam, interval=(0.0, 1.0)):
    """Density saturating the measure-root ordering at (p, r, lam).

    Built literally as the two-step up chain of a uniform density: inner
    exponent (p+r)/p, outer p lam/(p-r). The order matters: equality in
    the ordering needs the inner-exponent down transform of the outer one
    to be uniform, and down transforms undo up transforms outside-in.
    Any bounded interval works; the saturation margin is insensitive to
    its choice. The chain exists for every admissible (p, r, lam), but
    the measures it saturates are finite only where they converge on it.
    """
    p, r, lam = float(p), float(r), float(lam)
    if p == 0.0:
        raise PreconditionError("the minimizer needs p != 0")
    if r == p:
        raise PreconditionError("r = p leaves the outer exponent undefined")
    lo, hi = interval
    return chain(uniform(float(lo), float(hi)),
                 [("up", (p + r) / p), ("up", p * lam / (p - r))])


def shannon_down_check(f, q, alpha, *, tol=1e-10):
    """Both sides of the entropy limit of the measure-root ordering.

    lhs = phi[q, 0, alpha]^(1/q) * exp((alpha-2) S[f]) against
    rhs = exp(<log(alpha - r)>). The bound direction is ">=" for q > 0 and
    "<=" for q < 0; the returned margin is signed so that a nonnegative
    value always means the bound holds.
    """
    q, alpha = _numbers(q=q, alpha=alpha)
    if q == 0.0:
        raise PreconditionError("q = 0 collapses the measure root")
    if alpha == 2.0:
        raise PreconditionError("alpha = 2 removes the entropy weight")
    root = _pow(down_fisher(f, q, 0.0, alpha, tol=tol), 1.0 / q)
    s = functionals.shannon(f, tol=tol)
    curv = functionals.mean_log_curvature(f, alpha, tol=tol)
    with np.errstate(over="ignore"):
        lhs = root.value * math.exp(min((alpha - 2.0) * s.value, 709.0))
        rhs = math.exp(min(curv.value, 709.0))
    vac = not (root.converged and s.converged and curv.converged
               and math.isfinite(lhs) and math.isfinite(rhs))
    direction = "ge" if q > 0.0 else "le"
    margin = lhs - rhs if q > 0.0 else rhs - lhs
    return EntropyCheckResult(margin, lhs, rhs, direction, vac)
