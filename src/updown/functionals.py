"""Scalar functionals of a density.

Moments and deviations (absolute, logarithmic, exponential), Renyi/Tsallis
entropy family and entropy powers, the generalized Fisher family and its
score root, and the logarithmic slope/curvature means. Every functional
returns a Quantity(value, converged, err); a divergent integral comes back
as inf with converged False, never as an exception.
"""

import math
from typing import NamedTuple

import numpy as np

from .densities import _SNAP
from .errors import DomainError
from .numerics import INF


class Quantity(NamedTuple):
    value: float
    converged: bool
    err: float


def _from_quad(q):
    return Quantity(float(q.value), bool(q.converged), float(q.abs_error_estimate))


def _pow(q, expo):
    """Power of a nonnegative Quantity with linearized error."""
    v, c, e = q
    expo = float(expo)
    if expo == 0.0:
        return Quantity(1.0, c, 0.0)
    if v == INF:
        return Quantity(INF, c, INF) if expo > 0 else Quantity(0.0, c, 0.0)
    if v == 0.0:
        return Quantity(0.0, c, 0.0) if expo > 0 else Quantity(INF, c, INF)
    if v < 0.0:
        raise DomainError(f"negative base {v} for fractional power")
    with np.errstate(over="ignore"):
        out = float(v**expo)
    return Quantity(out, c, abs(expo) * out / v * e if math.isfinite(out) else INF)


def _exp(q, scale=1.0):
    v, c, e = q
    val = v * scale
    if val == -INF:
        return Quantity(0.0, c, 0.0)
    if val == INF:
        return Quantity(INF, c, INF)
    out = math.exp(val)
    return Quantity(out, c, out * abs(scale) * e)


def _zero_slope(f):
    """True when d1 vanishes identically on a quantile grid (flat pdf)."""
    return f.order >= 1 and not np.any(f.d1(f.quantiles(64)))


def mu(f, p, *, tol=1e-10):
    """Absolute moment <|x|^p>."""
    p = float(p)
    if p == 0.0:
        return Quantity(1.0, True, 0.0)
    extra = (0.0,) if f.support.lo < 0.0 < f.support.hi else ()
    force = p < 0.0 and (f.support.lo == 0.0 or f.support.hi == 0.0)
    q = f.expect(lambda x, f0: np.abs(x) ** p, tol=tol,
                 extra_interior=extra, force_singular_edges=force)
    return _from_quad(q)


def sigma(f, p, *, tol=1e-10):
    """Moment deviation <|x|^p>^(1/p); the p = 0 and p = inf limits included."""
    p = float(p)
    if p == INF:
        return Quantity(f.esssup_abs(), True, 0.0)
    if p == 0.0:
        return _exp(mean_log_abs(f, tol=tol))
    return _pow(mu(f, p, tol=tol), 1.0 / p)


def log_moment(f, p, *, tol=1e-10):
    """Logarithmic moment <|log|x||^p> (unrooted)."""
    p = float(p)
    cuts = [c for c in (-1.0, 0.0, 1.0) if f.support.lo < c < f.support.hi]
    q = f.expect(lambda x, f0: np.abs(np.log(np.abs(x))) ** p,
                 tol=tol, extra_interior=cuts)
    return _from_quad(q)


def mean_log_abs(f, *, tol=1e-10):
    """Signed logarithmic mean <log|x|>."""
    cuts = [c for c in (0.0,) if f.support.lo < c < f.support.hi]
    q = f.expect(lambda x, f0: np.log(np.abs(x)), tol=tol, extra_interior=cuts)
    return _from_quad(q)


def exp_moment(f, p, *, tol=1e-10):
    """Exponential deviation <exp(-p x)>^(1/p), p != 0."""
    p = float(p)
    if p == 0.0:
        raise DomainError("exponential deviation is undefined at p = 0")
    # exp(-p x) and the pdf can over/underflow separately while the product
    # stays tame; summing in log space keeps the integrand finite
    with np.errstate(divide="ignore", over="ignore"):
        q = f.integral(lambda x, f0: np.exp(-p * x + np.log(f0)), tol=tol)
    return _pow(_from_quad(q), 1.0 / p)


def mean(f, *, tol=1e-10):
    """Signed mean <x>."""
    return _from_quad(f.expect(lambda x, f0: x, tol=tol))


def _log_order_integral(f, lam, tol):
    """log int f^lam, formed as lam L + log int exp(lam (log f - L)) with L
    the log of the largest finite pdf value on the 64-point quantile grid:
    f^lam over- or underflows at a large lam or a far scale where its log
    does not. The error is inf wherever the log is not finite."""
    with np.errstate(divide="ignore"):
        lf = np.log(f.pdf(f.quantiles(64)))
    top = float(np.max(lf[np.isfinite(lf)]))
    with np.errstate(divide="ignore", over="ignore"):
        q = _from_quad(f.integral(lambda x, f0: np.exp(lam * (np.log(f0) - top)),
                                  tol=tol))
        v = lam * top + float(np.log(q.value))
    return Quantity(v, q.converged, q.err / q.value if math.isfinite(v) else INF)


def shannon(f, *, tol=1e-10):
    """Shannon entropy -<log f>."""
    q = f.expect(lambda x, f0: np.log(f0), tol=tol)
    return Quantity(-q.value, q.converged, q.abs_error_estimate)


def renyi(f, lam, *, tol=1e-10):
    """Renyi entropy log(int f^lam) / (1 - lam); Shannon at lam = 1."""
    lam = float(lam)
    if abs(lam - 1.0) < _SNAP:
        return shannon(f, tol=tol)
    v, c, e = _log_order_integral(f, lam, tol)
    return Quantity(v / (1.0 - lam), c, e / abs(1.0 - lam))


def tsallis(f, lam, *, tol=1e-10):
    """Tsallis entropy (int f^lam - 1) / (1 - lam); Shannon at lam = 1."""
    lam = float(lam)
    if abs(lam - 1.0) < _SNAP:
        return shannon(f, tol=tol)
    v, c, e = _exp(_log_order_integral(f, lam, tol))
    return Quantity((v - 1.0) / (1.0 - lam), c, e / abs(1.0 - lam))


def renyi_power(f, lam, *, tol=1e-10):
    """Entropy power (int f^lam)^(1/(1-lam)); exp(Shannon) at lam = 1."""
    lam = float(lam)
    if abs(lam - 1.0) < _SNAP:
        return _exp(shannon(f, tol=tol))
    return _exp(_log_order_integral(f, lam, tol), 1.0 / (1.0 - lam))


def fisher(f, p, lam, *, tol=1e-10):
    """Generalized Fisher information <|f^(lam-2) f'|^p>."""
    p, lam = float(p), float(lam)

    def fn(x, f0, f1):
        # |f'|^p f^(p(lam-2)+1): in the far tail |f'|^p underflows to 0
        # while the f power overflows, so form the product in log space
        return np.exp(p * np.log(np.abs(f1))
                      + (p * (lam - 2.0) + 1.0) * np.log(f0))

    return _from_quad(f.integral(fn, needs=1, tol=tol))


def phi(f, p, lam, *, tol=1e-10):
    """Score deviation, the (1/(p lam)) root of the Fisher form."""
    p, lam = float(p), float(lam)
    if p * lam == 0.0:
        raise DomainError("score deviation undefined when p * lam = 0")
    return _pow(fisher(f, p, lam, tol=tol), 1.0 / (p * lam))


def phi_limit0(f, lam, *, tol=1e-10):
    """p -> 0 limit of the score deviation: exp(<log|f^(lam-2) f'|> / lam)."""
    lam = float(lam)
    if lam == 0.0:
        raise DomainError("score deviation limit undefined at lam = 0")
    if _zero_slope(f):
        return Quantity(0.0 if lam > 0 else INF, True, 0.0)

    def fn(x, f0, f1):
        return np.log(np.abs(f1)) + (lam - 2.0) * np.log(f0)

    return _exp(_from_quad(f.expect(fn, needs=1, tol=tol)), 1.0 / lam)


def mean_log_abs_deriv(f, *, tol=1e-10):
    """<log|f'|>; identically flat densities give -inf, converged."""
    if _zero_slope(f):
        return Quantity(-INF, True, 0.0)

    def fn(x, f0, f1):
        return np.log(np.abs(f1))

    return _from_quad(f.expect(fn, needs=1, tol=tol))


def _curvature(f0, f1, f2):
    """f f''/f'^2 from the pdf state, in quotient form: f0*f2 and f1**2 can
    underflow separately deep in a tail while the two ratios stay
    well-scaled."""
    return (f0 / f1) * (f2 / f1)


def curvature_ratio(f, x):
    """Pointwise f f'' / f'^2, the scale-free curvature of the pdf."""
    x = np.asarray(x, dtype=float)
    f0, f1, f2 = f._state(x, 2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _curvature(f0, f1, f2)


def mean_log_curvature(f, alpha, *, tol=1e-10):
    """<log(alpha - f f''/f'^2)>; the argument must stay positive."""
    alpha = float(alpha)
    grid = f.quantiles(128)
    arg = alpha - curvature_ratio(f, grid)
    if not np.all(arg > 0.0):
        bad = grid[~(arg > 0.0)][0]
        raise DomainError(
            f"{f.label}: log-curvature argument not positive at x={bad:.6g}")

    def fn(x, f0, f1, f2):
        return np.log(alpha - _curvature(f0, f1, f2))

    return _from_quad(f.expect(fn, needs=2, tol=tol))


def curvature_sup(f):
    """sup of f f''/f'^2 on a 128-point quantile grid."""
    return float(np.max(curvature_ratio(f, f.quantiles(128))))


def curvature_inf(f):
    """inf of f f''/f'^2 on a 128-point quantile grid."""
    return float(np.min(curvature_ratio(f, f.quantiles(128))))
