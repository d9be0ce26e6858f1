"""Numerical library for up/down probability density transformations.

Public surface: density constructors, informational functionals, the up/down
transform pair, upper-moment machinery and down-Fisher measures.
"""

from .densities import (
    Density,
    affine_image,
    exponential,
    gzero,
    half_restriction,
    power_tail,
    rescale,
    stretched_gaussian,
    uniform,
)
from .down_fisher import (
    EntropyCheckResult,
    OrderCheckResult,
    down_fisher,
    down_order_check,
    order_minimizer,
    shannon_down_check,
    verify_fisher_relation,
)
from .errors import (
    AccuracyError,
    CapabilityError,
    DomainError,
    IntegrandError,
    PreconditionError,
    TransformChainError,
    UnsupportedCaseError,
)
from .numerics import Interval, QuadResult, integrate
from .transforms import (
    TransformedDensity,
    chain,
    down,
    down_applicable,
    up,
    verify_inversion,
    verify_scaling,
)
from .upper_moments import (
    AlphaVector,
    MomentCheckResult,
    UpperMomentResult,
    moment_sequence_check,
    prefactor,
    signed_upper_moment,
    upper_moment,
    upper_moment_n,
    verify_path_agreement,
)

__all__ = [
    "AccuracyError",
    "AlphaVector",
    "CapabilityError",
    "Density",
    "DomainError",
    "EntropyCheckResult",
    "IntegrandError",
    "Interval",
    "MomentCheckResult",
    "OrderCheckResult",
    "PreconditionError",
    "QuadResult",
    "TransformChainError",
    "TransformedDensity",
    "UnsupportedCaseError",
    "UpperMomentResult",
    "affine_image",
    "chain",
    "down",
    "down_applicable",
    "down_fisher",
    "down_order_check",
    "exponential",
    "gzero",
    "half_restriction",
    "integrate",
    "moment_sequence_check",
    "order_minimizer",
    "power_tail",
    "prefactor",
    "rescale",
    "shannon_down_check",
    "signed_upper_moment",
    "stretched_gaussian",
    "uniform",
    "up",
    "upper_moment",
    "upper_moment_n",
    "verify_fisher_relation",
    "verify_inversion",
    "verify_path_agreement",
    "verify_scaling",
]
