"""Exception taxonomy shared across the package."""


class DomainError(ValueError):
    """A parameter lies outside the mathematical domain of an operation."""


class PreconditionError(RuntimeError):
    """A density fails a precondition (monotonicity, normalization, curvature)."""


class CapabilityError(RuntimeError):
    """The density lacks a hook (derivative, cdf) the operation needs."""


class TransformChainError(PreconditionError):
    """A transform chain failed at a known step."""

    def __init__(self, index, message):
        super().__init__(f"chain step {index}: {message}")
        self.index = index


class IntegrandError(RuntimeError):
    """The integrand produced NaN; carries the offending abscissa."""


class AccuracyError(RuntimeError):
    """Two evaluations of one quantity disagree beyond their tolerance, or a
    value cannot be represented in double precision."""


class UnsupportedCaseError(NotImplementedError):
    """A documented out-of-scope case (for example two exponential layers)."""
