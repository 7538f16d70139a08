"""Exception hierarchy shared by all wrightlab modules."""


class WrightLabError(Exception):
    """Base class for all library errors."""


class PoleError(WrightLabError):
    """A gamma factor was requested at a nonpositive integer argument."""


class DomainError(WrightLabError):
    """Parameters lie outside the validity region of the requested operation."""


class DivergenceError(WrightLabError):
    """Series terms grew past the divergence guard instead of decaying."""


class CancellationError(WrightLabError):
    """An accepted sum lost more digits to cancellation between its terms than allowed."""


class MaxTermsError(WrightLabError):
    """The stopping rule was not satisfied within the term budget."""


class NonConvergenceError(WrightLabError):
    """Quadrature level refinement stalled above the requested tolerance."""

    def __init__(self, message, value=None, err_estimate=None):
        super().__init__(message)
        self.value = value
        self.err_estimate = err_estimate


class EvaluationError(WrightLabError):
    """An integrand or coefficient callback produced a non-finite value."""
