"""Exception hierarchy shared by all melroot modules."""


class MelrootError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(MelrootError):
    """Argument outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """Evaluation requested at (or on) a pole."""


class NonConvergenceError(MelrootError):
    """Quadrature failed to reach tolerance within the evaluation budget.

    Carries the best estimate obtained so far, the last error estimate, and,
    for iterated integrals, the 1-based axis (innermost = 1) that failed.
    """

    def __init__(self, message, best_estimate=None, error_estimate=None, dimension=None):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate
        self.dimension = dimension
