"""Exception types shared across the package."""


class RenyiaccError(Exception):
    """Base class for all package errors."""


class NotHermitianError(RenyiaccError):
    pass


class NotPSDError(RenyiaccError):
    pass


class DimMismatchError(RenyiaccError):
    pass


class BadIndexError(RenyiaccError):
    pass


class BadShapeError(RenyiaccError):
    pass


class BadPartitionError(RenyiaccError):
    pass


class AlphabetMismatchError(RenyiaccError):
    pass


class BNotClassicalError(RenyiaccError):
    pass


class AllZeroError(RenyiaccError):
    pass


class SupportViolationError(RenyiaccError):
    pass


class TargetOutOfRangeError(RenyiaccError):
    pass


class EmptyEventError(RenyiaccError):
    pass


class InfeasibleError(RenyiaccError):
    pass


class BadProbabilityError(RenyiaccError):
    pass


class BadEpsilonError(RenyiaccError):
    pass


class NoConvergenceError(RenyiaccError):
    """Iterative solver failed to reach its tolerance.

    Carries the best value found and its gap to the solver's upper bound so
    callers can decide whether the partial answer is still usable.
    """

    def __init__(self, message, best_value=None, gap=None):
        super().__init__(message)
        self.best_value = best_value
        self.gap = gap
