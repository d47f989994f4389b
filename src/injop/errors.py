"""Exception types shared across the package."""


class InjopError(Exception):
    """Base class for errors raised by this package."""


class GridMismatchError(InjopError, ValueError):
    """Two objects were combined that live on different grids."""


class IntervalMismatchError(InjopError, ValueError):
    """A basis and a grid (or two bases) disagree on the interval."""


class AliasingGuardError(InjopError, ValueError):
    """Grid resolution is too coarse for the requested spectral order."""


class DimensionError(InjopError, ValueError):
    """Array shapes or channel counts are inconsistent."""


class DegenerateWitnessError(InjopError, ValueError):
    """A claimed collision witness has v1 == v2."""


class IllConditionedError(InjopError, RuntimeError):
    """A matrix inverse square root or factorization lost all precision."""


class ReductionVerificationError(InjopError, RuntimeError):
    """The randomized reduction failed its empirical checks after retries."""


class NotDifferentiableError(InjopError, ValueError):
    """Linearization was requested for a kernel outside the supported form."""


class SingularOperatorError(InjopError, RuntimeError):
    """A linearized operator is numerically singular (injectivity violated)."""


class DivergenceError(InjopError, RuntimeError):
    """A fixed-point iteration diverged. Carries the trace so far."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class OutOfBasinError(DivergenceError):
    """A Newton iteration left the contraction basin of its anchor."""


class UsageError(InjopError, ValueError):
    """Bad input from outside the program."""
