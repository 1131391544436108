"""Exception types shared across the package."""

from contextlib import contextmanager


class DitkitError(Exception):
    """Base class for all errors raised by ditkit."""


class GroundMismatch(DitkitError):
    """Two values built over different ground sets were combined."""


class UnknownLabel(DitkitError):
    """A label does not belong to the ground set."""


class EmptyBlock(DitkitError):
    """A partition block (or measured subset) is empty."""


class OverlappingBlocks(DitkitError):
    """Two blocks share an element."""


class NotExhaustive(DitkitError):
    """The blocks do not cover the ground set."""


class BoundExceeded(DitkitError):
    """An enumeration was requested beyond its configured size bound."""


class FormulaSyntaxError(DitkitError):
    """Malformed formula text.  `position` is the character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnboundVariable(DitkitError):
    """A formula variable has no partition assigned."""


class BudgetExceeded(DitkitError):
    """Validity search ran out of budget.  `bound_reached` is the largest
    ground-set size that was fully checked before giving up."""

    def __init__(self, message: str, bound_reached: int):
        super().__init__(message)
        self.bound_reached = bound_reached


class ZeroProbabilityOutcome(DitkitError):
    """Conditioning on a measurement outcome of probability zero."""


class DuplicateEigenvalue(DitkitError):
    """Spectral data assigns the same eigenvalue to two subspaces."""


class DegenerateDSD(DitkitError):
    """Subspace family is not a direct-sum decomposition (or not orthogonal
    where orthogonality is required)."""


class DimensionMismatch(DitkitError):
    """Matrix/vector dimensions are incompatible."""


class NotCommuting(DitkitError):
    """An operation that requires commuting observables got a pair that
    does not commute."""


class EmptyState(DitkitError):
    """A subset state with no members cannot be reduced."""


class SingularMap(DitkitError, ArithmeticError):
    """A singular GF(2) map was inverted.  It is also an ArithmeticError."""


class InvalidValue(DitkitError, ValueError):
    """An argument has the right type but an unusable value (a negative
    probability, an asymmetric matrix, an empty list).  It is also a
    ValueError, so callers that catch ValueError still see it."""


@contextmanager
def json_input(what: str):
    """Turn the KeyError of a missing field, the TypeError of a value of
    the wrong shape, or the ValueError or ZeroDivisionError of a malformed
    value, raised while reading `what` from parsed JSON, into a
    DitkitError.  A DitkitError (such as an InvalidValue, which is also a
    ValueError) passes as is."""
    try:
        yield
    except DitkitError:
        raise
    except KeyError as exc:
        raise DitkitError(f"{what} JSON lacks the {exc} field") from None
    except TypeError as exc:
        raise DitkitError(f"{what} JSON has the wrong shape: {exc}") from None
    except (ValueError, ZeroDivisionError) as exc:
        raise DitkitError(f"{what} JSON has a malformed value: {exc}") from None
