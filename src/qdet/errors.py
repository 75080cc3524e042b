"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: malformed input is a usage problem,
guard/precondition violations and float breakdowns are computation
refusals, and disagreement between independently computed results, or a
broken invariant in exact arithmetic, is a verification failure.
"""


class QdetError(Exception):
    """Base class for all package-specific errors."""


class ModeError(QdetError):
    """Exact and float values were mixed in one expression."""


class ShapeError(QdetError):
    """Matrix dimensions are incompatible with the requested operation."""


class PreconditionError(QdetError):
    """A computation route was invoked on input outside its validity domain."""


class NotHermitianError(PreconditionError):
    """An operation that requires a Hermitian matrix got a non-Hermitian one."""


class SingularError(QdetError):
    """A matrix that must be invertible for the operation is singular."""


class EnumerationGuardError(QdetError):
    """Determinant enumeration was refused because the matrix exceeds the guard."""


class RouteDisagreementError(QdetError):
    """Independent computation routes produced different results."""


class NumericalBreakdownError(QdetError):
    """A float-mode computation lost an invariant to rounding (a minor sum
    that must be positive came out nonpositive, a self-check failed)."""


class InternalInvariantError(QdetError):
    """An invariant that exact arithmetic guarantees failed: a defect in
    the package, never an input problem."""


def invariant_error(mode: str, message: str) -> QdetError:
    """The error for a broken invariant: a numerical breakdown in float
    mode, an internal defect in exact mode."""
    cls = NumericalBreakdownError if mode == "float" else InternalInvariantError
    return cls(message)


class ParseError(QdetError):
    """Malformed quaternion literal or matrix file."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            where = f"line {line}" + (f", col {col}" if col is not None else "")
            message = f"{where}: {message}"
        super().__init__(message)
