"""Exception hierarchy shared by all toruslab modules.

Two failure families matter to callers: invalid inputs (rejected before any
computation starts) and numerical failures (guards tripped or iterations that
did not converge).  The CLI maps the former to exit code 1 and the latter to
exit code 2.
"""


class ToruslabError(Exception):
    """Base class for all package errors."""


class ValidationError(ToruslabError):
    """Invalid input: bad config value, malformed expression, exponent out of range."""

    def __init__(self, message, field=None):
        self.field, self.reason = field, message
        if field is not None:
            message = f"{field}: {message}"
        super().__init__(message)


class DslError(ValidationError):
    """Lexing/parsing/evaluation error in the symbol expression language.

    Carries the character offset of the offending token or node.
    """

    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} (at offset {position})")


class NumericalError(ToruslabError):
    """A computation failed a numeric guard or did not converge."""


class SizeGuardError(NumericalError):
    """Dense-matrix or memory guard exceeded."""


class DegenerateBallError(NumericalError):
    """A requested ball contains no grid points."""


class SpectralTailError(NumericalError):
    """Symbol too rough in x for the grid: high-frequency tail above tolerance."""


class EmptyDomainError(NumericalError):
    """An integration domain or shell range contains no points."""


class ConvergenceError(NumericalError):
    """Iteration budget exhausted before the convergence tolerance was met."""

    def __init__(self, message, final_gap=None):
        self.final_gap = final_gap
        if final_gap is not None:
            message = f"{message} (final gap {final_gap:.3e})"
        super().__init__(message)


class TableRangeError(NumericalError):
    """Table-backed symbol evaluated outside its stored frequency box."""
