"""Exception types shared across the package."""


class CrflatError(Exception):
    """Base class for all package errors."""


class ParseError(CrflatError):
    """Malformed literal, file, or command input."""


class PreconditionError(CrflatError):
    """An operation was invoked outside its stated domain."""


class ConsistencyError(CrflatError):
    """An internal cross-check failed; indicates a bug, not bad input."""


class LinearSolveError(CrflatError):
    """Base class for exact linear-solve failures."""


class InconsistentSystemError(LinearSolveError):
    """The system A x = b has no solution."""


class UnderdeterminedSystemError(LinearSolveError):
    """The solution space of A x = b has positive dimension."""


class DegenerateSliceError(PreconditionError):
    """The slice quadric has no mixed term, so no Bishop invariant exists."""
