"""Exception hierarchy shared across the package."""

import math


class FactLinkError(Exception):
    """Base class for all package errors."""


class DataError(FactLinkError):
    """Invalid or inconsistent input data. CLI maps these to exit code 2."""


class MalformedRecordError(DataError):
    """A line-delimited record could not be parsed or is missing fields."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class DuplicateIdError(DataError):
    pass


class DanglingFactError(DataError):
    """A fact references an id that is not present in the store."""


class UnknownIdError(DataError):
    pass


class ReservedTokenError(DataError):
    """An input string contains one of the reserved marker tokens."""


class MissingContextError(DataError):
    """Context rendering was requested for a triple without a sentence."""


class EmptyTrainingSetError(DataError):
    pass


class EmptyKeySetError(DataError):
    pass


class EmptyEvaluationError(DataError):
    pass


class NumericError(FactLinkError):
    """Numerical failure (non-finite values etc.). CLI maps these to exit code 3."""


def require_finite(value: float, what: str) -> float:
    """``value`` itself; NumericError when it is NaN or infinite."""
    if not math.isfinite(value):
        raise NumericError(f"{what} is not finite ({value})")
    return value
