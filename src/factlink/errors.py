"""The package's two failures: DataError (exit 2) and NumericError (exit 3)."""

import math


class DataError(Exception):
    """Invalid or inconsistent input data. CLI maps these to exit code 2.
    A ``line_number`` prefixes the message with ``line N: ``."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class NumericError(Exception):
    """Numerical failure (non-finite values etc.). CLI maps these to exit code 3."""


def require_finite(value: float, what: str) -> float:
    """``value`` itself; NumericError when it is NaN or infinite."""
    if not math.isfinite(value):
        raise NumericError(f"{what} is not finite ({value})")
    return value
