"""Exception hierarchy shared across the package.

The command line front end maps these onto exit codes: validation
problems exit 1, numerical failures exit 2, and I/O errors (plain
OSError) exit 3.
"""

from __future__ import annotations

__all__ = [
    "BifluorError",
    "ValidationError",
    "UnphysicalDephasingError",
    "DegenerateDriveError",
    "CoverageError",
    "ConfigError",
    "NumericalError",
    "SingularSystemError",
    "TruncationError",
    "FitFailure",
    "TruncationWarning",
    "NumericsWarning",
]


class BifluorError(Exception):
    """Base class for package errors."""

    exit_code = 2


class ValidationError(BifluorError, ValueError):
    """Bad inputs: domain violations, inconsistent parameters."""

    exit_code = 1


class UnphysicalDephasingError(ValidationError):
    """Lifetimes violating t2 <= 2*t1 (negative pure dephasing rate)."""


class DegenerateDriveError(ValidationError):
    """Two drive fields at the same frequency where a beat is required."""


class CoverageError(ValidationError):
    """A frequency grid or scan axis does not span the required region."""


class ConfigError(ValidationError):
    """Config file cannot be parsed or fails validation."""


class NumericalError(BifluorError):
    """Numerical failures: singular systems, non-convergence."""

    exit_code = 2


class SingularSystemError(NumericalError):
    """A linear solve hit a (numerically) singular matrix."""


class TruncationError(NumericalError):
    """A truncated harmonic expansion did not converge.

    Carries the offending residual magnitude when available.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class FitFailure(NumericalError):
    """Least-squares fit did not converge; carries the last iterate."""

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


class TruncationWarning(UserWarning):
    """TruncationError of a result that stands; the warnings filter of --strict raises it."""


class NumericsWarning(UserWarning):
    """Advisory about questionable numerical settings (e.g. coarse grids)."""
