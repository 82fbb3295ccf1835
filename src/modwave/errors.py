"""Exception types shared across the package."""

from __future__ import annotations


class ModwaveError(Exception):
    """Base class for all package errors."""


class NonFinite(ModwaveError):
    """A numerical evaluation produced NaN or infinity."""


class ParseError(ModwaveError):
    """Symbol expression could not be parsed.

    Carries the character position and the set of tokens that would have
    been accepted there.
    """

    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        self.position = position
        self.expected = expected
        detail = f" at position {position}"
        if expected:
            detail += f" (expected one of: {', '.join(expected)})"
        super().__init__(message + detail)


class DegenerateResonance(ModwaveError):
    """A resonant denominator (second-harmonic or mean-flow) vanished."""


class NoConvergence(ModwaveError):
    """An iteration failed to reach the requested residual or tolerance."""

    def __init__(self, iterations: int, residual: float):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"no convergence after {iterations} iterations (residual {residual:.3e})"
        )


class EigenFailure(ModwaveError):
    """Dense eigenvalue computation did not converge."""


class NotRescalable(ModwaveError):
    """Characteristic polynomial rescaling requires a nonzero Floquet exponent."""


class MatchFailure(ModwaveError):
    """Eigenvalue assignment residual exceeded the admissible spacing."""


class InvalidArgument(ModwaveError, ValueError):
    """A library function was called with an argument outside its domain."""


class ConfigError(ModwaveError):
    """Invalid run configuration."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"config field '{field}': {message}")
