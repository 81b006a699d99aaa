"""Exception types shared across the package.

Numerical operations raise specific subclasses so the CLI can map
failures to exit codes (config errors -> 2, numerical errors -> 3)
without string matching.
"""

from __future__ import annotations


class StaOttoError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(StaOttoError):
    """Invalid configuration value, file, or key."""


class OutOfRangeTime(StaOttoError):
    """Protocol sampled outside [0, duration]."""


class TrapInversionError(StaOttoError):
    """Effective trap frequency squared went nonpositive in strict mode."""


class SolverFailure(StaOttoError):
    """ODE integration did not reach the end of the interval."""


class QuadratureFailure(StaOttoError):
    """Adaptive quadrature did not converge to the requested tolerance."""


class DomainError(StaOttoError):
    """Fidelity or Bures angle outside its mathematical domain."""


class DivisionByZeroCost(StaOttoError):
    """Speed-limit time requested for a nonpositive driving cost."""


class InvalidDenominator(StaOttoError):
    """Efficiency or power bound requested with a nonpositive denominator."""


class NoSignChange(StaOttoError):
    """Root bracket does not straddle a sign change."""
