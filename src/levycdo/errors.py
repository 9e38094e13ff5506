"""Exception types shared across the package.

Every error raised by this package derives from :class:`LevyCdoError`, so
callers can catch one base class at CLI boundaries. The subclasses mirror the
failure modes of the public operations: bad mathematical inputs, bad
configuration, numerical breakdowns, and statistical insufficiency.
"""

from __future__ import annotations

__all__ = [
    "LevyCdoError",
    "DomainError",
    "DimensionError",
    "RngError",
    "GridError",
    "BoundError",
    "StateError",
    "StepError",
    "DegenerateRateError",
    "QuadratureError",
    "ConfigError",
    "DegenerateAnnuityError",
    "InsufficientPathsError",
]


class LevyCdoError(Exception):
    """Base class for all package-specific errors."""


class DomainError(LevyCdoError):
    """An argument lies outside the mathematical domain of the operation."""


class DimensionError(LevyCdoError):
    """Array shapes or dimensions are inconsistent."""


class RngError(LevyCdoError):
    """A random seed is missing, negative, or otherwise unusable."""


class GridError(LevyCdoError):
    """A time or maturity grid is malformed, or a query point is off-grid."""


class BoundError(LevyCdoError):
    """A declared bound (e.g. a thinning majorant) was exceeded at runtime."""


class StateError(LevyCdoError):
    """The requested evaluation is inconsistent with the current state."""


class StepError(LevyCdoError):
    """A simulation step produced a non-finite value."""


class DegenerateRateError(LevyCdoError):
    """A discrete rate hit zero where its dynamics divide by it."""


class QuadratureError(LevyCdoError):
    """Adaptive quadrature failed to converge to the requested tolerance."""


class ConfigError(LevyCdoError):
    """A specification object is internally inconsistent."""


class DegenerateAnnuityError(LevyCdoError):
    """The annuity of a tranche is numerically zero; no par spread exists."""


class InsufficientPathsError(LevyCdoError):
    """Monte Carlo noise is too large relative to the quantity under test."""
