"""Exception hierarchy shared by all modules.

ConfigError maps to CLI exit code 2, NumericsError to exit code 3; every
other class subclasses exactly one of the two.
"""


class MultikinkError(Exception):
    """Base class for all package errors."""


class ConfigError(MultikinkError):
    """Invalid or inconsistent configuration / arguments."""


class InvalidChainError(ConfigError):
    """Chain labels are not a sequence of adjacent vacuum indices."""


class NumericsError(MultikinkError):
    """A numerical procedure failed or produced an unusable result."""


class DegenerateVacuumError(NumericsError):
    """A located zero of the potential has vanishing curvature."""


class IntegrationError(NumericsError):
    """ODE integration left its admissible region."""


class InstabilityError(NumericsError):
    """Time stepping produced NaN/Inf values."""


class FitError(NumericsError):
    """A least-squares fit had no usable data."""


class SectorError(NumericsError):
    """Boundary values of a state match no vacuum within tolerance."""


class NoContractionError(NumericsError):
    """Fixed-point iteration failed to contract."""


class CoverageError(NumericsError):
    """A boosted evaluation point pulls back outside the stored slab."""


class InvalidMultiplierError(NumericsError):
    """Coercivity multiplier is orthogonal to the kernel direction."""
