"""Error types raised by the contract surface of the package."""


class LogBesovError(ValueError):
    """Base class for contract violations."""


class InvalidInputError(LogBesovError):
    pass


class DomainError(LogBesovError):
    """Geometry outside the torus or outside a cube's admissible range."""


class ResolutionError(LogBesovError):
    """Requested scale too fine for the sampling grid."""


class AliasingError(LogBesovError):
    """Frequency content beyond the lattice Nyquist range."""


class LevelOverflowError(LogBesovError):
    """Dyadic level beyond the grid's K_max budget."""


class CapabilityError(LogBesovError):
    """Request outside the implemented (and intentionally bounded) range."""


class DegenerateInputError(LogBesovError):
    """Construction collapsed to zero; no meaningful output exists."""

