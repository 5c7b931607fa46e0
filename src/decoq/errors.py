"""Exception types shared across the package."""


class ShapeError(ValueError):
    """A matrix or vector does not have the structure an operation requires."""


class ValidationError(ValueError):
    """A numerical contract is violated (hermiticity, unitarity, normalization)."""


class FitError(RuntimeError):
    """A power-law fit could not be performed; the message says how to fix the data."""


class ConfigError(ValueError):
    """A scenario file could not be parsed; names the offending line and key."""


class SizingError(RuntimeError):
    """A scenario asks for a joint space beyond the dimension cap, or a count beyond its sizing budget."""
