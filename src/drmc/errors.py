"""Exception taxonomy shared by all drmc modules."""


class DrmcError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(DrmcError, ValueError):
    """Tensor shapes are incompatible with the requested operation."""


class NumericError(DrmcError, ArithmeticError):
    """Non-finite values or numerically invalid inputs."""


class UsageError(DrmcError, RuntimeError):
    """An API was called in a way its contract forbids."""


class FormatError(DrmcError, ValueError):
    """A binary or text artifact on disk does not match its format."""


class DomainError(DrmcError, ValueError):
    """Input values are outside the mathematical domain of an operation."""


class ConfigError(DrmcError, ValueError):
    """A run configuration file failed to parse or validate."""
