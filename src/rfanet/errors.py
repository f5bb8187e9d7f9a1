"""Exception hierarchy shared across the package."""


class RfaError(Exception):
    """Base class for all package-specific errors."""


class FormatError(RfaError):
    """Malformed binary input (image, model or embedding file)."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class ConfigurationError(RfaError):
    """Invalid or internally inconsistent configuration."""


class DataError(RfaError):
    """Input data violates a documented precondition."""


class DegenerateProblemError(RfaError):
    """A learning problem with no usable signal (e.g. identical pair features)."""
