"""Exception hierarchy shared across the package, and the integer check that
the Python API applies to counts, dimensions and seeds: ``require_int``
refuses a value that is not an integer, and with ``low`` one below it."""

import numbers


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


def is_integer(value):
    """Whether ``value`` is a Python or numpy integer; a bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def require_int(value, name, error=ConfigurationError, low=None):
    """Raise ``error`` naming ``name`` unless ``value`` is an integer and, with
    ``low`` given, at least ``low``; each message starts with ``name``."""
    if not is_integer(value):
        raise error(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise error(f"{name} must be >= {low}, got {value}")
