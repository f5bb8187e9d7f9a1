"""Exception hierarchy shared across the package, and the value checks that
the Python API and the config file both apply: ``require_int`` to counts,
dimensions and seeds, ``require_real`` to rates, bounds and levels."""

import numbers
import sys


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


def require_int(value, name, error=ConfigurationError, low=None, high=None):
    """Raise ``error`` naming ``name`` unless ``value`` is an integer and, with
    ``low`` or ``high`` given, within them; each message starts with ``name``."""
    if not is_integer(value):
        raise error(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise error(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise error(f"{name} must be <= {high}, got {value}")


def require_real(value, name, error=ConfigurationError, low=None, above=None, high=None,
                 below=None):
    """Raise ``error`` naming ``name`` unless ``value`` is a finite real number
    within the bounds given, ``low`` and ``high`` closed and ``above`` and
    ``below`` open; a bool and an integer beyond the float range are not."""
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max
            and (low is None or value >= low) and (above is None or value > above)
            and (high is None or value <= high) and (below is None or value < below)):
        bounds = ((">=", low), (">", above), ("<=", high), ("<", below))
        rule = " and ".join(["finite", *(f"{s} {b}" for s, b in bounds if b is not None)])
        raise error(f"{name} must be {rule}, got {value!r}")
