"""Exception hierarchy shared across the package, and its one integer rule."""

from numbers import Integral


class DwfError(Exception):
    """Base class for all errors raised by this package."""


class UnsupportedDimensionError(DwfError):
    """Requested a field / system size outside the supported range."""


class FieldDomainError(DwfError):
    """Invalid finite-field operation (e.g. inverting zero)."""


class DimensionMismatchError(DwfError):
    """Matrix or vector shapes incompatible with the requested operation."""


class NonCommutingError(DwfError):
    """Operators expected to commute do not (within tolerance)."""


class NetConstructionError(DwfError):
    """A quantum net failed one of its structural consistency checks."""


class NetMismatchError(DwfError):
    """A Wigner function was combined with an object built for another net."""


class ValidationError(DwfError):
    """Malformed or inconsistent user-supplied input."""


class PurityError(DwfError):
    """Operation requires a pure state but the input is mixed."""


class UnsupportedNetError(DwfError):
    """Operation is only defined for product-structured nets."""


def check_int(value, start, stop, what: str, error: type = ValidationError) -> int:
    """The package's one integer rule: `value` as an int if it is an integer in
    [start, stop), else raise `error`.  Numpy integers pass; bools do not."""
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise error(f"{what} {value!r} is not an integer")
        value = int(value)
    if not start <= value < stop:
        raise error(f"{what} {value} out of range [{start}, {stop})")
    return value
