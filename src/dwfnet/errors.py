"""Exception hierarchy shared across the package, its one integer rule and
the frozen base of its value types."""

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


# How a value type's `__init__` stores a field: a write through `vars(self)`
# would give every instance a dict of its own (about 140 bytes more), and a
# module-level name is looked up faster than `object.__setattr__`.
_set_field = object.__setattr__


class _Frozen:
    """Base of the package's value types.  Each subclass names its fields in
    `__match_args__` and stores them with `_set_field` in its own `__init__`;
    they are read-only after that, and the repr is `Type(field=value, ...)`.
    Equality and hashing are by identity."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"


class _FrozenValue(_Frozen):
    """A `_Frozen` type that compares by value: equal only to the same class
    with equal fields, and hashed as its field tuple."""

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())
