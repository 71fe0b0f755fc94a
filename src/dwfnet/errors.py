"""Exception hierarchy shared across the package."""


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
