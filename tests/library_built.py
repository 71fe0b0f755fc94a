"""A value as the library once built its own arrays: every rule of the value
type's `_settle`, on the array itself, with neither the public constructor's
copy nor its norm screen.  Tests use it to reach arrays the public
constructor refuses (entries past the norm bound) and to run `_settle` alone.
"""


def library_built(cls, *fields):
    """The value of `cls` with its scalar fields in order, then the array that
    its `_settle` checks and stores uncopied.  A warning `_settle` gives points
    at the caller of this function."""
    value = object.__new__(cls)
    for name, field in zip(cls.__match_args__[:-1], fields):
        object.__setattr__(value, name, field)
    value._settle(fields[-1])
    return value
