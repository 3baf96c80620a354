"""Exception types and the read-only record base shared across the package."""


class ValidationError(ValueError):
    """An input violates a numerical invariant (positivity, trace, norm...)."""


class DimensionError(ValueError):
    """Operands have structurally incompatible dimensions."""


class _Record:
    """Base of the read-only records. A subclass lists its fields in
    __slots__, and its __init__ checks them and stores each one with
    object.__setattr__; after that, setting or deleting a field raises."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
