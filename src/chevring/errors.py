"""Exception types, the JSON schema version, the integer check and the base
of the immutable value classes, shared across the package."""

from operator import attrgetter, index

# Version of every JSON document the package emits.
SCHEMA_VERSION = 1


class InputError(ValueError):
    """Malformed or inconsistent input: bad integers, unknown families,
    out-of-range indices."""


class PreconditionError(ValueError):
    """A mathematical hypothesis of the requested computation fails,
    e.g. l equal to the field characteristic, a torsion prime, or a missing
    root of unity.  The message names the violated hypothesis."""


class ResourceLimitError(RuntimeError):
    """A computation would pass a limit: an oracle instance has a degree
    with more monomials than its monomial limit, a registry lookup asks for
    more fundamental degrees than the interpreter can list in one range, or
    `chevring params` would print an h of more decimal digits than the
    interpreter converts to text."""


def _integer(value, name: str, least: int | None = None) -> int:
    """value as an int, refusing one that is not integral or is below least:
    a cutoff of 4.5 is refused here, not carried on to fail later with a
    TypeError."""
    try:
        value = index(value)
    except TypeError:
        raise InputError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise InputError(f"{name} must be >= {least}, got {value}")
    return value


class _Frozen:
    """Base of the package's immutable value classes.  It stands in for a
    frozen dataclass, whose import and generated methods cost more than the
    first registry load.  A subclass names its fields once, in `_fields`,
    and its own `__init__` checks and derives them and stores them with
    `_set`; they live in the instance dict, so a `cached_property` still
    works.  Instances compare equal only to the same class with equal
    fields, hash as the tuple of their fields, print as
    ``Name(field=value, ...)`` and refuse to assign or delete an attribute."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        # the tuple of an instance's fields, read in one call
        cls._values = attrgetter(*cls._fields)

    def _set(self, **fields) -> None:
        self.__dict__.update(fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
