"""Exception types, the JSON schema version and the integer check shared
across the package."""

from operator import index

# Version of every JSON document the package emits.
SCHEMA_VERSION = 1


class InputError(ValueError):
    """Malformed or inconsistent input: bad integers, unknown families,
    mismatched polynomial contexts, out-of-range indices."""


class PreconditionError(ValueError):
    """A mathematical hypothesis of the requested computation fails,
    e.g. l equal to the field characteristic, a torsion prime, or a missing
    root of unity.  The message names the violated hypothesis."""


class ResourceLimitError(RuntimeError):
    """An oracle instance exceeds its configured memory budget."""


def _integer(value, name: str) -> int:
    """value as an int, refusing one that is not integral: a cutoff of 4.5
    is refused here, not carried on to fail later with a TypeError."""
    try:
        return index(value)
    except TypeError:
        raise InputError(f"{name} must be an integer, got {value!r}") from None
