"""Exception types and the JSON schema version shared across the package."""

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
