"""Exception types shared across the package, and ``integer``: the one check
of every count, size, threshold and shift the package takes."""

from operator import index


class BoundsError(ValueError):
    """A point lies outside the grid it is bound to."""


class DomainError(ValueError):
    """An argument violates an operation's precondition."""


class ResourceLimitError(RuntimeError):
    """A configured resource cap (cell count, node budget) was exceeded."""


class EngineError(RuntimeError):
    """An internal consistency check failed; indicates a bug, not bad input."""


def integer(value, what: str, least: int | None = None) -> int:
    """``value`` as an ``int`` through ``operator.index``; DomainError naming
    ``what`` when it is no integer, or is below ``least``."""
    try:
        value = index(value)
    except TypeError:
        raise DomainError(f"{what} takes integers only, got {value!r}") from None
    if least is not None and value < least:
        raise DomainError(f"{what} must be >= {least}, got {value}")
    return value
