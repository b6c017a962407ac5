"""Exception hierarchy and enumeration caps."""

from __future__ import annotations

import os

DEFAULT_ENUM_CAP = 2_000_000  # raw tuples in an exact-mode enumeration
DEFAULT_TABLE_CAP = 20_000    # dense function tables over a direct power

_ENV_CAP = "GROUPLIN_CAP"


def enum_cap(override: int | None = None) -> int:
    """Cap on exhaustive enumerations; GROUPLIN_CAP overrides the default."""
    if override is not None:
        if override <= 0:
            raise InvalidParams(f"cap must be a positive integer, got {override}")
        return override
    return _env_cap(DEFAULT_ENUM_CAP)


def table_cap() -> int:
    """Cap on dense tables over a direct power; GROUPLIN_CAP overrides the
    default."""
    return _env_cap(DEFAULT_TABLE_CAP)


def read_caps() -> tuple[int, int]:
    """The enumeration and table caps from one read of GROUPLIN_CAP, which
    sets both; for the calls of one op that checks both (``reduction.bind``)."""
    cap = _env_cap(0)
    return (cap, cap) if cap else (DEFAULT_ENUM_CAP, DEFAULT_TABLE_CAP)


def _env_cap(default: int) -> int:
    env = os.environ.get(_ENV_CAP)
    if not env:
        return default
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap <= 0:
        raise InvalidParams(f"{_ENV_CAP} must be a positive integer, got {env[:40]!r}")
    return cap


class GroupLinError(Exception):
    """Base class for all errors raised by this package."""


class NotAssociative(GroupLinError):
    def __init__(self, i: int, j: int, k: int):
        self.triple = (i, j, k)
        super().__init__(f"(e{i}*e{j})*e{k} != e{i}*(e{j}*e{k})")


class NoIdentity(GroupLinError):
    def __init__(self):
        super().__init__("no row of the table acts as a left identity")


class NoInverse(GroupLinError):
    def __init__(self, element: int):
        self.element = element
        super().__init__(f"element {element} has no two-sided inverse")


class NoExtension(GroupLinError):
    """The partial homomorphism admits no extension to the full group."""


class DecompositionFailed(GroupLinError):
    """The regular representation did not split after the retry budget."""


class NonIntegerMultiplicity(GroupLinError):
    """A character inner product that must be an integer is not one."""


class DimensionMismatch(GroupLinError):
    pass


class IncompleteTable(GroupLinError):
    """A Fourier table is missing coefficient blocks needed for inversion."""


class CapExceeded(GroupLinError):
    """An exact enumeration would exceed the configured cap."""


class InvalidParams(GroupLinError):
    pass


class MissingVariable(GroupLinError):
    pass


class NoOmega(GroupLinError):
    """No non-trivial representation has a non-negative penalized margin."""
