"""Enumeration size guard.

Exhaustive enumerations (all self-maps, all bit matrices, all ring
endomorphisms) are capped so that desk-scale runs stay desk-scale, and so
are the tables the library builds for them: among others the candidate
tables of generators.enumerate_small_monoids, the self-maps and candidate
actions of generators.enumerate_actions, the value tables of
boolring.additive_values, the element pairs of boolring.ring_homs_to_Z2,
the character parities of duality.entourage_keys, and the n x n bits of
duality.phi (so `stonework dualize` too).  Each build is guarded on what
it is about to build, before building it.  The default cap can be
overridden through the STONEWORK_MAX_ENUM environment variable.
"""

import os

from .errors import ResourceLimit

DEFAULT_MAX_ENUM = 10_000_000

ENV_VAR = "STONEWORK_MAX_ENUM"


def max_enum() -> int:
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return DEFAULT_MAX_ENUM
    try:
        value = int(raw)
    except ValueError:
        raise ResourceLimit(f"{ENV_VAR}={raw!r} is not an integer") from None
    if value <= 0:
        raise ResourceLimit(f"{ENV_VAR} must be positive, got {value}")
    return value


def guard_enum(count: int, what: str) -> None:
    bound = max_enum()
    if count > bound:
        raise ResourceLimit(
            f"{what} needs {count} items, above the bound {bound} (override with {ENV_VAR})"
        )
