"""Enumeration size guard.

Exhaustive enumerations (all self-maps, all bit matrices, all ring
endomorphisms) are capped so that desk-scale runs stay desk-scale.  The
default cap can be overridden through the STONEWORK_MAX_ENUM environment
variable.
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
