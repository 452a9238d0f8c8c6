"""Strict readers for the fields of JSON inputs.

Shapes and integer types are checked where the input enters, with no
coercion: 3.7, "3" and true are not integers, and a rational is an
integer or a string such as "1/2", never a float.  Every failure is a
ValueError that names the field, so the CLI reports it on one line.
"""

from __future__ import annotations

import json
from fractions import Fraction

# the largest exponent a rational string may carry: CPython's default
# limit on the digits of an int string, which bounds "1" + "0" * 5000 alike
_MAX_EXPONENT = 4300

_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", bool: "a boolean",
               int: "an integer", float: "a number", type(None): "null"}


def _kind(value) -> str:
    return _JSON_TYPES.get(type(value), type(value).__name__)


def expect_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be an object, not {_kind(value)}")
    return value


def expect_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, not {_kind(value)}")
    return value


def expect_field(obj: dict, key: str, what: str):
    if key not in obj:
        raise ValueError(f'{what} has no "{key}" field')
    return obj[key]


def _shown(value) -> str:
    return json.dumps(value) if isinstance(value, (bool, float)) else _kind(value)


def expect_int(value, what: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} is {_shown(value)}, not an integer")
    if minimum is not None and value < minimum:
        raise ValueError(f"{what} is {value}, below {minimum}")
    return value


def _exponent(text: str) -> int:
    """The exponent of a decimal string such as "1e3", 0 if there is none
    or it does not read as an integer (Fraction then refuses the string)."""
    _, e, exponent = text.lower().partition("e")
    try:
        return int(exponent) if e else 0
    except ValueError:
        return 0


def expect_rational(value, what: str) -> Fraction:
    """An integer, or a string that parses as a rational such as "1/2".

    Fraction would expand an exponent such as "1e999999999" into all of
    its digits, so an exponent above _MAX_EXPONENT in magnitude is refused.
    """
    if isinstance(value, str):
        try:
            if abs(_exponent(value)) <= _MAX_EXPONENT:
                return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
        raise ValueError(f"{what} is {json.dumps(value)}, not a rational")
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} is {_shown(value)}, not a rational")
    return Fraction(value)


def expect_rows(value, what: str, item=expect_int) -> list[list]:
    """A list of lists, each entry read by item (integers by default)."""
    return [
        [item(v, f"{what}[{i}][{j}]") for j, v in enumerate(expect_list(row, f"{what}[{i}]"))]
        for i, row in enumerate(expect_list(value, what))
    ]
