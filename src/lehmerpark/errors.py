"""Exception types shared across the package, and the integer checks of the JSON readers."""

from __future__ import annotations


class LehmerError(ValueError):
    """Base class for domain validation failures; `code` is machine-readable."""

    code = "domain"


class ParseError(LehmerError):
    """Malformed text input. `position` is the 1-based index of the first bad token."""

    code = "parse"

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class GbspError(LehmerError):
    """Invalid g-augmented parenthesization.

    `code` is one of "unbalanced-base", "g-missing", "g-extra", "g-out-of-range";
    `space` names the offending space where applicable.
    """

    def __init__(self, message: str, code: str, space: int | None = None):
        super().__init__(message)
        self.code = code
        self.space = space


def _json_int(value, what: str) -> int:
    """`value` if it is an integer; JSON true and 1.0 are refused, not coerced."""
    if type(value) is not int:
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def _json_ints(value, what: str) -> tuple[int, ...]:
    """The entries of a JSON array of integers, checked one by one."""
    if not isinstance(value, (list, tuple)):
        raise ParseError(f"expected {what} as a JSON array of integers, got {value!r}")
    return tuple(_json_int(v, f"each entry of {what}") for v in value)


def _json_distinct(values, what: str) -> frozenset:
    """`values` as a set; a repeated entry is refused, not collapsed."""
    distinct = frozenset(values)
    if len(distinct) < len(values):  # find the first repeat
        seen: set = set()
        for pos, v in enumerate(values, start=1):
            if v in seen:
                raise ParseError(f"repeated entry {v!r} in {what}", position=pos)
            seen.add(v)
    return distinct
