"""Exception types shared across the package, and the entry checks of its
constructors and of its size and index arguments."""

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


_INT = frozenset({int})


def _int(value, what: str) -> int:
    """`value` if it is an integer; true and 1.0 are refused, not coerced."""
    if type(value) is not int:
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def _size(n, what: str = "n", ceiling: int | None = None, cost: str = "") -> int:
    """`n` if it is a nonnegative integer and, given a `ceiling`, at most it; `cost`
    names the work that takes about a second at the ceiling."""
    if _int(n, what) < 0:
        raise ValueError(f"{what} must be nonnegative")
    if ceiling is not None and n > ceiling:
        raise ValueError(f"{what} = {n} is past the ceiling {what} <= {ceiling} of {cost} "
                         "take about a second there")
    return n


def _index(i, n: int, what: str) -> int:
    """`i` if it is an integer in [1, n]; `what` names it, as "position" or "space"."""
    if not 1 <= _int(i, what) <= n:
        raise ValueError(f"{what} {i} out of range [1, {n}]")
    return i


def _not_a_sequence(value, what: str) -> ParseError:
    """The refusal of `value`, given as `what` but no sequence, such as 5 for a permutation."""
    return ParseError(f"{what} must be a sequence, got {value!r}")


def _ints(values, what: str) -> tuple[int, ...]:
    """`values` as a tuple of integers; a bool, float or str entry is refused, not coerced."""
    try:
        values = tuple(values)
    except TypeError:
        raise _not_a_sequence(values, what) from None
    if not set(map(type, values)) <= _INT:
        pos, bad = next((pos, v) for pos, v in enumerate(values, start=1) if type(v) is not int)
        raise ParseError(f"entry {pos} of {what} must be an integer, got {bad!r}", position=pos)
    return values


def _int_pairs(values, what: str) -> tuple[tuple[int, int], ...]:
    """`values` as pairs of integers, such as points or (space, value) entries.
    An iterator is read once, and a bad entry is named by its position; a
    sequence entry is shown as its tuple."""
    try:
        entries = iter(values)
    except TypeError:
        raise _not_a_sequence(values, what) from None
    pairs = []
    for pos, entry in enumerate(entries, start=1):
        try:
            pair = tuple(entry)
        except TypeError:  # no sequence: shown as itself
            pair = entry
        if not (type(pair) is tuple and len(pair) == 2 and type(pair[0]) is type(pair[1]) is int):
            raise ParseError(f"entry {pos} of {what} must be a pair of integers, got {pair!r}",
                             position=pos)
        pairs.append(pair)
    return tuple(pairs)


def _distinct(values, what: str) -> frozenset:
    """`values` as a set; a repeated entry is refused, not collapsed."""
    distinct = frozenset(values)
    if len(distinct) < len(values):  # find the first repeat
        seen: set = set()
        for pos, v in enumerate(values, start=1):
            if v in seen:
                raise ParseError(f"repeated entry {v!r} in {what}", position=pos)
            seen.add(v)
    return distinct


def _json_array(value, what: str):
    """`value` if it is a JSON array; its entries are left to the constructor."""
    if not isinstance(value, (list, tuple)):
        raise ParseError(f"expected {what} as a JSON array, got {value!r}")
    return value
