"""Permutations in one-line notation, inversion tables, and the two pattern tests.

Positions and values are both 1-based in every external format, so
``Permutation((5, 2, 4, 3, 1, 6))`` is the word 524316 whose value at position 1
is 5.  Text input accepts comma-separated values, or a plain digit string like
``"524316"`` when n <= 9.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from .errors import ParseError, _ints, _json_array

__all__ = [
    "Permutation",
    "InversionTable",
    "identity",
    "inverse",
    "inversion_table",
    "from_inversion_table",
    "contains_pattern_132",
    "contains_armleg_pattern",
]


@dataclass(frozen=True)
class Permutation:
    """A rearrangement of {1, ..., n} in one-line notation."""

    word: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "word", _check_word(self.word))

    @property
    def n(self) -> int:
        return len(self.word)

    def value_at(self, pos: int) -> int:
        """Value at 1-based position `pos`."""
        if not 1 <= pos <= self.n:
            raise ValueError(f"position {pos} out of range [1, {self.n}]")
        return self.word[pos - 1]

    def position_of(self, value: int) -> int:
        """1-based position holding `value`."""
        if not 1 <= value <= self.n:
            raise ValueError(f"value {value} out of range [1, {self.n}]")
        return self.word.index(value) + 1

    def to_text(self) -> str:
        return ",".join(str(v) for v in self.word)

    @classmethod
    def from_text(cls, text: str) -> "Permutation":
        return cls(_parse_int_word(text))

    def to_json_obj(self) -> list[int]:
        return list(self.word)

    @classmethod
    def from_json_obj(cls, obj) -> "Permutation":
        return cls(_json_array(obj, "a permutation"))

    def __str__(self) -> str:
        if 0 < self.n <= 9:
            return "".join(str(v) for v in self.word)
        return self.to_text()


def _check_word(word) -> tuple[int, ...]:
    """The check of `Permutation`: `word` as a tuple, or the first error found.
    The constructor and the CLI both read through it."""
    word = _ints(word, "a permutation")
    if sorted(word) != list(range(1, len(word) + 1)):
        raise ParseError(f"not a permutation of [{len(word)}]: {word!r}")
    return word


@dataclass(frozen=True)
class InversionTable:
    """Entry i counts the values j > i standing to the left of i; it lies in [0, n-i]."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        entries = _ints(self.entries, "an inversion table")
        object.__setattr__(self, "entries", entries)
        n = len(entries)
        for i, e in enumerate(entries, start=1):
            if not 0 <= e <= n - i:
                raise ValueError(f"table entry {i} is {e}, outside [0, {n - i}]")

    @property
    def n(self) -> int:
        return len(self.entries)

    def to_text(self) -> str:
        return ",".join(str(e) for e in self.entries)

    @classmethod
    def from_text(cls, text: str) -> "InversionTable":
        return cls(_parse_int_word(text))

    def to_json_obj(self) -> list[int]:
        return list(self.entries)


def _parse_int_word(text: str) -> tuple[int, ...]:
    """Comma-separated integers; a bare digit string is one value per digit (n <= 9).
    Entries are range-checked by the constructor that takes them."""
    text = text.strip().strip("()")
    if not text:
        return ()
    if "," not in text and text.isdigit() and len(text) > 1:
        return tuple(int(ch) for ch in text)
    values = []
    for pos, token in enumerate(text.split(","), start=1):
        token = token.strip()
        if not token or not (token.isdigit() or (token[0] == "-" and token[1:].isdigit())):
            raise ParseError(f"bad integer {token!r} at position {pos}", position=pos)
        values.append(int(token))
    return tuple(values)


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def inverse(p: Permutation) -> Permutation:
    """The permutation q with q[p[i]] = i.

    >>> inverse(Permutation((2, 3, 1))).word
    (3, 1, 2)
    """
    inv = [0] * p.n
    for pos, value in enumerate(p.word, start=1):
        inv[value - 1] = pos
    return Permutation(tuple(inv))


def inversion_table(p: Permutation) -> InversionTable:
    """Count, for each value i, the larger values standing to its left.

    >>> inversion_table(Permutation((5, 2, 4, 6, 1, 3))).entries
    (4, 1, 3, 1, 0, 0)
    """
    seen: list[int] = []  # the values to the left, sorted
    entries = [0] * p.n
    for value in p.word:
        entries[value - 1] = len(seen) - bisect.bisect(seen, value)
        bisect.insort(seen, value)
    return InversionTable(tuple(entries))


def from_inversion_table(t: InversionTable) -> Permutation:
    """The unique permutation whose inversion table is `t`.

    Values are inserted largest first; everything already placed is larger, so
    value i goes at 0-based index entries[i].

    >>> from_inversion_table(InversionTable((4, 1, 3, 1, 0, 0))).word
    (5, 2, 4, 6, 1, 3)
    """
    word: list[int] = []
    for value in range(t.n, 0, -1):
        word.insert(t.entries[value - 1], value)
    return Permutation(tuple(word))


def _contains_132(word: tuple[int, ...]) -> bool:
    # right to left, mid is the largest value seen that a larger one to its left
    # has popped; any later value below mid completes a 132
    mid = 0
    stack: list[int] = []
    for v in reversed(word):
        if v < mid:
            return True
        while stack and stack[-1] < v:
            mid = stack.pop()
        stack.append(v)
    return False


def contains_pattern_132(p: Permutation) -> bool:
    """True iff positions i < j < k exist with p[i] < p[k] < p[j].

    >>> contains_pattern_132(Permutation((1, 3, 2)))
    True
    >>> contains_pattern_132(Permutation((3, 2, 1)))
    False
    """
    return _contains_132(p.word)


def _armleg_crossing(word) -> tuple[int, int] | None:
    """Columns i < j with n - i + 1 <= word[j] < word[i], or None; 0 marks an empty column."""
    n = len(word)
    stack: list[tuple[int, int]] = []  # peaks (f, l) that no later peak encloses
    for l, v in enumerate(word, start=1):
        f = n - v + 1
        if f <= l:  # a peak: it pops the peaks it encloses and can cross only the new top
            while stack and stack[-1][0] > f:
                stack.pop()
            if stack and stack[-1][1] >= f:
                return stack[-1][1], l
            stack.append((f, l))
    return None


def _contains_armleg(word: tuple[int, ...]) -> bool:
    return _armleg_crossing(word) is not None


def contains_armleg_pattern(p: Permutation) -> bool:
    """True iff positions i < j exist with n - i + 1 <= p[j] < p[i].

    Both entries of such a pair sit at or above the antidiagonal, and the
    diagrams of exactly these permutations have an arm crossing a leg.

    >>> contains_armleg_pattern(Permutation((3, 4, 1, 6, 2, 5)))
    True
    >>> contains_armleg_pattern(Permutation((3, 4, 1, 5, 2, 6)))
    False
    """
    return _contains_armleg(p.word)
