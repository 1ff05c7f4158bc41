"""Permutations in one-line notation, inversion tables, and the two pattern tests.

Positions and values are both 1-based in every external format, so
``Permutation((5, 2, 4, 3, 1, 6))`` is the word 524316 whose value at position 1
is 5.  Text input accepts comma-separated values, or a plain digit string like
``"524316"`` when n <= 9.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _EXPORTS, _plain
from .errors import _index, _json_array, _size

__all__ = _EXPORTS["permutation"]


class _IntWord:
    """What `Permutation`, `InversionTable` and `PrefTuple` share: one tuple of
    integers in the field named `_field`, checked by the `_plain` function named
    `_check`, which is looked up when the constructor runs."""

    def __post_init__(self) -> None:
        word = getattr(_plain, self._check)(getattr(self, self._field))
        object.__setattr__(self, self._field, word)

    @property
    def n(self) -> int:
        return len(getattr(self, self._field))

    def to_text(self) -> str:
        return ",".join(map(str, getattr(self, self._field)))

    @classmethod
    def from_text(cls, text: str):
        return cls(_plain._parse_int_word(text))

    def to_json_obj(self) -> list[int]:
        return list(getattr(self, self._field))


@dataclass(frozen=True)
class Permutation(_IntWord):
    """A rearrangement of {1, ..., n} in one-line notation."""

    word: tuple[int, ...]
    _field, _check = "word", "_check_word"

    def value_at(self, pos: int) -> int:
        """Value at 1-based position `pos`."""
        return self.word[_index(pos, self.n, "position") - 1]

    def position_of(self, value: int) -> int:
        """1-based position holding `value`."""
        return self.word.index(_index(value, self.n, "value")) + 1

    @classmethod
    def from_json_obj(cls, obj) -> "Permutation":
        return cls(_json_array(obj, "a permutation"))

    def __str__(self) -> str:
        if 0 < self.n <= 9:
            return "".join(str(v) for v in self.word)
        return self.to_text()


@dataclass(frozen=True)
class InversionTable(_IntWord):
    """Entry i counts the values j > i standing to the left of i; it lies in [0, n-i]."""

    entries: tuple[int, ...]
    _field, _check = "entries", "_check_table"


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, _size(n) + 1)))


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
    return InversionTable(_plain._inversion_table(p.word))


def from_inversion_table(t: InversionTable) -> Permutation:
    """The unique permutation whose inversion table is `t`.

    >>> from_inversion_table(InversionTable((4, 1, 3, 1, 0, 0))).word
    (5, 2, 4, 6, 1, 3)
    """
    return Permutation(_plain._from_inversion_table(t.entries))


def contains_pattern_132(p: Permutation) -> bool:
    """True iff positions i < j < k exist with p[i] < p[k] < p[j].

    >>> contains_pattern_132(Permutation((1, 3, 2)))
    True
    >>> contains_pattern_132(Permutation((3, 2, 1)))
    False
    """
    return _plain._contains_132(p.word)


def contains_armleg_pattern(p: Permutation) -> bool:
    """True iff positions i < j exist with n - i + 1 <= p[j] < p[i].

    Both entries of such a pair sit at or above the antidiagonal, and the
    diagrams of exactly these permutations have an arm crossing a leg.

    >>> contains_armleg_pattern(Permutation((3, 4, 1, 6, 2, 5)))
    True
    >>> contains_armleg_pattern(Permutation((3, 4, 1, 5, 2, 6)))
    False
    """
    return _plain._contains_armleg(p.word)
