"""Set partitions of [n] and their translation to and from parenthesizations.

Blocks are kept sorted internally (each block ascending, blocks by minimum),
so equal partitions compare equal.  Text form joins brace-wrapped blocks with
pipes, e.g. ``{1,4}|{2,3,6}|{5}``.  The check, the text and JSON forms, both
legs and the generator run on plain blocks in `_plain`; `SetPartition` and the
maps here wrap them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from . import _EXPORTS, _plain
from .errors import _index
from .paren import GBsp, SpacedParen, _gbsp, _gbsp_values

__all__ = _EXPORTS["setpartition"]


@dataclass(frozen=True)
class SetPartition:
    """Nonempty disjoint blocks covering {1, ..., n}."""

    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", _plain._check_blocks(self.n, self.blocks))

    def block_of(self, x: int) -> tuple[int, ...]:
        _index(x, self.n, "element")
        return next(b for b in self.blocks if x in b)

    def to_text(self) -> str:
        return _plain._blocks_text(self.blocks)

    @classmethod
    def from_text(cls, text: str) -> "SetPartition":
        return cls(*_plain._parse_blocks(text))

    def to_json_obj(self) -> dict:
        return {"n": self.n, "blocks": [list(b) for b in self.blocks]}

    @classmethod
    def from_json_obj(cls, obj) -> "SetPartition":
        return cls(*_plain._blocks_json(obj))

    def __str__(self) -> str:
        return self.to_text()


def min_max(b: SetPartition) -> SpacedParen:
    """Block minima as opening spaces, block maxima as closing spaces.

    Always balanced: at any space i, each block containing an element <= i and
    an element >= i contributes to the depth.

    >>> sp = min_max(SetPartition(6, ((1, 4), (2, 3, 6), (5,))))
    >>> (sorted(sp.F), sorted(sp.L))
    ([1, 2, 5], [4, 5, 6])
    """
    return SpacedParen(b.n, *_plain._min_max(b.blocks))


def to_gbsp(b: SetPartition) -> GBsp:
    """min_max(b) plus, for each non-minimum element i, the rank of its block
    among the blocks open at i (min < i <= max), ordered by minimum."""
    return _gbsp(b.n, *_plain._to_gbsp(b.n, b.blocks))


def from_gbsp(gb: GBsp) -> SetPartition:
    """The partition whose to_gbsp is `gb`, checked at construction."""
    return SetPartition(gb.n, _plain._from_gbsp(*_gbsp_values(gb)))


def enumerate_partitions(n: int) -> Iterator[SetPartition]:
    """Every set partition of [n] exactly once, in lexicographic order of their
    restricted-growth strings."""
    for blocks in _plain._partition_blocks(n):
        yield SetPartition(n, blocks)
