"""Set partitions of [n] and their translation to and from parenthesizations.

Blocks are kept sorted internally (each block ascending, blocks by minimum),
so equal partitions compare equal.  Text form joins brace-wrapped blocks with
pipes, e.g. ``{1,4}|{2,3,6}|{5}``.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from typing import Iterator

from .errors import ParseError, _int, _ints, _json_array
from .paren import GBsp, SpacedParen, _gbsp, _plain

__all__ = [
    "SetPartition",
    "min_max",
    "to_gbsp",
    "from_gbsp",
    "enumerate_partitions",
]


@dataclass(frozen=True)
class SetPartition:
    """Nonempty disjoint blocks covering {1, ..., n}."""

    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", _check_blocks(self.n, self.blocks))

    def block_of(self, x: int) -> tuple[int, ...]:
        for b in self.blocks:
            if x in b:
                return b
        raise ValueError(f"{x} is not in [1, {self.n}]")

    def to_text(self) -> str:
        return _blocks_text(self.blocks)

    @classmethod
    def from_text(cls, text: str) -> "SetPartition":
        return cls(*_parse_blocks(text))

    def to_json_obj(self) -> dict:
        return {"n": self.n, "blocks": [list(b) for b in self.blocks]}

    @classmethod
    def from_json_obj(cls, obj) -> "SetPartition":
        return cls(*_blocks_json(obj))

    def __str__(self) -> str:
        return self.to_text()


def _check_blocks(n, blocks) -> tuple[tuple[int, ...], ...]:
    """The check of `SetPartition`: `blocks` sorted (each block ascending, blocks
    by minimum), or the first error found.  The constructor and the CLI both
    read through it."""
    blocks = sorted(tuple(sorted(_ints(b, "a block"))) for b in blocks)
    if not all(blocks):
        raise ValueError("blocks must be nonempty")
    members = sorted(chain.from_iterable(blocks))
    # the count first, so a huge claimed n fails before [1, n] is built
    if len(members) != _int(n, "n") or members != list(range(1, n + 1)):
        raise ValueError(f"blocks do not partition [1, {n}]")
    return tuple(blocks)


def _blocks_text(blocks) -> str:
    """The text form of plain blocks, such as ``{1,4}|{2,3,6}|{5}``."""
    return "|".join("{" + ",".join(map(str, b)) + "}" for b in blocks)


def _parse_blocks(text: str) -> tuple[int, list[tuple[int, ...]]]:
    """n and the blocks of the text form; the entries are checked here, the
    partition by `_check_blocks`."""
    text = text.strip()
    if not text:
        return 0, []
    blocks = []
    for pos, chunk in enumerate(text.split("|"), start=1):
        m = re.fullmatch(r"\s*\{([0-9,\s]*)\}\s*", chunk)
        if not m:
            raise ParseError(f"bad block {chunk!r} at position {pos}", position=pos)
        body = m.group(1)
        entries = [x.strip() for x in body.split(",")] if body.strip() else []
        # the pattern admits only ASCII digits, commas and whitespace
        bad = next((x for x in entries if not x.isdigit()), None)
        if bad is not None:
            raise ParseError(f"bad entry {bad!r} in block {pos}", position=pos)
        blocks.append(tuple(map(int, entries)))
    return sum(map(len, blocks)), blocks  # a partition of [n] has n members


def _blocks_json(obj) -> tuple[object, list]:
    """n and the blocks of a partition's JSON object, checked only for shape."""
    if not isinstance(obj, dict) or not isinstance(obj.get("blocks"), (list, tuple)):
        raise ParseError(f"expected a JSON object with a blocks array, got {obj!r}")
    blocks = [_json_array(b, "a block") for b in obj["blocks"]]
    n = obj["n"] if "n" in obj else sum(map(len, blocks))  # a partition of [n] has n members
    return n, blocks


def min_max(b: SetPartition) -> SpacedParen:
    """Block minima as opening spaces, block maxima as closing spaces.

    Always balanced: at any space i, each block containing an element <= i and
    an element >= i contributes to the depth.

    >>> sp = min_max(SetPartition(6, ((1, 4), (2, 3, 6), (5,))))
    >>> (sorted(sp.F), sorted(sp.L))
    ([1, 2, 5], [4, 5, 6])
    """
    return SpacedParen(b.n, *_min_max(b.blocks))


def _min_max(blocks) -> tuple[frozenset[int], frozenset[int]]:
    return frozenset(blk[0] for blk in blocks), frozenset(blk[-1] for blk in blocks)


def to_gbsp(b: SetPartition) -> GBsp:
    """min_max(b) plus, for each non-minimum element i, the rank of its block
    among the blocks open at i (min < i <= max), ordered by minimum."""
    F, L, g = _to_gbsp(b.n, b.blocks)
    return _gbsp(SpacedParen(b.n, F, L), g)


def _to_gbsp(n: int, blocks) -> tuple[frozenset[int], frozenset[int], list[int]]:
    """(F, L, g) of the partition of [n] into sorted `blocks`, g aligned to spaces
    and 0 on F.  One sweep keeps the minima of the open blocks."""
    F, L = _min_max(blocks)
    block_min = {x: blk[0] for blk in blocks for x in blk}
    g = [0] * n
    # minima of the open blocks; ascending, since minima enter in space order,
    # so bisect ranks a block in O(log depth)
    opened: list[int] = []
    for i in range(1, n + 1):
        if i in F:
            k = len(opened)
            opened.append(i)
        else:
            k = bisect_left(opened, block_min[i])
            g[i - 1] = k + 1
        if i in L:
            del opened[k]
    return F, L, g


def from_gbsp(gb: GBsp) -> SetPartition:
    """The partition whose to_gbsp is `gb`, checked at construction."""
    return SetPartition(gb.n, _from_gbsp(*_plain(gb)))


def _from_gbsp(n: int, F, L, g) -> tuple[tuple[int, ...], ...]:
    """Rebuild the blocks in one sweep over 1..n.

    Space i opens a block when i is in F and otherwise joins the g(i)-th open
    block (by minimum); the block closes after i when i is in L.
    """
    opened: list[list[int]] = []  # open blocks, by minimum
    closed: list[list[int]] = []
    for i in range(1, n + 1):
        if i in F:
            opened.append([i])
            k = len(opened) - 1
        else:
            k = g[i - 1] - 1
            opened[k].append(i)
        if i in L:
            closed.append(opened.pop(k))
    return tuple(tuple(blk) for blk in closed)


def enumerate_partitions(n: int) -> Iterator[SetPartition]:
    """Every set partition of [n] exactly once, by restricted-growth strings."""
    for blocks in _partition_blocks(n):
        yield SetPartition(n, blocks)


def _partition_blocks(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The blocks of every set partition of [n], each block ascending and the
    blocks by minimum, as `SetPartition` keeps them; unchecked."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        yield ()
        return
    # restricted growth string in lexicographic order (Knuth, TAOCP 4A 7.2.1.5):
    # rgs[i] is the block of element i + 1, and tops[i] = max(rgs[:i + 1]) + 1
    rgs = [0] * n
    tops = [1] * n
    while True:
        blocks: list[list[int]] = [[] for _ in range(tops[-1])]
        for element, blk in enumerate(rgs, start=1):
            blocks[blk].append(element)
        yield tuple(tuple(blk) for blk in blocks)
        i = n - 1
        while i and rgs[i] == tops[i - 1]:  # element i + 1 already starts a new block
            i -= 1
        if not i:
            return
        rgs[i] += 1
        tops[i] = max(tops[i - 1], rgs[i] + 1)
        rgs[i + 1:] = [0] * (n - i - 1)
        tops[i + 1:] = [tops[i]] * (n - i - 1)
