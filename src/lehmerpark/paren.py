"""Spaced parenthesizations: n labeled spaces with opening and closing parens.

A pair (F, L) of equal-size subsets of [n] puts an opening paren immediately
before each space in F and a closing paren immediately after each space in L.
The depth of space i is the number of opening parens at or before i minus the
number of closing parens strictly before i; the parenthesization is balanced
when every depth is at least 1.

A balanced pair can be augmented with a choice function g assigning to each
space i outside F a value in [1, depth(i)].  The string form writes one token
per space: `_` for spaces in F, the g value otherwise, with `(` and `)` glued
on, e.g. ``(_ (_ 2 1) (_) 1)``.

The checks, the depth sweep, the matching of pairs, the string grammar and
the generators run on plain (n, F, L) and g in `_plain`; this module wraps
them in the checked `SpacedParen`, `MatchedPairs` and `GBsp`.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass

from . import _EXPORTS, _plain
from .errors import _index, _int_pairs

__all__ = _EXPORTS["paren"]


@dataclass(frozen=True)
class SpacedParen:
    """Opening spaces F and closing spaces L; not necessarily balanced."""

    n: int
    F: frozenset[int]
    L: frozenset[int]

    def __post_init__(self) -> None:
        _, F, L = _plain._check_paren(self.n, self.F, self.L)
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "L", L)

    def to_json_obj(self) -> dict:
        return _plain._paren_obj(self.n, self.F, self.L)

    @classmethod
    def from_json_obj(cls, obj) -> "SpacedParen":
        return cls(*_plain._paren_json(obj))

    def __str__(self) -> str:
        return render(self)


def depth(sp: SpacedParen, i: int) -> int:
    """Opening parens at or before space i minus closing parens strictly before it.

    Defined for unbalanced input too (it may then be nonpositive).
    """
    sweep = _plain._iter_depths(sp.n, sp.F, sp.L)
    return next(itertools.islice(sweep, _index(i, sp.n, "space") - 1, None))  # stops at space i


def depths(sp: SpacedParen) -> tuple[int, ...]:
    """Depth at every space, in one left-to-right sweep.

    >>> depths(SpacedParen(7, frozenset({1, 3, 5}), frozenset({5, 6, 7})))
    (1, 1, 2, 2, 3, 2, 1)
    """
    return tuple(_plain._iter_depths(sp.n, sp.F, sp.L))


def is_balanced(sp: SpacedParen) -> bool:
    """True iff every space has positive depth (forces 1 in F and n in L).

    Stops at the first nonpositive depth, so an unbalanced huge n costs nothing.
    """
    return _plain._is_balanced(sp.n, sp.F, sp.L)


@dataclass(frozen=True)
class MatchedPairs:
    """Pairs (f, l) of spaces with 1 <= f <= l, distinct openings and closings,
    and no crossing f_i < f_j <= l_i < l_j; stored sorted by opening space."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        pairs = tuple(sorted(_int_pairs(self.pairs, "pairs")))
        object.__setattr__(self, "pairs", pairs)
        openings = [f for f, _ in pairs]
        closings = [l for _, l in pairs]
        if len(set(openings)) != len(openings) or len(set(closings)) != len(closings):
            raise ValueError("duplicate opening or closing space")
        for f, l in pairs:
            if f < 1:
                raise ValueError(f"pair ({f},{l}) opens before space 1")
            if f > l:
                raise ValueError(f"pair ({f},{l}) closes before it opens")
        n = max(closings, default=0)
        word = _plain._pairs_diagram(n, pairs)
        crossing = _plain._armleg_crossing(word)
        if crossing:
            (fa, la), (fb, lb) = ((n - word[c - 1] + 1, c) for c in crossing)
            raise ValueError(f"pairs ({fa},{la}) and ({fb},{lb}) cross")

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)


def matching_pairs(sp: SpacedParen) -> MatchedPairs:
    """Match parens by a stack scan: `(` before space f pushes, `)` after space l pops.

    >>> matching_pairs(SpacedParen(7, frozenset({1, 3, 5}), frozenset({5, 6, 7}))).pairs
    ((1, 7), (3, 6), (5, 5))
    """
    if not is_balanced(sp):
        raise ValueError("matching pairs are defined only for balanced parenthesizations")
    return MatchedPairs(_plain._matching_pairs(sp.n, sp.F, sp.L))


@dataclass(frozen=True)
class GBsp:
    """A balanced parenthesization plus g(i) in [1, depth(i)] for each space i not in F.

    `g` may be given as a mapping or as (space, value) pairs; it is stored as a
    sorted tuple of pairs so instances hash, and `_g` keeps it aligned to spaces.
    """

    base: SpacedParen
    g: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        base = self.base
        g = _plain._check_g(base.n, base.F, base.L, self.g)
        object.__setattr__(self, "_g", g)
        object.__setattr__(self, "g", _g_pairs(base.F, g))

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def g_map(self) -> dict[int, int]:
        return dict(self.g)

    def to_json_obj(self) -> dict:
        return _plain._gbsp_obj(*_gbsp_values(self))

    @classmethod
    def from_json_obj(cls, obj) -> "GBsp":
        return cls(SpacedParen.from_json_obj(obj), _plain._g_json(obj))

    def __str__(self) -> str:
        return render(self)


def _g_pairs(F, g) -> tuple[tuple[int, int], ...]:
    """The (space, value) pairs of g aligned to spaces, in space order, F left out."""
    return tuple((i, v) for i, v in enumerate(g, start=1) if i not in F)


def _gbsp(n: int, F, L, g) -> GBsp:
    """The checked GBsp of the plain (n, F, L, g), g aligned to spaces and 0 on F."""
    return GBsp(SpacedParen(n, F, L), _g_pairs(F, g))


def _gbsp_values(gb: GBsp) -> tuple[int, frozenset[int], frozenset[int], list[int]]:
    """(n, F, L, g) of `gb`, g aligned to spaces and 0 on F."""
    return gb.n, gb.base.F, gb.base.L, gb._g


def render(x: SpacedParen | GBsp) -> str:
    """One token per space, separated by single spaces: `(` is glued before the
    slot for spaces in F and `)` after it for spaces in L.  Slots show `_` for
    spaces in F (and everywhere on a plain SpacedParen), else the g value.

    >>> render(SpacedParen(7, frozenset({1, 3, 5}), frozenset({5, 6, 7})))
    '(_ _ (_ _ (_) _) _)'
    """
    if isinstance(x, GBsp):
        return _plain._paren_text(*_gbsp_values(x))
    return _plain._paren_text(x.n, x.F, x.L)


def parse(s: str) -> SpacedParen | GBsp:
    """Inverse of render.  Returns a GBsp when any digit slot appears, else a
    SpacedParen; reports the first offending token by 1-based position.

    A fully parenthesized GBsp (F = [n]) has no digit slots, so its rendering
    parses back to the bare SpacedParen.
    """
    n, F, L, g = _plain._parse(s)
    base = SpacedParen(n, F, L)
    return GBsp(base, g) if g else base


def enumerate_bsps(n: int) -> Iterator[SpacedParen]:
    """Every balanced spaced parenthesization on n spaces, exactly once."""
    return (SpacedParen(n, F, L) for F, L in _plain._bsps(n))


def enumerate_gbsps(n: int) -> Iterator[GBsp]:
    """Every g-augmented balanced parenthesization on n spaces; Bell-many in total."""
    for F, L in _plain._bsps(n):
        base = SpacedParen(n, F, L)  # checked once, for all its fillings
        for g in _plain._g_fillings(n, F, L):
            yield GBsp(base, _g_pairs(F, g))
