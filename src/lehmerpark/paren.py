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
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Iterator, Mapping
from dataclasses import dataclass

from .errors import GbspError, ParseError, _distinct, _int, _int_pairs, _ints, _json_array
from .permutation import _armleg_crossing

__all__ = [
    "SpacedParen",
    "MatchedPairs",
    "GBsp",
    "depth",
    "depths",
    "is_balanced",
    "matching_pairs",
    "render",
    "parse",
    "enumerate_bsps",
    "enumerate_gbsps",
]


@dataclass(frozen=True)
class SpacedParen:
    """Opening spaces F and closing spaces L; not necessarily balanced."""

    n: int
    F: frozenset[int]
    L: frozenset[int]

    def __post_init__(self) -> None:
        _, F, L = _check_paren(self.n, self.F, self.L)
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "L", L)

    def to_json_obj(self) -> dict:
        return {"n": self.n, "F": sorted(self.F), "L": sorted(self.L)}

    @classmethod
    def from_json_obj(cls, obj) -> "SpacedParen":
        return cls(*_paren_json(obj))

    def __str__(self) -> str:
        return render(self)


def _check_paren(n, F, L) -> tuple[int, frozenset[int], frozenset[int]]:
    """The check of `SpacedParen`: (n, F, L), F and L as sets, or the first
    error found.  The constructor and the CLI both read through it."""
    F = _distinct(_ints(F, "F"), "F")
    L = _distinct(_ints(L, "L"), "L")
    if _int(n, "n") < 0:
        raise ValueError("n must be nonnegative")
    for name, members in (("F", F), ("L", L)):
        if members and (min(members) < 1 or max(members) > n):
            bad = sorted(i for i in members if not 1 <= i <= n)
            raise ValueError(f"{name} contains spaces outside [1, {n}]: {bad}")
    if len(F) != len(L):
        raise ValueError(f"|F| = {len(F)} differs from |L| = {len(L)}")
    return n, F, L


def _paren_json(obj) -> tuple:
    """n, F and L of a parenthesization's JSON object, checked only for shape."""
    try:
        n, F, L = obj["n"], obj["F"], obj["L"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"expected keys n, F, L in {obj!r}") from exc
    return n, _json_array(F, "F"), _json_array(L, "L")


def depth(sp: SpacedParen, i: int) -> int:
    """Opening parens at or before space i minus closing parens strictly before it.

    Defined for unbalanced input too (it may then be nonpositive).
    """
    if not 1 <= i <= sp.n:
        raise ValueError(f"space {i} out of range [1, {sp.n}]")
    return next(itertools.islice(_iter_depths(sp.n, sp.F, sp.L), i - 1, None))  # stops at space i


def depths(sp: SpacedParen) -> tuple[int, ...]:
    """Depth at every space, in one left-to-right sweep.

    >>> depths(SpacedParen(7, frozenset({1, 3, 5}), frozenset({5, 6, 7})))
    (1, 1, 2, 2, 3, 2, 1)
    """
    return tuple(_iter_depths(sp.n, sp.F, sp.L))


def _iter_depths(n: int, F, L) -> Iterator[int]:
    d = 0
    for i in range(1, n + 1):
        if i in F:
            d += 1
        yield d
        if i in L:
            d -= 1


def is_balanced(sp: SpacedParen) -> bool:
    """True iff every space has positive depth (forces 1 in F and n in L).

    Stops at the first nonpositive depth, so an unbalanced huge n costs nothing.
    """
    return _is_balanced(sp.n, sp.F, sp.L)


def _is_balanced(n: int, F, L) -> bool:
    """`is_balanced` on plain (n, F, L), F and L as sets: the `_iter_depths`
    sweep as a loop, which `verify` runs once per partition."""
    d = 0
    for i in range(1, n + 1):
        if i in F:
            d += 1
        if d < 1:
            return False
        if i in L:
            d -= 1
    return True


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
        word = [0] * n  # pair (f, l) is the point in column l, row n - f + 1
        for f, l in pairs:
            word[l - 1] = n - f + 1
        crossing = _armleg_crossing(word)
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
    stack: list[int] = []
    out: list[tuple[int, int]] = []
    for i in range(1, sp.n + 1):
        if i in sp.F:
            stack.append(i)
        if i in sp.L:
            out.append((stack.pop(), i))
    return MatchedPairs(tuple(out))


@dataclass(frozen=True)
class GBsp:
    """A balanced parenthesization plus g(i) in [1, depth(i)] for each space i not in F.

    `g` may be given as a mapping or as (space, value) pairs; it is stored as a
    sorted tuple of pairs so instances hash.
    """

    base: SpacedParen
    g: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        base = self.base
        g = _check_g(base.n, base.F, base.L, self.g)
        object.__setattr__(self, "g", tuple(_g_pairs(base.F, g)))

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def g_map(self) -> dict[int, int]:
        return dict(self.g)

    def to_json_obj(self) -> dict:
        return _gbsp_obj(self.n, self.base.F, self.base.L, self.g)

    @classmethod
    def from_json_obj(cls, obj) -> "GBsp":
        return cls(SpacedParen.from_json_obj(obj), _g_json(obj))

    def __str__(self) -> str:
        return render(self)


def _check_g(n: int, F, L, g) -> list[int]:
    """The check of `GBsp`: g, a mapping or (space, value) pairs, on the checked
    base (n, F, L), as a list aligned to spaces and 0 on F, or the first error
    found.  The constructor and the CLI both read through it."""
    pairs = _int_pairs(g.items() if isinstance(g, Mapping) else g, "g")
    g = dict(pairs)
    if len(g) < len(pairs):
        spaces = sorted(i for i, _ in pairs)
        dup = next(i for i, j in zip(spaces, spaces[1:]) if i == j)
        raise GbspError(f"duplicate g entry for space {dup}", code="g-extra", space=dup)
    # g is matched with F before the depth sweep, so a huge claimed n fails
    # fast: the scan for a missing space stops within |F| + |g| + 1 spaces
    extra = [i for i in g if not 1 <= i <= n or i in F]
    if extra or len(g) != n - len(F):
        missing = next((i for i in range(1, n + 1) if i not in F and i not in g), None)
        if missing is not None:
            raise GbspError(f"missing g entry for space {missing}", code="g-missing", space=missing)
        extra = min(extra)
        raise GbspError(f"unexpected g entry for space {extra}", code="g-extra", space=extra)
    # one depth sweep: balance fails at once, while the first g out of range
    # is kept and reported only once the whole base is known to be balanced.
    # The depth is at least 1 on F and drops by at most 1 per space, so it can
    # reach 0 only outside F, where no g value fits in [1, 0].
    values = [0] * n
    out_of_range = None
    d = 0
    for i in range(1, n + 1):
        if i in F:
            d += 1
        else:
            v = values[i - 1] = g[i]
            if not 1 <= v <= d:
                if d < 1:
                    raise GbspError("base parenthesization is not balanced", code="unbalanced-base")
                if out_of_range is None:
                    out_of_range = i, d
        if i in L:
            d -= 1
    if out_of_range is not None:
        i, d = out_of_range
        raise GbspError(f"g({i}) = {g[i]} outside [1, {d}]", code="g-out-of-range", space=i)
    return values


def _g_json(obj) -> dict:
    """g of a g-parenthesization's JSON object, keyed by space; {} when absent.
    Its values are left to `_check_g`."""
    g = obj.get("g", {})
    keys = list(map(str, g)) if isinstance(g, dict) else None
    if keys is None or not (all(map(str.isdigit, keys)) and "".join(keys).isascii()):
        raise ParseError(f"expected g as a JSON object keyed by space, got {g!r}")
    spaces = list(map(int, keys))
    _distinct(spaces, "the keys of g")  # "3" and "03" name one space
    return dict(zip(spaces, g.values()))


def _gbsp(base: SpacedParen, g) -> GBsp:
    """The checked GBsp of `base` and g, g aligned to spaces and 0 on F."""
    return GBsp(base, _g_pairs(base.F, g))


def _g_pairs(F, g) -> list[tuple[int, int]]:
    """The (space, value) pairs of g aligned to spaces, in space order, F left out."""
    return [(i, v) for i, v in enumerate(g, start=1) if i not in F]


def _gbsp_obj(n: int, F, L, g_pairs) -> dict:
    """The JSON object of the g-parenthesization (n, F, L, g), g as (space, value)
    pairs in space order; unchecked, so the CLI can write a plain sweep's output."""
    return {"n": n, "F": sorted(F), "L": sorted(L), "g": {str(i): v for i, v in g_pairs}}


def _plain(gb: GBsp) -> tuple[int, frozenset[int], frozenset[int], list[int]]:
    """(n, F, L, g) of `gb`, g aligned to spaces and 0 on F."""
    g = [0] * gb.n
    for i, v in gb.g:
        g[i - 1] = v
    return gb.n, gb.base.F, gb.base.L, g


_TOKEN_RE = re.compile(r"^(\()?(_|\d+)(\))?$")


def render(x: SpacedParen | GBsp) -> str:
    """One token per space, separated by single spaces: `(` is glued before the
    slot for spaces in F and `)` after it for spaces in L.  Slots show `_` for
    spaces in F (and everywhere on a plain SpacedParen), else the g value.

    >>> render(SpacedParen(7, frozenset({1, 3, 5}), frozenset({5, 6, 7})))
    '(_ _ (_ _ (_) _) _)'
    """
    base = x.base if isinstance(x, GBsp) else x
    g = x.g_map if isinstance(x, GBsp) else {}
    tokens = []
    for i in range(1, base.n + 1):
        slot = str(g[i]) if i in g else "_"
        tokens.append(("(" if i in base.F else "") + slot + (")" if i in base.L else ""))
    return " ".join(tokens)


def parse(s: str) -> SpacedParen | GBsp:
    """Inverse of render.  Returns a GBsp when any digit slot appears, else a
    SpacedParen; reports the first offending token by 1-based position.

    A fully parenthesized GBsp (F = [n]) has no digit slots, so its rendering
    parses back to the bare SpacedParen.
    """
    n, F, L, g = _parse(s)
    base = SpacedParen(n, F, L)
    return GBsp(base, g) if g else base


def _parse(s: str) -> tuple[int, set[int], set[int], dict[int, int]]:
    """(n, F, L, g) of the string grammar, g keyed by space; the tokens are
    checked here, the values by `_check_paren` and `_check_g`."""
    s = s.strip()
    if not s:
        return 0, set(), set(), {}
    tokens = s.split(" ")
    F: set[int] = set()
    L: set[int] = set()
    g: dict[int, int] = {}
    for pos, token in enumerate(tokens, start=1):
        m = _TOKEN_RE.match(token)
        if not m:
            raise ParseError(f"bad token {token!r} at space {pos}", position=pos)
        opened, slot, closed = m.groups()
        if opened:
            F.add(pos)
        if closed:
            L.add(pos)
        if slot != "_":
            if opened:
                raise ParseError(
                    f"space {pos} opens a paren and cannot carry a g value", position=pos
                )
            g[pos] = int(slot)
    return len(tokens), F, L, g


def enumerate_bsps(n: int) -> Iterator[SpacedParen]:
    """Every balanced spaced parenthesization on n spaces, exactly once."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    # an explicit stack: choice[i] = 2 * opens + closes at space i, tried from
    # 0 to 3, and before[i] = parens still open before space i
    choice = [-1] * (n + 2)
    before = [0] * (n + 2)
    F: list[int] = []
    L: list[int] = []
    i = 1
    while i:
        if i > n:  # the bound below leaves no paren open after space n
            yield SpacedParen(n, frozenset(F), frozenset(L))
            i -= 1
            continue
        if F and F[-1] == i:  # undo the previous choice at space i
            F.pop()
        if L and L[-1] == i:
            L.pop()
        choice[i] += 1
        if choice[i] == 4:
            choice[i] = -1
            i -= 1
            continue
        opens, closes = divmod(choice[i], 2)
        d = before[i] + opens
        if d < 1 or d - closes > n - i:  # depth must be positive; the rest must close in time
            continue
        if opens:
            F.append(i)
        if closes:
            L.append(i)
        before[i + 1] = d - closes
        i += 1


def _g_fillings(sp: SpacedParen) -> Iterator[list[int]]:
    """Every g on the balanced `sp`, g(i) in [1, depth(i)] for each space i
    outside F, as a list aligned to spaces and 0 on F, in lexicographic order of g."""
    free = [i for i in range(sp.n) if i + 1 not in sp.F]  # 0-based indices of spaces outside F
    ds = depths(sp)
    for combo in itertools.product(*(range(1, ds[i] + 1) for i in free)):
        g = [0] * sp.n
        for i, v in zip(free, combo):
            g[i] = v
        yield g


def enumerate_gbsps(n: int) -> Iterator[GBsp]:
    """Every g-augmented balanced parenthesization on n spaces; Bell-many in total."""
    for sp, g in _plain_gbsps(n):
        yield _gbsp(sp, g)


def _plain_gbsps(n: int) -> Iterator[tuple[SpacedParen, list[int]]]:
    """The base and g of every g-parenthesization on n spaces, in the order of
    `enumerate_gbsps`, g aligned to spaces and 0 on F; unchecked."""
    return ((sp, g) for sp in enumerate_bsps(n) for g in _g_fillings(sp))
