"""The plain core: the checks, text and JSON splitters, sweeps and generators
of every format, on plain values.  It imports only `errors` and the standard
library.  Each constructor of the object modules runs its format's check here,
and each public map wraps a sweep here; the CLI's line verbs and the
object-free `verify` checks call this module directly.

The formats: words (permutations, preference tuples, inversion tables) are
integer tuples; a partial arm-leg diagram is its rows by column, 0 marking an
empty column; a parenthesization is (n, F, L) with F and L sets of spaces; g
is a list aligned to the spaces, 0 on F; a partition is n and its blocks, each
ascending and the blocks by minimum.  Every sweep returns, and every writer
takes, its format in this one form.
"""

from __future__ import annotations

import itertools
import math
import re
from bisect import bisect, bisect_left, insort
from collections import Counter, namedtuple
from collections.abc import Iterator, Mapping

from .errors import (
    _INT, GbspError, ParseError, _distinct, _int, _int_pairs, _ints, _json_array, _not_a_sequence,
    _size,
)


def _parse_int_word(text: str) -> tuple[int, ...]:
    """Comma-separated integers; a bare digit string is one value per digit (n <= 9).
    Only the ASCII digits 0-9 are read.  Entries are range-checked by the
    constructor that takes them."""
    text = text.strip()
    if not text:
        return ()
    # str.isdigit and int() also take other scripts' digits, such as "١" and "²":
    # the line is tested once, and each token only when the line is not ASCII
    ascii_line = text.isascii()
    if "," not in text and ascii_line and text.isdigit() and len(text) > 1:
        return tuple(int(ch) for ch in text)
    values = []
    for pos, token in enumerate(text.split(","), start=1):
        token = token.strip()
        if (not token or not (token.isdigit() or (token[0] == "-" and token[1:].isdigit()))
                or not (ascii_line or token.isascii())):
            raise ParseError(f"bad integer {token!r} at position {pos}", position=pos)
        values.append(int(token))
    return tuple(values)


def _check_word(word) -> tuple[int, ...]:
    """The check of `Permutation`: `word` as a tuple, or the first error found.
    The constructor and the CLI both read through it."""
    word = _ints(word, "a permutation")
    if sorted(word) != list(range(1, len(word) + 1)):
        raise ParseError(f"not a permutation of [{len(word)}]: {word!r}")
    return word


def _check_prefs(prefs) -> tuple[int, ...]:
    """The check of `PrefTuple`: `prefs` as a tuple, each in [1, n], or the first error found."""
    prefs = _ints(prefs, "a preference tuple")
    n = len(prefs)
    for i, a in enumerate(prefs, start=1):
        if not 1 <= a <= n:
            raise ValueError(f"preference {i} is {a}, outside [1, {n}]")
    return prefs


def _check_table(entries) -> tuple[int, ...]:
    """The check of `InversionTable`: `entries` as a tuple, entry i in [0, n - i],
    or the first error found."""
    entries = _ints(entries, "an inversion table")
    n = len(entries)
    for i, e in enumerate(entries, start=1):
        if not 0 <= e <= n - i:
            raise ValueError(f"table entry {i} is {e}, outside [0, {n - i}]")
    return entries


def _inversion_table(word: tuple[int, ...]) -> tuple[int, ...]:
    """Count, for each value i of the permutation `word`, the larger values standing to its left."""
    seen: list[int] = []  # the values to the left, sorted
    entries = [0] * len(word)
    for value in word:
        entries[value - 1] = len(seen) - bisect(seen, value)
        insort(seen, value)
    return tuple(entries)


def _from_inversion_table(entries: tuple[int, ...]) -> tuple[int, ...]:
    """The permutation whose inversion table is `entries`.  Values are inserted
    largest first; everything already placed is larger, so value i goes at
    0-based index entries[i]."""
    word: list[int] = []
    for value in range(len(entries), 0, -1):
        word.insert(entries[value - 1], value)
    return tuple(word)


def _park(prefs: tuple[int, ...]) -> tuple[int, ...] | int:
    """The outcome word of the preferences `prefs`, each in [1, n], or the first
    car that drives past spot n.  A next-free pointer with path halving finds
    each car's spot (Knuth, TAOCP Vol. 3 §6.4; Tarjan 1975): a car crosses a run
    of taken spots without visiting each one, so a pass costs O(n log n) at worst."""
    n = len(prefs)
    spots = [0] * (n + 1)  # 1-based; spots[s] = car number or 0
    nxt = list(range(n + 2))  # nxt[s] == s iff spot s is free; n + 1 is past the street
    for car, pref in enumerate(prefs, start=1):
        s = pref
        while nxt[s] != s:
            nxt[s] = s = nxt[nxt[s]]  # path halving: point s at its grandparent, step there
        if s > n:
            return car
        spots[s] = car
        nxt[s] = s + 1
    return tuple(spots[1:])


def _is_parking_function(prefs: tuple[int, ...]) -> bool:
    """`is_parking_function` on plain preferences."""
    return all(v <= i for i, v in enumerate(sorted(prefs), start=1))


def _is_lehmer(prefs: tuple[int, ...]) -> bool:
    """`is_lehmer` on plain preferences."""
    n = len(prefs)
    return all(v <= n - i + 1 for i, v in enumerate(prefs, start=1))


def _is_weakly_decreasing(prefs: tuple[int, ...]) -> bool:
    return all(x >= y for x, y in zip(prefs, prefs[1:]))


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


GridPoint = namedtuple("GridPoint", ["col", "row"])  # a cell (col, row) of the diagram grid


def _check_diagram(n, points) -> tuple[frozenset, tuple[int, ...]]:
    """The check of `PartialArmLegDiagram`: the set of the points (col, row), each at or
    above the antidiagonal of the n-by-n grid and no two in one row or column, and their
    rows by column, or the first error found.  The constructor and the CLI read through it."""
    pts = _distinct(list(map(GridPoint._make, _int_pairs(points, "points"))), "points")
    _size(n)
    for c, r in pts:
        if not (1 <= c <= n and 1 <= r <= n):
            raise ValueError(f"point ({c},{r}) outside the [{n}] grid")
        if r < n - c + 1:
            raise ValueError(f"point ({c},{r}) lies below the antidiagonal")
    rows = dict(pts)
    if len(rows) < len(pts) or len(set(rows.values())) < len(rows):
        raise ValueError("two points share a row or column")
    return pts, tuple(rows.get(c, 0) for c in range(1, n + 1))


def _diagram_json(obj) -> tuple:
    """n and the points of a diagram's JSON object, checked only for shape."""
    try:
        n, pts = obj["n"], _json_array(obj["points"], "points")
    except (KeyError, TypeError) as exc:
        raise ParseError(f"expected keys n, points in {obj!r}") from exc
    return n, [_json_array(p, "a point") for p in pts]


def _peaks(word: tuple[int, ...]) -> tuple[int, ...]:
    """The diagram of the permutation `word`: its entries at or above the antidiagonal."""
    n = len(word)
    return tuple(v if v >= n - c + 1 else 0 for c, v in enumerate(word, start=1))


def _arms_legs(rows) -> tuple[frozenset[int], frozenset[int]]:
    """Arm starts {n - row + 1} as openings F, leg ends {col} as closings L."""
    n = len(rows)
    F = frozenset(n - r + 1 for r in rows if r)
    return F, frozenset(c for c, r in enumerate(rows, start=1) if r)


def _depth_at(rows, i: int) -> int:
    """Number of points in the box cols >= i, rows >= n - i + 1."""
    lo = len(rows) - i + 1
    return sum(1 for r in rows[i - 1:] if r >= lo)


def _pairs_diagram(n: int, pairs) -> tuple[int, ...]:
    """The diagram on n spaces of the pairs (f, l): the point in column l, row n - f + 1."""
    rows = [0] * n
    for f, l in pairs:
        rows[l - 1] = n - f + 1
    return tuple(rows)


def _matching_pairs(n: int, F, L) -> tuple[tuple[int, int], ...]:
    """The pairs (f, l) of the balanced (n, F, L), matched by a stack scan."""
    stack: list[int] = []
    out: list[tuple[int, int]] = []
    for i in range(1, n + 1):
        if i in F:
            stack.append(i)
        if i in L:
            out.append((stack.pop(), i))
    return tuple(out)


def _certify(word: tuple[int, ...]) -> tuple[int, ...]:
    """The check of `OutcomePermutation`: the permutation `word` if it avoids the
    arm-leg pattern.  The constructor and the CLI both certify through it."""
    if _contains_armleg(word):
        raise ValueError(
            f"{','.join(map(str, word))} contains the arm-leg pattern and is not "
            "the outcome of any staircase preference tuple"
        )
    return word


def _as_outcome(word) -> tuple[int, ...]:
    """The checks of `Permutation` and `OutcomePermutation`, on a plain word."""
    return _certify(_check_word(word))


def _check_paren(n, F, L) -> tuple[int, frozenset[int], frozenset[int]]:
    """The check of `SpacedParen`: (n, F, L), F and L as sets, or the first
    error found.  The constructor and the CLI both read through it."""
    F = _distinct(_ints(F, "F"), "F")
    L = _distinct(_ints(L, "L"), "L")
    _size(n)
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


def _paren_obj(n: int, F, L) -> dict:
    """The JSON object of the parenthesization (n, F, L)."""
    return {"n": n, "F": sorted(F), "L": sorted(L)}


def _iter_depths(n: int, F, L) -> Iterator[int]:
    d = 0
    for i in range(1, n + 1):
        if i in F:
            d += 1
        yield d
        if i in L:
            d -= 1


def _is_balanced(n: int, F, L) -> bool:
    """`is_balanced` on plain (n, F, L), F and L as sets: every depth of the
    `_iter_depths` sweep is positive; the sweep stops at the first that is not."""
    return all(d > 0 for d in _iter_depths(n, F, L))


def _check_g(n: int, F, L, g) -> list[int]:
    """The check of `GBsp`: g, a mapping or (space, value) pairs, on the checked
    base (n, F, L), as a list aligned to spaces and 0 on F, or the first error
    found: a bad pair, a repeated, missing or extra space, an unbalanced base
    (`_is_balanced`), then the first g outside [1, depth] (`_iter_depths`).
    The constructor and the CLI both read through it."""
    pairs = _int_pairs(g.items() if isinstance(g, Mapping) else g, "g")
    g = dict(pairs)
    if len(g) < len(pairs):
        spaces = sorted(i for i, _ in pairs)
        dup = next(i for i, j in zip(spaces, spaces[1:]) if i == j)
        raise GbspError(f"duplicate g entry for space {dup}", code="g-extra", space=dup)
    # g is matched with F before the depth sweeps, so a huge claimed n fails
    # fast: the scan for a missing space stops within |F| + |g| + 1 spaces
    extra = [i for i in g if not 1 <= i <= n or i in F]
    if extra or len(g) != n - len(F):
        missing = next((i for i in range(1, n + 1) if i not in F and i not in g), None)
        if missing is not None:
            raise GbspError(f"missing g entry for space {missing}", code="g-missing", space=missing)
        extra = min(extra)
        raise GbspError(f"unexpected g entry for space {extra}", code="g-extra", space=extra)
    if not _is_balanced(n, F, L):
        raise GbspError("base parenthesization is not balanced", code="unbalanced-base")
    values = [0] * n
    for i, d in enumerate(_iter_depths(n, F, L), start=1):
        if i not in F:
            v = values[i - 1] = g[i]
            if not 1 <= v <= d:
                raise GbspError(f"g({i}) = {v} outside [1, {d}]", code="g-out-of-range", space=i)
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


def _gbsp_obj(n: int, F, L, g) -> dict:
    """The JSON object of the g-parenthesization (n, F, L, g), g aligned to spaces;
    unchecked, so the CLI can write a plain sweep's output."""
    g = {str(i): v for i, v in enumerate(g, start=1) if v}  # g is 0 exactly on F
    return {"n": n, "F": sorted(F), "L": sorted(L), "g": g}


_TOKEN_RE = re.compile(r"(\()?(_|[0-9]+)(\))?")  # whole tokens, ASCII digits only


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
        m = _TOKEN_RE.fullmatch(token)
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


def _paren_text(n: int, F, L, g=None) -> str:
    """The string grammar of (n, F, L) and g, `_parse`'s inverse; g is aligned to
    spaces and 0 on F, or None, which leaves every slot `_`."""
    return " ".join(
        ("(" if i in F else "") + (str(g[i - 1]) if g and g[i - 1] else "_") + (")" if i in L else "")
        for i in range(1, n + 1)
    )


def _bsps(n: int) -> Iterator[tuple[frozenset[int], frozenset[int]]]:
    """(F, L) of every balanced spaced parenthesization on n spaces, exactly once."""
    _size(n)
    # an explicit stack: choice[i] = 2 * opens + closes at space i, tried from
    # 0 to 3, and before[i] = parens still open before space i
    choice = [-1] * (n + 2)
    before = [0] * (n + 2)
    F: list[int] = []
    L: list[int] = []
    i = 1
    while i:
        if i > n:  # the bound below leaves no paren open after space n
            yield frozenset(F), frozenset(L)
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


def _g_fillings(n: int, F, L) -> Iterator[list[int]]:
    """Every g on the balanced (n, F, L), g(i) in [1, depth(i)] for each space i
    outside F, as a list aligned to spaces and 0 on F, in lexicographic order of g."""
    free = [i for i in range(n) if i + 1 not in F]  # 0-based indices of spaces outside F
    ds = tuple(_iter_depths(n, F, L))
    for combo in itertools.product(*(range(1, ds[i] + 1) for i in free)):
        g = [0] * n
        for i, v in zip(free, combo):
            g[i] = v
        yield g


def _gbsps(n: int) -> Iterator[tuple[frozenset[int], frozenset[int], list[int]]]:
    """(F, L, g) of every g-parenthesization on n spaces, in the order of
    `enumerate_gbsps`, g aligned to spaces and 0 on F; unchecked."""
    return ((F, L, g) for F, L in _bsps(n) for g in _g_fillings(n, F, L))


def _fiber_base(n: int, F, L) -> tuple[int, frozenset[int], frozenset[int]]:
    """(n, F, L) if it is balanced, the only bases that fibers are defined on."""
    if not _is_balanced(n, F, L):
        raise ValueError("fibers are defined only for balanced parenthesizations")
    return n, F, L


def _fiber_size(n: int, F, L) -> int:
    """The number of g on the balanced (n, F, L): the product of the depths over
    spaces outside F, one power per distinct depth."""
    depths = Counter(d for i, d in enumerate(_iter_depths(n, F, L), start=1) if i not in F)
    return math.prod(d**k for d, k in depths.items())


def _fiber_words(n: int, F, L) -> Iterator[tuple[int, ...]]:
    """The uncertified word of each g on the balanced (n, F, L), in lexicographic order of g."""
    return (_phi_prime_inv(n, F, L, g) for g in _g_fillings(n, F, L))


def _check_blocks(n, blocks) -> tuple[tuple[int, ...], ...]:
    """The check of `SetPartition`: `blocks` sorted (each block ascending, blocks
    by minimum), or the first error found.  The constructor and the CLI both
    read through it.  One type test covers every member; `_ints` runs per block
    only to word the first error."""
    try:
        blocks = list(blocks)
    except TypeError:
        raise _not_a_sequence(blocks, "blocks") from None
    try:
        blocks = list(map(tuple, blocks))
        members = list(itertools.chain.from_iterable(blocks))
        typed = set(map(type, members)) <= _INT
    except TypeError:  # a block that is no sequence
        typed = False
    if not typed:  # some block fails `_ints`, which words the first error
        for b in blocks:
            _ints(b, "a block")
    blocks = sorted(map(tuple, map(sorted, blocks)))
    if not all(blocks):
        raise ValueError("blocks must be nonempty")
    members.sort()
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


def _blocks_obj(blocks) -> dict:
    """The JSON object of a partition's sorted blocks."""
    return {"blocks": [list(blk) for blk in blocks]}


def _min_max(blocks) -> tuple[frozenset[int], frozenset[int]]:
    return frozenset(blk[0] for blk in blocks), frozenset(blk[-1] for blk in blocks)


def _partition_blocks(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The blocks of every set partition of [n], each block ascending and the
    blocks by minimum, as `SetPartition` keeps them; unchecked."""
    _size(n)
    # depth first from the blocks of [k - 1]: k joins block j for each j in turn, then
    # starts a block of its own, which lists the restricted growth strings (Knuth,
    # TAOCP 4A 7.2.1.5) in lexicographic order; children go on the stack last first
    stack = [((), 1)]
    while stack:
        blocks, k = stack.pop()
        if k > n:
            yield blocks
            continue
        stack.append((blocks + ((k,),), k + 1))
        for j in range(len(blocks) - 1, -1, -1):
            stack.append((blocks[:j] + (blocks[j] + (k,),) + blocks[j + 1:], k + 1))


def _phi_prime(word: tuple[int, ...]) -> tuple[frozenset[int], frozenset[int], list[int]]:
    """(F, L, g) of the outcome `word`, g aligned to spaces and 0 on F.  The entry v
    in column c is a peak iff v >= n - c + 1, which puts n - v + 1 in F and c in L."""
    n = len(word)
    L = frozenset(c for c, v in enumerate(word, start=1) if v >= n - c + 1)
    F = frozenset(n - word[c - 1] + 1 for c in L)
    col_of_row = {v: c for c, v in enumerate(word, start=1)}
    g = [0] * n
    # columns j < i holding neither a peak nor a higher row; ascending, since
    # columns enter in space order, so bisect ranks a column in O(log depth)
    empty: list[int] = []
    depth = 0
    for i in range(1, n + 1):
        if i in F:
            depth += 1
        else:
            assert len(empty) == depth, "empty-column count equals the depth"
            k = bisect_left(empty, col_of_row[n - i + 1])
            g[i - 1] = k + 1
            del empty[k]
        if i in L:
            depth -= 1
        else:
            empty.append(i)
    return F, L, g


def _phi_prime_inv(n: int, F, L, g) -> tuple[int, ...]:
    """Rebuild the outcome word in one sweep.  Parens are matched on a stack, and
    the pair (f, l) puts the peak of row n - f + 1 in column l; each space i
    outside F puts row n - i + 1 in the g(i)-th column still empty."""
    word = [0] * (n + 1)
    opened: list[int] = []  # spaces in F whose paren is still open
    empty: list[int] = []  # columns j < i holding neither a peak nor a higher row
    for i in range(1, n + 1):
        if i in F:
            opened.append(i)
        else:
            assert len(empty) == len(opened), "empty-column count equals the depth"
            word[empty.pop(g[i - 1] - 1)] = n - i + 1
        if i in L:
            word[i] = n - opened.pop() + 1
        else:
            empty.append(i)
    return tuple(word[1:])


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


def _from_gbsp(n: int, F, L, g) -> tuple[tuple[int, ...], ...]:
    """Rebuild the blocks in one sweep over 1..n, each listed when it opens, so by minimum.

    Space i opens a block when i is in F and otherwise joins the g(i)-th open
    block (by minimum); the block closes after i when i is in L.
    """
    blocks: list[list[int]] = []
    opened: list[list[int]] = []  # open blocks, by minimum
    for i in range(1, n + 1):
        if i in F:
            k = len(opened)
            opened.append([i])
            blocks.append(opened[k])
        else:
            k = g[i - 1] - 1
            opened[k].append(i)
        if i in L:
            del opened[k]
    return tuple(map(tuple, blocks))
