"""Reference implementations and seeded input generators for the benchmark.

Nothing here imports lehmerpark.  Each function is written from the
definitions, with its own algorithm where the package has one (a union-find
parking run instead of a linear probe, a right-to-left sorted sweep for the
arm-leg test, an iterative restricted-growth-string walk), so a bug in the
package cannot also hide in the check.  Expected CLI lines are formatted by
hand rather than through the package's serialiser.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort


# ---------------------------------------------------------------------------
# counting


def bell_numbers(n_max: int) -> list[int]:
    """Bell(0..n_max), read off the left edge of the Bell triangle."""
    out = [1]
    row = [1]
    for _ in range(n_max):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
        out.append(row[0])
    return out


# ---------------------------------------------------------------------------
# parking outcomes and the arm-leg pattern


def park(prefs: list[int] | tuple[int, ...]) -> list[int] | None:
    """Outcome word (car in each spot) or None when a car drives past spot n.

    Spots are found with a next-free-spot union-find, not by probing.
    """
    n = len(prefs)
    nxt = list(range(n + 2))
    spots = [0] * (n + 1)
    for car, a in enumerate(prefs, start=1):
        s = a
        while nxt[s] != s:
            nxt[s] = nxt[nxt[s]]
            s = nxt[s]
        if s > n:
            return None
        spots[s] = car
        nxt[s] = s + 1
    return spots[1:]


def has_armleg(word) -> bool:
    """True iff 1-based positions i < j exist with n - i + 1 <= w_j < w_i.

    Sweeps right to left keeping the later values sorted, so each position
    asks one range question.
    """
    n = len(word)
    later: list[int] = []
    for i in range(n, 0, -1):
        v = word[i - 1]
        lo = n - i + 1
        if v > lo:
            k = bisect_left(later, lo)
            if k < len(later) and later[k] < v:
                return True
        insort(later, v)
    return False


def avoiders(n: int) -> list[tuple[int, ...]]:
    """All arm-leg avoiders of length n in lexicographic order, built position
    by position and pruned as soon as a prefix contains the pattern."""
    out: list[tuple[int, ...]] = []
    word: list[int] = []
    free = list(range(1, n + 1))

    def extend() -> None:
        j = len(word)  # 0-based position being filled
        if j == n:
            out.append(tuple(word))
            return
        for k, v in enumerate(free):
            # an earlier 1-based position i with n - i + 1 <= v < w_i breaks it
            if any(n - i <= v < w for i, w in enumerate(word)):
                continue
            word.append(v)
            del free[k]
            extend()
            free.insert(k, v)
            word.pop()

    extend()
    return out


def staircase_tuples(n: int):
    """Every tuple with 1 <= a_i <= n - i + 1, odometer style."""
    a = [1] * n
    while True:
        yield tuple(a)
        i = n - 1
        while i >= 0 and a[i] == n - i:
            a[i] = 1
            i -= 1
        if i < 0:
            return
        a[i] += 1


def canonical_preimage(word) -> list[int]:
    """The staircase tuple a_k = min(spot of car k, n - k + 1), which parks to
    `word` whenever `word` avoids the arm-leg pattern."""
    n = len(word)
    spot = [0] * (n + 1)
    for s, car in enumerate(word, start=1):
        spot[car] = s
    return [min(spot[k], n - k + 1) for k in range(1, n + 1)]


def inversion_table(word) -> list[int]:
    """Entry v counts the values larger than v standing to its left."""
    n = len(word)
    table = [0] * n
    seen: list[int] = []
    for v in word:
        table[v - 1] = len(seen) - bisect_left(seen, v + 1)
        insort(seen, v)
    return table


# ---------------------------------------------------------------------------
# set partitions as restricted growth strings


def all_rgs(n: int) -> list[tuple[int, ...]]:
    """Every restricted growth string of length n (label 0 first, each label at
    most one above the largest before it), iteratively."""
    if n == 0:
        return [()]
    out = []
    a = [0] * n
    top = [0] * n  # top[i] = largest label among a[0..i]
    while True:
        out.append(tuple(a))
        i = n - 1
        while i > 0 and a[i] == top[i - 1] + 1:
            i -= 1
        if i == 0:
            return out
        a[i] += 1
        top[i] = max(top[i - 1], a[i])
        for j in range(i + 1, n):
            a[j] = 0
            top[j] = top[i]


def blocks_of(rgs) -> list[list[int]]:
    """Blocks ordered by minimum, each ascending (label k first appears before k+1)."""
    blocks: list[list[int]] = []
    for x, label in enumerate(rgs, start=1):
        if label == len(blocks):
            blocks.append([])
        blocks[label].append(x)
    return blocks


def shallow_rgs(n: int, rng: random.Random) -> list[int]:
    """Each element opens a block or joins one of the three newest blocks, so
    older blocks stop growing and at most four blocks are open at any element."""
    rgs = [0]
    top = 0
    for _ in range(1, n):
        if rng.random() < 0.3:
            top += 1
            rgs.append(top)
        else:
            rgs.append(rng.randint(max(0, top - 2), top))
    return rgs[:n]


def deep_rgs(n: int, rng: random.Random) -> list[int]:
    """The first n/2 elements each open a block and the rest close them in a
    random order, so n/2 blocks are open at the middle element."""
    m = n // 2
    tail = list(range(m)) + [rng.randrange(m) for _ in range(n - 2 * m)]
    rng.shuffle(tail)
    return list(range(m)) + tail


def max_depth(blocks) -> int:
    """Largest number of blocks whose [min, max] span covers one element."""
    n = sum(len(b) for b in blocks)
    delta = [0] * (n + 2)
    for b in blocks:
        delta[b[0]] += 1
        delta[b[-1] + 1] -= 1
    depth = best = 0
    for i in range(1, n + 1):
        depth += delta[i]
        best = max(best, depth)
    return best


# ---------------------------------------------------------------------------
# the bijections, from the definitions on plain lists
#
# A g-parenthesization is (F, L, g): block minima, block maxima, and for each
# space outside F a rank g(i) >= 1.  Partition -> g: i joins (or closes) the
# g(i)-th block, by minimum, among those opened before i and not yet closed.
# g -> outcome: each matched paren pair (f, l) puts value n - f + 1 in column
# l, then each space i outside F, left to right, puts n - i + 1 in the g(i)-th
# smallest still-empty column below i.


def partition_to_gbsp(blocks, n: int):
    label = [0] * (n + 1)
    for k, b in enumerate(blocks):
        for x in b:
            label[x] = k
    F = {b[0] for b in blocks}
    L = {b[-1] for b in blocks}
    g: dict[int, int] = {}
    open_ids: list[int] = []  # ids grow with the minimum, so appends stay sorted
    for i in range(1, n + 1):
        k = label[i]
        if i in F:
            if i not in L:
                open_ids.append(k)
            continue
        r = bisect_left(open_ids, k)
        g[i] = r + 1
        if i in L:
            del open_ids[r]
    return F, L, g


def gbsp_to_outcome(F, L, g, n: int) -> list[int]:
    word = [0] * (n + 1)
    stack: list[int] = []
    for i in range(1, n + 1):
        if i in F:
            stack.append(i)
        if i in L:
            word[i] = n - stack.pop() + 1
    empty: list[int] = []
    for i in range(1, n + 1):
        if i > 1 and not word[i - 1]:
            empty.append(i - 1)
        if i not in F:
            word[empty.pop(g[i] - 1)] = n - i + 1
    return word[1:]


def outcome_to_gbsp(word):
    n = len(word)
    is_peak = [False] * (n + 1)
    col_of = [0] * (n + 1)
    F, L = set(), set()
    for c, v in enumerate(word, start=1):
        col_of[v] = c
        if v >= n - c + 1:
            is_peak[c] = True
            F.add(n - v + 1)
            L.add(c)
    g: dict[int, int] = {}
    empty: list[int] = []
    for i in range(1, n + 1):
        if i > 1 and not is_peak[i - 1]:
            empty.append(i - 1)
        if i in F:
            continue
        r = bisect_left(empty, col_of[n - i + 1])
        g[i] = r + 1
        del empty[r]
    return F, L, g


def gbsp_to_partition(F, L, g, n: int) -> list[list[int]]:
    opened: list[list[int]] = []
    closed: list[list[int]] = []
    for i in range(1, n + 1):
        if i in F and i in L:
            closed.append([i])
        elif i in F:
            opened.append([i])
        elif i in L:
            blk = opened.pop(g[i] - 1)
            blk.append(i)
            closed.append(blk)
        else:
            opened[g[i] - 1].append(i)
    return sorted(closed)


def partition_to_outcome(blocks, n: int) -> list[int]:
    return gbsp_to_outcome(*partition_to_gbsp(blocks, n), n)


def outcome_to_partition(word) -> list[list[int]]:
    return gbsp_to_partition(*outcome_to_gbsp(word), len(word))


# ---------------------------------------------------------------------------
# wire format, written out by hand


def ints(values) -> str:
    return "[" + ",".join(map(str, values)) + "]"


def outcome_line(word) -> str:
    return '{"outcome":' + ints(word) + "}"


def blocks_line(blocks) -> str:
    return '{"blocks":[' + ",".join(ints(b) for b in blocks) + "]}"


def table_line(table) -> str:
    return '{"table":' + ints(table) + "}"


def gbsp_line(F, L, g, n: int) -> str:
    gs = ",".join(f'"{i}":{g[i]}' for i in sorted(g))
    return f'{{"n":{n},"F":{ints(sorted(F))},"L":{ints(sorted(L))},"g":{{{gs}}}}}'
