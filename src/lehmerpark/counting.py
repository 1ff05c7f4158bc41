"""The outcome walk and the counting recurrences, on plain integers and tuples.

Of the package this module imports only `errors`, whose `_size` checks every
size argument and which every CLI verb loads already, so the CLI's `count` verbs
and `enumerate outcomes` load nothing more.  `enumeration` imports every name back.

`iter_outcome_words(n)` yields the outcomes of the n! staircase tuples in
lexicographic order, without parking them.  A permutation w of [n] is an
outcome iff it has no crossing, columns i < j with n - i + 1 <= w_j < w_i
(`_plain._certify`), iff each peak w_l >= n - l + 1 is the least value >= n - l + 1
not among w_1..w_{l-1}: a free value that a peak w_i skips in [n - i + 1, w_i)
lands in a later column and crosses i, and if no peak skips one, each peak's
interval lies to its left, so nothing crosses.  The walk gives column c, depth
first on an explicit stack, each unused value in increasing order up to the
first one >= n - c + 1; c of the values are >= n - c + 1 and c - 1 are used, so
it meets no dead end, and column n takes the one value left.  A walked word is
the list of its own choices, so each of the Bell(n) outcomes comes once, with
no global set, in the sum of the Bell-sized levels rather than n!.  The unused
values form a doubly linked list (Knuth's dancing links): a column unlinks its
value and relinks it when it moves on, last in, first out, so a step is O(1).
The walk keeps each word's text up to each of its last `_CACHED` columns and
joins the columns before them only when the first of those is assigned, so a
word costs one concatenation, the first O(n), and the state O(_CACHED n).  The
text is a tuple for `iter_outcome_words` and a JSON line for `_outcome_lines`.
Parking obeys the same rule with cars and spots swapped (car k takes a free
spot below n - k + 1 or the first free spot at or past it), so the outcomes are
closed under inversion.  `outcome_words` collects the walk into a set.

`outcome_peak_counts(n)` counts the parking run's landings without reaching
the outcomes: a sweep over the spots from n down to 1 defers each landing
below a bound until it reaches the spot, so its state is one integer.  It
makes O(n^3) big-integer sums and is capped at `_DP_MAX_N` by time; its step
does not depend on n, so `_peak_rows` gives every row up to a bound in one
sweep.  The walk stays the way to list the outcomes and the oracle the count
is checked against.

`bell` and `_stirling_row` are standalone recurrences (Bell triangle,
Stirling triangle), and `catalan` is the binomial formula, so the counting
checks do not share code with the structures they count.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator

from .errors import _size


def _staircase(n: int) -> Iterator[tuple[int, ...]]:
    # the staircase tuples as plain tuples, in lexicographic order
    return itertools.product(*(range(1, n - i + 2) for i in range(1, _size(n) + 1)))


# the walk keeps the word's prefix up to each of its last _CACHED columns (module docstring)
_CACHED = 12


def _walk(n: int, join, pieces: list, ends: list) -> Iterator:
    """The outcome words of [n] in lexicographic order, each as `join` of its first
    columns' values, then `pieces[v]` for each later value but the last and `ends[v]`
    for the last; for n <= 1 the one word is `join(()) + ends[n]`."""
    if n <= 1:
        yield join(()) + ends[n]
        return
    nxt, prv = list(range(1, n + 2)), list(range(-1, n + 1))  # the unused values, linked from 0
    word = [0] * n  # word[c] = column c's current value, 0 before its first
    low = max(n - _CACHED, 0)
    prefix = [join(())] * n  # prefix[c] = the word up to column c, for c >= low
    c = 1
    while c:
        v = word[c]
        if v:  # relink v: the columns past c freed theirs last in, first out
            nxt[prv[v]] = prv[nxt[v]] = v
            if v >= n - c + 1:  # the least unused value at or past the bound ends column c
                word[c] = 0
                c -= 1
                continue
        v = word[c] = nxt[v]  # the next unused value, or the least when v = 0
        nxt[prv[v]], prv[nxt[v]] = nxt[v], prv[v]
        if c >= low:
            prefix[c] = prefix[c - 1] + pieces[v] if c > low else join(word[1:c + 1])
        if c == n - 1:  # column n takes the one value left
            yield prefix[c] + ends[nxt[0]]
        else:
            c += 1


def iter_outcome_words(n: int) -> Iterator[tuple[int, ...]]:
    """Yield each outcome word of the n! staircase tuples exactly once, in
    lexicographic order; the module docstring says why no outcome repeats.

    >>> list(iter_outcome_words(3))
    [(1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
    """
    units = [()] + [(v,) for v in range(1, _size(n) + 1)]
    yield from _walk(n, tuple, units, units)


def _outcome_lines(n: int) -> Iterator[str]:
    """The lines of `enumerate outcomes`, from the same walk.

    >>> for line in _outcome_lines(3): print(line)
    {"outcome":[1,2,3]}
    {"outcome":[2,1,3]}
    {"outcome":[2,3,1]}
    {"outcome":[3,1,2]}
    {"outcome":[3,2,1]}
    """
    pieces = [f"{v}," for v in range(_size(n) + 1)]
    ends = ["]}"] + [f"{v}]}}" for v in range(1, n + 1)]
    return _walk(n, lambda vs: '{"outcome":[' + "".join(map(pieces.__getitem__, vs)), pieces, ends)


def outcome_words(n: int) -> set[tuple[int, ...]]:
    """Outcome words of all n! staircase tuples, as a set of Bell(n) words."""
    return set(iter_outcome_words(n))


# `count outcomes --n 280` runs from spawn to exit in 0.85 s (median of 7, no cached
# bytecode, Python 3.11.7, 2 shared cores); the sweep makes O(n^3) big-integer sums, so
# 10% more n costs a third more
_DP_MAX_N = 280


def _peak_rows(n_max: int) -> Iterator[list[int]]:
    """The rows of `outcome_peak_counts` for n = 0..n_max, in one sweep.

    The step for car k does not depend on n.  The sweep prunes at p <= n_max - k,
    and p falls by at most 1 per car, so a pruned path could not return to
    p = 0 by car n_max: rows[0] after car k is exact for n = k.  No later step
    mutates a list it has yielded.
    """
    rows = [[1]]  # rows[p][j]: paths with p reservations outstanding and j peaks
    yield rows[0]
    for car in range(1, n_max + 1):
        zero = [0] * car
        rows.append(zero)
        # settle spot n - car + 1; settled[p + 1] holds p reservations and p + 1 queued spots
        settled = [zero] + [
            [a + (p + 1) * b for a, b in zip(rows[p], rows[p + 1])] for p in range(len(rows) - 1)
        ] + [zero]
        # car reserves (p - 1 -> p) or takes the queue's head, a peak (p -> p)
        rows = [
            [a + b for a, b in zip(settled[p] + [0], [0] + settled[p + 1])]
            for p in range(min(car, n_max - car) + 1)
        ]
        yield rows[0]


def outcome_peak_counts(n: int) -> list[int]:
    """Entry k is the number of outcomes of length n with k peaks; the row sums to Bell(n).

    Car k is a peak when it lands at or past its bound n - k + 1.  Just before
    car k the sweep settles spot n - k + 1: one of the p cars holding a
    reservation takes it (p ways), or it joins the queue of free spots at or
    past the bound.  Car k then reserves a spot below its bound (p + 1), placed
    when the sweep reaches it, or takes the queue's head, a peak.  The queue
    holds one spot more than there are reservations before the car and as many
    after it, so p is the whole state; p <= n - k, the spots not yet settled.
    The sweep is `_peak_rows`, whose last row is this one.

    >>> outcome_peak_counts(4)
    [0, 1, 7, 6, 1]
    """
    _size(n, ceiling=_DP_MAX_N, cost="the reservation count, whose O(n^3) big-integer sums")
    for row in _peak_rows(n):
        pass
    return row


# `count bell --n 2000` runs from spawn to exit in 0.70 to 0.74 s (medians of 7 spawns in two
# runs, no cached bytecode, Python 3.11.7, 2 shared cores); the triangle makes O(n^2) sums
# of integers of up to n log n bits, so 10% more n costs a third more
_BELL_MAX_N = 2000


def bell(n: int) -> int:
    """Number of set partitions of [n], by the Bell triangle.

    >>> [bell(k) for k in range(6)]
    [1, 1, 2, 5, 15, 52]
    """
    _size(n, ceiling=_BELL_MAX_N, cost="the Bell triangle, whose O(n^2) big-integer sums")
    row = [1]
    for _ in range(n):
        row = list(itertools.accumulate(row, initial=row[-1]))
    return row[0]


# `count catalan --n 120000` runs from spawn to exit in 0.87 s (median of 7, no cached
# bytecode, Python 3.11.7, 2 shared cores); `math.comb` and the decimal text of its
# 72,240 digits grow faster than n, and n = 400,000 takes 9.1 s
_CATALAN_MAX_N = 120_000


def catalan(n: int) -> int:
    """The n-th Catalan number, binomial(2n, n) / (n + 1).

    >>> [catalan(k) for k in range(6)]
    [1, 1, 2, 5, 14, 42]
    """
    _size(n, ceiling=_CATALAN_MAX_N,
          cost="the binomial formula, whose big-integer product and decimal text")
    return math.comb(2 * n, n) // (n + 1)


def _stirling_row(n: int) -> list[int]:
    """S(n, 0..n), the set partitions of [n] into k blocks, by the Stirling
    triangle S(m, k) = k S(m - 1, k) + S(m - 1, k - 1)."""
    row = [1]
    for m in range(1, n + 1):
        prev = row + [0]
        row = [0] + [k * prev[k] + prev[k - 1] for k in range(1, m + 1)]
    return row
