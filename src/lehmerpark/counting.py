"""The outcome walk and the counting recurrences, on plain integers and tuples.

This module imports nothing from the package, so the CLI's `count` verbs and
`enumerate outcomes` load it alone.  `enumeration` imports every name back.

`iter_outcome_words(n)` yields the outcomes of the n! staircase preference
tuples without parking the tuples one by one.  It walks the cars depth first,
on an explicit stack of landing spots, and parks car k once per distinct
landing spot.  The spots that preferences 1..n-k+1 reach are the empty spots
below n - k + 1 and the first empty spot at or past it, so each next landing
spot is the first empty spot past the previous one.  Cars never move once
parked, so the street after car k fixes the street before it; children of
different streets differ, and children of one street differ in car k's spot.
Each of the Bell(n) outcomes is therefore reached exactly once, with no global
set, and the work is the sum of the Bell-sized levels rather than n!.
`outcome_words` collects it into a set.

`outcome_peak_counts(n)` counts the same landing sequences without reaching
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


def _staircase(n: int) -> Iterator[tuple[int, ...]]:
    # the staircase tuples as plain tuples, in lexicographic order
    if n < 0:
        raise ValueError("n must be nonnegative")
    return itertools.product(*(range(1, n - i + 2) for i in range(1, n + 1)))


def iter_outcome_words(n: int) -> Iterator[tuple[int, ...]]:
    """Yield each outcome word of the n! staircase tuples exactly once.

    The order is the walk's, not sorted, and the walk holds O(n) state; see
    the module docstring for why no outcome repeats.

    >>> sorted(iter_outcome_words(3))
    [(1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        yield ()
        return
    spots = [0] * (n + 1)  # spots[s] = car parked there, or 0
    at = [0] * (n + 1)  # at[car] = car's current landing spot, 0 before its first
    car = 1
    while car:
        s = at[car]
        if s:
            spots[s] = 0
            if s >= n - car + 1:  # no preference lands car beyond its staircase bound
                at[car] = 0
                car -= 1
                continue
        s += 1
        while spots[s]:
            s += 1
        spots[s] = car
        at[car] = s
        if car == n:
            yield tuple(spots[1:])
        else:
            car += 1


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
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > _DP_MAX_N:
        raise ValueError(
            f"n = {n} is past the ceiling n <= {_DP_MAX_N} of the reservation count, "
            "whose O(n^3) big-integer sums take about a second there"
        )
    for row in _peak_rows(n):
        pass
    return row


def bell(n: int) -> int:
    """Number of set partitions of [n], by the Bell triangle.

    >>> [bell(k) for k in range(6)]
    [1, 1, 2, 5, 15, 52]
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def catalan(n: int) -> int:
    """The n-th Catalan number, binomial(2n, n) / (n + 1).

    >>> [catalan(k) for k in range(6)]
    [1, 1, 2, 5, 14, 42]
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return math.comb(2 * n, n) // (n + 1)


def _stirling_row(n: int) -> list[int]:
    """S(n, 0..n), the set partitions of [n] into k blocks, by the Stirling
    triangle S(m, k) = k S(m - 1, k) + S(m - 1, k - 1)."""
    row = [1]
    for m in range(1, n + 1):
        prev = row + [0]
        row = [0] + [k * prev[k] + prev[k - 1] for k in range(1, m + 1)]
    return row
