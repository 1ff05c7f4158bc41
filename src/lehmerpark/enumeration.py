"""Exhaustive generators, counting oracles, and the named-check harness.

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
`outcome_words` and `outcome_set` collect it into sets.

`outcome_peak_counts(n)` counts the same landing sequences without reaching
the outcomes: a sweep over the spots from n down to 1 defers each landing
below a bound until it reaches the spot, so its state is one integer.  It
makes O(n^3) big-integer sums and is capped at `_DP_MAX_N` by time; the walk
stays the way to list the outcomes and the oracle the count is checked against.

`bell`, `catalan` and `_stirling_row` are standalone recurrences (Bell
triangle, Catalan ratio, Stirling triangle) so the counting checks do
not share code with the structures they count.  `verify(theorem, n_max)`
runs one named exhaustive check for every n from 0 to n_max and reports
counterexamples verbatim.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator

from .armleg import PartialArmLegDiagram, GridPoint, arms_legs, depth_at, is_intersecting, peaks, peaks_from_pairs
from .bijection import (
    OutcomePermutation,
    fiber_size,
    outcome_to_partition,
    partition_to_outcome,
    phi,
    phi_prime,
    phi_prime_inv,
)
from .paren import GBsp, SpacedParen, depths, enumerate_bsps, enumerate_gbsps, is_balanced, matching_pairs
from .parking import PrefTuple, is_parking_function, park
from .permutation import Permutation, _contains_132, _contains_armleg
from .setpartition import enumerate_partitions, from_gbsp, min_max, to_gbsp

__all__ = [
    "all_lehmer",
    "iter_outcome_words",
    "outcome_words",
    "outcome_set",
    "outcome_peak_counts",
    "bell",
    "catalan",
    "verify",
    "theorem_ids",
    "VerificationReport",
]


def all_lehmer(n: int) -> Iterator[PrefTuple]:
    """Every staircase tuple (a_i <= n - i + 1), in lexicographic order; n! of them."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    for prefs in itertools.product(*(range(1, n - i + 2) for i in range(1, n + 1))):
        yield PrefTuple(prefs)


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


def outcome_set(n: int) -> set[OutcomePermutation]:
    """Distinct outcomes of all n! staircase tuples, certified at construction."""
    return {OutcomePermutation(Permutation(w)) for w in iter_outcome_words(n)}


# `count outcomes --n 280` runs from spawn to exit in 0.96 s (median of 7, Python 3.11.7,
# 2 shared cores); the sweep makes O(n^3) big-integer sums, so 10% more n costs a third more
_DP_MAX_N = 280


def outcome_peak_counts(n: int) -> list[int]:
    """Entry k is the number of outcomes of length n with k peaks; the row sums to Bell(n).

    Car k is a peak when it lands at or past its bound n - k + 1.  Just before
    car k the sweep settles spot n - k + 1: one of the p cars holding a
    reservation takes it (p ways), or it joins the queue of free spots at or
    past the bound.  Car k then reserves a spot below its bound (p + 1), placed
    when the sweep reaches it, or takes the queue's head, a peak.  The queue
    holds one spot more than there are reservations before the car and as many
    after it, so p is the whole state; p <= n - k, the spots not yet settled.

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
    rows = [[1]]  # rows[p][j]: paths with p reservations outstanding and j peaks
    for car in range(1, n + 1):
        zero = [0] * car
        rows.append(zero)
        # settle spot n - car + 1; settled[p + 1] holds p reservations and p + 1 queued spots
        settled = [zero] + [
            [a + (p + 1) * b for a, b in zip(rows[p], rows[p + 1])] for p in range(len(rows) - 1)
        ] + [zero]
        # car reserves (p - 1 -> p) or takes the queue's head, a peak (p -> p)
        rows = [
            [a + b for a, b in zip(settled[p] + [0], [0] + settled[p + 1])]
            for p in range(min(car, n - car) + 1)
        ]
    return rows[0]


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
    """The n-th Catalan number, by the ratio C_{m+1} = C_m 2(2m + 1) / (m + 2).

    >>> [catalan(k) for k in range(6)]
    [1, 1, 2, 5, 14, 42]
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    c = 1
    for m in range(n):
        c = c * 2 * (2 * m + 1) // (m + 2)  # exact: the quotient is C_{m+1}
    return c


def _stirling_row(n: int) -> list[int]:
    """S(n, 0..n), the set partitions of [n] into k blocks, by the Stirling
    triangle S(m, k) = k S(m - 1, k) + S(m - 1, k - 1)."""
    row = [1]
    for m in range(1, n + 1):
        prev = row + [0]
        row = [0] + [k * prev[k] + prev[k - 1] for k in range(1, m + 1)]
    return row


@dataclass(frozen=True)
class VerificationReport:
    """Result of one named check: counterexamples are listed verbatim."""

    theorem: str
    n_max: int
    objects_checked: int
    discrepancies: tuple[str, ...]
    seconds: float

    @property
    def passed(self) -> bool:
        return not self.discrepancies

    def to_json_obj(self) -> dict:
        return {
            "theorem": self.theorem,
            "n_max": self.n_max,
            "objects_checked": self.objects_checked,
            "discrepancies": list(self.discrepancies),
            "pass": self.passed,
            "seconds": round(self.seconds, 3),
        }


# ---------------------------------------------------------------------------
# per-theorem checks; each returns (objects examined, discrepancy strings)


def _avoiders(n: int, contains: Callable[[tuple[int, ...]], bool]) -> set[tuple[int, ...]]:
    # the words of [n] in which `contains` finds no pattern
    return {w for w in itertools.permutations(range(1, n + 1)) if not contains(w)}


def _weakly_decreasing(n: int) -> Iterator[tuple[int, ...]]:
    # the C(2n - 1, n) weakly decreasing tuples over [n], in decreasing lexicographic order
    return itertools.combinations_with_replacement(range(n, 0, -1), n)


def _weakly_decreasing_lehmer(n: int) -> Iterator[PrefTuple]:
    for prefs in _weakly_decreasing(n):
        if all(v <= n - i for i, v in enumerate(prefs)):
            yield PrefTuple(prefs)


def _each(objects, problems):
    # (objects examined, discrepancy strings); problems(x) yields what is wrong with x
    count = 0
    bad: list[str] = []
    for x in objects:
        count += 1
        bad.extend(problems(x))
    return count, bad


def _check_lemma1_2(n: int):
    def problems(a):
        if not is_parking_function(a):
            yield f"n={n}: staircase tuple {a.prefs} fails the sorted-prefix test"
        elif not park(a).ok:
            yield f"n={n}: parking failed for staircase tuple {a.prefs}"

    return _each(all_lehmer(n), problems)


def _check_thm2_4(n: int):
    parked = outcome_words(n)
    avoiders = _avoiders(n, _contains_armleg)
    bad = [
        f"n={n}: {w} parked but contains the arm-leg pattern" for w in sorted(parked - avoiders)
    ] + [
        f"n={n}: {w} avoids the arm-leg pattern but never parks" for w in sorted(avoiders - parked)
    ]
    return len(parked) + len(avoiders), bad


def _check_lemma3_4(n: int):
    def problems(w):
        diagram = peaks(Permutation(w))
        for i, d in enumerate(depths(arms_legs(diagram)), start=1):
            if depth_at(diagram, i) != d:
                yield (
                    f"n={n}: outcome {w} space {i}: box count "
                    f"{depth_at(diagram, i)} != paren depth {d}"
                )

    return _each(sorted(iter_outcome_words(n)), problems)


def _check_lemma3_5(n: int):
    def problems(w):
        if not is_balanced(arms_legs(peaks(Permutation(w)))):
            yield f"n={n}: arms/legs of outcome {w} are not balanced"

    return _each(sorted(iter_outcome_words(n)), problems)


def _all_partial_diagrams(n: int) -> Iterator[PartialArmLegDiagram]:
    # one layer per column: every choice of rows for columns 1..c, 0 for no point;
    # column c holds no point or one in an unused row at or above the antidiagonal
    layer: list[tuple[int, ...]] = [()]
    for c in range(1, n + 1):
        choices = (0, *range(n - c + 1, n + 1))
        layer = [rows + (r,) for rows in layer for r in choices if not r or r not in rows]
    for rows in layer:
        points = frozenset(GridPoint(c, r) for c, r in enumerate(rows, start=1) if r)
        yield PartialArmLegDiagram(n, points)


def _check_lemma3_7(n: int):
    groups: dict[SpacedParen, list[PartialArmLegDiagram]] = {}
    count = 0
    for t in _all_partial_diagrams(n):
        count += 1
        if not is_intersecting(t):
            groups.setdefault(arms_legs(t), []).append(t)
    bad = []
    for sp in enumerate_bsps(n):
        count += 1
        constructed = peaks_from_pairs(matching_pairs(sp), n)
        if arms_legs(constructed) != sp:
            bad.append(f"n={n}: pairs of {sp!r} do not reproduce its arms and legs")
        candidates = groups.get(sp, [])
        if len(candidates) != 1 or candidates[0] != constructed:
            bad.append(
                f"n={n}: {len(candidates)} non-intersecting diagrams share arms/legs "
                f"F={sorted(sp.F)}, L={sorted(sp.L)}; expected exactly the constructed one"
            )
    return count, bad


def _check_lemma3_9(n: int):
    def problems(gb):
        p = phi_prime_inv(gb)  # construction certifies outcome membership
        if phi(p) != gb.base:
            yield f"n={n}: filling of {gb!r} has wrong arms/legs"

    return _each(enumerate_gbsps(n), problems)


def _fiber_census(n: int, images, noun: str, fiber_of: str = ""):
    # compare how many objects land on each balanced parenthesization with fiber_size
    counts = Counter(images)
    bad = []
    seen = set()
    for sp in enumerate_bsps(n):
        seen.add(sp)
        expected = fiber_size(sp)
        if counts.get(sp, 0) != expected:
            bad.append(
                f"n={n}: {fiber_of}F={sorted(sp.F)}, L={sorted(sp.L)} has "
                f"{counts.get(sp, 0)} {noun}, product of depths gives {expected}"
            )
    for sp in counts:
        if sp not in seen:
            bad.append(f"n={n}: {noun} map to unlisted parenthesization {sp!r}")
    return sum(counts.values()) + len(seen), bad


def _check_cor3_10(n: int):
    outcomes = (OutcomePermutation(Permutation(w)) for w in iter_outcome_words(n))
    return _fiber_census(n, map(phi, outcomes), "outcomes", fiber_of="fiber of ")


def _round_trips(n: int, objects, there, back, label):
    # back(there(x)) == x for every object x, then there(back(gb)) == gb for every gb
    bad = []
    count = 0
    for x in objects:
        count += 1
        if back(there(x)) != x:
            bad.append(f"n={n}: {label(x)} does not survive the round trip")
    for gb in enumerate_gbsps(n):
        count += 1
        if there(back(gb)) != gb:
            bad.append(f"n={n}: {gb!r} does not survive the reverse round trip")
    return count, bad


def _check_lemma3_12(n: int):
    outcomes = (OutcomePermutation(Permutation(w)) for w in sorted(iter_outcome_words(n)))
    return _round_trips(n, outcomes, phi_prime, phi_prime_inv, lambda p: f"outcome {p.word}")


def _check_lemma3_13(n: int):
    def problems(b):
        if not is_balanced(min_max(b)):
            yield f"n={n}: minima/maxima of {b.to_text()} are not balanced"

    return _each(enumerate_partitions(n), problems)


def _check_lemma3_14(n: int):
    def problems(sp):
        free = [i for i in range(1, n + 1) if i not in sp.F]
        b = from_gbsp(GBsp(sp, {i: 1 for i in free}))
        if min_max(b) != sp:
            yield f"n={n}: no partition found with minima/maxima {sp!r}"

    return _each(enumerate_bsps(n), problems)


def _check_cor3_15(n: int):
    return _fiber_census(n, map(min_max, enumerate_partitions(n)), "partitions")


def _check_lemma3_16(n: int):
    partitions = enumerate_partitions(n)
    return _round_trips(n, partitions, to_gbsp, from_gbsp, lambda b: f"partition {b.to_text()}")


def _check_thm3_1(n: int):
    outcomes = sorted(iter_outcome_words(n))
    partitions = list(enumerate_partitions(n))
    expected = bell(n)
    bad = []
    if len(outcomes) != expected:
        bad.append(f"n={n}: {len(outcomes)} outcomes, Bell number is {expected}")
    if len(partitions) != expected:
        bad.append(f"n={n}: {len(partitions)} partitions, Bell number is {expected}")
    image = set()
    for w in outcomes:
        p = OutcomePermutation(Permutation(w))
        b = outcome_to_partition(p)
        image.add(b)
        if partition_to_outcome(b) != p:
            bad.append(f"n={n}: outcome {w} does not survive the composed round trip")
    if image != set(partitions):
        bad.append(f"n={n}: outcome-to-partition image misses some partitions")
    return len(outcomes) + len(partitions), bad


def _check_prop4_1(n: int):
    def problems(a):
        result = park(a)
        if not result.ok:
            yield f"n={n}: weakly decreasing staircase tuple {a.prefs} failed to park"
        elif _contains_132(result.outcome.word):
            yield f"n={n}: outcome of {a.prefs} contains the pattern 132"

    return _each(_weakly_decreasing_lehmer(n), problems)


def _check_lemma4_2(n: int):
    outcomes: dict[tuple[int, ...], tuple[int, ...]] = {}

    def problems(a):
        w = park(a).outcome.word
        if w in outcomes:
            yield f"n={n}: {outcomes[w]} and {a.prefs} park to the same outcome {w}"
        else:
            outcomes[w] = a.prefs

    return _each(_weakly_decreasing_lehmer(n), problems)


def _check_thm4_3(n: int):
    wd = list(_weakly_decreasing_lehmer(n))
    bad = []
    expected = catalan(n)
    if len(wd) != expected:
        bad.append(f"n={n}: {len(wd)} weakly decreasing staircase tuples, Catalan is {expected}")
    wd_parking = {prefs for prefs in _weakly_decreasing(n) if is_parking_function(PrefTuple(prefs))}
    if {a.prefs for a in wd} != wd_parking:
        bad.append(
            f"n={n}: weakly decreasing staircase tuples differ from weakly "
            "decreasing parking functions"
        )
    image = {park(a).outcome.word for a in wd}
    if len(image) != len(wd):
        bad.append(f"n={n}: parking is not injective on weakly decreasing tuples")
    avoiders = _avoiders(n, _contains_132)
    for w in sorted(image - avoiders):
        bad.append(f"n={n}: weakly decreasing outcome {w} contains 132")
    for w in sorted(avoiders - image):
        bad.append(f"n={n}: 132-avoider {w} is not a weakly decreasing outcome")
    return len(wd) + len(avoiders), bad


def _row_mismatches(n: int, row: list[int], expected: list[int], source: str) -> list[str]:
    return [
        f"n={n}: the occupied-spot count gives {got} outcomes with {k} peaks, {source} {want}"
        for k, (got, want) in enumerate(itertools.zip_longest(row, expected, fillvalue=0))
        if got != want
    ]


def _check_stirling(n: int):
    row = outcome_peak_counts(n)
    bad = []
    if sum(row) != bell(n):
        bad.append(f"n={n}: the occupied-spot count gives {sum(row)} outcomes, Bell is {bell(n)}")
    bad += _row_mismatches(n, row, _stirling_row(n), "S(n, k) is")
    objects = len(row)
    if n <= 9:  # the walk: column c is a peak iff w[c - 1] >= n - c + 1
        walked = [0] * (n + 1)
        for w in iter_outcome_words(n):
            walked[sum(v >= n - c for c, v in enumerate(w))] += 1
            objects += 1
        bad += _row_mismatches(n, row, walked, "the walk finds")
    return objects, bad


_Check = Callable[[int], tuple[int, list[str]]]

# theorem id -> (what the check verifies, default n_max, check)
_CHECKS: dict[str, tuple[str, int, _Check]] = {
    "lemma1.2": ("every staircase tuple is a parking function", 8, _check_lemma1_2),
    "thm2.4": ("parked outcomes = arm-leg pattern avoiders", 7, _check_thm2_4),
    "lemma3.4": ("box-count depth matches parenthesization depth", 7, _check_lemma3_4),
    "lemma3.5": ("arms and legs of outcomes are balanced", 7, _check_lemma3_5),
    "lemma3.7": ("matched pairs give the unique non-intersecting diagram", 5, _check_lemma3_7),
    "lemma3.9": ("every g-filling produces an outcome with the right arms/legs", 7, _check_lemma3_9),
    "cor3.10": ("outcome fibers have size prod of depths", 7, _check_cor3_10),
    "lemma3.12": ("outcome <-> g-parenthesization maps are mutually inverse", 7, _check_lemma3_12),
    "lemma3.13": ("block minima/maxima are always balanced", 9, _check_lemma3_13),
    "lemma3.14": ("every balanced parenthesization arises from a partition", 7, _check_lemma3_14),
    "cor3.15": ("partition fibers have size prod of depths", 7, _check_cor3_15),
    "lemma3.16": ("partition <-> g-parenthesization maps are mutually inverse", 8, _check_lemma3_16),
    "thm3.1": ("outcomes <-> set partitions, Bell-many on each side", 8, _check_thm3_1),
    "prop4.1": ("weakly decreasing outcomes avoid 132", 8, _check_prop4_1),
    "lemma4.2": ("parking is injective on weakly decreasing staircase tuples", 8, _check_lemma4_2),
    "thm4.3": ("weakly decreasing outcomes = 132-avoiders, Catalan-many", 8, _check_thm4_3),
    "stirling": ("outcomes with k peaks number S(n, k)", 14, _check_stirling),
}


def theorem_ids() -> list[str]:
    return list(_CHECKS)


def _lookup(theorem: str) -> tuple[str, int, _Check]:
    if theorem not in _CHECKS:
        raise ValueError(f"unknown theorem id {theorem!r}; known: {', '.join(_CHECKS)}")
    return _CHECKS[theorem]


def describe_theorem(theorem: str) -> str:
    return _lookup(theorem)[0]


def default_n_max(theorem: str) -> int:
    return _lookup(theorem)[1]


def verify(theorem: str, n_max: int | None = None) -> VerificationReport:
    """Run one named exhaustive check for every n from 0 to n_max.

    n_max defaults to a per-theorem value sized to finish in seconds; larger
    values cost accordingly.
    """
    _, default_max, check = _lookup(theorem)
    if n_max is None:
        n_max = default_max
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    start = time.perf_counter()
    objects = 0
    discrepancies: list[str] = []
    for n in range(n_max + 1):
        count, bad = check(n)
        objects += count
        discrepancies.extend(bad)
    return VerificationReport(
        theorem=theorem,
        n_max=n_max,
        objects_checked=objects,
        discrepancies=tuple(discrepancies),
        seconds=time.perf_counter() - start,
    )
