"""Exhaustive generators, counting oracles, and the named-check harness.

The outcome walk `iter_outcome_words`, the reservation count
`outcome_peak_counts` and the recurrences `bell`, `catalan` and
`_stirling_row` live in `counting`, which imports only `errors` from the
package, and are imported back here; `counting`'s docstring says how each works.
`outcome_set` collects the walk into certified outcomes.  `verify(theorem,
n_max)` runs one named exhaustive check for every n from 0 to n_max and
reports counterexamples verbatim.

Every check has one shape, `check(n, drawn)`: a generator that yields each
discrepancy line without its n and walks each family it examines through
`drawn(...)`, which counts what it draws.  A family sized without a walk, such
as a set of pattern avoiders, adds its size with `drawn.count += k`.  `verify`
runs the check for each n in turn and stamps `n=<n>: ` on each line it yields;
it makes one counter per run and reports its total as `objects_checked`.

The checks that walk the n!-, Bell- and Catalan-sized families run on the
plain values their generators yield (staircase tuples, outcome words, blocks,
(F, L), (F, L, g)) through the plain sweeps of `_plain`, and build no checked
object per element.  What a constructor would enforce is an explicit test: an
outcome is a permutation (`_check_word`) that avoids the arm-leg pattern
(`_certify`), and blocks partition [n] (`_check_blocks`).  An object that fails
one is a discrepancy, so `verify` reports it with the rest (exit 2 on the CLI)
instead of stopping with an error.

The diagram checks (`lemma3.4`, `lemma3.5`, `lemma3.7`) read the arm-leg
diagram of `_plain` too: its rows by column, 0 marking an empty column.  This
module imports only `_plain`, `counting` and `errors` at the top, and
`VerificationReport` is a `NamedTuple`, so no check loads an object module or
`dataclasses`, and a discrepancy names a parenthesization in the string
grammar (`_paren_text`).  Only `all_lehmer`, `outcome_set` and
`enumerate_partitions` import their object modules, when they run.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple

from . import _plain
from .counting import (
    _DP_MAX_N,
    _staircase,
    _stirling_row,
    bell,
    catalan,
    iter_outcome_words,
    outcome_peak_counts,
    outcome_words,
)
from .errors import _size

if TYPE_CHECKING:
    from .bijection import OutcomePermutation
    from .parking import PrefTuple

__all__ = [
    "all_lehmer",
    "iter_outcome_words",
    "outcome_words",
    "outcome_set",
    "outcome_peak_counts",
    "enumerate_partitions",
    "bell",
    "catalan",
    "verify",
    "theorem_ids",
    "VerificationReport",
    "_DP_MAX_N",  # the count's ceiling, read as enumeration._DP_MAX_N
]


def all_lehmer(n: int) -> Iterator[PrefTuple]:
    """Every staircase tuple (a_i <= n - i + 1), in lexicographic order; n! of them."""
    from .parking import PrefTuple

    yield from map(PrefTuple, _staircase(n))


def outcome_set(n: int) -> set[OutcomePermutation]:
    """Distinct outcomes of all n! staircase tuples, certified at construction."""
    from .bijection import OutcomePermutation
    from .permutation import Permutation

    return {OutcomePermutation(Permutation(w)) for w in iter_outcome_words(n)}


def __getattr__(name: str):
    # `enumerate_partitions`, exported here, loads `setpartition` on first use (PEP 562)
    if name == "enumerate_partitions":
        from .setpartition import enumerate_partitions

        return enumerate_partitions
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class VerificationReport(NamedTuple):
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
# per-theorem checks, each check(n, drawn) -> discrepancy lines without their n


class _Drawn:
    """The objects a run's checks examine: `drawn(family)` yields each member
    and counts it, and `drawn.count += k` adds a family sized without a walk."""

    def __init__(self) -> None:
        self.count = 0

    def __call__(self, objects: Iterable) -> Iterator:
        for x in objects:
            self.count += 1
            yield x


def _avoiders(n: int, contains: Callable[[tuple[int, ...]], bool]) -> set[tuple[int, ...]]:
    # the words of [n] in which `contains` finds no pattern
    return {w for w in itertools.permutations(range(1, n + 1)) if not contains(w)}


def _weakly_decreasing(n: int) -> Iterator[tuple[int, ...]]:
    # the C(2n - 1, n) weakly decreasing tuples over [n], in decreasing lexicographic order
    return itertools.combinations_with_replacement(range(n, 0, -1), n)


def _weakly_decreasing_staircase(n: int) -> Iterator[tuple[int, ...]]:
    """The Catalan-many weakly decreasing staircase tuples, each a_i <= n - i + 1
    (`_plain._is_lehmer`), in the decreasing lexicographic order of `_weakly_decreasing`."""
    return filter(_plain._is_lehmer, _weakly_decreasing(n))


def _refusal(check, *args) -> str:
    """The message of the ValueError with which `check` refuses `args`, or "".
    A check records a refused object as a discrepancy and goes on."""
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return ""


def _park_problem(noun: str, prefs: tuple[int, ...], word) -> str:
    """What is wrong with `word`, the `_park` of the {noun} `prefs`, or "": a failed
    car, or a word that is no permutation (`_check_word`, the check of `park`'s outcome)."""
    if isinstance(word, int):
        return f"parking failed for {noun} {prefs}"
    if refusal := _refusal(_plain._check_word, word):
        return f"{noun} {prefs} parks to {word}: {refusal}"
    return ""


def _as_partition(n: int, blocks: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    # the check of SetPartition, on plain blocks that must already be in its sorted form
    if _plain._check_blocks(n, blocks) != blocks:
        raise ValueError("blocks are not in sorted form")
    return blocks


def _check_lemma1_2(n: int, drawn: _Drawn) -> Iterator[str]:
    """Both tests run on the plain staircase tuples.  A tuple that parks must
    park to a permutation (`_park_problem`)."""
    for prefs in drawn(_staircase(n)):
        if not _plain._is_parking_function(prefs):
            yield f"staircase tuple {prefs} fails the sorted-prefix test"
        elif problem := _park_problem("staircase tuple", prefs, _plain._park(prefs)):
            yield problem


def _check_thm2_4(n: int, drawn: _Drawn) -> Iterator[str]:
    """Every staircase tuple is parked; the set of its outcomes is compared with
    the avoiders.  A tuple that `_park_problem` flags is a discrepancy and parks to nothing."""
    parked = set()
    for prefs in _staircase(n):
        word = _plain._park(prefs)
        if problem := _park_problem("staircase tuple", prefs, word):
            yield problem
        else:
            parked.add(word)
    avoiders = _avoiders(n, _plain._contains_armleg)
    drawn.count += len(parked) + len(avoiders)
    for w in sorted(parked - avoiders):
        yield f"{w} parked but contains the arm-leg pattern"
    for w in sorted(avoiders - parked):
        yield f"{w} avoids the arm-leg pattern but never parks"


def _check_lemma3_4(n: int, drawn: _Drawn) -> Iterator[str]:
    for w in drawn(iter_outcome_words(n)):
        rows = _plain._peaks(w)
        for i, d in enumerate(_plain._iter_depths(n, *_plain._arms_legs(rows)), start=1):
            if (box := _plain._depth_at(rows, i)) != d:
                yield f"outcome {w} space {i}: box count {box} != paren depth {d}"


def _check_lemma3_5(n: int, drawn: _Drawn) -> Iterator[str]:
    for w in drawn(iter_outcome_words(n)):
        if not _plain._is_balanced(n, *_plain._arms_legs(_plain._peaks(w))):
            yield f"arms/legs of outcome {w} are not balanced"


def _all_partial_diagrams(n: int) -> Iterator[tuple[int, ...]]:
    # one layer per column: every choice of rows for columns 1..c, 0 for no point;
    # column c holds no point or one in an unused row at or above the antidiagonal
    layer: list[tuple[int, ...]] = [()]
    for c in range(1, n + 1):
        choices = (0, *range(n - c + 1, n + 1))
        layer = [rows + (r,) for rows in layer for r in choices if not r or r not in rows]
    yield from layer


def _check_lemma3_7(n: int, drawn: _Drawn) -> Iterator[str]:
    groups: dict[tuple[frozenset[int], frozenset[int]], list[tuple[int, ...]]] = {}
    for rows in drawn(_all_partial_diagrams(n)):
        if _plain._armleg_crossing(rows) is None:
            groups.setdefault(_plain._arms_legs(rows), []).append(rows)
    for F, L in drawn(_plain._bsps(n)):
        constructed = _plain._pairs_diagram(n, _plain._matching_pairs(n, F, L))
        if _plain._arms_legs(constructed) != (F, L):
            yield f"pairs of {_plain._paren_text(n, F, L)} do not reproduce its arms and legs"
        candidates = groups.get((F, L), [])
        if len(candidates) != 1 or candidates[0] != constructed:
            yield (
                f"{len(candidates)} non-intersecting diagrams share arms/legs "
                f"F={sorted(F)}, L={sorted(L)}; expected exactly the constructed one"
            )


def _check_lemma3_9(n: int, drawn: _Drawn) -> Iterator[str]:
    """Each filling's word must pass `_as_outcome`; its arms and legs are the F
    and L of `_phi_prime`, which reads the peaks as `phi` does."""
    for F_L_g in drawn(_plain._gbsps(n)):
        word = _plain._phi_prime_inv(n, *F_L_g)
        if refusal := _refusal(_plain._as_outcome, word):
            yield f"filling of {_plain._paren_text(n, *F_L_g)} maps to outcome {word}: {refusal}"
        elif _plain._phi_prime(word)[:2] != F_L_g[:2]:
            yield f"filling of {_plain._paren_text(n, *F_L_g)} has wrong arms/legs"


def _fiber_census(n: int, drawn: _Drawn, objects, check, image, label, noun: str,
                  fiber_of: str = "") -> Iterator[str]:
    """Yields where the count of drawn objects that land on each balanced
    parenthesization (F, L) differs from fiber_size; an object that `check`
    refuses is a discrepancy and lands nowhere."""
    counts: Counter = Counter()
    for x in drawn(objects):
        if refusal := _refusal(check, x):
            yield f"{label(x)}: {refusal}"
        else:
            counts[image(x)] += 1
    for F, L in drawn(_plain._bsps(n)):
        got = counts.pop((F, L), 0)
        expected = _plain._fiber_size(n, F, L)
        if got != expected:
            yield (f"{fiber_of}F={sorted(F)}, L={sorted(L)} has {got} {noun}, "
                   f"product of depths gives {expected}")
    for F, L in counts:
        yield f"{noun} map to unlisted parenthesization F={sorted(F)}, L={sorted(L)}"


def _check_cor3_10(n: int, drawn: _Drawn) -> Iterator[str]:
    """The walked words pass `_as_outcome`; `_phi_prime`'s F and L are their arms and legs."""
    return _fiber_census(
        n, drawn, iter_outcome_words(n), _plain._as_outcome, lambda w: _plain._phi_prime(w)[:2],
        lambda w: f"outcome {w}", "outcomes", fiber_of="fiber of ",
    )


def _round_trips(n: int, drawn: _Drawn, objects, check, there, back, label) -> Iterator[str]:
    """Yields where back(there(x)) != x for a drawn object x, then where
    there(back(F, L, g)) != (F, L, g) for a drawn g-parenthesization.  `check`
    raises ValueError on an invalid object: it tests each x, and each back(F, L, g)
    before `there` reads it.  In the forward trip, equality with the checked x
    stands in for the check of back's output, and the reverse trip over every
    valid (F, L, g) pins what `there` yields, so the middle value is not checked
    as a `GBsp`: a g out of range that sends `back` past its list of open items
    fails the trip instead."""
    for x in drawn(objects):
        if refusal := _refusal(check, x):
            yield f"{label(x)}: {refusal}"
            continue
        try:
            survives = back(*there(x)) == x
        except LookupError:
            survives = False
        if not survives:
            yield f"{label(x)} does not survive the round trip"
    for F, L, g in drawn(_plain._gbsps(n)):
        y = back(F, L, g)
        if refusal := _refusal(check, y):
            yield f"{_plain._paren_text(n, F, L, g)} maps to {label(y)}: {refusal}"
        elif there(y) != (F, L, g):
            yield f"{_plain._paren_text(n, F, L, g)} does not survive the reverse round trip"


def _check_lemma3_12(n: int, drawn: _Drawn) -> Iterator[str]:
    """The walked words pass `_as_outcome`, and so does each word that
    `_phi_prime_inv` rebuilds in the reverse trip; in the forward trip, the
    rebuilt word's equality with the walked word stands in for that check."""
    return _round_trips(
        n, drawn, iter_outcome_words(n), _plain._as_outcome, _plain._phi_prime,
        lambda F, L, g: _plain._phi_prime_inv(n, F, L, g), lambda w: f"outcome {w}",
    )


def _check_lemma3_13(n: int, drawn: _Drawn) -> Iterator[str]:
    """Each generated partition passes `_as_partition`; balance runs on plain (n, F, L)."""
    for blocks in drawn(_plain._partition_blocks(n)):
        if refusal := _refusal(_as_partition, n, blocks):
            yield f"partition {_plain._blocks_text(blocks)}: {refusal}"
        elif not _plain._is_balanced(n, *_plain._min_max(blocks)):
            yield f"minima/maxima of {_plain._blocks_text(blocks)} are not balanced"


def _check_lemma3_14(n: int, drawn: _Drawn) -> Iterator[str]:
    """The partition that g = 1 gives must pass `_as_partition`."""
    for F, L in drawn(_plain._bsps(n)):
        g = [0 if i in F else 1 for i in range(1, n + 1)]
        blocks = _plain._from_gbsp(n, F, L, g)
        if refusal := _refusal(_as_partition, n, blocks):
            yield (f"{_plain._paren_text(n, F, L)} maps to partition "
                   f"{_plain._blocks_text(blocks)}: {refusal}")
        elif _plain._min_max(blocks) != (F, L):
            yield f"no partition found with minima/maxima {_plain._paren_text(n, F, L)}"


def _check_cor3_15(n: int, drawn: _Drawn) -> Iterator[str]:
    """The generated partitions pass `_as_partition`."""
    return _fiber_census(
        n, drawn, _plain._partition_blocks(n), lambda b: _as_partition(n, b), _plain._min_max,
        lambda b: f"partition {_plain._blocks_text(b)}", "partitions",
    )


def _check_lemma3_16(n: int, drawn: _Drawn) -> Iterator[str]:
    """The generated partitions pass `_as_partition`, and so does each partition
    that `_from_gbsp` rebuilds in the reverse trip; in the forward trip, the
    rebuilt partition's equality with the generated one stands in for it."""
    return _round_trips(
        n, drawn, _plain._partition_blocks(n), lambda b: _as_partition(n, b),
        lambda b: _plain._to_gbsp(n, b),
        lambda F, L, g: _plain._from_gbsp(n, F, L, g),
        lambda b: f"partition {_plain._blocks_text(b)}",
    )


def _check_thm3_1(n: int, drawn: _Drawn) -> Iterator[str]:
    """The walked words pass `_as_outcome` and their partitions `_as_partition`.
    The composed round trip's equality with the walked word stands in for the
    checks of the outcome it rebuilds, and the image's equality with the
    generated partitions for theirs.  The count lines come first."""
    partitions = list(drawn(_plain._partition_blocks(n)))
    expected = bell(n)
    bad = []
    image = set()
    walked = 0  # the words the walk yields, counted with any repeat
    for w in drawn(iter_outcome_words(n)):
        walked += 1
        if refusal := _refusal(_plain._as_outcome, w):
            bad.append(f"outcome {w}: {refusal}")
            continue
        try:  # a g past the depth sends a leg past its open items, as in `_round_trips`
            b = _plain._from_gbsp(n, *_plain._phi_prime(w))
            if refusal := _refusal(_as_partition, n, b):
                bad.append(f"outcome {w} maps to partition {_plain._blocks_text(b)}: {refusal}")
                continue
            image.add(b)
            survives = _plain._phi_prime_inv(n, *_plain._to_gbsp(n, b)) == w
        except LookupError:
            survives = False
        if not survives:
            bad.append(f"outcome {w} does not survive the composed round trip")
    if image != set(partitions):
        bad.append("outcome-to-partition image misses some partitions")
    for k, noun in ((walked, "outcomes"), (len(partitions), "partitions")):
        if k != expected:
            yield f"{k} {noun}, Bell number is {expected}"
    yield from bad


def _check_prop4_1(n: int, drawn: _Drawn) -> Iterator[str]:
    for prefs in drawn(_weakly_decreasing_staircase(n)):
        word = _plain._park(prefs)
        if problem := _park_problem("weakly decreasing staircase tuple", prefs, word):
            yield problem
        elif _plain._contains_132(word):
            yield f"outcome of {prefs} contains the pattern 132"


def _check_lemma4_2(n: int, drawn: _Drawn) -> Iterator[str]:
    outcomes: dict[tuple[int, ...], tuple[int, ...]] = {}
    for prefs in drawn(_weakly_decreasing_staircase(n)):
        word = _plain._park(prefs)
        if problem := _park_problem("weakly decreasing staircase tuple", prefs, word):
            yield problem
        elif word in outcomes:
            yield f"{outcomes[word]} and {prefs} park to the same outcome {word}"
        else:
            outcomes[word] = prefs


def _check_thm4_3(n: int, drawn: _Drawn) -> Iterator[str]:
    """The staircase bound and the sorted-prefix test, which share no code, keep the
    same weakly decreasing tuples (`_plain._is_lehmer`, `_plain._is_parking_function`)."""
    wd = list(drawn(_weakly_decreasing_staircase(n)))
    expected = catalan(n)
    if len(wd) != expected:
        yield f"{len(wd)} weakly decreasing staircase tuples, Catalan is {expected}"
    wd_parking = {prefs for prefs in _weakly_decreasing(n) if _plain._is_parking_function(prefs)}
    if set(wd) != wd_parking:
        yield "weakly decreasing staircase tuples differ from weakly decreasing parking functions"
    words = []
    for prefs in wd:
        word = _plain._park(prefs)
        if problem := _park_problem("weakly decreasing staircase tuple", prefs, word):
            yield problem
        else:
            words.append(word)
    image = set(words)
    if len(image) != len(words):
        yield "parking is not injective on weakly decreasing tuples"
    avoiders = _avoiders(n, _plain._contains_132)
    drawn.count += len(avoiders)
    for w in sorted(image - avoiders):
        yield f"weakly decreasing outcome {w} contains 132"
    for w in sorted(avoiders - image):
        yield f"132-avoider {w} is not a weakly decreasing outcome"


def _row_mismatches(row: list[int], expected: list[int], source: str) -> list[str]:
    return [
        f"the occupied-spot count gives {got} outcomes with {k} peaks, {source} {want}"
        for k, (got, want) in enumerate(itertools.zip_longest(row, expected, fillvalue=0))
        if got != want
    ]


def _check_stirling(n: int, drawn: _Drawn) -> Iterator[str]:
    row = outcome_peak_counts(n)
    drawn.count += len(row)
    if sum(row) != bell(n):
        yield f"the occupied-spot count gives {sum(row)} outcomes, Bell is {bell(n)}"
    yield from _row_mismatches(row, _stirling_row(n), "S(n, k) is")
    if n <= 9:  # the walk: column c is a peak iff w[c - 1] >= n - c + 1
        walked = [0] * (n + 1)
        for w in drawn(iter_outcome_words(n)):
            walked[sum(v >= n - c for c, v in enumerate(w))] += 1
        yield from _row_mismatches(row, walked, "the walk finds")


def _follows_the_peak_rule(w: tuple[int, ...]) -> bool:
    """Each peak w_l >= n - l + 1 is the least value >= n - l + 1 not among
    w_1..w_{l-1}: the rule of `counting`'s docstring, by a plain scan."""
    n = len(w)
    used = set()
    for l, v in enumerate(w, start=1):
        least = n - l + 1
        if v >= least:
            while least in used:
                least += 1
            if v != least:
                return False
        used.add(v)
    return True


def _check_peaks(n: int, drawn: _Drawn) -> Iterator[str]:
    """`_certify` accepts a permutation of [n] iff it follows the peak rule."""
    for w in drawn(itertools.permutations(range(1, n + 1))):
        certified = not _refusal(_plain._certify, w)
        if certified != _follows_the_peak_rule(w):
            verdict = "accepts" if certified else "refuses"
            yield f"the certifier {verdict} {w}, which the peak rule does not"


_Check = Callable[[int, _Drawn], Iterable[str]]

# theorem id -> (what the check verifies, default n_max, check); a check yields each
# discrepancy without its n, and `verify` stamps it `n=<n>: `
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
    "peaks": ("outcomes are the permutations whose peaks take the least free value", 8,
              _check_peaks),
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
    n_max = default_max if n_max is None else _size(n_max, "n_max")
    start = time.perf_counter()
    drawn = _Drawn()
    discrepancies = tuple(f"n={n}: {line}" for n in range(n_max + 1) for line in check(n, drawn))
    return VerificationReport(
        theorem=theorem,
        n_max=n_max,
        objects_checked=drawn.count,
        discrepancies=discrepancies,
        seconds=time.perf_counter() - start,
    )
