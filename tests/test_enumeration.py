import itertools
import math
from collections import Counter

import pytest

import lehmerpark._plain as _plain
import lehmerpark.counting as counting
import lehmerpark.enumeration as enumeration
from lehmerpark.enumeration import (
    VerificationReport,
    all_lehmer,
    bell,
    catalan,
    default_n_max,
    describe_theorem,
    enumerate_partitions,
    iter_outcome_words,
    outcome_peak_counts,
    outcome_set,
    outcome_words,
    theorem_ids,
    verify,
)
from lehmerpark.armleg import PartialArmLegDiagram
from lehmerpark.bijection import OutcomePermutation, outcome_to_partition
from lehmerpark.paren import GBsp, MatchedPairs, SpacedParen, enumerate_bsps
from lehmerpark.permutation import Permutation
from lehmerpark.parking import PrefTuple, park
from lehmerpark.setpartition import SetPartition

# frozen reference values, copied by hand
BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]
CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]
# objects_checked of every check at n_max = 5: the sizes of the families each one walks,
# e.g. lemma1.2 parks the 0! + 1! + ... + 5! = 154 staircase tuples
OBJECTS_AT_5 = {
    "lemma1.2": 154, "thm2.4": 152, "lemma3.4": 76, "lemma3.5": 76, "lemma3.7": 343,
    "lemma3.9": 76, "cor3.10": 141, "lemma3.12": 152, "lemma3.13": 76, "lemma3.14": 65,
    "cor3.15": 141, "lemma3.16": 152, "thm3.1": 152, "prop4.1": 65, "lemma4.2": 65,
    "thm4.3": 130, "stirling": 97, "peaks": 154,
}
# objects_checked of every check at its default n_max, as the verify benchmark sums them
OBJECTS_AT_DEFAULT = {
    "lemma1.2": 46234, "thm2.4": 2312, "lemma3.4": 1156, "lemma3.5": 1156, "lemma3.7": 343,
    "lemma3.9": 1156, "cor3.10": 1782, "lemma3.12": 2312, "lemma3.13": 26443, "lemma3.14": 626,
    "cor3.15": 1782, "lemma3.16": 10592, "thm3.1": 10592, "prop4.1": 2056, "lemma4.2": 2056,
    "thm4.3": 4112, "stirling": 26563, "peaks": 46234,
}


def naive_outcome_words(n):
    """Literally park every staircase tuple, one full simulation each."""
    words = set()
    for prefs in itertools.product(*(range(1, n - i + 2) for i in range(1, n + 1))):
        spots = [0] * (n + 1)
        for car, pref in enumerate(prefs, start=1):
            s = pref
            while spots[s]:
                s += 1
            spots[s] = car
        words.add(tuple(spots[1:]))
    return words


def test_all_lehmer_counts_and_bounds():
    for n in range(7):
        tuples = [a.prefs for a in all_lehmer(n)]
        assert len(tuples) == len(set(tuples)) == math.factorial(n)
        assert tuples == sorted(tuples)  # lexicographic
        for prefs in tuples:
            assert all(v <= n - i + 1 for i, v in enumerate(prefs, start=1))
    with pytest.raises(ValueError):
        next(all_lehmer(-1))


def test_outcome_words_match_naive_parking():
    for n in range(9):
        parked = naive_outcome_words(n)
        assert outcome_words(n) == parked, f"n={n}"
        # the walk yields them in lexicographic order
        assert list(iter_outcome_words(n)) == sorted(parked), f"n={n}"


@pytest.mark.parametrize("cached", [1, 2, 3])
def test_the_walk_joins_its_uncached_columns_again(monkeypatch, cached):
    # a cache shallower than n makes the walk rejoin the columns before it at small n
    monkeypatch.setattr(counting, "_CACHED", cached)
    for n in range(9):
        words = sorted(naive_outcome_words(n))
        assert list(iter_outcome_words(n)) == words, f"n={n}"
        lines = ['{"outcome":[%s]}' % ",".join(map(str, w)) for w in words]
        assert list(counting._outcome_lines(n)) == lines, f"n={n}"


def test_outcomes_are_closed_under_inversion():
    # parking lands the cars on spots by the rule the walk gives the columns values
    for n in range(9):
        inverses = {
            tuple(sorted(range(1, n + 1), key=lambda i: w[i - 1])) for w in iter_outcome_words(n)
        }
        assert inverses == naive_outcome_words(n), f"n={n}"


def test_outcome_counts_are_bell_numbers():
    # the walk must reach each outcome exactly once: no repeats, none missing
    for n in range(11):
        words = list(iter_outcome_words(n))
        assert len(words) == len(set(words)) == BELL[n], f"n={n}"
    with pytest.raises(ValueError):
        next(iter_outcome_words(-1))


def test_enumerate_partitions_refuses_a_negative_n_when_first_advanced():
    partitions = enumerate_partitions(-1)  # lazy, like iter_outcome_words: no error yet
    with pytest.raises(ValueError, match="n must be nonnegative"):
        next(partitions)


@pytest.mark.parametrize("generate, first", [
    (iter_outcome_words, tuple(range(1, 1201))),
    (enumerate_partitions, SetPartition(1200, (tuple(range(1, 1201)),))),
    (enumerate_bsps, SpacedParen(1200, frozenset({1}), frozenset({1200}))),
], ids=["outcomes", "partitions", "bsps"])
def test_generators_do_not_depend_on_the_recursion_limit(generate, first):
    # a generator frame per element would pass the default limit of 1000
    assert next(generate(1200)) == first


def test_peak_counts_sum_to_the_walk_and_the_bell_numbers():
    for n in range(11):
        row = outcome_peak_counts(n)
        assert len(row) == n + 1
        assert sum(row) == BELL[n] == len(list(iter_outcome_words(n))), f"n={n}"


def test_peak_counts_are_the_block_counts_of_the_bijection():
    # under the bijection the peaks of an outcome become the blocks of its partition
    for n in range(9):
        blocks = Counter(
            len(outcome_to_partition(OutcomePermutation(Permutation(w))).blocks)
            for w in iter_outcome_words(n)
        )
        assert outcome_peak_counts(n) == [blocks[k] for k in range(n + 1)], f"n={n}"


def test_peak_counts_refuse_n_past_the_ceiling_at_once():
    with pytest.raises(ValueError, match="nonnegative"):
        outcome_peak_counts(-1)
    with pytest.raises(ValueError, match=f"n <= {enumeration._DP_MAX_N}"):
        outcome_peak_counts(enumeration._DP_MAX_N + 1)
    with pytest.raises(ValueError, match="n <= "):
        outcome_peak_counts(10**9)


def test_stirling_row_matches_the_inclusion_exclusion_formula():
    # S(n, k) = sum_j (-1)^j C(k, j) (k - j)^n / k!, counting surjections onto k blocks
    for n in range(15):
        surjections = [
            sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1))
            for k in range(n + 1)
        ]
        assert enumeration._stirling_row(n) == [
            s // math.factorial(k) for k, s in enumerate(surjections)
        ], f"n={n}"


def test_stirling_check_reports_a_wrong_peak_row(monkeypatch):
    # one outcome moved from 1 peak to 2: the Bell sum holds, both row checks fail
    def shifted(n):
        row = outcome_peak_counts(n)
        if n == 3:
            row[1:3] = [row[1] - 1, row[2] + 1]
        return row

    monkeypatch.setattr(enumeration, "outcome_peak_counts", shifted)
    assert verify("stirling", 3).discrepancies == (
        "n=3: the occupied-spot count gives 0 outcomes with 1 peaks, S(n, k) is 1",
        "n=3: the occupied-spot count gives 4 outcomes with 2 peaks, S(n, k) is 3",
        "n=3: the occupied-spot count gives 0 outcomes with 1 peaks, the walk finds 1",
        "n=3: the occupied-spot count gives 4 outcomes with 2 peaks, the walk finds 3",
    )


def test_peaks_check_reports_a_wrong_certifier(monkeypatch):
    # (1, 3, 2) is the one permutation of [3] whose peak 3 skips the free value 2
    monkeypatch.setattr(_plain, "_certify", lambda w: w)
    report = verify("peaks", 3)
    assert report.objects_checked == 10
    assert report.discrepancies == (
        "n=3: the certifier accepts (1, 3, 2), which the peak rule does not",
    )

    def refuse(w):
        raise ValueError("refused")

    monkeypatch.setattr(_plain, "_certify", refuse)
    assert verify("peaks", 3).discrepancies == tuple(
        f"n={n}: the certifier refuses {w}, which the peak rule does not"
        for n in range(4)
        for w in sorted(naive_outcome_words(n))
    )


def test_every_claimed_outcome_parks():
    for n in range(7):
        for w in outcome_words(n):
            # every outcome word must be hit by its spot-of-car preference tuple
            prefs = tuple(min(w.index(car) + 1, n - car + 1) for car in range(1, n + 1))
            result = park(PrefTuple(prefs))
            assert result.ok and result.outcome.word == w


def test_all_partial_diagrams_are_the_bell_many_rook_placements():
    # a rook placement at or above the antidiagonal is a set partition of [n + 1]
    for n in range(8):
        diagrams = list(enumeration._all_partial_diagrams(n))
        assert len(diagrams) == len(set(diagrams)) == BELL[n + 1], f"n={n}"
        for t in diagrams:
            points = [(c, r) for c, r in enumerate(t, start=1) if r]
            cols = [c for c, _ in points]
            rows = [r for _, r in points]
            assert len(set(cols)) == len(cols) and len(set(rows)) == len(rows), t
            assert all(1 <= c <= n and n - c + 1 <= r <= n for c, r in points), t


def test_weakly_decreasing_staircase_tuples_are_the_filtered_multisets():
    # the staircase bound on all C(2n - 1, n) multisets, in their order, is written here
    # again without `_plain._is_lehmer`
    for n in range(11):
        filtered = [
            prefs for prefs in itertools.combinations_with_replacement(range(n, 0, -1), n)
            if all(v <= n - i for i, v in enumerate(prefs))
        ]
        assert list(enumeration._weakly_decreasing_staircase(n)) == filtered, f"n={n}"
        assert len(filtered) == catalan(n), f"n={n}"


@pytest.mark.parametrize("theorem", [
    "lemma1.2", "lemma3.4", "lemma3.5", "lemma3.7", "lemma3.12", "lemma3.13", "lemma3.16", "thm3.1",
])
def test_heavy_checks_build_no_checked_object_per_enumerated_object(monkeypatch, theorem):
    # the checks walk plain values: no constructor check runs, not even once per n
    built = Counter()
    for cls in (
        PrefTuple, Permutation, OutcomePermutation, GBsp, SetPartition,
        SpacedParen, MatchedPairs, PartialArmLegDiagram,
    ):
        def spy(self, check=cls.__post_init__, name=cls.__name__):
            built[name] += 1
            check(self)

        monkeypatch.setattr(cls, "__post_init__", spy)
    assert Permutation((2, 1)).word == (2, 1) and built == {"Permutation": 1}  # the spies count
    built.clear()
    report = verify(theorem, 5)
    assert report.passed and report.objects_checked == OBJECTS_AT_5[theorem]
    assert built == {}


def test_a_repeated_outcome_fails_the_bell_count(monkeypatch):
    walk = enumeration.iter_outcome_words

    def walk_repeating_at_3(n):
        yield from walk(n)
        if n == 3:
            yield (1, 2, 3)

    monkeypatch.setattr(enumeration, "iter_outcome_words", walk_repeating_at_3)
    assert verify("thm3.1", 3).discrepancies == ("n=3: 6 outcomes, Bell number is 5",)


def test_outcome_set_distinct_sizes():
    for n in range(8):
        assert len(outcome_set(n)) == BELL[n]


def test_bell_matches_reference():
    assert [bell(n) for n in range(11)] == BELL
    assert bell(20) == 51724158235372
    with pytest.raises(ValueError):
        bell(-1)


def test_bell_matches_partition_enumeration():
    for n in range(8):
        assert bell(n) == sum(1 for _ in enumerate_partitions(n))


def test_catalan_matches_reference():
    assert [catalan(n) for n in range(10)] == CATALAN
    assert catalan(15) == 9694845
    with pytest.raises(ValueError):
        catalan(-1)


def test_catalan_matches_a_dyck_path_count():
    # Dyck paths counted one step at a time, sharing no code with the binomial formula:
    # ways[h] is the number of paths of the current length ending at height h
    ways = [1]
    for n in range(500):
        assert catalan(n) == ways[0], f"n={n}"
        for _ in range(2):
            padded = [0, *ways, 0, 0]  # padded[h] is ways[h - 1]
            ways = [padded[h] + padded[h + 2] for h in range(len(ways) + 1)]


def test_theorem_registry():
    ids = theorem_ids()
    assert ids == [
        "lemma1.2",
        "thm2.4",
        "lemma3.4",
        "lemma3.5",
        "lemma3.7",
        "lemma3.9",
        "cor3.10",
        "lemma3.12",
        "lemma3.13",
        "lemma3.14",
        "cor3.15",
        "lemma3.16",
        "thm3.1",
        "prop4.1",
        "lemma4.2",
        "thm4.3",
        "stirling",
        "peaks",
    ]
    for theorem in ids:
        assert describe_theorem(theorem)
        assert default_n_max(theorem) >= 4
    with pytest.raises(ValueError):
        describe_theorem("thm0.0")
    with pytest.raises(ValueError):
        verify("thm0.0")
    with pytest.raises(ValueError):
        verify("thm3.1", n_max=-1)


@pytest.mark.parametrize("theorem", [
    "lemma1.2",
    "thm2.4",
    "lemma3.4",
    "lemma3.5",
    "lemma3.7",
    "lemma3.9",
    "cor3.10",
    "lemma3.12",
    "lemma3.13",
    "lemma3.14",
    "cor3.15",
    "lemma3.16",
    "thm3.1",
    "prop4.1",
    "lemma4.2",
    "thm4.3",
    "stirling",
    "peaks",
])
def test_every_check_passes_at_its_default_n_max(theorem):
    report = verify(theorem)
    assert report.passed, report.discrepancies[:3]
    assert report.theorem == theorem
    assert report.n_max == default_n_max(theorem)
    assert report.objects_checked == OBJECTS_AT_DEFAULT[theorem]
    assert report.seconds >= 0
    smaller = verify(theorem, n_max=4)
    assert smaller.passed and smaller.n_max == 4


def test_objects_checked_at_n_max_5():
    assert {theorem: verify(theorem, 5).objects_checked for theorem in theorem_ids()} == OBJECTS_AT_5


def test_failing_check_reports_every_object(monkeypatch):
    monkeypatch.setattr(_plain, "_park", lambda prefs: 1)  # the first car fails
    report = verify("lemma1.2", 3)
    assert report.objects_checked == 10
    assert report.discrepancies == (
        "n=0: parking failed for staircase tuple ()",
        "n=1: parking failed for staircase tuple (1,)",
        "n=2: parking failed for staircase tuple (1, 1)",
        "n=2: parking failed for staircase tuple (2, 1)",
        "n=3: parking failed for staircase tuple (1, 1, 1)",
        "n=3: parking failed for staircase tuple (1, 2, 1)",
        "n=3: parking failed for staircase tuple (2, 1, 1)",
        "n=3: parking failed for staircase tuple (2, 2, 1)",
        "n=3: parking failed for staircase tuple (3, 1, 1)",
        "n=3: parking failed for staircase tuple (3, 2, 1)",
    )
    failed = tuple(
        f"n={n}: parking failed for weakly decreasing staircase tuple {prefs}"
        for n, prefs in ((0, ()), (1, (1,)), (2, (2, 1)), (2, (1, 1)))
    )
    for theorem in ("prop4.1", "lemma4.2"):
        report = verify(theorem, 2)
        assert (report.objects_checked, report.discrepancies) == (4, failed)
    report = verify("thm4.3", 2)
    assert report.objects_checked == 8
    assert report.discrepancies == (
        failed[0],
        "n=0: 132-avoider () is not a weakly decreasing outcome",
        failed[1],
        "n=1: 132-avoider (1,) is not a weakly decreasing outcome",
        *failed[2:],
        "n=2: 132-avoider (1, 2) is not a weakly decreasing outcome",
        "n=2: 132-avoider (2, 1) is not a weakly decreasing outcome",
    )

    monkeypatch.setattr(_plain, "_is_balanced", lambda n, F, L: False)
    report = verify("lemma3.5", 3)
    assert report.objects_checked == 9
    assert report.discrepancies == (
        "n=0: arms/legs of outcome () are not balanced",
        "n=1: arms/legs of outcome (1,) are not balanced",
        "n=2: arms/legs of outcome (1, 2) are not balanced",
        "n=2: arms/legs of outcome (2, 1) are not balanced",
        "n=3: arms/legs of outcome (1, 2, 3) are not balanced",
        "n=3: arms/legs of outcome (2, 1, 3) are not balanced",
        "n=3: arms/legs of outcome (2, 3, 1) are not balanced",
        "n=3: arms/legs of outcome (3, 1, 2) are not balanced",
        "n=3: arms/legs of outcome (3, 2, 1) are not balanced",
    )
    report = verify("lemma3.13", 3)
    assert report.objects_checked == 9
    assert report.discrepancies == tuple(
        f"n={n}: minima/maxima of {blocks} are not balanced"
        for n, blocks in (
            (0, ""), (1, "{1}"), (2, "{1,2}"), (2, "{1}|{2}"), (3, "{1,2,3}"),
            (3, "{1,2}|{3}"), (3, "{1,3}|{2}"), (3, "{1}|{2,3}"), (3, "{1}|{2}|{3}"),
        )
    )


def test_failing_check_reports_every_problem_of_an_object(monkeypatch):
    monkeypatch.setattr(_plain, "_depth_at", lambda rows, i: 1)
    monkeypatch.setattr(_plain, "_iter_depths", lambda n, F, L: (0,) * n)
    report = verify("lemma3.4", 3)
    assert report.objects_checked == 9
    assert report.discrepancies == tuple(
        f"n={n}: outcome {w} space {i}: box count 1 != paren depth 0"
        for n in range(4)
        for w in sorted(naive_outcome_words(n))
        for i in range(1, n + 1)
    )


def test_weakly_decreasing_checks_report_a_parking_that_is_not_injective(monkeypatch):
    # every tuple parks to the identity: no 132 anywhere, but one outcome per n
    monkeypatch.setattr(_plain, "_park", lambda prefs: tuple(range(1, len(prefs) + 1)))
    report = verify("prop4.1", 3)
    assert report.passed and report.objects_checked == 9
    report = verify("lemma4.2", 3)
    assert report.objects_checked == 9
    assert report.discrepancies == (
        "n=2: (2, 1) and (1, 1) park to the same outcome (1, 2)",
        "n=3: (3, 2, 1) and (3, 1, 1) park to the same outcome (1, 2, 3)",
        "n=3: (3, 2, 1) and (2, 2, 1) park to the same outcome (1, 2, 3)",
        "n=3: (3, 2, 1) and (2, 1, 1) park to the same outcome (1, 2, 3)",
        "n=3: (3, 2, 1) and (1, 1, 1) park to the same outcome (1, 2, 3)",
    )
    report = verify("thm4.3", 3)
    assert report.objects_checked == 18
    assert report.discrepancies == (
        "n=2: parking is not injective on weakly decreasing tuples",
        "n=2: 132-avoider (2, 1) is not a weakly decreasing outcome",
        "n=3: parking is not injective on weakly decreasing tuples",
        "n=3: 132-avoider (2, 1, 3) is not a weakly decreasing outcome",
        "n=3: 132-avoider (2, 3, 1) is not a weakly decreasing outcome",
        "n=3: 132-avoider (3, 1, 2) is not a weakly decreasing outcome",
        "n=3: 132-avoider (3, 2, 1) is not a weakly decreasing outcome",
    )


def test_weakly_decreasing_checks_report_every_outcome_a_132_scan_flags(monkeypatch):
    monkeypatch.setattr(_plain, "_contains_132", lambda w: True)
    report = verify("prop4.1", 2)
    assert report.objects_checked == 4
    assert report.discrepancies == (
        "n=0: outcome of () contains the pattern 132",
        "n=1: outcome of (1,) contains the pattern 132",
        "n=2: outcome of (2, 1) contains the pattern 132",
        "n=2: outcome of (1, 1) contains the pattern 132",
    )
    report = verify("thm4.3", 2)
    assert report.objects_checked == 4  # every avoider set is empty
    assert report.discrepancies == (
        "n=0: weakly decreasing outcome () contains 132",
        "n=1: weakly decreasing outcome (1,) contains 132",
        "n=2: weakly decreasing outcome (1, 2) contains 132",
        "n=2: weakly decreasing outcome (2, 1) contains 132",
    )


def test_arm_leg_check_parks_every_staircase_tuple(monkeypatch):
    # parking to the identity leaves every other avoider unparked
    park = _plain._park
    monkeypatch.setattr(_plain, "_park", lambda prefs: tuple(range(1, len(prefs) + 1)))
    assert verify("thm2.4", 3).discrepancies == (
        "n=2: (2, 1) avoids the arm-leg pattern but never parks",
        "n=3: (2, 1, 3) avoids the arm-leg pattern but never parks",
        "n=3: (2, 3, 1) avoids the arm-leg pattern but never parks",
        "n=3: (3, 1, 2) avoids the arm-leg pattern but never parks",
        "n=3: (3, 2, 1) avoids the arm-leg pattern but never parks",
    )
    # a car that fails is worded as in lemma1.2, and its tuple parks to nothing
    monkeypatch.setattr(_plain, "_park", lambda prefs: 1 if prefs == (2, 1) else park(prefs))
    assert verify("thm2.4", 2).discrepancies == (
        "n=2: parking failed for staircase tuple (2, 1)",
        "n=2: (2, 1) avoids the arm-leg pattern but never parks",
    )
    # so is a word that is no permutation, and it is kept out of the parked outcomes
    monkeypatch.setattr(_plain, "_park", lambda prefs: (1, 1) if prefs == (2, 1) else park(prefs))
    assert verify("thm2.4", 2).discrepancies == (
        "n=2: staircase tuple (2, 1) parks to (1, 1): not a permutation of [2]: (1, 1)",
        "n=2: (2, 1) avoids the arm-leg pattern but never parks",
    )


def test_report_json_shape():
    report = VerificationReport("thm3.1", 4, 100, (), 0.1234)
    obj = report.to_json_obj()
    assert obj == {
        "theorem": "thm3.1",
        "n_max": 4,
        "objects_checked": 100,
        "discrepancies": [],
        "pass": True,
        "seconds": 0.123,
    }
    failing = VerificationReport("thm3.1", 4, 100, ("bad at n=3",), 0.0)
    assert not failing.passed
    assert failing.to_json_obj()["pass"] is False


def test_report_is_a_frozen_record_with_the_dataclass_surface():
    report = VerificationReport("thm3.1", 4, 100, ("bad at n=3",), 0.5)
    same = VerificationReport(
        theorem="thm3.1", n_max=4, objects_checked=100, discrepancies=("bad at n=3",), seconds=0.5,
    )
    assert report == same and hash(report) == hash(same)
    assert report != VerificationReport("thm3.1", 4, 101, ("bad at n=3",), 0.5)
    assert repr(report) == (
        "VerificationReport(theorem='thm3.1', n_max=4, objects_checked=100, "
        "discrepancies=('bad at n=3',), seconds=0.5)"
    )
    assert (report.theorem, report.n_max, report.objects_checked) == ("thm3.1", 4, 100)
    assert (report.discrepancies, report.seconds, report.passed) == (("bad at n=3",), 0.5, False)
    with pytest.raises(AttributeError):
        report.seconds = 0.0


@pytest.mark.parametrize("theorem, stub, lines", [
    ("cor3.10", "_phi_prime", (
        "n=3: fiber of F=[1, 2], L=[2, 3] has 0 outcomes, product of depths gives 1",
        "n=3: outcomes map to unlisted parenthesization F=[1, 2, 3], L=[2, 3]",
    )),
    ("cor3.15", "_min_max", (
        "n=3: F=[1], L=[3] has 0 partitions, product of depths gives 1",
        "n=3: partitions map to unlisted parenthesization F=[1, 3], L=[3]",
    )),
])
def test_an_image_with_unequal_f_and_l_is_a_discrepancy(monkeypatch, theorem, stub, lines):
    # an image that no SpacedParen would accept is worded as F and L, not refused
    real = getattr(_plain, stub)

    def leg(x):
        F, L, *rest = real(x)
        return (F | {3}, L, *rest) if x in ((1, 2, 3), ((1, 2, 3),)) else (F, L, *rest)

    monkeypatch.setattr(_plain, stub, leg)
    assert verify(theorem, 3).discrepancies == lines


_walk, _park, _from_gbsp = enumeration.iter_outcome_words, _plain._park, _plain._from_gbsp
_blocks, _wd = _plain._partition_blocks, enumeration._weakly_decreasing_staircase


def _walk_with_a_repeat(n):  # (2, 1) comes out as (1, 1), which is no permutation
    return ((1, 1) if w == (2, 1) else w for w in _walk(n))


def _blocks_unsorted(n):  # {1}|{2} comes out with its blocks swapped
    return (((2,), (1,)) if b == ((1,), (2,)) else b for b in _blocks(n))


def _park_to_a_repeat(prefs):  # (1, 1) parks to (1, 1), which is no permutation
    return (1, 1) if prefs == (1, 1) else _park(prefs)


def _reversed_blocks(n, F, L, g):
    return _from_gbsp(n, F, L, g)[::-1]


_NOT_A_PERMUTATION = "not a permutation of [2]: (1, 1)"
_UNSORTED = "n=2: partition {2}|{1}: blocks are not in sorted form"
_WD_PARKS = f"n=2: weakly decreasing staircase tuple (1, 1) parks to (1, 1): {_NOT_A_PERMUTATION}"

# one planted fault per row: (theorem, n_max, module, name, stub, the exact discrepancies)
PLANTED_FAULTS = {
    "lemma1.2-prefix": ("lemma1.2", 1, _plain, "_is_parking_function", lambda prefs: False, (
        "n=0: staircase tuple () fails the sorted-prefix test",
        "n=1: staircase tuple (1,) fails the sorted-prefix test",
    )),
    "thm2.4-pattern": (
        "thm2.4", 3, _plain, "_park", lambda p: (1, 3, 2) if p == (1, 1, 1) else _park(p),
        ("n=3: (1, 3, 2) parked but contains the arm-leg pattern",),
    ),
    "lemma3.7": ("lemma3.7", 1, _plain, "_pairs_diagram", lambda n, pairs: (0,) * n, (
        "n=1: pairs of (_) do not reproduce its arms and legs",
        "n=1: 1 non-intersecting diagrams share arms/legs F=[1], L=[1]; "
        "expected exactly the constructed one",
    )),
    "lemma3.9": (
        "lemma3.9", 1, _plain, "_phi_prime", lambda w: (frozenset(), frozenset(), ()),
        ("n=1: filling of (_) has wrong arms/legs",),
    ),
    "cor3.10": ("cor3.10", 2, enumeration, "iter_outcome_words", _walk_with_a_repeat, (
        f"n=2: outcome (1, 1): {_NOT_A_PERMUTATION}",
        "n=2: fiber of F=[1, 2], L=[1, 2] has 0 outcomes, product of depths gives 1",
    )),
    "lemma3.12": ("lemma3.12", 2, enumeration, "iter_outcome_words", _walk_with_a_repeat, (
        f"n=2: outcome (1, 1): {_NOT_A_PERMUTATION}",
    )),
    "lemma3.13": ("lemma3.13", 2, _plain, "_partition_blocks", _blocks_unsorted, (_UNSORTED,)),
    "cor3.15": ("cor3.15", 2, _plain, "_partition_blocks", _blocks_unsorted, (
        _UNSORTED, "n=2: F=[1, 2], L=[1, 2] has 0 partitions, product of depths gives 1",
    )),
    "lemma3.16": ("lemma3.16", 2, _plain, "_partition_blocks", _blocks_unsorted, (_UNSORTED,)),
    "lemma3.14-refused": ("lemma3.14", 2, _plain, "_from_gbsp", _reversed_blocks, (
        "n=2: (_) (_) maps to partition {2}|{1}: blocks are not in sorted form",
    )),
    "lemma3.14-minima": (  # every base maps to the partition into singletons
        "lemma3.14", 2, _plain, "_from_gbsp", lambda n, F, L, g: tuple(zip(range(1, n + 1))),
        ("n=2: no partition found with minima/maxima (_ _)",),
    ),
    "thm3.1-outcome": ("thm3.1", 2, enumeration, "iter_outcome_words", _walk_with_a_repeat, (
        f"n=2: outcome (1, 1): {_NOT_A_PERMUTATION}",
        "n=2: outcome-to-partition image misses some partitions",
    )),
    "thm3.1-partition": ("thm3.1", 2, _plain, "_from_gbsp", _reversed_blocks, (
        "n=2: outcome (2, 1) maps to partition {2}|{1}: blocks are not in sorted form",
        "n=2: outcome-to-partition image misses some partitions",
    )),
    "prop4.1": ("prop4.1", 2, _plain, "_park", _park_to_a_repeat, (_WD_PARKS,)),
    "lemma4.2": ("lemma4.2", 2, _plain, "_park", _park_to_a_repeat, (_WD_PARKS,)),
    "thm4.3-park": ("thm4.3", 2, _plain, "_park", _park_to_a_repeat, (
        _WD_PARKS, "n=2: 132-avoider (1, 2) is not a weakly decreasing outcome",
    )),
    "thm4.3-count": (
        "thm4.3", 2, enumeration, "_weakly_decreasing_staircase",
        lambda n: (p for p in _wd(n) if p != (1, 1)), (
            "n=2: 1 weakly decreasing staircase tuples, Catalan is 2",
            "n=2: weakly decreasing staircase tuples differ from "
            "weakly decreasing parking functions",
            "n=2: 132-avoider (1, 2) is not a weakly decreasing outcome",
        ),
    ),
    "stirling-bell": ("stirling", 0, enumeration, "outcome_peak_counts", lambda n: [2], (
        "n=0: the occupied-spot count gives 2 outcomes, Bell is 1",
        "n=0: the occupied-spot count gives 2 outcomes with 0 peaks, S(n, k) is 1",
        "n=0: the occupied-spot count gives 2 outcomes with 0 peaks, the walk finds 1",
    )),
}


@pytest.mark.parametrize("theorem, n_max, module, name, stub, lines", PLANTED_FAULTS.values(),
                         ids=PLANTED_FAULTS)
def test_each_check_words_a_planted_fault_exactly(monkeypatch, theorem, n_max, module, name, stub,
                                                  lines):
    monkeypatch.setattr(module, name, stub)
    assert verify(theorem, n_max).discrepancies == lines
