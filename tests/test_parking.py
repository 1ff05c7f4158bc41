import itertools
import random

import pytest
from test_bijection import partition_of_2000

from lehmerpark._plain import _park
from lehmerpark.bijection import partition_to_outcome
from lehmerpark.enumeration import all_lehmer
from lehmerpark.parking import (
    ParkOutcome,
    PrefTuple,
    canonical_lehmer_preimage,
    is_lehmer,
    is_parking_function,
    is_weakly_decreasing,
    lehmer_from_inversion_table,
    park,
)
from lehmerpark.permutation import InversionTable, Permutation, contains_armleg_pattern


def oracle_park(prefs):
    """Park by explicit simulation on an occupancy list, value at spot i = car index."""
    n = len(prefs)
    spots = [0] * (n + 1)  # 1-based; 0 = empty
    for car, pref in enumerate(prefs, start=1):
        s = pref
        while s <= n and spots[s]:
            s += 1
        if s > n:
            return ("fail", car)
        spots[s] = car
    return ("park", tuple(spots[1:]))


def test_preftuple_validation():
    with pytest.raises(ValueError):
        PrefTuple((0, 1))
    with pytest.raises(ValueError):
        PrefTuple((1, 3))
    assert PrefTuple(()).n == 0


def test_park_outcome_shape():
    with pytest.raises(ValueError):
        ParkOutcome()
    with pytest.raises(ValueError):
        ParkOutcome(outcome=Permutation((1,)), failed_car=1)
    assert ParkOutcome(outcome=Permutation((1,))).ok
    assert not ParkOutcome(failed_car=1).ok


def test_park_worked_examples():
    assert park(PrefTuple((2, 2, 1))).outcome.word == (3, 1, 2)
    assert park(PrefTuple((5, 2, 4, 2, 1, 1))).outcome.word == (5, 2, 4, 3, 1, 6)
    result = park(PrefTuple((2, 2, 3)))
    assert not result.ok and result.failed_car == 3


def assert_park_matches_oracle(prefs):
    got = park(PrefTuple(prefs))
    want = oracle_park(prefs)
    if want[0] == "park":
        assert got.ok and got.outcome.word == want[1], prefs
    else:
        assert not got.ok and got.failed_car == want[1], prefs
    return want


def test_park_matches_simulation_oracle_on_all_tuples():
    for n in range(6):
        for prefs in itertools.product(range(1, n + 1), repeat=n):
            assert_park_matches_oracle(prefs)


def test_plain_park_matches_park_and_the_oracle_on_all_tuples():
    # _park gives the word, or the failed car as a bare int
    for n in range(7):
        for prefs in itertools.product(range(1, n + 1), repeat=n):
            plain = _park(prefs)
            want = oracle_park(prefs)
            got = park(PrefTuple(prefs))
            if want[0] == "park":
                assert plain == want[1] == got.outcome.word, prefs
            else:
                assert plain == want[1] == got.failed_car, prefs


@pytest.mark.parametrize("window", [2, 2000], ids=["shallow", "deep"])
def test_park_matches_oracle_on_canonical_preimages_at_n_2000(window):
    oc = partition_to_outcome(partition_of_2000(window))
    prefs = canonical_lehmer_preimage(oc.perm).prefs
    assert assert_park_matches_oracle(prefs) == ("park", oc.word)


@pytest.mark.parametrize("n", [1, 2, 3, 3000])
def test_park_fails_the_first_car_past_n_after_a_long_run(n):
    # all cars want spot k: cars 1..n-k+1 fill k..n, and the next one drives off
    for k in sorted({1, 2, (n + 1) // 2, n - 1, n} & set(range(1, n + 1))):
        want = assert_park_matches_oracle((k,) * n)
        assert want == (("park", tuple(range(1, n + 1))) if k == 1 else ("fail", n - k + 2))


def test_park_matches_oracle_on_a_seeded_sample_at_n_3000():
    n = 3000
    rng = random.Random(3000)
    # uniform over [n]^n: nearly all fail, after occupied runs of many lengths
    uniform = (tuple(rng.randint(1, n) for _ in range(n)) for _ in range(20))
    assert sum(assert_park_matches_oracle(prefs)[0] == "fail" for prefs in uniform) >= 15
    for _ in range(3):  # uniform staircase tuples: all park, through long runs
        prefs = tuple(rng.randint(1, n - i) for i in range(n))
        assert assert_park_matches_oracle(prefs)[0] == "park"
    for _ in range(5):  # sorted prefixes capped at i, shuffled: parking functions
        prefs = [min(v, i) for i, v in enumerate(sorted(rng.randint(1, n) for _ in range(n)), 1)]
        rng.shuffle(prefs)
        assert assert_park_matches_oracle(tuple(prefs))[0] == "park"


def test_parking_function_characterisation():
    assert is_parking_function(PrefTuple((2, 2, 1)))
    assert not is_parking_function(PrefTuple((2, 2, 3)))
    assert is_parking_function(PrefTuple(()))
    # sorted rearrangement test agrees with "everyone parks"
    for n in range(6):
        for prefs in itertools.product(range(1, n + 1), repeat=n):
            pt = PrefTuple(prefs)
            assert is_parking_function(pt) == park(pt).ok, prefs


def test_parking_function_counts():
    # (n+1)^(n-1) parking functions of length n
    for n in range(1, 6):
        count = sum(
            1
            for prefs in itertools.product(range(1, n + 1), repeat=n)
            if is_parking_function(PrefTuple(prefs))
        )
        assert count == (n + 1) ** (n - 1)


def test_is_lehmer():
    assert is_lehmer(PrefTuple((3, 2, 1)))
    assert is_lehmer(PrefTuple((1, 1, 1)))
    assert not is_lehmer(PrefTuple((1, 3, 1)))
    for n in range(6):
        count = sum(
            1
            for prefs in itertools.product(range(1, n + 1), repeat=n)
            if is_lehmer(PrefTuple(prefs))
        )
        expected = 1
        for k in range(1, n + 1):
            expected *= k
        assert count == expected  # n! staircase tuples
        assert count == len(list(all_lehmer(n)))


def test_lehmer_tuples_all_park():
    for n in range(7):
        for prefs in all_lehmer(n):
            assert park(prefs).ok, prefs.prefs


def test_is_weakly_decreasing():
    assert is_weakly_decreasing(PrefTuple((3, 3, 1)))
    assert not is_weakly_decreasing(PrefTuple((1, 2, 2)))
    assert is_weakly_decreasing(PrefTuple(()))


def test_lehmer_from_inversion_table_is_plus_one_shift():
    t = InversionTable((4, 1, 3, 1, 0, 0))
    assert lehmer_from_inversion_table(t).prefs == (5, 2, 4, 2, 1, 1)
    for n in range(6):
        for entries in itertools.product(*(range(n - i + 1) for i in range(1, n + 1))):
            shifted = lehmer_from_inversion_table(InversionTable(entries))
            assert shifted.prefs == tuple(e + 1 for e in entries)
            assert is_lehmer(shifted)


def test_canonical_preimage_parks_to_its_argument():
    for n in range(7):
        for word in itertools.permutations(range(1, n + 1)):
            p = Permutation(word)
            if contains_armleg_pattern(p):
                with pytest.raises(ValueError):
                    canonical_lehmer_preimage(p)
                continue
            prefs = canonical_lehmer_preimage(p)
            assert is_lehmer(prefs)
            result = park(prefs)
            assert result.ok and result.outcome == p, word
