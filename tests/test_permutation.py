import itertools
import random

import pytest

from lehmerpark.errors import ParseError
from lehmerpark.permutation import (
    InversionTable,
    Permutation,
    contains_armleg_pattern,
    contains_pattern_132,
    from_inversion_table,
    identity,
    inverse,
    inversion_table,
)


# --- independent oracles, sharing no code with the library ----------------


def naive_inversion_table(word):
    """Entry i = number of larger values left of i, straight from the definition."""
    entries = []
    for value in range(1, len(word) + 1):
        pos = word.index(value)
        entries.append(len([w for w in word[:pos] if w > value]))
    return tuple(entries)


def naive_contains_132(word):
    n = len(word)
    return any(
        word[i] < word[k] < word[j]
        for i in range(n)
        for j in range(i + 1, n)
        for k in range(j + 1, n)
    )


def naive_contains_armleg(word):
    n = len(word)
    return any(
        n - (i + 1) + 1 <= word[j] < word[i]
        for i in range(n)
        for j in range(i + 1, n)
    )


def staircase_outcome(rng, n):
    """Park car i at the first empty spot from a random a_i in [1, n - i + 1];
    outcomes of such staircase tuples avoid the arm-leg pattern."""
    spots = [0] * (n + 1)
    for car in range(1, n + 1):
        s = rng.randint(1, n - car + 1)
        while spots[s]:
            s += 1
        spots[s] = car
    return tuple(spots[1:])


def random_132_avoider(rng, n, low=1):
    """A permutation of low..low+n-1 in which every value left of the largest
    exceeds every value right of it, recursively."""
    if n == 0:
        return ()
    k = rng.randrange(n)  # how many values go right of the largest
    left, right = random_132_avoider(rng, n - 1 - k, low + k), random_132_avoider(rng, k, low)
    return left + (low + n - 1,) + right


def seeded_words(avoider, sizes, per_size=8, seed=0):
    """Per size: uniform permutations, avoiders, and avoiders with two entries swapped."""
    rng = random.Random(seed)
    for n in sizes:
        for _ in range(per_size):
            yield tuple(rng.sample(range(1, n + 1), n))
            word = avoider(rng, n)
            yield word
            i, j = sorted(rng.sample(range(n), 2))
            yield word[:i] + (word[j],) + word[i + 1:j] + (word[i],) + word[j + 1:]


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))
    with pytest.raises(ValueError):
        Permutation((0, 1))
    with pytest.raises(ValueError):
        Permutation((2, 3))
    assert Permutation(()).n == 0


def test_positions_and_values_are_one_based():
    p = Permutation((5, 2, 4, 3, 1, 6))
    assert p.value_at(1) == 5
    assert p.position_of(5) == 1
    with pytest.raises(ValueError):
        p.value_at(0)
    with pytest.raises(ValueError):
        p.value_at(7)


def test_text_forms():
    assert Permutation.from_text("5,2,4,3,1,6").word == (5, 2, 4, 3, 1, 6)
    assert Permutation.from_text("524316").word == (5, 2, 4, 3, 1, 6)
    assert Permutation.from_text("1").word == (1,)
    assert str(Permutation((5, 2, 4, 3, 1, 6))) == "524316"
    with pytest.raises(ParseError):
        Permutation.from_text("5,2,x")
    # a ten-digit string cannot be the one-line form of anything valid
    with pytest.raises(ValueError):
        Permutation.from_text("1234567891")


def test_the_one_line_form_takes_commas_past_n_9():
    assert str(Permutation(tuple(range(1, 11)))) == "1,2,3,4,5,6,7,8,9,10"


def test_json_form_is_an_array():
    assert Permutation.from_json_obj([2, 1]).word == (2, 1)
    with pytest.raises(ParseError) as err:
        Permutation.from_json_obj({"perm": [1]})
    assert str(err.value) == "expected a permutation as a JSON array, got {'perm': [1]}"


def test_inverse_small_cases():
    assert inverse(Permutation((2, 3, 1))).word == (3, 1, 2)
    assert inverse(identity(4)) == identity(4)
    assert inverse(Permutation((5, 2, 4, 3, 1, 6))).word == (5, 2, 4, 3, 1, 6)


def test_inverse_is_an_involution_on_s5():
    for word in itertools.permutations(range(1, 6)):
        p = Permutation(word)
        q = inverse(p)
        assert all(q.word[p.word[i] - 1] == i + 1 for i in range(5))
        assert inverse(q) == p


def test_inversion_table_known_values():
    assert inversion_table(Permutation((5, 2, 4, 6, 1, 3))).entries == (4, 1, 3, 1, 0, 0)
    assert inversion_table(Permutation((3, 2, 1))).entries == (2, 1, 0)
    assert inversion_table(identity(5)).entries == (0, 0, 0, 0, 0)
    for word in seeded_words(staircase_outcome, (50, 300), per_size=2, seed=1):
        assert inversion_table(Permutation(word)).entries == naive_inversion_table(word)


def test_inversion_table_bounds_enforced():
    with pytest.raises(ValueError):
        InversionTable((3, 0, 0))  # entry 1 may be at most n - 1 = 2
    with pytest.raises(ValueError):
        InversionTable((0, 0, -1))


def test_from_inversion_table_known_values():
    assert from_inversion_table(InversionTable((4, 1, 3, 1, 0, 0))).word == (5, 2, 4, 6, 1, 3)
    assert from_inversion_table(InversionTable((0,) * 5)) == identity(5)


@pytest.mark.parametrize("n", range(8))
def test_inversion_table_roundtrip_exhaustive(n):
    """Both composites are the identity, and the table always matches the oracle."""
    for word in itertools.permutations(range(1, n + 1)):
        p = Permutation(word)
        t = inversion_table(p)
        assert t.entries == naive_inversion_table(word)
        assert from_inversion_table(t) == p
    for entries in itertools.product(*(range(n - i + 1) for i in range(1, n + 1))):
        t = InversionTable(entries)
        assert inversion_table(from_inversion_table(t)) == t


def test_pattern_132_examples():
    assert contains_pattern_132(Permutation((1, 3, 2)))
    assert not contains_pattern_132(Permutation((3, 2, 1)))
    assert not contains_pattern_132(Permutation(()))
    assert not contains_pattern_132(Permutation((2, 1)))


def test_pattern_132_agrees_with_cubic_oracle():
    for n in range(7):
        for word in itertools.permutations(range(1, n + 1)):
            assert contains_pattern_132(Permutation(word)) == naive_contains_132(word)
    for word in seeded_words(random_132_avoider, (8, 13, 30, 60), seed=132):
        assert contains_pattern_132(Permutation(word)) == naive_contains_132(word), word


def test_132_avoider_counts_are_catalan():
    catalan = [1, 1, 2, 5, 14, 42, 132, 429, 1430]
    for n in range(9):
        avoiders = sum(
            1
            for word in itertools.permutations(range(1, n + 1))
            if not contains_pattern_132(Permutation(word))
        )
        assert avoiders == catalan[n], f"n={n}"


def test_armleg_pattern_examples():
    assert contains_armleg_pattern(Permutation((3, 4, 1, 6, 2, 5)))
    assert not contains_armleg_pattern(Permutation((3, 4, 1, 5, 2, 6)))
    assert not contains_armleg_pattern(identity(6))
    assert contains_armleg_pattern(Permutation((1, 3, 2)))


def test_armleg_pattern_agrees_with_quadratic_oracle():
    for n in range(7):
        for word in itertools.permutations(range(1, n + 1)):
            assert contains_armleg_pattern(Permutation(word)) == naive_contains_armleg(word)
    for word in seeded_words(staircase_outcome, (8, 13, 50, 120, 300), seed=300):
        assert contains_armleg_pattern(Permutation(word)) == naive_contains_armleg(word), word
