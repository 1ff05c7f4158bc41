import itertools
import math
import random

import pytest

from lehmerpark.armleg import arms_legs, peaks
from lehmerpark.bijection import (
    OutcomePermutation,
    fiber,
    fiber_size,
    outcome_to_partition,
    partition_to_outcome,
    phi,
    phi_prime,
    phi_prime_inv,
)
from lehmerpark.enumeration import bell, enumerate_partitions, outcome_set, outcome_words
from lehmerpark.paren import GBsp, SpacedParen, depths, enumerate_bsps, enumerate_gbsps
from lehmerpark.parking import canonical_lehmer_preimage, park
from lehmerpark.permutation import Permutation, contains_armleg_pattern
from lehmerpark.setpartition import SetPartition, from_gbsp, to_gbsp


def outcome(*word):
    return OutcomePermutation(Permutation(word))


def brute_fiber(sp):
    """All pattern-avoiding permutations whose peaks carry exactly these arms
    and legs, found by filtering the whole symmetric group."""
    out = set()
    for word in itertools.permutations(range(1, sp.n + 1)):
        p = Permutation(word)
        if contains_armleg_pattern(p):
            continue
        if arms_legs(peaks(p)) == sp:
            out.add(p)
    return out


def test_outcome_permutation_certifies_membership():
    outcome(3, 4, 1, 5, 2, 6)
    with pytest.raises(ValueError):
        outcome(3, 4, 1, 6, 2, 5)
    with pytest.raises(ValueError):
        outcome(1, 3, 2)


def test_phi_worked_example():
    sp = phi(outcome(3, 4, 1, 5, 2, 6))
    assert sp == SpacedParen(6, frozenset({1, 2, 5}), frozenset({4, 5, 6}))


def test_phi_prime_worked_example():
    gb = phi_prime(outcome(3, 4, 1, 5, 2, 6))
    assert gb.base == SpacedParen(6, frozenset({1, 2, 5}), frozenset({4, 5, 6}))
    assert gb.g_map == {3: 2, 4: 1, 6: 1}
    assert phi_prime_inv(gb).word == (3, 4, 1, 5, 2, 6)


def test_phi_prime_identity_and_reverse():
    # identity: peaks at (i, i) for 2i >= n + 1, filled entries take g = their rank
    gb = phi_prime(outcome(1, 2, 3, 4, 5))
    assert gb.base == SpacedParen(5, frozenset({1, 2, 3}), frozenset({3, 4, 5}))
    assert gb.g_map == {4: 2, 5: 1}
    # reversal: every entry is a peak, so g is empty
    gb = phi_prime(outcome(5, 4, 3, 2, 1))
    assert gb.base.F == frozenset(range(1, 6))
    assert gb.g_map == {}


def test_phi_prime_bijection_exhaustive():
    """phi_prime maps the outcomes bijectively onto the g-parenthesizations."""
    for n in range(8):
        outcomes = outcome_set(n)
        images = set()
        for oc in outcomes:
            gb = phi_prime(oc)
            assert phi_prime_inv(gb) == oc, oc.word
            images.add(gb)
        assert len(images) == len(outcomes) == bell(n)
        if n <= 6:
            assert images == set(enumerate_gbsps(n))
    for n in range(7):
        for gb in enumerate_gbsps(n):
            assert phi_prime(phi_prime_inv(gb)) == gb, gb


def test_fiber_size_matches_depth_product():
    for n in range(7):
        for sp in enumerate_bsps(n):
            ds = depths(sp)
            expected = math.prod(ds[i - 1] for i in range(1, n + 1) if i not in sp.F)
            assert fiber_size(sp) == expected, sp


def test_fiber_matches_brute_force():
    for n in range(7):
        for sp in enumerate_bsps(n):
            got = list(fiber(sp))
            assert len(got) == len(set(got)) == fiber_size(sp)
            assert {m.perm for m in got} == brute_fiber(sp), sp


def test_fiber_equals_phi_prime_inv_over_checked_gbsps():
    # the fiber through checked GBsps, one per g in lexicographic order
    for n in range(8):
        for sp in enumerate_bsps(n):
            free = [i for i in range(1, n + 1) if i not in sp.F]
            ds = depths(sp)
            gbsps = (
                GBsp(sp, dict(zip(free, combo)))
                for combo in itertools.product(*(range(1, ds[i - 1] + 1) for i in free))
            )
            assert list(fiber(sp)) == list(map(phi_prime_inv, gbsps)), sp


def test_fiber_worked_example():
    sp = SpacedParen(6, frozenset({1, 2, 5}), frozenset({4, 5, 6}))
    members = list(fiber(sp))
    assert fiber_size(sp) == len(members) == 4
    assert Permutation((3, 4, 1, 5, 2, 6)) in {m.perm for m in members}
    assert all(phi(m) == sp for m in members)


def test_fiber_requires_balance():
    with pytest.raises(ValueError):
        fiber_size(SpacedParen(2, frozenset({2}), frozenset({1})))
    with pytest.raises(ValueError):
        next(fiber(SpacedParen(2, frozenset({2}), frozenset({1}))))


def test_fibers_partition_the_outcomes():
    for n in range(7):
        seen = set()
        for sp in enumerate_bsps(n):
            members = set(fiber(sp))
            assert not members & seen
            seen |= members
        assert seen == outcome_set(n)


def test_partition_chain_worked_example():
    oc = outcome(3, 4, 1, 5, 2, 6)
    b = outcome_to_partition(oc)
    assert b == SetPartition(6, ((1, 4), (2, 3, 6), (5,)))
    assert partition_to_outcome(b) == oc


def test_partition_chain_exhaustive():
    for n in range(8):
        outcomes = outcome_set(n)
        images = set()
        for oc in outcomes:
            b = outcome_to_partition(oc)
            assert partition_to_outcome(b) == oc, oc.word
            images.add(b)
        assert len(images) == len(outcomes)
        assert images == set(enumerate_partitions(n))


def test_composites_equal_the_composed_legs():
    # the composite maps chain the plain sweeps; the legs build and check each GBsp
    for n in range(9):
        for oc in outcome_set(n):
            assert outcome_to_partition(oc) == from_gbsp(phi_prime(oc)), oc.word
        for b in enumerate_partitions(n):
            assert partition_to_outcome(b) == phi_prime_inv(to_gbsp(b)), b


def test_outcomes_are_exactly_parkable_images():
    """Each outcome permutation really arises from parking some staircase tuple."""
    for n in range(7):
        for oc in outcome_set(n):
            result = park(canonical_lehmer_preimage(oc.perm))
            assert result.ok and result.outcome == oc.perm


def literal_g_of_outcome(word):
    """g of phi_prime by its definition: sweeping the rows from the top, the
    entry of each peakless row n - i + 1 sits in a column c < i, and g(i) is
    the rank of c among the columns j < i that hold neither a peak nor the
    entry of a higher row.  The list of such columns is rebuilt at every row."""
    n = len(word)
    peak_points = [(c, v) for c, v in enumerate(word, start=1) if v >= n - c + 1]
    F = {n - v + 1 for _, v in peak_points}
    used = {c for c, _ in peak_points}
    g = {}
    for i in range(1, n + 1):
        if i in F:
            continue
        c = word.index(n - i + 1) + 1
        empty = [j for j in range(1, i) if j not in used]
        g[i] = empty.index(c) + 1
        used.add(c)
    return g


def literal_g_of_partition(b):
    """g of to_gbsp by its definition: the rank of i's block among the blocks
    with min < i <= max, ordered by minimum."""
    g = {}
    for blk in b.blocks:
        for i in blk[1:]:
            open_blocks = [other for other in b.blocks if other[0] < i <= other[-1]]
            g[i] = open_blocks.index(blk) + 1
    return g


def partition_of_2000(window):
    """Each element opens a block, or joins one of the `window` newest blocks."""
    rng = random.Random(window)
    blocks = []
    for x in range(1, 2001):
        if not blocks or rng.random() < 0.5:
            blocks.append([x])
        else:
            blocks[rng.randrange(max(0, len(blocks) - window), len(blocks))].append(x)
    return SetPartition(2000, tuple(tuple(blk) for blk in blocks))


def test_g_matches_literal_definition_exhaustive():
    for n in range(9):
        for w in outcome_words(n):
            assert phi_prime(OutcomePermutation(Permutation(w))).g_map == literal_g_of_outcome(w), w
        for b in enumerate_partitions(n):
            assert to_gbsp(b).g_map == literal_g_of_partition(b), b


@pytest.mark.parametrize("window, max_depth", [(2, 2), (2000, 252)], ids=["shallow", "deep"])
def test_g_matches_literal_definition_at_n_2000(window, max_depth):
    b = partition_of_2000(window)
    gb = to_gbsp(b)
    assert max(depths(gb.base)) == max_depth
    assert gb.g_map == literal_g_of_partition(b)
    oc = partition_to_outcome(b)
    assert oc == phi_prime_inv(gb)
    assert outcome_to_partition(oc) == from_gbsp(phi_prime(oc)) == b
    assert phi_prime(oc).g_map == literal_g_of_outcome(oc.word)
    assert not contains_armleg_pattern(oc.perm)
    # peaks (f, l) in column order: where f drops, the later peak encloses the
    # earlier one (nothing crosses), and swapping their entries makes them cross
    n, word = oc.n, list(oc.word)
    pk = [(n - v + 1, c) for c, v in enumerate(word, start=1) if n - v + 1 <= c]
    i = next(i for i in range(len(pk) - 1) if pk[i][0] > pk[i + 1][0])
    (fa, la), (fb, lb) = pk[i + 1], pk[i]
    assert fa < fb <= lb < la
    word[la - 1], word[lb - 1] = word[lb - 1], word[la - 1]
    assert contains_armleg_pattern(Permutation(tuple(word)))
    with pytest.raises(ValueError):
        OutcomePermutation(Permutation(tuple(word)))
