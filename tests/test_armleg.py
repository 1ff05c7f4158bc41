import itertools
import re

import pytest

from lehmerpark.armleg import (
    GridPoint,
    PartialArmLegDiagram,
    arms_legs,
    depth_at,
    is_intersecting,
    peaks,
    peaks_from_pairs,
)
from lehmerpark.paren import MatchedPairs, matching_pairs
from lehmerpark.permutation import Permutation, contains_armleg_pattern


def all_partial_diagrams(n):
    """Every way to drop at most one point per column at or above the antidiagonal,
    no two points sharing a row."""
    def extend(col, used_rows, points):
        if col > n:
            yield PartialArmLegDiagram(n, frozenset(points))
            return
        yield from extend(col + 1, used_rows, points)
        for row in range(n - col + 1, n + 1):
            if row not in used_rows:
                points.append(GridPoint(col, row))
                yield from extend(col + 1, used_rows | {row}, points)
                points.pop()

    yield from extend(1, frozenset(), [])


def oracle_intersecting(diagram):
    """Two hooks cross iff the horizontal arm of one meets the vertical leg of the
    other, checked with literal segment geometry."""
    pts = sorted(diagram.points)
    n = diagram.n
    for (c1, r1), (c2, r2) in itertools.combinations(pts, 2):
        # arm of (c1, r1): row r1, columns n - r1 + 1 .. c1
        # leg of (c2, r2): column c2, rows n - c2 + 1 .. r2 (and vice versa)
        for (ac, ar), (lc, lr) in ((( c1, r1), (c2, r2)), ((c2, r2), (c1, r1))):
            if n - ar + 1 <= lc <= ac and n - lc + 1 <= ar <= lr:
                return True
    return False


def test_diagram_validation():
    with pytest.raises(ValueError):
        PartialArmLegDiagram(3, frozenset({GridPoint(1, 2)}))  # below antidiagonal
    with pytest.raises(ValueError):
        PartialArmLegDiagram(3, frozenset({GridPoint(0, 3)}))
    with pytest.raises(ValueError):
        PartialArmLegDiagram(3, frozenset({GridPoint(1, 3), GridPoint(2, 3)}))
    PartialArmLegDiagram(3, frozenset({GridPoint(1, 3), GridPoint(3, 1)}))


def test_peaks_worked_example():
    t = peaks(Permutation((3, 4, 1, 5, 2, 6)))
    assert set(t.points) == {GridPoint(4, 5), GridPoint(5, 2), GridPoint(6, 6)}


def test_peaks_identity_and_reverse():
    # on the identity, entry i is a peak exactly when i >= n - i + 1
    assert set(peaks(Permutation((1, 2, 3, 4))).points) == {GridPoint(3, 3), GridPoint(4, 4)}
    assert set(peaks(Permutation((1, 2, 3, 4, 5))).points) == {
        GridPoint(3, 3),
        GridPoint(4, 4),
        GridPoint(5, 5),
    }
    # reversal: every entry sits on the antidiagonal, so all are peaks
    assert set(peaks(Permutation((4, 3, 2, 1))).points) == {
        GridPoint(1, 4),
        GridPoint(2, 3),
        GridPoint(3, 2),
        GridPoint(4, 1),
    }


def test_every_nonempty_permutation_has_a_peak():
    for n in range(1, 7):
        for word in itertools.permutations(range(1, n + 1)):
            assert len(peaks(Permutation(word)).points) >= 1


def test_arms_legs_worked_example():
    t = peaks(Permutation((3, 4, 1, 5, 2, 6)))
    sp = arms_legs(t)
    assert sp.F == frozenset({1, 2, 5})
    assert sp.L == frozenset({4, 5, 6})


def test_is_intersecting_matches_geometry_oracle_on_diagrams():
    for n in range(8):
        for diagram in all_partial_diagrams(n):
            assert is_intersecting(diagram) == oracle_intersecting(diagram), diagram


def test_pattern_containment_equals_peak_intersection():
    for n in range(8):
        for word in itertools.permutations(range(1, n + 1)):
            p = Permutation(word)
            assert contains_armleg_pattern(p) == is_intersecting(peaks(p)), word


def test_peaks_from_pairs_inverts_arms_legs():
    for n in range(7):
        for word in itertools.permutations(range(1, n + 1)):
            p = Permutation(word)
            if contains_armleg_pattern(p):
                continue
            t = peaks(p)
            pairs = matching_pairs(arms_legs(t))
            assert set(peaks_from_pairs(pairs, n).points) == set(t.points)


def test_matched_pairs_validation():
    with pytest.raises(ValueError):
        MatchedPairs(((1, 3), (1, 4)))  # repeated opener
    with pytest.raises(ValueError):
        MatchedPairs(((3, 2),))  # closes before it opens
    with pytest.raises(ValueError):
        MatchedPairs(((1, 3), (2, 4)))  # crossing
    with pytest.raises(ValueError):
        MatchedPairs(((0, 2),))  # spaces start at 1
    MatchedPairs(((1, 4), (2, 3)))  # nesting is fine
    # every pairing of openings F with closings L in [6] with f <= l: accepted
    # exactly when no two pairs cross, else the two pairs named do cross
    for k in range(7):
        for F, L in itertools.product(itertools.combinations(range(1, 7), k), repeat=2):
            for closings in itertools.permutations(L):
                pairs = tuple(zip(F, closings))
                if any(f > l for f, l in pairs):
                    continue
                crossing = [(a, b) for a in pairs for b in pairs if a[0] < b[0] <= a[1] < b[1]]
                try:
                    MatchedPairs(pairs)
                except ValueError as exc:
                    fa, la, fb, lb = map(int, re.findall(r"\d+", str(exc)))
                    assert ((fa, la), (fb, lb)) in crossing, (pairs, str(exc))
                else:
                    assert not crossing, pairs


def test_peaks_from_pairs_rejects_points_outside_grid():
    with pytest.raises(ValueError):
        peaks_from_pairs(MatchedPairs(((2, 4),)), 3)  # column 4 on a 3-grid


def test_peaks_from_pairs_refuses_duplicate_pairs():
    # two equal pairs would give one point, so the diagram would lose a pair
    with pytest.raises(ValueError, match="^duplicate pairs$"):
        peaks_from_pairs([(1, 1), (1, 1)], 1)


def test_depth_at_counts_box():
    t = peaks(Permutation((3, 4, 1, 5, 2, 6)))
    assert [depth_at(t, i) for i in range(1, 7)] == [1, 2, 2, 2, 2, 1]
    empty = PartialArmLegDiagram(4, frozenset())
    assert [depth_at(empty, i) for i in range(1, 5)] == [0, 0, 0, 0]


def test_depth_at_equals_paren_depth_on_peak_diagrams():
    from lehmerpark.paren import depths

    for n in range(7):
        for word in itertools.permutations(range(1, n + 1)):
            p = Permutation(word)
            if contains_armleg_pattern(p):
                continue
            t = peaks(p)
            ds = depths(arms_legs(t))
            assert tuple(depth_at(t, i) for i in range(1, n + 1)) == ds, word


def test_json_roundtrip():
    t = peaks(Permutation((3, 4, 1, 5, 2, 6)))
    again = PartialArmLegDiagram.from_json_obj(t.to_json_obj())
    assert again == t
