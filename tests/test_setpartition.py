import pytest

from lehmerpark import _plain
from lehmerpark.enumeration import bell, enumerate_partitions
from lehmerpark.paren import GBsp, SpacedParen, depths, is_balanced
from lehmerpark.setpartition import SetPartition, from_gbsp, min_max, to_gbsp


def all_partitions_by_assignment(n):
    """Partitions as restricted-growth strings, no shared code, in lexicographic
    order of the strings: each label is at most one past the largest before it."""
    strings = [()]
    for _ in range(n):
        strings = [s + (lab,) for s in strings for lab in range(max(s, default=-1) + 2)]
    out = []
    for labels in strings:
        blocks = {}
        for i, lab in enumerate(labels, start=1):
            blocks.setdefault(lab, []).append(i)
        out.append(SetPartition(n, tuple(tuple(b) for b in blocks.values())))
    return out


def test_canonical_form():
    b = SetPartition(6, ((6, 3, 2), (4, 1), (5,)))
    assert b.blocks == ((1, 4), (2, 3, 6), (5,))
    assert b.block_of(6) == (2, 3, 6)
    with pytest.raises(ValueError):
        b.block_of(7)


def test_partition_validation():
    with pytest.raises(ValueError):
        SetPartition(3, ((1, 2),))  # 3 missing
    with pytest.raises(ValueError):
        SetPartition(3, ((1, 2), (2, 3)))  # 2 repeated
    with pytest.raises(ValueError):
        SetPartition(2, ((1, 2, 3),))
    with pytest.raises(ValueError):
        SetPartition(2, ((1, 2), ()))
    assert SetPartition(0, ()).blocks == ()


def test_text_forms():
    b = SetPartition.from_text("{1,4}|{2,3,6}|{5}")
    assert b == SetPartition(6, ((1, 4), (2, 3, 6), (5,)))
    assert str(b) == "{1,4}|{2,3,6}|{5}"
    assert SetPartition.from_text(str(b)) == b
    with pytest.raises(ValueError):
        SetPartition.from_text("{1,4}|{2,6}")  # n inferred as 4 but 6 is beyond it


def test_json_roundtrip_and_inferred_n():
    b = SetPartition(6, ((1, 4), (2, 3, 6), (5,)))
    assert SetPartition.from_json_obj(b.to_json_obj()) == b
    assert SetPartition.from_json_obj({"blocks": [[1, 4], [2, 3, 6], [5]]}) == b


def test_min_max_worked_example():
    b = SetPartition(6, ((1, 4), (2, 3, 6), (5,)))
    sp = min_max(b)
    assert sp.F == frozenset({1, 2, 5})
    assert sp.L == frozenset({4, 5, 6})


def test_min_max_always_balanced():
    """Block minima open and maxima close, so every prefix has an open block."""
    for n in range(7):
        for b in enumerate_partitions(n):
            assert is_balanced(min_max(b))


def test_to_gbsp_worked_example():
    gb = to_gbsp(SetPartition(6, ((1, 4), (2, 3, 6), (5,))))
    assert gb.base == SpacedParen(6, frozenset({1, 2, 5}), frozenset({4, 5, 6}))
    assert gb.g_map == {3: 2, 4: 1, 6: 1}


def test_from_gbsp_worked_example():
    gb = GBsp(SpacedParen(6, frozenset({1, 2, 5}), frozenset({4, 5, 6})), {3: 2, 4: 1, 6: 1})
    assert from_gbsp(gb) == SetPartition(6, ((1, 4), (2, 3, 6), (5,)))


def test_partition_gbsp_roundtrip_exhaustive():
    """to_gbsp and from_gbsp are mutually inverse on everything up to n = 7."""
    from lehmerpark.paren import enumerate_gbsps

    for n in range(8):
        partitions = list(enumerate_partitions(n))
        images = set()
        for b in partitions:
            gb = to_gbsp(b)
            assert from_gbsp(gb) == b, b
            images.add(gb)
        assert len(images) == len(partitions)
        if n <= 6:
            assert images == set(enumerate_gbsps(n))
    for n in range(7):
        for gb in enumerate_gbsps(n):
            assert to_gbsp(from_gbsp(gb)) == gb, gb


def test_from_gbsp_lists_the_blocks_in_sorted_form():
    # the plain leg yields SetPartition's form itself (each block ascending, the
    # blocks by minimum), so no caller sorts its output
    for n in range(9):
        for F, L, g in _plain._gbsps(n):
            blocks = _plain._from_gbsp(n, F, L, g)
            assert blocks == _plain._check_blocks(n, blocks), (n, F, L, g)


def test_g_value_ranks_open_blocks():
    # at space 3 the open blocks of {1,4}|{2,3,6}|{5} are {1,4} and {2,3,6},
    # ordered by minimum; 3 sits in the second
    b = SetPartition(6, ((1, 4), (2, 3, 6), (5,)))
    gb = to_gbsp(b)
    ds = depths(gb.base)
    for i, v in gb.g:
        assert 1 <= v <= ds[i - 1]


def test_enumerate_partitions_counts_and_oracle():
    for n in range(10):
        listed = list(enumerate_partitions(n))
        assert len(listed) == len(set(listed)) == bell(n)
        assert listed == all_partitions_by_assignment(n)
