import itertools
import random
from collections import Counter

import pytest

from lehmerpark._plain import _is_balanced
from lehmerpark.enumeration import catalan
from lehmerpark.errors import GbspError, ParseError
from lehmerpark.paren import (
    GBsp,
    MatchedPairs,
    SpacedParen,
    depth,
    depths,
    enumerate_bsps,
    enumerate_gbsps,
    is_balanced,
    matching_pairs,
    parse,
    render,
)


def oracle_depth(sp, i):
    opens = len([f for f in sp.F if f <= i])
    closes = len([l for l in sp.L if l <= i - 1])
    return opens - closes


def all_fl_pairs(n):
    """Every (F, L) with |F| = |L|, not only the balanced ones."""
    for k in range(n + 1):
        for F in itertools.combinations(range(1, n + 1), k):
            for L in itertools.combinations(range(1, n + 1), k):
                yield SpacedParen(n, frozenset(F), frozenset(L))


def test_spaced_paren_validation():
    with pytest.raises(ValueError):
        SpacedParen(3, frozenset({1}), frozenset())  # size mismatch
    with pytest.raises(ValueError):
        SpacedParen(3, frozenset({0}), frozenset({1}))
    with pytest.raises(ValueError):
        SpacedParen(3, frozenset({1}), frozenset({4}))
    SpacedParen(0, frozenset(), frozenset())


def test_depths_worked_example():
    sp = SpacedParen(7, frozenset({1, 3, 5}), frozenset({5, 6, 7}))
    assert depths(sp) == (1, 1, 2, 2, 3, 2, 1)
    assert is_balanced(sp)


def test_depth_matches_oracle_everywhere():
    for n in range(6):
        for sp in all_fl_pairs(n):
            assert depths(sp) == tuple(oracle_depth(sp, i) for i in range(1, n + 1))
            assert all(depth(sp, i) == oracle_depth(sp, i) for i in range(1, n + 1))
            assert is_balanced(sp) == all(oracle_depth(sp, i) >= 1 for i in range(1, n + 1))


def test_plain_balance_test_matches_is_balanced():
    # every (F, L) of [n], unequal sizes too, against the depth by its definition;
    # is_balanced takes the equal-size pairs, the ones SpacedParen accepts
    for n in range(7):
        spaces = range(1, n + 1)
        subsets = [frozenset(c) for k in range(n + 1) for c in itertools.combinations(spaces, k)]
        for F in subsets:
            for L in subsets:
                want = all(len([f for f in F if f <= i]) - len([l for l in L if l < i]) >= 1 for i in spaces)
                assert _is_balanced(n, F, L) == want, (n, F, L)
                if len(F) == len(L):
                    assert is_balanced(SpacedParen(n, F, L)) == want, (n, F, L)


def test_depth_rejects_out_of_range_positions():
    sp = SpacedParen(3, frozenset({1}), frozenset({3}))
    with pytest.raises(ValueError):
        depth(sp, 0)
    with pytest.raises(ValueError):
        depth(sp, 4)


def test_matching_pairs_worked_example():
    sp = SpacedParen(7, frozenset({1, 3, 5}), frozenset({5, 6, 7}))
    assert tuple(matching_pairs(sp)) == ((1, 7), (3, 6), (5, 5))


def test_matching_pairs_requires_balance():
    with pytest.raises(ValueError):
        matching_pairs(SpacedParen(3, frozenset({3}), frozenset({1})))


def test_matching_pairs_properties():
    """On every balanced base: a valid noncrossing matching pairing F with L."""
    for n in range(7):
        for sp in all_fl_pairs(n):
            if not is_balanced(sp):
                continue
            pairs = matching_pairs(sp)
            assert sorted(f for f, _ in pairs) == sorted(sp.F)
            assert sorted(l for _, l in pairs) == sorted(sp.L)
            MatchedPairs(tuple(pairs))  # revalidates f <= l and noncrossing


def test_render_worked_examples():
    base = SpacedParen(7, frozenset({1, 3, 5}), frozenset({5, 6, 7}))
    assert render(base) == "(_ _ (_ _ (_) _) _)"
    gb = GBsp(SpacedParen(6, frozenset({1, 2, 5}), frozenset({4, 5, 6})), {3: 2, 4: 1, 6: 1})
    assert render(gb) == "(_ (_ 2 1) (_) 1)"
    assert render(SpacedParen(1, frozenset({1}), frozenset({1}))) == "(_)"
    assert render(SpacedParen(0, frozenset(), frozenset())) == ""


def test_parse_worked_examples():
    sp = parse("(_ _ (_ _ (_) _) _)")
    assert isinstance(sp, SpacedParen) and not isinstance(sp, GBsp)
    assert sp.F == frozenset({1, 3, 5}) and sp.L == frozenset({5, 6, 7})
    gb = parse("(_ (_ 2 1) (_) 1)")
    assert isinstance(gb, GBsp)
    assert gb.g_map == {3: 2, 4: 1, 6: 1}
    assert parse("(_)") == SpacedParen(1, frozenset({1}), frozenset({1}))
    assert parse("") == SpacedParen(0, frozenset(), frozenset())


def test_parse_render_roundtrip_exhaustive():
    for n in range(7):
        for sp in enumerate_bsps(n):
            assert parse(render(sp)) == sp
        for gb in enumerate_gbsps(n):
            if not gb.g:
                continue  # no free spaces means no digits; covered below
            assert parse(render(gb)) == gb


def test_fully_slotted_gbsp_parses_back_to_its_base():
    """When every space opens a parenthesis there are no digits to print, so the
    text form is indistinguishable from the bare base and parses as such."""
    gb = GBsp(SpacedParen(2, frozenset({1, 2}), frozenset({1, 2})), {})
    assert render(gb) == "(_) (_)"
    parsed = parse("(_) (_)")
    assert isinstance(parsed, SpacedParen) and not isinstance(parsed, GBsp)
    assert parsed == gb.base


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse("(_ _ x)")
    assert err.value.position == 3
    with pytest.raises(ParseError) as err:
        parse("(1)")  # a digit where the opener demands a slot
    assert err.value.position == 1
    with pytest.raises(ValueError):
        parse("(_ _")  # one opener, no closer
    with pytest.raises(ValueError):
        parse("_)")


def test_gbsp_validation_codes():
    base = SpacedParen(6, frozenset({1, 2, 5}), frozenset({4, 5, 6}))
    with pytest.raises(GbspError) as err:
        GBsp(base, {3: 2, 4: 1})
    assert err.value.code == "g-missing" and err.value.space == 6
    with pytest.raises(GbspError) as err:
        GBsp(base, {3: 2, 4: 1, 6: 1, 5: 1})
    assert err.value.code == "g-extra" and err.value.space == 5
    with pytest.raises(GbspError) as err:
        GBsp(base, {3: 5, 4: 1, 6: 1})
    assert err.value.code == "g-out-of-range" and err.value.space == 3
    with pytest.raises(GbspError) as err:
        GBsp(SpacedParen(2, frozenset({2}), frozenset({2})), {1: 1})
    assert err.value.code == "unbalanced-base"
    built = GBsp(SpacedParen(6, frozenset({1, 2, 5}), frozenset({4, 5, 6})), {3: 2, 4: 1, 6: 1})
    assert built.g_map == {3: 2, 4: 1, 6: 1}


def three_pass_check(n, F, L, g_pairs):
    """The entry checks of GBsp(SpacedParen(n, F, L), g_pairs) done in separate
    passes: F and L in range and of one size, g matched with the spaces outside F,
    then every depth, then balance, then the range of each g value in space order."""
    for name, members in (("F", F), ("L", L)):
        bad = sorted(i for i in members if not 1 <= i <= n)
        if bad:
            raise ValueError(f"{name} contains spaces outside [1, {n}]: {bad}")
    if len(F) != len(L):
        raise ValueError(f"|F| = {len(F)} differs from |L| = {len(L)}")
    g_pairs = tuple(sorted(g_pairs))
    g = dict(g_pairs)
    if len(g) < len(g_pairs):
        dup = next(i for (i, _), (j, _) in zip(g_pairs, g_pairs[1:]) if i == j)
        raise GbspError(f"duplicate g entry for space {dup}", code="g-extra", space=dup)
    extra = [i for i in g if not 1 <= i <= n or i in F]
    if extra or len(g) != n - len(F):
        missing = next((i for i in range(1, n + 1) if i not in F and i not in g), None)
        if missing is not None:
            raise GbspError(f"missing g entry for space {missing}", code="g-missing", space=missing)
        raise GbspError(f"unexpected g entry for space {extra[0]}", code="g-extra", space=extra[0])
    ds = [len([f for f in F if f <= i]) - len([l for l in L if l < i]) for i in range(1, n + 1)]
    if not all(d >= 1 for d in ds):
        raise GbspError("base parenthesization is not balanced", code="unbalanced-base")
    for i, v in g_pairs:
        if not 1 <= v <= ds[i - 1]:
            raise GbspError(f"g({i}) = {v} outside [1, {ds[i - 1]}]", code="g-out-of-range", space=i)
    return g_pairs


def random_gbsp_input(rng):
    """(n, F, L, g pairs) for n <= 6: F and L may hold spaces 0 and n + 1 or differ
    in size, g values run from -1 to depth + 1, and a key may be missing, extra
    (in F, or 0, or n + 1) or repeated."""
    n = rng.randrange(7)
    k = rng.randrange(n + 1)
    F = set(rng.sample(range(1, n + 1), k))
    L = set(rng.sample(range(1, n + 1), k))
    for members in (F, L):
        if rng.random() < 0.05:
            members.add(rng.choice((0, n + 1)))
        if members and rng.random() < 0.03:
            members.discard(rng.choice(sorted(members)))
    pairs = []
    for i in range(1, n + 1):
        if i not in F:
            d = len([f for f in F if f <= i]) - len([l for l in L if l < i])
            top = max(d, 0) + 1
            pairs.append((i, rng.randint(1, max(d, 1)) if rng.random() < 0.8 else rng.randint(-1, top)))
    if pairs and rng.random() < 0.1:
        pairs.pop(rng.randrange(len(pairs)))
    if rng.random() < 0.1:
        pairs.append((rng.choice([0, n + 1, *F]), rng.randint(-1, 2)))
    if pairs and rng.random() < 0.05:
        pairs.append((rng.choice(pairs)[0], rng.randint(-1, 2)))
    rng.shuffle(pairs)
    return n, F, L, pairs


def outcome_of(build):
    try:
        return "ok", build()
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "code", None), getattr(exc, "space", None)


def test_gbsp_check_matches_the_three_pass_check():
    rng = random.Random(8)
    seen = Counter()
    for _ in range(20000):
        n, F, L, pairs = random_gbsp_input(rng)
        got = outcome_of(lambda: GBsp(SpacedParen(n, frozenset(F), frozenset(L)), pairs).g)
        assert got == outcome_of(lambda: three_pass_check(n, F, L, pairs)), (n, F, L, pairs)
        seen["ok" if got[0] == "ok" else got[2] or "spaced-paren"] += 1
    # every kind of verdict is exercised, not only the first check to fire
    assert set(seen) == {
        "ok", "spaced-paren", "g-missing", "g-extra", "unbalanced-base", "g-out-of-range"
    }, seen
    assert min(seen.values()) >= 100, seen


def test_gbsp_json_roundtrip():
    gb = GBsp(SpacedParen(6, frozenset({1, 2, 5}), frozenset({4, 5, 6})), {3: 2, 4: 1, 6: 1})
    assert GBsp.from_json_obj(gb.to_json_obj()) == gb


def test_enumerate_bsps_counts_are_catalan():
    for n in range(9):
        bsps = list(enumerate_bsps(n))
        assert len(bsps) == len(set(bsps)) == catalan(n), f"n={n}"
        assert all(is_balanced(sp) for sp in bsps)


def test_enumerate_bsps_matches_filtered_product():
    for n in range(6):
        direct = {sp for sp in all_fl_pairs(n) if is_balanced(sp)}
        assert set(enumerate_bsps(n)) == direct


def test_enumerate_gbsps_matches_per_base_product():
    def per_base(sp):
        ds = depths(sp)
        free = [i for i in range(1, sp.n + 1) if i not in sp.F]
        for choice in itertools.product(*(range(1, ds[i - 1] + 1) for i in free)):
            yield GBsp(sp, dict(zip(free, choice)))

    for n in range(6):
        direct = [gb for sp in enumerate_bsps(n) for gb in per_base(sp)]
        listed = list(enumerate_gbsps(n))
        assert len(listed) == len(set(listed))
        assert listed == direct  # by base, then g in lexicographic order
