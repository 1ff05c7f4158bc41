"""The input contract: every value is read once, at the boundary, and either
becomes a valid object or is refused with exactly one JSON error object.

Constructors refuse what they would otherwise coerce; the CLI never raises,
never prints a traceback, and what it prints on success round-trips through
the inverse verb.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import lehmerpark
import lehmerpark._readers as readers
from lehmerpark import (
    GBsp,
    InversionTable,
    MatchedPairs,
    OutcomePermutation,
    PartialArmLegDiagram,
    Permutation,
    PrefTuple,
    SetPartition,
    SpacedParen,
    all_lehmer,
    bell,
    catalan,
    depth,
    depth_at,
    enumerate_bsps,
    enumerate_gbsps,
    enumerate_partitions,
    fiber,
    fiber_size,
    identity,
    iter_outcome_words,
    outcome_peak_counts,
    outcome_set,
    outcome_to_partition,
    outcome_words,
    parse,
    partition_to_outcome,
    phi_prime,
    phi_prime_inv,
    to_gbsp,
    verify,
)
from lehmerpark.cli import main
from lehmerpark.errors import LehmerError, ParseError
from lehmerpark.render import paren_ascii

VERBS = [
    ("park",),
    ("phi",),
    ("to-gbsp",),
    ("from-gbsp",),
    ("to-partition",),
    ("from-partition",),
    ("fiber",),
    ("fiber", "--count"),
    ("invtable", "to-table"),
    ("invtable", "from-table"),
    ("check", "parking-function"),
    ("check", "lehmer"),
    ("check", "weakly-decreasing"),
    ("check", "outcome-membership"),
]
RENDERS = [("render", "paren"), ("render", "armleg")]  # stdout is a picture, not JSON

INVERSE = {
    ("to-gbsp",): ("from-gbsp",),
    ("from-gbsp",): ("to-gbsp",),
    ("to-partition",): ("from-partition",),
    ("from-partition",): ("to-partition",),
    ("invtable", "to-table"): ("invtable", "from-table"),
    ("invtable", "from-table"): ("invtable", "to-table"),
}

KEYS = ["n", "F", "L", "g", "blocks", "outcome", "perm", "table", "points", "1", "2", "3", "03"]

small_ints = st.integers(-2, 9)
scalars = st.none() | st.booleans() | small_ints | st.floats() | st.text(max_size=3)
json_values = st.recursive(
    scalars,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.sampled_from(KEYS), kids, max_size=4),
    max_leaves=12,
)


def _int_word_forms(word):
    return st.sampled_from([
        ",".join(map(str, word)),
        json.dumps(word),
        json.dumps({"outcome": word}),
        json.dumps({"perm": word}),
        json.dumps({"table": word}),
    ])


def _blocks(labels):
    return [[i + 1 for i, lab in enumerate(labels) if lab == b] for b in sorted(set(labels))]


int_words = (
    st.lists(st.integers(-1, 7), max_size=7)
    | st.integers(0, 7).flatmap(lambda n: st.permutations(list(range(1, n + 1))))
).flatmap(_int_word_forms)


def _partition_forms(blocks):
    gb = to_gbsp(SetPartition(sum(map(len, blocks)), blocks))
    return st.sampled_from([
        json.dumps({"blocks": blocks}),
        "|".join("{" + ",".join(map(str, b)) + "}" for b in blocks),
        json.dumps(gb.to_json_obj()),
        str(gb),
        json.dumps(gb.base.to_json_obj()),
        str(gb.base),
    ])


partitions = st.lists(st.integers(0, 3), max_size=7).map(_blocks).flatmap(_partition_forms)
paren_texts = st.lists(
    st.sampled_from(["(_", "_", "_)", "(_)", "1", "2", "1)", "2)", "(1", "x"]), max_size=7
).map(" ".join)

values = (
    st.text(max_size=20)
    | json_values.map(json.dumps)
    | int_words
    | partitions
    | paren_texts
)


def call(argv):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_contract(code, out, err, json_stdout=True):
    if code == 0:
        assert err == ""
        if json_stdout:
            for line in out.splitlines():
                json.loads(line)
    else:
        assert code == 1 and out == ""
        error = json.loads(err)
        assert isinstance(error, dict) and "error" in error and "code" in error


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(verb=st.sampled_from(VERBS + RENDERS), value=values)
def test_every_value_is_read_or_refused_with_one_json_error(verb, value):
    code, out, err = call([*verb, value])
    assert_contract(code, out, err, json_stdout=verb not in RENDERS)
    if code == 0 and verb in INVERSE:
        back = call([*INVERSE[verb], out.strip()])
        assert back[0] == 0, back
        again = call([*verb, back[1].strip()])
        assert again == (0, out, "")


# g-parenthesization objects with small, often invalid, bases and g of any shape
gbsp_objects = st.fixed_dictionaries(
    {"n": st.integers(-1, 6), "F": st.lists(st.integers(0, 7), max_size=4),
     "L": st.lists(st.integers(0, 7), max_size=4)},
    optional={"g": st.dictionaries(st.sampled_from(["1", "2", "3", "4", "5", "6", "03"]),
                                   st.integers(-1, 4), max_size=5) | json_values},
).map(json.dumps)


def _enumerated(kind):
    """The decoded lines of `enumerate KIND --n N` for every N <= 5."""
    return [json.loads(line) for n in range(6)
            for line in call(["enumerate", kind, "--n", str(n)])[1].splitlines()]


def _gbsp_edits(obj):
    """A valid g-parenthesization object and small edits of it, most of them invalid."""
    n, F, L, g = obj["n"], obj["F"], obj["L"], obj["g"]
    yield obj
    yield {"x": 0, **dict(reversed(obj.items()))}  # keys in another order, one extra key
    yield {**obj, "n": float(n)}
    for name in ("F", "L"):
        yield {**obj, name: obj[name] + obj[name][:1]}  # a repeated entry
        yield {**obj, name: [True if x == 1 else x for x in obj[name]]}
        for k in range(len(obj[name])):  # an entry past n
            yield {**obj, name: obj[name][:k] + [n + 1] + obj[name][k + 1:]}
    for key, v in g.items():
        depth = sum(f <= int(key) for f in F) - sum(l < int(key) for l in L)
        for bad in (0, depth + 1, True, float(v)):
            yield {**obj, "g": {**g, key: bad}}
        yield {**obj, "g": {"0" + k if k == key else k: w for k, w in g.items()}}
        yield {**obj, "g": {k: w for k, w in g.items() if k != key}}  # a missing entry


def _outcome_edits(obj):
    """A valid outcome object and small edits of it, most of them invalid."""
    w = obj["outcome"]
    yield obj
    yield {"x": 0, "outcome": w}
    yield {"outcome": w, "perm": w}
    yield {"perm": w, "outcome": w}
    yield {"outcome": w[::-1]}  # a permutation, not always an outcome
    yield {"outcome": w + w[:1]}  # a repeated entry
    yield {"outcome": w + [len(w) + 2]}  # a gap
    yield {"outcome": [True if v == 1 else v for v in w]}
    yield {"outcome": list(map(float, w))}


# the lines that enumerate writes, valid and as small edits: they reach the
# boundary of what the readers accept, which values and gbsp_objects rarely do
enumerated_edits = st.one_of(
    st.sampled_from([json.dumps(edit, separators=(",", ":"))
                     for obj in _enumerated(kind) for edit in edits(obj)])
    for kind, edits in (("gbsp", _gbsp_edits), ("outcomes", _outcome_edits))
)


def _paren(text):
    """The checked parenthesization of a line, read by the library's own readers."""
    if text.startswith("{"):
        obj = readers._loads(text)
        return GBsp.from_json_obj(obj) if "g" in obj else SpacedParen.from_json_obj(obj)
    return parse(text)


def _checked(verb, text):
    """The stdout of a verb on the library path: the value read into checked objects
    by the library's own readers and constructors, then mapped by the library."""
    text = text.strip()
    if verb in {("from-gbsp",), ("fiber",), ("fiber", "--count"), ("render", "paren")}:
        x = _paren(text)
        if verb == ("from-gbsp",):
            return _line({"outcome": list(phi_prime_inv(x if isinstance(x, GBsp) else GBsp(x, {})).word)})
        if verb == ("render", "paren"):
            return paren_ascii(x) + "\n"
        if isinstance(x, GBsp):
            raise LehmerError("expected a plain parenthesization without g")
        if verb == ("fiber", "--count"):
            return f"{fiber_size(x)}\n"
        return "".join(_line({"outcome": list(oc.word)}) for oc in fiber(x))
    if verb == ("from-partition",):
        if text.startswith("{") and not text.startswith("{{") and '"' in text:
            b = SetPartition.from_json_obj(readers._loads(text))
        else:
            b = SetPartition.from_text(text)
        return _line({"outcome": list(partition_to_outcome(b).word)})
    p = OutcomePermutation(readers._int_word(text, Permutation, "outcome", "perm"))
    if verb == ("to-gbsp",):
        return _line(phi_prime(p).to_json_obj())
    return _line({"blocks": [list(blk) for blk in outcome_to_partition(p).blocks]})


def _line(obj):
    return json.dumps(obj, separators=(",", ":")) + "\n"


# the roundtrip verbs, and the verbs that read a parenthesization line through the
# same reader as from-gbsp; about 100 draws for each
@settings(max_examples=700, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(verb=st.sampled_from([("from-gbsp",), ("from-partition",), ("to-gbsp",), ("to-partition",),
                             ("fiber",), ("fiber", "--count"), ("render", "paren")]),
       value=values | gbsp_objects | enumerated_edits)
# edits at the edge of the one-pass reader, drawn every run: g at 0 and at depth + 1,
# and an L entry past n, which only the depth left open at the end betrays
@example(verb=("from-gbsp",), value='{"n":3,"F":[1],"L":[3],"g":{"2":0,"3":1}}')
@example(verb=("from-gbsp",), value='{"n":3,"F":[1],"L":[3],"g":{"2":1,"3":2}}')
@example(verb=("from-gbsp",), value='{"n":3,"F":[1,3],"L":[2,4],"g":{"2":1}}')
def test_roundtrip_verbs_equal_the_checked_library_path(verb, value):
    try:
        expected = (0, _checked(verb, value), "")
    except ValueError as exc:
        error = {"error": str(exc), "code": getattr(exc, "code", "domain")}
        for key in ("position", "space"):
            if getattr(exc, key, None) is not None:
                error[key] = getattr(exc, key)
        expected = (1, "", _line(error))
    assert call([*verb, "--", value]) == expected  # "--": a value may start with "-"


DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("verb", VERBS + RENDERS)
@pytest.mark.parametrize("value", [DEEP, '{"n":' + DEEP + "}"], ids=["array", "in-object"])
def test_deep_nesting_is_one_json_error(verb, value):
    code, out, err = call([*verb, value])
    assert (code, out) == (1, "")
    (line,) = err.splitlines()
    error = json.loads(line)
    assert error["code"] == "parse" and "error" in error


@pytest.mark.parametrize("kind", ["lehmer", "outcomes", "partitions", "bsp", "gbsp"])
def test_enumerate_refuses_a_negative_n_before_any_output(kind):
    assert call(["enumerate", kind, "--n", "-1"]) == (
        1, "", '{"error":"n must be nonnegative","code":"domain"}\n'
    )


@pytest.mark.parametrize("cls, args", [
    (Permutation, ((1.7, 2),)),
    (Permutation, ((True, 2),)),
    (PrefTuple, ((True, 1),)),
    (InversionTable, ((0, 0.0),)),
    (SpacedParen, (2, [1, 1], [2, 2])),
    (SpacedParen, (2.0, [1], [2])),
    (MatchedPairs, (((1, 2.0),),)),
    (GBsp, (SpacedParen(2, [1], [2]), {2: True})),
    (SetPartition, (2, ((1, "2"),))),
    (PartialArmLegDiagram, (2, [(2, 2), (2, 2)])),
    (PartialArmLegDiagram, (2, [(2, 2.0)])),
], ids=[
    "perm-float", "perm-bool", "prefs-bool", "table-float", "paren-repeat", "paren-float-n",
    "pairs-float", "gbsp-bool", "partition-str", "armleg-repeat", "armleg-float",
])
def test_constructors_refuse_instead_of_coercing(cls, args):
    with pytest.raises(ParseError):
        cls(*args)


@pytest.mark.parametrize("cls, args, message", [
    (Permutation, (5,), "a permutation must be a sequence, got 5"),
    (PrefTuple, (5,), "a preference tuple must be a sequence, got 5"),
    (SpacedParen, (3, 5, [1]), "F must be a sequence, got 5"),
    (SetPartition, (2, 5), "blocks must be a sequence, got 5"),
    (SetPartition, (2, (1, 2)), "a block must be a sequence, got 1"),
    (SetPartition, (2, [(1,), 2]), "a block must be a sequence, got 2"),
    (MatchedPairs, ([1],), "entry 1 of pairs must be a pair of integers, got 1"),
    (PartialArmLegDiagram, (2, [1]), "entry 1 of points must be a pair of integers, got 1"),
    (GBsp, (SpacedParen(2, [1], [2]), [3]), "entry 1 of g must be a pair of integers, got 3"),
    (MatchedPairs, (iter([(1, 2), 5]),), "entry 2 of pairs must be a pair of integers, got 5"),
    (PartialArmLegDiagram, (2, 5), "points must be a sequence, got 5"),
    (MatchedPairs, (5,), "pairs must be a sequence, got 5"),
    (GBsp, (SpacedParen(2, [1], [2]), 5), "g must be a sequence, got 5"),
    (PartialArmLegDiagram, (2, iter([1])), "entry 1 of points must be a pair of integers, got 1"),
], ids=[
    "perm", "prefs", "paren-F", "partition", "partition-flat", "partition-block", "pairs",
    "armleg", "gbsp", "pairs-iterator", "armleg-int", "pairs-int", "gbsp-int", "armleg-iterator",
])
def test_constructors_refuse_a_value_that_is_no_sequence(cls, args, message):
    # worded like every other refusal, not the bare TypeError of tuple(5); an iterator's
    # bad entry is named by its position, as a list's is
    with pytest.raises(ParseError) as err:
        cls(*args)
    assert str(err.value) == message


@pytest.mark.parametrize("make", [
    MatchedPairs,
    lambda entries: GBsp(SpacedParen(2, [1], [2]), entries),
    lambda entries: PartialArmLegDiagram(2, entries),
], ids=["pairs", "gbsp", "armleg"])
@pytest.mark.parametrize("entries", [
    [5], [(2, 2), 5], [(2, 2), (1, 3.0)], [(2, True)], [(2, 2, 2)], [[2, 2], "ab"], [(2, 2), (2, 2)],
], ids=["int", "int-second", "float", "bool", "triple", "str", "repeat"])
def test_an_iterator_is_refused_as_the_list_of_its_entries(make, entries):
    # read once and scanned once: the same class, message and position either way
    refusals = []
    for values in (list(entries), iter(entries)):
        with pytest.raises(ValueError) as err:
            make(values)
        refusals.append((type(err.value), str(err.value), getattr(err.value, "position", None)))
    assert refusals[0] == refusals[1]


_WORD = Permutation((2, 3, 1))
_BASE = SpacedParen(3, [1], [3])
_DIAGRAM = PartialArmLegDiagram(3, [(3, 1)])
_PARTITION = SetPartition(3, ((1, 3), (2,)))

# each entry point that takes a size or a 1-based index: (call, the argument's name,
# the refusal of -1); a generator is advanced once, since it checks when first advanced
SIZE_AND_INDEX_CALLS = {
    "bell": (bell, "n", "n must be nonnegative"),
    "catalan": (catalan, "n", "n must be nonnegative"),
    "outcome_peak_counts": (outcome_peak_counts, "n", "n must be nonnegative"),
    "iter_outcome_words": (lambda v: next(iter_outcome_words(v)), "n", "n must be nonnegative"),
    "outcome_words": (outcome_words, "n", "n must be nonnegative"),
    "outcome_set": (outcome_set, "n", "n must be nonnegative"),
    "all_lehmer": (lambda v: next(all_lehmer(v)), "n", "n must be nonnegative"),
    "identity": (identity, "n", "n must be nonnegative"),
    "enumerate_bsps": (lambda v: next(enumerate_bsps(v)), "n", "n must be nonnegative"),
    "enumerate_gbsps": (lambda v: next(enumerate_gbsps(v)), "n", "n must be nonnegative"),
    "enumerate_partitions": (
        lambda v: next(enumerate_partitions(v)), "n", "n must be nonnegative",
    ),
    "verify": (lambda v: verify("lemma3.4", v), "n_max", "n_max must be nonnegative"),
    "value_at": (_WORD.value_at, "position", "position -1 out of range [1, 3]"),
    "position_of": (_WORD.position_of, "value", "value -1 out of range [1, 3]"),
    "depth": (lambda v: depth(_BASE, v), "space", "space -1 out of range [1, 3]"),
    "depth_at": (lambda v: depth_at(_DIAGRAM, v), "space", "space -1 out of range [1, 3]"),
    "block_of": (_PARTITION.block_of, "element", "element -1 out of range [1, 3]"),
}


@pytest.mark.parametrize("value", [True, 2.0, "3"], ids=["bool", "float", "str"])
@pytest.mark.parametrize("entry", SIZE_AND_INDEX_CALLS)
def test_size_and_index_arguments_refuse_instead_of_coercing(entry, value):
    # True is not read as 1, nor 2.0 as 2: each is the ParseError a constructor gives,
    # naming the argument, and a generator refuses it before its first yield
    run, name, _ = SIZE_AND_INDEX_CALLS[entry]
    with pytest.raises(ParseError) as err:
        run(value)
    assert str(err.value) == f"{name} must be an integer, got {value!r}"


@pytest.mark.parametrize("entry", SIZE_AND_INDEX_CALLS)
def test_a_negative_size_or_index_keeps_its_message(entry):
    run, _, message = SIZE_AND_INDEX_CALLS[entry]
    with pytest.raises(ValueError) as err:
        run(-1)
    assert (type(err.value), str(err.value)) == (ValueError, message)


def _limited(argv, limit):
    """The arguments and options of one CLI subprocess whose address space is capped
    at `limit` bytes."""
    resource = pytest.importorskip("resource")
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(lehmerpark.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return [sys.executable, "-m", "lehmerpark.cli", *argv], dict(
        text=True, env=env,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


def _run_limited(argv, limit):
    """One CLI run in a subprocess whose address space is capped at `limit` bytes."""
    args, options = _limited(argv, limit)
    return subprocess.run(args, capture_output=True, timeout=60, **options)


@pytest.mark.parametrize("argv", [
    ("from-partition", '{"n":300000000,"blocks":[[1]]}'),
    ("fiber", "--count", '{"n":300000000,"F":[],"L":[]}'),
    ("from-gbsp", '{"n":300000000,"F":[1],"L":[300000000],"g":{}}'),
], ids=["partition", "fiber", "gbsp"])
def test_huge_claimed_n_fails_fast_with_one_json_error(argv):
    done = _run_limited(argv, 1 << 30)
    assert (done.returncode, done.stdout) == (1, "")
    (line,) = done.stderr.splitlines()
    assert set(json.loads(line)) >= {"error", "code"}


def test_huge_balanced_fiber_count_needs_constant_memory():
    # valid input with fiber size 1: the product of depths must not hold a value per space
    done = _run_limited(("fiber", "--count", '{"n":5000000,"F":[1],"L":[5000000]}'), 256 << 20)
    assert (done.returncode, done.stdout, done.stderr) == (0, "1\n", "")


@pytest.mark.parametrize("kind", ["lehmer", "outcomes", "partitions", "bsp", "gbsp"])
def test_running_out_of_memory_is_one_json_error(kind):
    # each family runs out before its first line at this n: most first allocate a list of n
    # entries (n ranges for lehmer, the text of each value for outcomes), and partitions
    # holds its first path's growing blocks
    done = _run_limited(("enumerate", kind, "--n", "300000000"), 256 << 20)
    assert (done.returncode, done.stdout, done.stderr) == (
        1, "", '{"error":"out of memory","code":"memory"}\n'
    )


def _first_outcome_line(n, limit):
    """The first line of `enumerate outcomes --n n` under a cap of `limit` bytes, and the
    seconds from spawn to it; the child is then killed."""
    args, options = _limited(("enumerate", "outcomes", "--n", str(n)), limit)
    start = time.perf_counter()
    with subprocess.Popen(args, stdout=subprocess.PIPE, **options) as child:
        try:
            first = child.stdout.readline()
            seconds = time.perf_counter() - start
        finally:
            child.kill()
            child.wait(timeout=60)
    assert first == '{"outcome":[%s]}\n' % ",".join(map(str, range(1, n + 1)))
    return seconds


def test_enumerate_outcomes_streams_its_first_line_at_once():
    # the walk holds O(n) state: no line waits for the 190,899,322 outcomes of [14]
    _first_outcome_line(14, 256 << 20)


def test_enumerate_outcomes_writes_its_first_line_at_a_large_n_in_linear_time():
    # the first line of [30,000] costs O(n), about 0.15 s from spawn: a walk that rescans
    # the used values in every column takes about 17 s to write it
    seconds = _first_outcome_line(30_000, 1 << 30)
    assert seconds < 2.0, f"the first line took {seconds:.2f} s from spawn"


def test_count_bell_past_the_ceiling_is_refused_at_once():
    # n = 4000 is past the Bell triangle's time ceiling; it refuses instead of running for seconds
    done = _run_limited(("count", "bell", "--n", "4000"), 256 << 20)
    assert (done.returncode, done.stdout) == (1, "")
    (line,) = done.stderr.splitlines()
    error = json.loads(line)
    assert error == {
        "error": "n = 4000 is past the ceiling n <= 2000 of the Bell triangle, "
                 "whose O(n^2) big-integer sums take about a second there",
        "code": "domain",
    }


def test_count_catalan_past_the_ceiling_is_refused_at_once():
    # n = 400,000 is past the binomial formula's time ceiling; it refuses instead of running for seconds
    done = _run_limited(("count", "catalan", "--n", "400000"), 256 << 20)
    assert (done.returncode, done.stdout) == (1, "")
    (line,) = done.stderr.splitlines()
    error = json.loads(line)
    assert error == {
        "error": "n = 400000 is past the ceiling n <= 120000 of the binomial formula, "
                 "whose big-integer product and decimal text take about a second there",
        "code": "domain",
    }


def test_count_outcomes_past_the_ceiling_is_refused_before_it_allocates():
    # n = 1200 is past the count's time ceiling; it refuses at once instead of running for minutes
    done = _run_limited(("count", "outcomes", "--n", "1200"), 256 << 20)
    assert (done.returncode, done.stdout) == (1, "")
    (line,) = done.stderr.splitlines()
    error = json.loads(line)
    assert error == {
        "error": "n = 1200 is past the ceiling n <= 280 of the reservation count, "
                 "whose O(n^3) big-integer sums take about a second there",
        "code": "domain",
    }
