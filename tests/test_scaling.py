"""The per-object maps at n = 65,536: each must finish well under a second.

A linear probe in `park` or a list scan in a rank leg is quadratic, and takes
from seconds to about a minute at this size, so these budgets fail on it.
The CLI's roundtrip verbs, which read, check and map plain values without the
library maps, are held to it on the nested partition and its outcome, reading
and writing included, the outcome in its text form and as a JSON object.
`depth(sp, i)` is held to the same budget for 1,000 reads near the start of a
parenthesization of 200,000 spaces: 1,000 sweeps over every space take about 27 s.
The balance test on 10^8 spaces with no parenthesis stops at space 1, in the
library and in `fiber`; a sweep over every space takes about 10 s.
The first word of the outcome walk at n = 30,000 is held to it too.
"""

import contextlib
import io
import json
import random
import time

import pytest

from lehmerpark.bijection import outcome_to_partition, partition_to_outcome, phi_prime
from lehmerpark.cli import main
from lehmerpark.counting import iter_outcome_words
from lehmerpark.paren import SpacedParen, depth, is_balanced
from lehmerpark.parking import PrefTuple, park
from lehmerpark.setpartition import SetPartition, to_gbsp

N = 65536
BUDGET_S = 1.0


def timed(f, x):
    start = time.perf_counter()
    y = f(x)
    return y, time.perf_counter() - start


@pytest.fixture(scope="module")
def nested():
    """The nested partition {i, N + 1 - i}, depth N / 2 at the middle, and its outcome."""
    b = SetPartition(N, tuple((i, N + 1 - i) for i in range(1, N // 2 + 1)))
    return b, partition_to_outcome(b)


def test_park_of_a_uniform_staircase_tuple():
    rng = random.Random(N)
    a = PrefTuple(tuple(rng.randint(1, N - i) for i in range(N)))
    result, seconds = timed(park, a)
    assert result.ok
    assert seconds < BUDGET_S, f"park took {seconds:.2f} s at n = {N}"


def test_to_gbsp_of_the_nested_partition(nested):
    b, _ = nested
    gb, seconds = timed(to_gbsp, b)
    assert max(gb.g_map.values()) == N // 2  # {N/2, N/2 + 1} is the innermost of N/2 open blocks
    assert seconds < BUDGET_S, f"to_gbsp took {seconds:.2f} s at n = {N}"


def test_partition_to_outcome_of_the_nested_partition(nested):
    b, oc = nested
    got, seconds = timed(partition_to_outcome, b)
    assert got == oc
    assert seconds < BUDGET_S, f"partition_to_outcome took {seconds:.2f} s at n = {N}"


def test_outcome_to_partition_of_the_nested_outcome(nested):
    b, oc = nested
    got, seconds = timed(outcome_to_partition, oc)
    assert got == b
    assert seconds < BUDGET_S, f"outcome_to_partition took {seconds:.2f} s at n = {N}"


def run_cli(argv):
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    seconds = time.perf_counter() - start
    assert code == 0
    return json.loads(out.getvalue()), seconds


# the comma text form, and the JSON object that the one-pass outcome reader takes
OUTCOME_FORMS = {
    "text": lambda word: ",".join(map(str, word)),
    "json": lambda word: json.dumps({"outcome": list(word)}),
}


@pytest.mark.parametrize("form", OUTCOME_FORMS)
def test_cli_to_partition_of_the_nested_outcome(nested, form):
    b, oc = nested
    got, seconds = run_cli(["to-partition", OUTCOME_FORMS[form](oc.word)])
    assert got == {"blocks": [list(blk) for blk in b.blocks]}
    assert seconds < BUDGET_S, f"to-partition took {seconds:.2f} s at n = {N}"


@pytest.mark.parametrize("form", OUTCOME_FORMS)
def test_cli_to_gbsp_of_the_nested_outcome(nested, form):
    _, oc = nested
    got, seconds = run_cli(["to-gbsp", OUTCOME_FORMS[form](oc.word)])
    assert got == phi_prime(oc).to_json_obj()
    assert seconds < BUDGET_S, f"to-gbsp took {seconds:.2f} s at n = {N}"


def test_cli_from_partition_of_the_nested_partition(nested):
    b, oc = nested
    got, seconds = run_cli(["from-partition", json.dumps({"blocks": [list(blk) for blk in b.blocks]})])
    assert got == {"outcome": list(oc.word)}
    assert seconds < BUDGET_S, f"from-partition took {seconds:.2f} s at n = {N}"


def test_cli_from_gbsp_of_the_nested_partition(nested):
    b, oc = nested
    got, seconds = run_cli(["from-gbsp", json.dumps(to_gbsp(b).to_json_obj())])
    assert got == {"outcome": list(oc.word)}
    assert seconds < BUDGET_S, f"from-gbsp took {seconds:.2f} s at n = {N}"


def test_depth_near_the_start_stops_its_sweep():
    n = 200_000
    sp = SpacedParen(n, frozenset(range(1, n // 2 + 1)), frozenset(range(n // 2 + 1, n + 1)))
    start = time.perf_counter()
    got = [depth(sp, 1) for _ in range(1000)]
    seconds = time.perf_counter() - start
    assert got == [1] * 1000
    assert seconds < BUDGET_S, f"1,000 calls of depth(sp, 1) took {seconds:.2f} s at n = {n}"


def test_balance_stops_at_the_first_nonpositive_depth():
    n = 10 ** 8
    balanced, seconds = timed(is_balanced, SpacedParen(n, frozenset(), frozenset()))
    assert balanced is False
    assert seconds < BUDGET_S, f"is_balanced took {seconds:.2f} s at n = {n}"
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["fiber", json.dumps({"n": n, "F": [], "L": []})])
    seconds = time.perf_counter() - start
    assert (code, json.loads(err.getvalue())) == (
        1, {"error": "fibers are defined only for balanced parenthesizations", "code": "domain"}
    )
    assert seconds < BUDGET_S, f"fiber took {seconds:.2f} s at n = {n}"


def test_first_outcome_word_of_a_long_walk():
    # a walk that rescans the used values pays O(n^2) for its first word: about 10 s here
    n = 30_000
    start = time.perf_counter()
    first = next(iter_outcome_words(n))
    seconds = time.perf_counter() - start
    assert first == tuple(range(1, n + 1))
    assert seconds < BUDGET_S, f"the first outcome word took {seconds:.2f} s at n = {n}"
