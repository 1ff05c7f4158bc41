import io
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

import lehmerpark
import lehmerpark._plain as _plain
import lehmerpark._readers as _readers
import lehmerpark.cli as cli
import lehmerpark.counting as counting
import lehmerpark.enumeration as enumeration
from lehmerpark.bijection import (
    OutcomePermutation,
    outcome_to_partition,
    partition_to_outcome,
    phi,
    phi_prime,
    phi_prime_inv,
)
from lehmerpark.cli import main
from lehmerpark.paren import enumerate_gbsps
from lehmerpark.permutation import Permutation
from lehmerpark.setpartition import enumerate_partitions


def run_cli(capsys, *argv, stdin=None, monkeypatch=None, expect=0):
    if stdin is not None:
        # the CLI reads bytes from sys.stdin.buffer, as it does from a real stdin
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin.encode()), "utf-8"))
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == expect, captured.err
    return captured


def test_park_single_value(capsys):
    out = run_cli(capsys, "park", "5,2,4,2,1,1").out
    assert out == '{"outcome":[5,2,4,3,1,6]}\n'


def test_park_failure(capsys):
    out = run_cli(capsys, "park", "2,2,3").out
    assert out == '{"failed_car":3}\n'


def test_park_json_array_value(capsys):
    out = run_cli(capsys, "park", "[2,2,1]").out
    assert out == '{"outcome":[3,1,2]}\n'


def test_park_stdin_lines(capsys, monkeypatch):
    out = run_cli(capsys, "park", stdin="2,2,1\n2,2,3\n", monkeypatch=monkeypatch).out
    assert out == '{"outcome":[3,1,2]}\n{"failed_car":3}\n'


def test_check_kinds(capsys):
    assert json.loads(run_cli(capsys, "check", "parking-function", "2,2,1").out)["ok"] is True
    assert json.loads(run_cli(capsys, "check", "parking-function", "2,2,3").out)["ok"] is False
    assert json.loads(run_cli(capsys, "check", "lehmer", "3,2,1").out)["ok"] is True
    assert json.loads(run_cli(capsys, "check", "lehmer", "1,3,1").out)["ok"] is False
    assert json.loads(run_cli(capsys, "check", "weakly-decreasing", "3,3,1").out)["ok"] is True
    assert json.loads(run_cli(capsys, "check", "outcome-membership", "3,4,1,5,2,6").out)["ok"] is True
    assert json.loads(run_cli(capsys, "check", "outcome-membership", "3,4,1,6,2,5").out)["ok"] is False


def test_invtable_both_directions(capsys):
    out = run_cli(capsys, "invtable", "to-table", "5,2,4,6,1,3").out
    assert out == '{"table":[4,1,3,1,0,0]}\n'
    out = run_cli(capsys, "invtable", "from-table", "[4,1,3,1,0,0]").out
    assert out == '{"perm":[5,2,4,6,1,3]}\n'
    # a digit string is one entry per digit
    assert run_cli(capsys, "invtable", "from-table", "100").out == '{"perm":[2,1,3]}\n'


def test_invtable_pipeline_feeds_itself(capsys, monkeypatch):
    table_line = run_cli(capsys, "invtable", "to-table", "5,2,4,6,1,3").out
    out = run_cli(capsys, "invtable", "from-table", stdin=table_line, monkeypatch=monkeypatch).out
    assert out == '{"perm":[5,2,4,6,1,3]}\n'


def test_phi(capsys):
    out = run_cli(capsys, "phi", "3,4,1,5,2,6").out
    assert out == '{"n":6,"F":[1,2,5],"L":[4,5,6]}\n'


def test_to_gbsp(capsys):
    out = run_cli(capsys, "to-gbsp", "3,4,1,5,2,6").out
    assert out == '{"n":6,"F":[1,2,5],"L":[4,5,6],"g":{"3":2,"4":1,"6":1}}\n'


def test_from_gbsp_grammar_and_json(capsys):
    assert run_cli(capsys, "from-gbsp", "(_ (_ 2 1) (_) 1)").out == '{"outcome":[3,4,1,5,2,6]}\n'
    gbsp_json = '{"n":6,"F":[1,2,5],"L":[4,5,6],"g":{"3":2,"4":1,"6":1}}'
    assert run_cli(capsys, "from-gbsp", gbsp_json).out == '{"outcome":[3,4,1,5,2,6]}\n'


def test_to_partition(capsys):
    out = run_cli(capsys, "to-partition", "3,4,1,5,2,6").out
    assert out == '{"blocks":[[1,4],[2,3,6],[5]]}\n'


def test_from_partition_text_and_json(capsys):
    assert run_cli(capsys, "from-partition", "{1,4}|{2,3,6}|{5}").out == '{"outcome":[3,4,1,5,2,6]}\n'
    assert run_cli(capsys, "from-partition", '{"blocks":[[1,4],[2,3,6],[5]]}').out == (
        '{"outcome":[3,4,1,5,2,6]}\n'
    )


@pytest.mark.parametrize("text, bad", [
    ("{1,,2}", "''"),
    ("{1,2,}", "''"),
    ("{,1,2}", "''"),
    ("{1 2}", "'1 2'"),
], ids=["inner", "trailing", "leading", "space-separated"])
def test_partition_text_refuses_a_bad_entry(capsys, text, bad):
    err = json.loads(run_cli(capsys, "from-partition", text, expect=1).err)
    assert err == {"error": f"bad entry {bad} in block 1", "code": "parse", "position": 1}


def test_partition_text_keeps_spaces_and_leading_zeros(capsys):
    assert run_cli(capsys, "from-partition", " {1, 04}|{ 2,3,6 } | {05}").out == (
        '{"outcome":[3,4,1,5,2,6]}\n'
    )
    err = json.loads(run_cli(capsys, "from-partition", "{1}|{2,,3}", expect=1).err)
    assert err["position"] == 2 and err["error"] == "bad entry '' in block 2"


def test_fiber_count_and_members(capsys):
    base = "(_ (_ _ _) (_) _)"
    assert run_cli(capsys, "fiber", "--count", base).out == "4\n"
    lines = run_cli(capsys, "fiber", base).out.splitlines()
    assert len(lines) == 4
    members = {tuple(json.loads(line)["outcome"]) for line in lines}
    assert (3, 4, 1, 5, 2, 6) in members


def test_fiber_rejects_gbsp_input(capsys):
    captured = run_cli(capsys, "fiber", "(_ (_ 2 1) (_) 1)", expect=1)
    assert json.loads(captured.err.strip())["code"] == "domain"


def test_enumerate_lehmer(capsys):
    assert run_cli(capsys, "enumerate", "lehmer", "--n", "2").out == "[1,1]\n[2,1]\n"


def test_enumerate_outcomes_sorted(capsys):
    out = run_cli(capsys, "enumerate", "outcomes", "--n", "3").out
    assert out == (
        '{"outcome":[1,2,3]}\n'
        '{"outcome":[2,1,3]}\n'
        '{"outcome":[2,3,1]}\n'
        '{"outcome":[3,1,2]}\n'
        '{"outcome":[3,2,1]}\n'
    )


def test_enumerate_outcomes_writes_the_walked_words_as_json(capsys):
    # the walk writes each line from its cached prefixes; the JSON encoder gives the same bytes
    for n in range(10):
        out = run_cli(capsys, "enumerate", "outcomes", "--n", str(n)).out
        assert out == "".join(cli._dump({"outcome": list(w)}) + "\n"
                              for w in counting.iter_outcome_words(n)), f"n={n}"


def test_enumerate_counts_match_formulas(capsys):
    for kind, n, expected in (
        ("partitions", 4, 15),
        ("bsp", 4, 14),
        ("gbsp", 4, 15),
        ("lehmer", 4, 24),
        ("outcomes", 4, 15),
    ):
        lines = run_cli(capsys, "enumerate", kind, "--n", str(n)).out.splitlines()
        assert len(lines) == expected, kind


def _lines(objs):
    return "".join(json.dumps(obj, separators=(",", ":")) + "\n" for obj in objs)


@pytest.mark.parametrize("n", range(9))
def test_plain_outputs_equal_the_checked_path(capsys, monkeypatch, n):
    # these verbs read and write plain values; the library maps, which build
    # and check every object, are the reference, byte for byte
    outcomes = [OutcomePermutation(Permutation(w)) for w in sorted(enumeration.iter_outcome_words(n))]
    stdin = "".join(json.dumps(list(p.word)) + "\n" for p in outcomes)
    out = run_cli(capsys, "to-gbsp", stdin=stdin, monkeypatch=monkeypatch).out
    assert out == _lines(phi_prime(p).to_json_obj() for p in outcomes)
    out = run_cli(capsys, "to-partition", stdin=stdin, monkeypatch=monkeypatch).out
    assert out == _lines({"blocks": [list(b) for b in outcome_to_partition(p).blocks]} for p in outcomes)
    partitions = list(enumerate_partitions(n))
    out = run_cli(capsys, "enumerate", "partitions", "--n", str(n)).out
    assert out == _lines({"blocks": [list(b) for b in sp.blocks]} for sp in partitions)
    out = run_cli(capsys, "from-partition", stdin=out, monkeypatch=monkeypatch).out
    assert out == _lines({"outcome": list(partition_to_outcome(b).word)} for b in partitions)
    gbsps = list(enumerate_gbsps(n))
    out = run_cli(capsys, "enumerate", "gbsp", "--n", str(n)).out
    assert out == _lines(gb.to_json_obj() for gb in gbsps)
    out = run_cli(capsys, "from-gbsp", stdin=out, monkeypatch=monkeypatch).out
    assert out == _lines({"outcome": list(phi_prime_inv(gb).word)} for gb in gbsps)


def test_count_verbs(capsys):
    assert run_cli(capsys, "count", "outcomes", "--n", "6").out == "203\n"
    # Bell(11) and Bell(16): this path counts by the reservation sweep, the walk could not reach 16 here
    assert run_cli(capsys, "count", "outcomes", "--n", "11").out == "678570\n"
    assert run_cli(capsys, "count", "outcomes", "--n", "16").out == "10480142147\n"
    assert run_cli(capsys, "count", "bell", "--n", "10").out == "115975\n"
    assert run_cli(capsys, "count", "catalan", "--n", "9").out == "4862\n"


def test_count_outcomes_is_bell_and_the_peak_row_is_stirling_up_to_the_ceiling(capsys, monkeypatch):
    # one sweep gives every row up to the ceiling; each must be the Stirling row
    rows = list(counting._peak_rows(enumeration._DP_MAX_N))
    assert len(rows) == enumeration._DP_MAX_N + 1
    for n, row in enumerate(rows):
        assert row == enumeration._stirling_row(n), f"n={n}"
    # outcome_peak_counts(n) prunes at n itself: compare it at every small n and at a
    # few up to the ceiling, where each call costs about as much as the whole sweep
    for n in [*range(40), 100, 200, enumeration._DP_MAX_N - 1, enumeration._DP_MAX_N]:
        assert enumeration.outcome_peak_counts(n) == rows[n], f"n={n}"
    # the CLI's count, served from the rows, is Bell(n) at every n up to the ceiling
    monkeypatch.setattr(cli, "outcome_peak_counts", rows.__getitem__)
    for n in range(enumeration._DP_MAX_N + 1):
        outcomes = run_cli(capsys, "count", "outcomes", "--n", str(n)).out
        assert outcomes == run_cli(capsys, "count", "bell", "--n", str(n)).out, f"n={n}"


def test_count_prints_past_the_int_print_limit_and_restores_it(capsys):
    limit = sys.get_int_max_str_digits()
    out = run_cli(capsys, "count", "catalan", "--n", "8000").out
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        expected = str(math.comb(16000, 8000) // 8001)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(expected) == 4811 and out == expected + "\n"


def test_fiber_count_prints_past_the_int_print_limit_and_restores_it(capsys):
    # the nested base F = [1559], L = [1560, 3118]: the depths outside F are 1559 down to 1
    m = 1559
    base = json.dumps({"n": 2 * m, "F": list(range(1, m + 1)), "L": list(range(m + 1, 2 * m + 1))})
    limit = sys.get_int_max_str_digits()
    out = run_cli(capsys, "fiber", "--count", base).out
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        expected = str(math.factorial(m))
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(expected) == 4303 and out == expected + "\n"


def test_fiber_count_past_the_ceiling_is_refused_before_the_product(capsys, monkeypatch):
    # F = {1, 2}, L = {n - 1, n}: depth 2 at every space from 3 to n - 1, so 2^(n - 3)
    def product(*base):
        raise AssertionError("the product of depths was formed")

    monkeypatch.setattr(_plain, "_fiber_size", product)
    n = 10 ** 6
    base = json.dumps({"n": n, "F": [1, 2], "L": [n - 1, n]})
    err = json.loads(run_cli(capsys, "fiber", "--count", base, expect=1).err)
    digits = math.floor((n - 3) * math.log10(2)) + 1
    assert err == {
        "error": f"digits = {digits} is past the ceiling digits <= {cli._FIBER_MAX_DIGITS} of "
                 "`fiber --count`, whose product of depths and decimal text take about a "
                 "second there",
        "code": "domain",
    }


def test_fiber_count_prints_a_size_of_exactly_the_ceiling_digits(capsys, monkeypatch):
    # all depths 2 outside F = {1, 2}: 2^(n - 3) has 31 digits for n = 103..105 and 32 at 106
    monkeypatch.setattr(cli, "_FIBER_MAX_DIGITS", 31)
    for n, digits in [(103, 31), (105, 31), (106, 32)]:
        base = json.dumps({"n": n, "F": [1, 2], "L": [n - 1, n]})
        assert len(str(2 ** (n - 3))) == digits
        if digits <= 31:
            assert run_cli(capsys, "fiber", "--count", base).out == f"{2 ** (n - 3)}\n"
        else:
            err = json.loads(run_cli(capsys, "fiber", "--count", base, expect=1).err)
            assert err == {
                "error": f"digits = 32 is past the ceiling digits <= 31 of `fiber --count`, "
                         "whose product of depths and decimal text take about a second there",
                "code": "domain",
            }


def test_module_runs_as_script():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(lehmerpark.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "lehmerpark.cli", "count", "bell", "--n", "3"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "5\n", "")


def test_partition_pipeline_is_identity(capsys, monkeypatch):
    partitions = run_cli(capsys, "enumerate", "partitions", "--n", "5").out
    outcomes = run_cli(capsys, "from-partition", stdin=partitions, monkeypatch=monkeypatch).out
    back = run_cli(capsys, "to-partition", stdin=outcomes, monkeypatch=monkeypatch).out
    assert back == partitions
    assert len(partitions.splitlines()) == 52


def test_gbsp_pipeline_is_identity(capsys, monkeypatch):
    outcomes = run_cli(capsys, "enumerate", "outcomes", "--n", "5").out
    gbsps = run_cli(capsys, "to-gbsp", stdin=outcomes, monkeypatch=monkeypatch).out
    back = run_cli(capsys, "from-gbsp", stdin=gbsps, monkeypatch=monkeypatch).out
    assert back == outcomes


@pytest.mark.parametrize("n", range(7))
def test_valid_pipeline_lines_take_the_one_pass_readers(capsys, monkeypatch, n):
    # a valid line goes through `_read_outcome`'s shortcut, `_gbsp_in_one_pass` or
    # `_blocks_in_one_pass`, never through the checks that word a refusal, and `to-gbsp`
    # runs its one sweep, never the two legs: a silent fall back would pass every other test
    outcomes = run_cli(capsys, "enumerate", "outcomes", "--n", str(n)).out
    partitions = run_cli(capsys, "enumerate", "partitions", "--n", str(n)).out
    inputs = {"to-gbsp": outcomes, "to-partition": outcomes, "from-partition": partitions}
    expected = {verb: run_cli(capsys, verb, stdin=lines, monkeypatch=monkeypatch).out
                for verb, lines in inputs.items()}

    def unreachable(*args):
        raise AssertionError("a valid line reached a check that words refusals or a leg")

    for module, name in ((_plain, "_check_g"), (_plain, "_check_paren"), (_plain, "_g_json"),
                         (_plain, "_int_pairs"), (_readers, "_json_word"),
                         (_plain, "_phi_prime"), (_plain, "_gbsp_obj"),
                         (_plain, "_blocks_json"), (_plain, "_check_blocks")):
        monkeypatch.setattr(module, name, unreachable)
    for verb, lines in inputs.items():
        assert run_cli(capsys, verb, stdin=lines, monkeypatch=monkeypatch).out == expected[verb]
    gbsps = expected["to-gbsp"]
    assert run_cli(capsys, "from-gbsp", stdin=gbsps, monkeypatch=monkeypatch).out == outcomes


@pytest.mark.parametrize("n", range(7))
def test_partition_verbs_take_the_fused_sweeps(capsys, monkeypatch, n):
    # `to-partition` and `from-partition` run one sweep each, never the two legs that
    # `phi`, `to-gbsp`, `from-gbsp` and `verify` run: a silent fall back would pass every other test
    outcomes = run_cli(capsys, "enumerate", "outcomes", "--n", str(n)).out
    partitions = run_cli(capsys, "enumerate", "partitions", "--n", str(n)).out
    inputs = {"to-partition": outcomes, "from-partition": partitions}
    expected = {verb: run_cli(capsys, verb, stdin=lines, monkeypatch=monkeypatch).out
                for verb, lines in inputs.items()}

    def unreachable(*args):
        raise AssertionError("a partition verb ran a leg of the bijection")

    for name in ("_phi_prime", "_from_gbsp", "_to_gbsp", "_phi_prime_inv"):
        monkeypatch.setattr(_plain, name, unreachable)
    for verb, lines in inputs.items():
        assert run_cli(capsys, verb, stdin=lines, monkeypatch=monkeypatch).out == expected[verb]


def test_verify_pass(capsys):
    captured = run_cli(capsys, "verify", "thm2.4", "--n-max", "4")
    report = json.loads(captured.out)
    assert report["pass"] is True and report["theorem"] == "thm2.4"
    assert report["n_max"] == 4 and report["objects_checked"] > 0
    assert "thm2.4" in captured.err and "pass" in captured.err


def test_verify_default_n_max(capsys):
    captured = run_cli(capsys, "verify", "lemma3.13")
    report = json.loads(captured.out)
    assert report["pass"] is True
    assert report["n_max"] == enumeration.default_n_max("lemma3.13")


def test_verify_discrepancy_exits_2(capsys, monkeypatch):
    monkeypatch.setitem(
        enumeration._CHECKS,
        "lemma3.4",
        ("planted failure", 3, lambda n, drawn: [f"bad at n={n}"] if n == 2 else []),
    )
    captured = run_cli(capsys, "verify", "lemma3.4", expect=2)
    report = json.loads(captured.out)
    assert report["pass"] is False and report["discrepancies"] == ["n=2: bad at n=2"]
    assert "FAIL" in captured.err and "n=2: bad at n=2" in captured.err


def test_verify_stamps_each_line_of_a_check_with_its_n_in_order(capsys, monkeypatch):
    # a check yields its lines without their n; verify stamps each, in n order and then
    # in the order the check yields them, and the stderr summary lists them the same way
    def planted(n, drawn):
        if n in (0, 2):
            yield f"first of {n}"
            yield f"second of {n}"

    monkeypatch.setitem(enumeration._CHECKS, "lemma3.4", ("planted failure", 3, planted))
    captured = run_cli(capsys, "verify", "lemma3.4", expect=2)
    lines = ["n=0: first of 0", "n=0: second of 0", "n=2: first of 2", "n=2: second of 2"]
    assert json.loads(captured.out)["discrepancies"] == lines
    assert captured.err.splitlines()[1:] == [f"  {line}" for line in lines]


def test_verify_reports_a_leg_output_that_is_no_outcome(capsys, monkeypatch):
    # a counterexample found inside a check is a discrepancy (exit 2), not an error
    real = _plain._phi_prime_inv
    planted = (3, 4, 1, 6, 2, 5)  # a permutation that contains the arm-leg pattern

    def leg(n, F, L, g):
        return planted if n == 6 else real(n, F, L, g)

    monkeypatch.setattr(_plain, "_phi_prime_inv", leg)
    captured = run_cli(capsys, "verify", "lemma3.9", "--n-max", "6", expect=2)
    report = json.loads(captured.out)
    line = (
        "n=6: filling of (_ 1 1 1 1 1) maps to outcome (3, 4, 1, 6, 2, 5): "
        "3,4,1,6,2,5 contains the arm-leg pattern and is not the outcome of any staircase "
        "preference tuple"
    )
    assert report["pass"] is False and report["discrepancies"][0] == line
    assert len(report["discrepancies"]) == 203  # one per filling at n = 6
    assert f"  {line}\n" in captured.err
    # the parenthesization is named in the string grammar that from-gbsp reads
    assert _readers._paren_parts("(_ 1 1 1 1 1)") == (6, {1}, {6}, [0, 1, 1, 1, 1, 1])


def test_verify_reports_a_leg_whose_blocks_miss_an_element(capsys, monkeypatch):
    real = _plain._from_gbsp

    def leg(n, F, L, g):
        blocks = real(n, F, L, g)
        return blocks[1:] if n == 3 else blocks  # drops the block of 1

    monkeypatch.setattr(_plain, "_from_gbsp", leg)
    captured = run_cli(capsys, "verify", "lemma3.16", "--n-max", "3", expect=2)
    report = json.loads(captured.out)
    line = "n=3: (_ 1) (_) maps to partition {3}: blocks do not partition [1, 3]"
    assert report["pass"] is False and report["objects_checked"] == 18
    assert line in report["discrepancies"]
    assert f"  {line}\n" in captured.err
    assert _readers._paren_parts("(_ 1) (_)") == (3, {1, 3}, {2, 3}, [0, 1, 0])


def test_verify_reports_a_leg_whose_g_is_out_of_range(capsys, monkeypatch):
    # the forward trip's middle value is not checked as a GBsp; a g past the
    # depth makes the other leg index past its open blocks, and fails the trip
    real = _plain._to_gbsp

    def leg(n, blocks):
        F, L, g = real(n, blocks)
        return F, L, [v + 1 if v else 0 for v in g]

    monkeypatch.setattr(_plain, "_to_gbsp", leg)
    captured = run_cli(capsys, "verify", "lemma3.16", "--n-max", "2", expect=2)
    assert json.loads(captured.out)["discrepancies"] == [
        "n=2: partition {1,2} does not survive the round trip",
        "n=2: (_ 1) does not survive the reverse round trip",
    ]
    assert _readers._paren_parts("(_ 1)") == (2, {1}, {2}, [0, 1])


@pytest.mark.parametrize("stub, lines", [
    ("_to_gbsp", ["n=2: outcome (1, 2) does not survive the composed round trip"]),
    ("_phi_prime", [
        "n=2: outcome (1, 2) does not survive the composed round trip",
        "n=2: outcome-to-partition image misses some partitions",
    ]),
])
def test_verify_thm3_1_reports_a_leg_whose_g_is_out_of_range(capsys, monkeypatch, stub, lines):
    # either leg that yields g: a g past the depth sends the next leg past its
    # open items, which fails the composed round trip instead of ending the run
    real = getattr(_plain, stub)

    def leg(*args):
        F, L, g = real(*args)
        return F, L, [v + 1 if v else 0 for v in g]

    monkeypatch.setattr(_plain, stub, leg)
    captured = run_cli(capsys, "verify", "thm3.1", "--n-max", "2", expect=2)
    assert json.loads(captured.out)["discrepancies"] == lines


def test_verify_unknown_theorem_exits_1(capsys):
    captured = run_cli(capsys, "verify", "thm9.9", expect=1)
    assert captured.out == ""


def test_render_armleg_ascii(capsys):
    out = run_cli(capsys, "render", "armleg", "3,4,1,5,2,6").out
    assert out.splitlines()[0] == "- - - - - o"
    assert len(out.splitlines()) == 6


def test_render_armleg_diagram_json(capsys):
    out = run_cli(capsys, "render", "armleg", '{"n":3,"points":[[1,3],[3,2]]}').out
    assert out == "o . .\n. - o\n. . |\n"


def test_render_armleg_reads_a_diagram_only_under_a_points_key(capsys):
    # "points" as a value, not a key, leaves the object an outcome
    drawn = run_cli(capsys, "render", "armleg", '{"outcome":[2,1],"note":"points"}').out
    assert drawn == run_cli(capsys, "render", "armleg", "21").out


def test_render_svg_after_flags(capsys):
    out = run_cli(capsys, "render", "armleg", "--format", "svg", "3,4,1,5,2,6").out
    root = ET.fromstring(out)
    assert root.tag.endswith("svg")
    out = run_cli(capsys, "render", "paren", "--format", "svg", "(_ (_ 2 1) (_) 1)").out
    assert ET.fromstring(out).tag.endswith("svg")


def test_render_paren_ascii(capsys):
    out = run_cli(capsys, "render", "paren", "(_ (_ 2 1) (_) 1)").out
    assert out == "(_ (_ 2 1) (_) 1)\n 1  2 3 4   5  6\n"


@pytest.mark.parametrize("argv, token, pos", [
    (("park", "\u0661,\u0661"), "\u0661", 1),  # Arabic-Indic digit one
    (("park", "\u00b2,1"), "\u00b2", 1),  # superscript two, which int() refuses
    (("park", "2,\u00b2"), "\u00b2", 2),
    (("invtable", "to-table", "\u0662\u0661"), "\u0662\u0661", 1),  # no digit-string reading
    (("check", "lehmer", "1,\uff11"), "\uff11", 2),  # fullwidth digit one
    # no form of an integer word has parentheses, so none is stripped
    (("park", "(((1,1"), "(((1", 1),
    (("park", ")1,1("), ")1", 1),
    (("park", "(1,1)"), "(1", 1),
    (("invtable", "to-table", "(21))"), "(21))", 1),
    (("invtable", "from-table", "((1,0"), "((1", 1),
    (("check", "lehmer", "(3,1,1)"), "(3", 1),
], ids=["arabic-indic", "superscript", "superscript-second", "digit-string", "fullwidth",
        "paren-open", "paren-reversed", "paren-wrapped", "paren-to-table", "paren-from-table",
        "paren-check"])
def test_integer_words_read_only_ascii_digits(capsys, argv, token, pos):
    err = json.loads(run_cli(capsys, *argv, expect=1).err)
    assert err == {"error": f"bad integer {token!r} at position {pos}", "code": "parse", "position": pos}


@pytest.mark.parametrize("argv, token, pos", [
    (("from-gbsp", "(_ \u0661)"), "\u0661)", 2),
    (("from-gbsp", "(_ _\n _)"), "_\n", 2),  # a whole token, so no newline before its end
    (("render", "paren", "(_ _\n)"), "_\n)", 2),
    (("fiber", "(\u0661 _)"), "(\u0661", 1),
], ids=["arabic-indic", "newline", "newline-closing", "fiber"])
def test_parenthesization_grammar_reads_only_ascii_digits_and_whole_tokens(capsys, argv, token, pos):
    err = json.loads(run_cli(capsys, *argv, expect=1).err)
    assert err == {"error": f"bad token {token!r} at space {pos}", "code": "parse", "position": pos}


def test_domain_error_json_on_stderr(capsys):
    captured = run_cli(capsys, "park", "9,9", expect=1)
    assert captured.out == ""
    err = json.loads(captured.err.strip())
    assert err["code"] == "domain" and "outside" in err["error"]


def test_gbsp_error_carries_code_and_space(capsys):
    captured = run_cli(capsys, "from-gbsp", "(_ 5)", expect=1)
    err = json.loads(captured.err.strip())
    assert err["code"] == "g-out-of-range" and err["space"] == 2


def test_parse_error_carries_position(capsys):
    captured = run_cli(capsys, "render", "paren", "(_ _ x)", expect=1)
    err = json.loads(captured.err.strip())
    assert err["code"] == "parse" and err["position"] == 3


def test_malformed_json_error_carries_position(capsys):
    err = json.loads(run_cli(capsys, "phi", "[1,2,3", expect=1).err)
    assert err["code"] == "parse" and err["position"] == 7


@pytest.mark.parametrize("verb, text, json_text", [
    (("park",), "0,1", "[0,1]"),
    (("park",), "3,-1,1", "[3,-1,1]"),
    (("invtable", "from-table"), "0,-1", "[0,-1]"),
    (("to-gbsp",), "0,1", "[0,1]"),
    (("from-partition",), "{1,3}", '{"blocks":[[1,3]]}'),
], ids=["park-zero", "park-negative", "table-negative", "perm-zero", "partition-gap"])
def test_text_and_json_forms_give_one_error(capsys, verb, text, json_text):
    # the constructor range-checks both forms, so neither reader may pre-empt it
    by_text = run_cli(capsys, *verb, text, expect=1).err
    assert by_text == run_cli(capsys, *verb, json_text, expect=1).err


@pytest.mark.parametrize("verb, message, code", [
    ("to-partition", "not a permutation of [2]: (1, 0)", "parse"),
    ("park", "preference 2 is 0, outside [1, 2]", "domain"),
], ids=["perm", "prefs"])
def test_refused_digit_string_error_names_the_digit_form(capsys, verb, message, code):
    err = json.loads(run_cli(capsys, verb, "10", expect=1).err)
    assert err == {
        "error": f"{message}; the digit string '10' is read one digit per entry",
        "code": code,
    }
    # the comma form of the same entries keeps the constructor's own message
    assert json.loads(run_cli(capsys, verb, "1,0", expect=1).err) == {"error": message, "code": code}


def test_usage_errors_exit_1(capsys):
    for argv in (
        ["no-such-verb"],
        ["park", "1,1", "extra", "junk"],
        ["enumerate", "outcomes"],
        ["count", "outcomes", "--n", "x"],
        ["check", "nope", "1,2"],
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["code"] == "usage", argv


_THEOREMS = (
    "'lemma1.2', 'thm2.4', 'lemma3.4', 'lemma3.5', 'lemma3.7', 'lemma3.9', 'cor3.10', "
    "'lemma3.12', 'lemma3.13', 'lemma3.14', 'cor3.15', 'lemma3.16', 'thm3.1', 'prop4.1', "
    "'lemma4.2', 'thm4.3', 'stirling', 'peaks'"
)


@pytest.mark.parametrize("argv, err", [
    (["verify", "nosuch"], '{"error":"argument theorem: invalid choice: \'nosuch\' '
                           f'(choose from {_THEOREMS})","code":"usage"}}\n'),
    (["verify", "nosuch", "--n-max", "x"], '{"error":"argument theorem: invalid choice: '
                                           f'\'nosuch\' (choose from {_THEOREMS})","code":"usage"}}\n'),
    (["verify"], '{"error":"the following arguments are required: theorem","code":"usage"}\n'),
    (["count", "nosuch", "--n", "1"], '{"error":"argument kind: invalid choice: \'nosuch\' '
                                      '(choose from \'bell\', \'catalan\', \'outcomes\')",'
                                      '"code":"usage"}\n'),
])
def test_usage_errors_are_argparse_s_own_words(capsys, argv, err):
    # the theorem id is checked on use, not from a choices list built with the parser
    assert run_cli(capsys, *argv, expect=1) == ("", err)


def test_check_kinds_are_the_keys_of_the_check_table():
    from lehmerpark._readers import _CHECKS

    assert list(cli._CHECK_KINDS) == sorted(_CHECKS)


def _output_shapes():
    """One object of every shape the CLI writes, built by the library."""
    from lehmerpark import GBsp, InversionTable, PrefTuple, SpacedParen, verify

    p = Permutation((3, 4, 1, 5, 2, 6))
    oc = OutcomePermutation(p)
    yield {"outcome": p.to_json_obj()}
    yield {"failed_car": 3}
    yield {"table": InversionTable((0, 1, 0)).to_json_obj()}
    yield {"perm": p.to_json_obj()}
    yield phi(oc).to_json_obj()
    yield phi_prime(oc).to_json_obj()
    yield {"blocks": [list(blk) for blk in outcome_to_partition(oc).blocks]}
    yield {"value": "2,2,1", "check": "lehmer", "ok": True}
    yield PrefTuple((2, 2, 1)).to_json_obj()
    yield SpacedParen(3, frozenset({1, 2}), frozenset({2, 3})).to_json_obj()
    yield next(iter(enumerate_gbsps(4))).to_json_obj()
    yield GBsp(SpacedParen(1, frozenset({1}), frozenset({1})), {}).to_json_obj()
    yield verify("thm2.4", 3).to_json_obj()  # its float seconds
    yield {**verify("thm2.4", 2).to_json_obj(), "seconds": 0.1 + 0.2, "discrepancies": ["n=2: \u00e9"]}
    yield {"error": "bad token '\u2192' at space 1 \"quoted\"\t\\", "code": "parse", "position": 1}
    yield {"error": "no such \U0001f600", "code": "g-out-of-range", "space": 2}
    yield []
    yield {}


@pytest.mark.parametrize("obj", list(_output_shapes()))
def test_dump_is_json_dumps_with_compact_separators(obj):
    assert cli._dump(obj) == json.dumps(obj, separators=(",", ":"))


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ("from-gbsp", '{"n":2,"F":[1],"L":[2],"g":[[2,1]]}'),
    ("from-partition", '{"blocks":5}'),
    ("to-partition", '{"outcome":[1,[2]]}'),
    ("park", "[1.7,1]"),
    ("park", "[true,1]"),
    ("to-partition", "[2.5,1]"),
    ("invtable", "from-table", '{"table":[0,false]}'),
    ("from-gbsp", '{"n":2.0,"F":[1],"L":[2],"g":{"2":1}}'),
    ("from-gbsp", '{"n":2,"F":[1],"L":[2],"g":{"2":1.0}}'),
    ("from-partition", '{"n":2,"blocks":[[1],[2.0]]}'),
    ("render", "armleg", '{"n":3,"points":[[1,3,2]]}'),
    ("from-gbsp", '{"n":2,"F":[1,1],"L":[2,2],"g":{"2":1}}'),
    ("fiber", '{"n":3,"F":[1,2],"L":[2,3,3]}'),
    ("from-gbsp", '{"n":4,"F":[1],"L":[4],"g":{"2":1,"3":1,"03":1,"4":1}}'),
    ("render", "armleg", '{"n":2,"points":[[2,2],[2,2]]}'),
    ("from-gbsp", '{"n":3,"n":2,"F":[1],"L":[2],"g":{"2":1}}'),
    ("to-partition", '{"outcome":[2,1],"outcome":[1,2]}'),
    ("invtable", "from-table", '{"table":[0,0],"table":[1,0]}'),
    ("render", "armleg", '{"n":3,"points":[[1,3]],"points":[[2,3]]}'),
    ("phi", "[1,2,3"),
    ("to-gbsp", '{"outcome":[1,2,3],"perm":[3,2,1]}'),
    ("render", "armleg", '{"outcome":[2,1],"perm":[1,2]}'),
])
def test_json_shape_errors_exit_1_without_coercion(capsys, argv):
    captured = run_cli(capsys, *argv, expect=1)
    assert captured.out == ""
    assert json.loads(captured.err)["code"] == "parse"


@pytest.mark.parametrize("verb", [("to-gbsp",), ("to-partition",), ("phi",), ("render", "armleg")])
def test_an_object_holding_both_outcome_and_perm_names_both(capsys, verb):
    err = json.loads(run_cli(capsys, *verb, '{"outcome":[1,2,3],"perm":[3,2,1]}', expect=1).err)
    assert err == {"error": "a JSON object holds both 'outcome' and 'perm'", "code": "parse"}


def test_outcome_membership_gate_on_transform(capsys):
    captured = run_cli(capsys, "to-gbsp", "3,4,1,6,2,5", expect=1)
    err = json.loads(captured.err.strip())
    assert "arm-leg" in err["error"]
