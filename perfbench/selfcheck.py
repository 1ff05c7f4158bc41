"""Self-checks of the benchmark's own parts; needs no lehmerpark.

    python3 perfbench/selfcheck.py

Checks that BENCHMARK.json names every metric and workload, that the seeded
generators are deterministic, that a corrupted, missing or extra output line
is counted as a failure, and that the oracles agree with each other and with
known Bell numbers at small n.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path

import oracle
import workloads
from layers import PER_LAYER
from run import UNITS

# OEIS A000110
BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]


def check(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        raise SystemExit(1)


def generators() -> None:
    for seed in (1, 2):
        a, b = workloads.Roundtrip(seed), workloads.Roundtrip(seed)
        check(a.partitions == b.partitions and a.gbsps == b.gbsps, f"roundtrip inputs repeat for seed {seed}")
        a, b = workloads.LargeN(seed), workloads.LargeN(seed)
        check(a.round_inputs(1) == b.round_inputs(1), f"large_n inputs repeat for seed {seed}")
        check(workloads.Verify(seed).ids == workloads.Verify(seed).ids, f"verify order repeats for seed {seed}")
        check(workloads.Census(seed).commands == workloads.Census(seed).commands,
              f"census order repeats for seed {seed}")
    check(workloads.Roundtrip(1).partitions != workloads.Roundtrip(2).partitions, "seeds change the roundtrip order")
    check(workloads.LargeN(1).round_inputs(0) != workloads.LargeN(2).round_inputs(0), "seeds change large_n inputs")
    wl = workloads.LargeN(3)
    check(wl.round_inputs(0) != wl.round_inputs(1), "large_n rounds draw fresh objects")
    inputs = wl.round_inputs(0)
    check(all(len(v) == 1 + 2 * workloads.PER_CLASS for v in inputs.values()),
          "large_n sends a warm-up and then equal shallow and deep counts to every verb")
    n = workloads.LARGE_N
    rng = random.Random(0)
    shallow = max(oracle.max_depth(oracle.blocks_of(oracle.shallow_rgs(n, rng))) for _ in range(5))
    deep = min(oracle.max_depth(oracle.blocks_of(oracle.deep_rgs(n, rng))) for _ in range(5))
    check(shallow <= 4 and deep == n // 2, f"depth profiles: shallow at most {shallow}, deep {deep}")


def tally() -> None:
    expected = workloads.Roundtrip(1).outcomes[:100]
    t = workloads.Tally()
    t.ordered("clean", list(expected), expected)
    check(t.failed == 0 and t.attempted == 100, "clean output passes")
    for label, got, fails in (
        ("corrupted line", expected[:7] + [expected[7].replace("1", "2", 1)] + expected[8:], 1),
        ("missing line", expected[:-1], 1),
        ("extra line", expected + [expected[0]], 1),
        ("swapped lines", [expected[1], expected[0]] + expected[2:], 2),
    ):
        t = workloads.Tally()
        t.ordered(label, got, expected)
        check(t.failed == fails, f"{label} counts {fails} failure(s)")
    t = workloads.Tally()
    t.unordered("set", expected[:-1] + [expected[0]], set(expected))
    check(t.failed == 2, "unordered check counts a repeat and a missing line")
    t = workloads.Tally()
    t.command("verb", 1, "")
    t.command("verb", 0, "Traceback (most recent call last):")
    check(t.failed == 2, "nonzero exit and traceback each fail a command")
    good = '{"theorem":"thm2.4","n_max":7,"objects_checked":2312,"discrepancies":[],"pass":true,"seconds":0.1}'
    t = workloads.Tally()
    check(workloads.Verify.check("thm2.4", [good], t) == 2312 and t.failed == 0, "passing verify report")
    for bad in (good.replace("true", "false"), good[:-5], good.replace("thm2.4", "thm4.3")):
        t = workloads.Tally()
        workloads.Verify.check("thm2.4", [bad], t)
        check(t.failed == 1, f"bad verify report fails: {bad[:60]}")


def oracles() -> None:
    check(oracle.bell_numbers(10) == BELL, "Bell triangle gives A000110 to n = 10")
    for n in range(8):
        parts = [oracle.blocks_of(r) for r in oracle.all_rgs(n)]
        check(len(parts) == BELL[n] and len({str(p) for p in parts}) == BELL[n],
              f"n={n}: {BELL[n]} distinct restricted growth strings")
        av = oracle.avoiders(n)
        scan = [w for w in itertools.permutations(range(1, n + 1)) if not oracle.has_armleg(w)]
        parked = sorted({tuple(oracle.park(a)) for a in oracle.staircase_tuples(n)})
        check(av == scan == parked and len(av) == BELL[n],
              f"n={n}: avoiders = pattern scan = parked staircase outcomes, Bell-many")
        images = sorted(tuple(oracle.partition_to_outcome(b, n)) for b in parts)
        check(images == av, f"n={n}: partition -> outcome is onto the avoiders")
        check(all(oracle.outcome_to_partition(oracle.partition_to_outcome(b, n)) == b for b in parts),
              f"n={n}: outcome -> partition inverts it")
        check(all(oracle.park(oracle.canonical_preimage(w)) == list(w) for w in av),
              f"n={n}: canonical preimages park back")
    check(oracle.park([2, 2, 3]) is None and oracle.park([5, 2, 4, 2, 1, 1]) == [5, 2, 4, 3, 1, 6],
          "parking examples")
    check(oracle.inversion_table([5, 2, 4, 6, 1, 3]) == [4, 1, 3, 1, 0, 0], "inversion table example")
    blocks = [[1, 4], [2, 3, 6], [5]]
    check(oracle.partition_to_outcome(blocks, 6) == [3, 4, 1, 5, 2, 6]
          and oracle.gbsp_line(*oracle.outcome_to_gbsp([3, 4, 1, 5, 2, 6]), 6)
          == '{"n":6,"F":[1,2,5],"L":[4,5,6],"g":{"3":2,"4":1,"6":1}}',
          "worked example {1,4}|{2,3,6}|{5} <-> 341526")


def spec() -> None:
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    check({m["name"]: m["unit"] for m in bench["end_to_end"]} == UNITS,
          "BENCHMARK.json lists every end-to-end metric with its unit")
    check({m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER,
          "BENCHMARK.json lists every per-layer metric with its unit")
    check([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json lists every workload")


if __name__ == "__main__":
    spec()
    generators()
    tally()
    oracles()
    sys.exit(0)
