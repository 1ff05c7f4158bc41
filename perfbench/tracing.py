"""Traced in-process replay of one workload, and the per-object scaling probe.

    python3 perfbench/tracing.py WORKLOAD SEED CLI_OUTPUTS.json SPANS.tsv.gz

Runs in a fresh process so that its peak memory is the replay's own.  The
replay regenerates the workload's inputs from the seed and calls each module's
public functions the way the CLI verb does (`from-partition` becomes JSON
parse, `SetPartition`, `to_gbsp`, `phi_prime_inv`, serialise), recording a
span around every call.  Its output lines are compared with the CLI's output
lines from the untraced batch.  Spans are kept in memory and written to
SPANS at the end; the last stdout line is a JSON object with the per-layer
metrics.

Spans are recorded only around the benchmark's own calls, so work that a
function does inside another module counts as the called module's self time.
"""

from __future__ import annotations

import gzip
import json
import math
import random
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402
from layers import CONSTRUCTORS, PER_LAYER, PROBE_SIZES, PROBED  # noqa: E402
from lehmerpark import (  # noqa: E402
    GBsp,
    OutcomePermutation,
    Permutation,
    PrefTuple,
    SetPartition,
    contains_armleg_pattern,
    enumerate_partitions,
    from_gbsp,
    inversion_table,
    matching_pairs,
    outcome_words,
    park,
    peaks,
    peaks_from_pairs,
    phi_prime,
    phi_prime_inv,
    to_gbsp,
    verify,
)
from lehmerpark.cli import _dump  # noqa: E402

class Tracer:
    """Spans (name, start, end, parent, request) kept in memory."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.request = 0
        self.errors: Counter[str] = Counter()

    def call(self, name: str, fn, *args):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(None)
        self.stack.append(index)
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        except Exception:
            self.errors[name.split(".")[0]] += 1
            raise
        finally:
            self.spans[index] = (name, start, time.perf_counter_ns(), parent, self.request)
            self.stack.pop()

    def handle(self, fn, *args):
        """One request: a `cli.request` span whose self time is the verb's own loop."""
        self.request += 1
        return self.call("cli.request", fn, *args)

    def self_times(self) -> tuple[dict[str, float], Counter[str]]:
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        busy: dict[str, float] = defaultdict(float)
        calls: Counter[str] = Counter()
        for k, (name, start, end, _, _) in enumerate(self.spans):
            name = "cli.self" if name == "cli.request" else name
            busy[name] += (end - start - child[k]) / 1e9
            calls[name] += 1
        return busy, calls

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("request\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for k, (name, start, end, parent, request) in enumerate(self.spans):
                out.write(f"{request}\t{k}\t{parent}\t{name}\t{start}\t{end}\n")


# ---------------------------------------------------------------------------
# replays: each returns {stage: output lines}, keyed like the CLI batch's
# outputs `cli_out`, which roundtrip's later stages also read as input


def replay_census(wl: workloads.Census, tr: Tracer, cli_out) -> dict[str, list[str]]:
    def count(n):
        return [str(len(tr.call("enumeration.outcome_words", outcome_words, n)))]

    def listing(n):
        words = tr.call("enumeration.outcome_words", outcome_words, n)
        return [tr.call("cli.serialise", lambda: _dump({"outcome": list(w)})) for w in sorted(words)]

    verbs = {"count": count, "enumerate": listing}
    return {args[0]: tr.handle(verbs[args[0]], int(args[-1])) for args in wl.commands}


def replay_verify(wl: workloads.Verify, tr: Tracer, cli_out) -> dict[str, list[str]]:
    def one(theorem):
        report = tr.call(f"enumeration.verify.{theorem}", verify, theorem)
        return [tr.call("cli.serialise", lambda: _dump(report.to_json_obj()))]

    return {t: tr.handle(one, t) for t in wl.ids}


def _read_outcome(tr: Tracer, line: str) -> OutcomePermutation:
    obj = tr.call("cli.parse", json.loads, line)
    perm = tr.call("permutation.Permutation", Permutation.from_json_obj, obj["outcome"])
    return tr.call("bijection.certify", OutcomePermutation, perm)


def _from_partition(tr: Tracer, line: str) -> str:
    obj = tr.call("cli.parse", json.loads, line)
    b = tr.call("setpartition.SetPartition", SetPartition.from_json_obj, obj)
    p = tr.call("bijection.phi_prime_inv", phi_prime_inv, tr.call("setpartition.to_gbsp", to_gbsp, b))
    return tr.call("cli.serialise", lambda: _dump({"outcome": p.perm.to_json_obj()}))


def _to_partition(tr: Tracer, line: str) -> str:
    gb = tr.call("bijection.phi_prime", phi_prime, _read_outcome(tr, line))
    b = tr.call("setpartition.from_gbsp", from_gbsp, gb)
    return tr.call("cli.serialise", lambda: _dump({"blocks": [list(blk) for blk in b.blocks]}))


def _to_gbsp(tr: Tracer, line: str) -> str:
    gb = tr.call("bijection.phi_prime", phi_prime, _read_outcome(tr, line))
    return tr.call("cli.serialise", lambda: _dump(gb.to_json_obj()))


def _from_gbsp(tr: Tracer, line: str) -> str:
    obj = tr.call("cli.parse", json.loads, line)
    gb = tr.call("paren.GBsp", GBsp.from_json_obj, obj)
    p = tr.call("bijection.phi_prime_inv", phi_prime_inv, gb)
    return tr.call("cli.serialise", lambda: _dump({"outcome": p.perm.to_json_obj()}))


def _park(tr: Tracer, line: str) -> str:
    a = tr.call("parking.PrefTuple", PrefTuple, tuple(tr.call("cli.parse", json.loads, line)))
    result = tr.call("parking.park", park, a)
    return tr.call("cli.serialise", lambda: _dump({"outcome": result.outcome.to_json_obj()}))


def _invtable(tr: Tracer, line: str) -> str:
    obj = tr.call("cli.parse", json.loads, line)
    perm = tr.call("permutation.Permutation", Permutation.from_json_obj, obj["outcome"])
    table = tr.call("permutation.inversion_table", inversion_table, perm)
    return tr.call("cli.serialise", lambda: _dump({"table": table.to_json_obj()}))


VERBS = {"from-partition": _from_partition, "to-partition": _to_partition, "to-gbsp": _to_gbsp,
         "from-gbsp": _from_gbsp, "park": _park, "invtable": _invtable}


def replay_roundtrip(wl: workloads.Roundtrip, tr: Tracer, cli_out) -> dict[str, list[str]]:
    def listing(n):
        parts = tr.call("setpartition.enumerate_partitions", lambda: list(enumerate_partitions(n)))
        return [tr.call("cli.serialise", lambda: _dump({"blocks": [list(blk) for blk in b.blocks]}))
                for b in parts]

    out = {"enumerate": tr.handle(listing, wl.N)}
    # each stage reads the lines the CLI stage before it wrote, as the pipeline does
    sources = {"from-partition": wl.partitions, "to-gbsp": cli_out["from-partition"],
               "from-gbsp": cli_out["to-gbsp"], "to-partition": cli_out["from-partition"]}
    for verb, lines in sources.items():
        step = VERBS[verb]
        out[verb] = [tr.handle(step, tr, line) for line in lines]
    return out


def replay_large_n(wl: workloads.LargeN, tr: Tracer, cli_out) -> dict[str, list[str]]:
    inputs = wl.round_inputs(0)
    return {verb: [tr.handle(VERBS[verb], tr, line) for line, _ in pairs]
            for verb, pairs in inputs.items()}


REPLAYS = {"census": replay_census, "verify": replay_verify, "roundtrip": replay_roundtrip,
           "large_n": replay_large_n}


# ---------------------------------------------------------------------------


def probe(seed: int) -> dict[str, float]:
    """Per-object time of each map at n = 1000, 2000, 4000 on one shallow and
    one deep object; reports ms per object at n = 2000 and the log-log slope
    from 1000 to 4000."""
    per_n: dict[int, dict[str, float]] = {}
    for n in PROBE_SIZES:
        rng = random.Random(f"{seed}:probe:{n}")
        totals: dict[str, float] = defaultdict(float)
        for make in (oracle.shallow_rgs, oracle.deep_rgs):
            blocks = oracle.blocks_of(make(n, rng))
            word = oracle.partition_to_outcome(blocks, n)
            perm = Permutation(tuple(word))
            part = SetPartition(n, tuple(map(tuple, blocks)))
            oc = OutcomePermutation(perm)
            gb = phi_prime(oc)
            calls = {
                "parking.park": (park, PrefTuple(tuple(oracle.canonical_preimage(word)))),
                "permutation.inversion_table": (inversion_table, perm),
                "permutation.contains_armleg_pattern": (contains_armleg_pattern, perm),
                "armleg.peaks": (peaks, perm),
                "armleg.peaks_from_pairs": (peaks_from_pairs, matching_pairs(gb.base), n),
                "setpartition.to_gbsp": (to_gbsp, part),
                "setpartition.from_gbsp": (from_gbsp, gb),
                "bijection.phi_prime": (phi_prime, oc),
                "bijection.phi_prime_inv": (phi_prime_inv, gb),
                "bijection.certify": (OutcomePermutation, perm),
            }
            for name, (fn, *args) in calls.items():
                start = time.perf_counter()
                fn(*args)
                totals[name] += (time.perf_counter() - start) / 2
        per_n[n] = totals
    lo, mid, hi = PROBE_SIZES
    out = {}
    for name in PROBED:
        out[f"{name}.ms_per_obj"] = per_n[mid][name] * 1000
        out[f"{name}.slope"] = math.log(per_n[hi][name] / per_n[lo][name]) / math.log(hi / lo)
    return out


def main(argv: list[str]) -> int:
    name, seed, cli_path, spans_path = argv[0], int(argv[1]), Path(argv[2]), Path(argv[3])
    cli_out = json.loads(cli_path.read_text())
    wl = workloads.WORKLOADS[name](seed)
    tr = Tracer()
    start = time.perf_counter()
    out = REPLAYS[name](wl, tr, cli_out)
    wall = time.perf_counter() - start

    tally = workloads.Tally()
    for stage, lines in out.items():
        if name == "verify":  # the report's own timing differs run to run
            lines = [json.dumps({**json.loads(x), "seconds": None}) for x in lines]
            want = [json.dumps({**json.loads(x), "seconds": None}) for x in cli_out[stage]]
        else:
            want = cli_out[stage]
        tally.ordered(f"replay {stage}", lines, want)

    busy, calls = tr.self_times()
    metrics = {key: 0.0 for key in PER_LAYER}
    for span, seconds in busy.items():
        module = span.split(".")[0]
        metrics[f"{module}.busy_s"] += seconds
        metrics[f"{module}.calls"] += calls[span]
        metrics[f"{span}.busy_s"] = seconds
    for module, count in tr.errors.items():
        metrics[f"{module}.errors"] = count
    walk = busy.get("enumeration.outcome_words", 0.0)
    if walk:
        metrics["enumeration.outcome_words.outcomes_per_s"] = sum(
            len(lines) if stage == "enumerate" else int(lines[0]) for stage, lines in out.items()
        ) / walk
    if name == "verify":
        metrics["enumeration.verify.objects"] = sum(
            json.loads(lines[0])["objects_checked"] for lines in out.values()
        )
    library = sum(s for span, s in busy.items() if not span.startswith("cli."))
    metrics["validate_base_s"] = library
    metrics["validate_share"] = sum(busy.get(c, 0.0) for c in CONSTRUCTORS) / library
    metrics["cli.lines_in"] = sum(len(lines) for verb, lines in out.items() if verb in VERBS)
    metrics["cli.lines_out"] = sum(map(len, out.values()))
    # VmHWM, not ru_maxrss, which also counts the parent this process was forked from
    status = Path("/proc/self/status").read_text()
    metrics["replay.peak_rss_mb"] = int(status.split("VmHWM:")[1].split()[0]) / 1024
    metrics["trace.spans"] = len(tr.spans)
    tr.write(spans_path)
    metrics.update(probe(seed))
    if metrics.keys() != PER_LAYER.keys():
        raise RuntimeError(f"unexpected metrics {sorted(metrics.keys() ^ PER_LAYER.keys())}")
    print(json.dumps({"replay_wall_s": wall, "attempted": tally.attempted, "failed": tally.failed,
                      "notes": tally.notes, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
