"""Benchmark for the lehmerpark CLI and its modules.

    python3 perfbench/run.py --workload census --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from the root of a source checkout; the CLI runs from ./src.  With
--trace 0 it runs the workload's batch through `lehmerpark` processes until
--seconds are spent and reports the end-to-end metrics, timed at a nominal
machine speed (workloads.Clock).  With --trace 1 it runs one untraced batch,
then replays the same inputs in a fresh traced process (tracing.py) and
reports the per-layer metrics.  Every output line is checked against the
benchmark's own oracles (oracle.py).  METRICS.md defines every metric.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The line before it records the run's context: Python
version, cores, commit, seed, LEHMER_THREADS, and the sample count behind every
timing.  `--workload all` runs every workload both ways and prints a table.
Results and span files go to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

import workloads  # noqa: E402
from layers import PER_LAYER  # noqa: E402

SETUP_SPAWNS = 7
# census and roundtrip: enough batches that each long command has a median;
# large_n: 4 rounds give 128 latency samples, 12 of them beyond p90
MIN_BATCHES = {"census": 3, "roundtrip": 3, "large_n": 4}
UNITS = {"setup_s": "s", "wall_s": "s", "throughput_obj_s": "objects/s", "latency_p50_ms": "ms",
         "latency_p90_ms": "ms", "peak_rss_mb": "MB"}


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def setup_time(cli: workloads.Cli, tally: workloads.Tally) -> list[float]:
    """Seconds from spawning `lehmerpark count bell --n 1` to its exit, SETUP_SPAWNS times."""
    times = []
    for _ in range(SETUP_SPAWNS):
        seconds, out = cli.run(("count", "bell", "--n", "1"), tally=tally)
        tally.ordered("count bell --n 1", out, ["1"])
        times.append(seconds)
    return times


def import_time(cli: workloads.Cli, tally: workloads.Tally) -> list[float]:
    """Seconds to import lehmerpark.cli in a fresh interpreter, SETUP_SPAWNS times."""
    code = "import time; t = time.perf_counter(); import lehmerpark.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(SETUP_SPAWNS):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=cli.env, cwd=cli.root)
        tally.command("import lehmerpark.cli", proc.returncode, proc.stderr)
        times.append(float(proc.stdout) if proc.returncode == 0 else float("nan"))
    return times


def end_to_end(name: str, seed: int, seconds: float):
    cli, tally = workloads.Cli(ROOT), workloads.Tally()
    wl = workloads.WORKLOADS[name](seed)
    setup_samples = setup_time(cli, tally)
    batches = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        batches.append(wl.batch(cli, tally, len(batches)))
        elapsed = time.perf_counter() - start
        if len(batches) >= MIN_BATCHES.get(name, 1) and elapsed + (time.perf_counter() - began) > seconds:
            break
    # Each process's and each command's median over batches: one slow stretch
    # of the machine moves one term, not the whole batch.  large_n draws new
    # objects every round, so there every reply is a sample.
    wall_s = sum(map(statistics.median, zip(*(b.processes for b in batches))))
    if name == "large_n":
        requests = [s for b in batches for s in b.requests]
    else:
        requests = list(map(statistics.median, zip(*(b.requests for b in batches))))
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": wall_s,
        "throughput_obj_s": batches[0].objects / wall_s,
        "latency_p50_ms": statistics.median(requests) * 1000,
        "latency_p90_ms": statistics.quantiles(requests, n=10, method="inclusive")[-1] * 1000,
        "peak_rss_mb": cli.peak_kb / 1024,
    }
    samples = {"setup_s": len(setup_samples), "wall_s": len(batches),
               "throughput_obj_s": len(batches), "latency": len(requests),
               "latency_beyond_p90": sum(s * 1000 > metrics["latency_p90_ms"] for s in requests),
               "objects_per_batch": batches[0].objects, **reference_record(cli.clock)}
    return tally, metrics, samples


def traced(name: str, seed: int):
    cli, tally = workloads.Cli(ROOT), workloads.Tally()
    wl = workloads.WORKLOADS[name](seed)
    batch = wl.batch(cli, tally, 0)
    import_samples = import_time(cli, tally)
    OUT.mkdir(exist_ok=True)
    cli_out = OUT / f"cli-{name}-{seed}.json"
    cli_out.write_text(json.dumps(batch.outputs))
    spans = OUT / f"spans-{name}-{seed}.tsv.gz"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "tracing.py"), name, str(seed), str(cli_out), str(spans)],
        capture_output=True, text=True, env=cli.env, cwd=ROOT,
    )
    scale = cli.clock.factor(time.perf_counter() - start)
    tally.command("tracing.py", proc.returncode, proc.stderr)
    if proc.returncode != 0:  # the failure is counted; report every metric as 0
        return tally, dict.fromkeys(PER_LAYER, 0.0), {}
    replay = json.loads(proc.stdout.splitlines()[-1])
    tally.attempted += replay["attempted"]
    tally.failed += replay["failed"]
    tally.notes += replay["notes"]
    metrics = replay["metrics"]
    metrics["cli.import_s"] = statistics.median(import_samples)
    metrics["trace.overhead_ratio"] = replay["replay_wall_s"] * scale / sum(batch.processes)
    samples = {"cli.import_s": len(import_samples), "replay": 1, "untraced_batch": 1,
               "untraced_wall_s": sum(batch.processes), "replay_wall_s": replay["replay_wall_s"] * scale,
               "spans_file": str(spans.relative_to(ROOT)), **reference_record(cli.clock)}
    return tally, metrics, samples


def reference_record(clock: workloads.Clock) -> dict:
    """How far the machine's speed was from nominal while the run was timed."""
    refs = [after for _, _, after in clock.units]
    return {"reference_nominal_s": workloads.REFERENCE_S,
            "reference_median_s": statistics.median(refs), "reference_samples": len(refs),
            "timed_units": clock.units}


def result_line(tally: workloads.Tally, metrics: dict[str, float], units: dict[str, str]) -> dict:
    return {
        "correct": tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_one(name: str, seed: int, seconds: float, trace: bool):
    if trace:
        units = PER_LAYER
        tally, metrics, samples = traced(name, seed)
    else:
        units = UNITS
        tally, metrics, samples = end_to_end(name, seed, seconds)
    context = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": platform.python_version(), "cores": os.cpu_count(), "commit": commit(),
        "LEHMER_THREADS": os.environ.get("LEHMER_THREADS", "unset") + " (removed for the CLI)",
        "load": "closed loop, one client, one lehmerpark process at a time",
        "fail_ratio": f"{tally.failed}/{tally.attempted}", "samples": samples, "notes": tally.notes,
    }
    result = result_line(tally, metrics, units)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{name}-{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"context": context, "result": result}, indent=1)
    )
    return context, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "lehmerpark" / "cli.py").is_file():
        print(f"perfbench: no lehmerpark source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        context, result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps({"context": context}))
        print(json.dumps(result))
        return 0
    tally, metrics, units = workloads.Tally(), {}, {}
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            context, result = run_one(name, args.seed, args.seconds, trace)
            tally.attempted += result["attempted"]
            tally.failed += result["failed"]
            samples = {k: v for k, v in context["samples"].items() if k != "timed_units"}
            print(f"# {name} trace={int(trace)} fail_ratio={context['fail_ratio']} "
                  f"samples={json.dumps(samples)}")
            for key, m in result["metrics"].items():
                print(f"{name:<10} {key:<48} {m['value']:>14.6g} {m['unit']}")
                metrics[f"{name}.{key}"] = m["value"]
                units[f"{name}.{key}"] = m["unit"]
    print(json.dumps(result_line(tally, metrics, units)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
