"""Steadiness report: run workloads repeatedly and compare each end-to-end
metric's quartile spread with its bound in BENCHMARK.json.

    python3 perfbench/steady.py --runs 10 --workloads census,verify,roundtrip,large_n

Each run is `run.py --trace 0` with its own seed.  For every metric it prints
the median, the quartiles as `statistics.quantiles(values, n=4)` gives them,
and the spread (Q3 - Q1) / median.  A spread is `steady` below a third of the
bound and `within` below the bound.  setup_s is reported but, having the
largest bound, is judged by its median alone.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report, ok = {}, True
    for name in args.workloads.split(","):
        values: dict[str, list[float]] = {m: [] for m in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT,
            )
            result = json.loads(proc.stdout.splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{name} seed {seed}: failed run\n{proc.stderr[-2000:]}", file=sys.stderr)
                return 1
            for metric in bounds:
                values[metric].append(result["metrics"][metric]["value"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{m}={v[-1]:.5g}" for m, v in values.items()), flush=True)
        report[name] = {}
        for metric, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            verdict = ("steady" if spread < bounds[metric] / 3
                       else "within" if spread <= bounds[metric] else "WIDE")
            if metric != "setup_s" and verdict == "WIDE":
                ok = False
            report[name][metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                    "bound": bounds[metric], "verdict": verdict}
            print(f"  {name:<10} {metric:<18} median {med:<12.5g} Q1 {q1:<12.5g} Q3 {q3:<12.5g} "
                  f"spread {spread:7.2%} bound {bounds[metric]:.0%}  {verdict}", flush=True)
    print(json.dumps(report))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
