"""The four workloads: seeded inputs, the CLI commands they run, and the checks
on every output line.

Each workload runs in batches.  `census`, `verify` and `roundtrip` send whole
commands, so one request is one `lehmerpark` process.  `large_n` is a closed
loop at n = 2000: one long-lived process per transform verb, one object
outstanding at a time.  Exactly one `lehmerpark` process exists at any moment,
and every stage of a pipeline reads the previous stage's captured output.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracle

VERIFY_IDS = (
    "lemma1.2", "thm2.4", "lemma3.4", "lemma3.5", "lemma3.7", "lemma3.9",
    "cor3.10", "lemma3.12", "lemma3.13", "lemma3.14", "cor3.15", "lemma3.16",
    "thm3.1", "prop4.1", "lemma4.2", "thm4.3",
)

LARGE_N = 2000
LARGE_VERBS = (("park",), ("to-partition",), ("from-partition",), ("invtable", "to-table"))
PER_CLASS = 4  # shallow and deep objects per verb in one large_n round


@dataclass
class Tally:
    """Operations attempted and failed.  An operation is one command or one
    expected output line; a nonzero exit or a traceback fails the command, and
    every wrong, missing or extra line fails once."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def fail(self, count: int, note: str) -> None:
        self.failed += count
        if len(self.notes) < 20:
            self.notes.append(note)

    def command(self, label: str, rc: int, stderr: str) -> None:
        self.attempted += 1
        if rc != 0 or "Traceback" in stderr:
            self.fail(1, f"{label}: exit {rc} {stderr.strip()[-200:]}")

    def ordered(self, label: str, got: list[str], expected: list[str]) -> None:
        self.attempted += max(len(got), len(expected))
        if got == expected:
            return
        wrong = sum(a != b for a, b in zip(got, expected))
        missing = max(0, len(expected) - len(got))
        extra = max(0, len(got) - len(expected))
        self.fail(wrong + missing + extra, f"{label}: {wrong} wrong, {missing} missing, {extra} extra")

    def unordered(self, label: str, got: list[str], expected: set[str]) -> None:
        self.attempted += max(len(got), len(expected))
        seen: set[str] = set()
        bad = 0
        for line in got:
            if line not in expected or line in seen:
                bad += 1
            seen.add(line)
        missing = len(expected - seen)
        if bad or missing:
            self.fail(bad + missing, f"{label}: {bad} wrong or repeated, {missing} missing")


REFERENCE_S = 0.02  # one reference chunk on a quiet core of a 2-core x86-64 VM, Python 3.11


def reference() -> float:
    """Median seconds of three chunks of fixed pure-Python tuple, set, sort and
    dict work, the kinds of work the package does; the median drops a chunk
    that a scheduling hiccup hit."""
    chunks = []
    for _ in range(3):
        start = time.perf_counter()
        seen = set()
        for i in range(15_000):
            seen.add((i % 7, i % 11, i % 13, i))
        table = {}
        for w in sorted(seen)[:7_500]:
            table[w] = [x + 1 for x in w]
        chunks.append(time.perf_counter() - start)
    return sorted(chunks)[1]


class Clock:
    """Scales wall times to a nominal machine speed.

    On a shared machine the speed of a core drifts by a third over seconds to
    minutes, and pure-Python work slows alike.  Each timed unit is bracketed by
    the reference loop, and its wall time is multiplied by REFERENCE_S over the
    mean of the two reference times.  The reference runs in the benchmark's
    own process while no `lehmerpark` process exists.
    """

    def __init__(self):
        self.before = reference()
        self.units: list[tuple[float, float, float]] = []  # (raw seconds, reference before, after)

    def factor(self, raw: float) -> float:
        """Scale for the unit of `raw` wall seconds that ended just now."""
        after = reference()
        self.units.append((raw, self.before, after))
        ref = (self.before + after) / 2
        self.before = after
        return REFERENCE_S / ref


class Cli:
    """Runs `lehmerpark` through its entry function with `src` on the path, and
    keeps the largest peak memory any of its processes reported.

    The package is not installed, and `python -m lehmerpark.cli` exits 0
    without doing anything because cli.py has no `__main__` guard, so the
    entry function is called directly.  LEHMER_THREADS is removed from the
    environment, which keeps the process-pool branch off.
    """

    # At exit the process reports its own peak resident set (VmHWM) on stderr.
    # RUSAGE_CHILDREN would not do: a child's ru_maxrss includes the memory of
    # the benchmark process it was forked from.
    ENTRY = ("import atexit, sys; atexit.register(lambda: print('perfbench-vmhwm-kb', "
             "open('/proc/self/status').read().split('VmHWM:')[1].split()[0], file=sys.stderr)); "
             "from lehmerpark.cli import run; run()")

    def __init__(self, root: Path):
        self.root = root
        self.clock = Clock()
        self.peak_kb = 0
        env = dict(os.environ)
        env.pop("LEHMER_THREADS", None)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
        )
        self.env = env

    def argv(self, args, unbuffered: bool = False) -> list[str]:
        return [sys.executable, *(["-u"] if unbuffered else []), "-c", self.ENTRY, *args]

    def run(self, args, stdin_lines=(), tally: Tally | None = None):
        """One command, timed from spawn to exit in nominal seconds; returns
        (seconds, stdout lines)."""
        data = "".join(line + "\n" for line in stdin_lines)
        start = time.perf_counter()
        proc = subprocess.run(
            self.argv(args), input=data, capture_output=True, text=True,
            env=self.env, cwd=self.root, timeout=170,
        )
        seconds = time.perf_counter() - start
        seconds *= self.clock.factor(seconds)
        self.exited(" ".join(args), proc.returncode, proc.stderr, tally)
        return seconds, proc.stdout.splitlines()

    def exited(self, label: str, rc: int, stderr: str, tally: Tally | None) -> None:
        for line in stderr.splitlines():
            if line.startswith("perfbench-vmhwm-kb "):
                self.peak_kb = max(self.peak_kb, int(line.split()[1]))
        if tally is not None:
            tally.command(label, rc, stderr)

    def session(self, args):
        return subprocess.Popen(
            self.argv(args, unbuffered=True), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, env=self.env, cwd=self.root,
        )


@dataclass
class Batch:
    """One batch: per-request seconds; seconds per process, spawn to exit, in
    the same order in every batch; objects completed; and the CLI's output per
    command, which the traced replay is checked against."""

    requests: list[float]
    processes: list[float]
    objects: int
    outputs: dict[str, list[str]]


# ---------------------------------------------------------------------------


class Census:
    N_COUNT, N_LIST = 10, 9

    def __init__(self, seed: int):
        self.commands = [("count", "outcomes", "--n", str(self.N_COUNT)),
                         ("enumerate", "outcomes", "--n", str(self.N_LIST))]
        random.Random(seed).shuffle(self.commands)
        self.expected = {
            "count": [str(oracle.bell_numbers(self.N_COUNT)[-1])],
            "enumerate": [oracle.outcome_line(w) for w in oracle.avoiders(self.N_LIST)],
        }

    def batch(self, cli: Cli, tally: Tally, r: int = 0) -> Batch:
        requests, outputs = [], {}
        for args in self.commands:
            seconds, out = cli.run(args, tally=tally)
            tally.ordered(args[0], out, self.expected[args[0]])
            requests.append(seconds)
            outputs[args[0]] = out
        return Batch(requests, requests, sum(map(len, outputs.values())), outputs)


class Verify:

    def __init__(self, seed: int):
        self.ids = list(VERIFY_IDS)
        random.Random(seed).shuffle(self.ids)

    def batch(self, cli: Cli, tally: Tally, r: int = 0) -> Batch:
        requests, outputs, objects = [], {}, 0
        for theorem in self.ids:
            seconds, out = cli.run(("verify", theorem), tally=tally)
            requests.append(seconds)
            outputs[theorem] = out
            objects += self.check(theorem, out, tally)
        return Batch(requests, requests, objects, outputs)

    @staticmethod
    def check(theorem: str, out: list[str], tally: Tally) -> int:
        """A passing, parseable report for `theorem`; returns objects_checked."""
        tally.attempted += 1
        try:
            report = json.loads(out[-1])
            ok = (report["theorem"] == theorem and report["pass"] is True
                  and report["discrepancies"] == [] and isinstance(report["objects_checked"], int)
                  and report["objects_checked"] > 0 and len(out) == 1)
        except (IndexError, KeyError, TypeError, ValueError):
            ok = False
        if not ok:
            tally.fail(1, f"verify {theorem}: bad report {out[-1:]!r}")
            return 0
        return report["objects_checked"]


class Roundtrip:
    N = 9

    def __init__(self, seed: int):
        n = self.N
        parts = [oracle.blocks_of(r) for r in oracle.all_rgs(n)]
        random.Random(seed).shuffle(parts)
        self.partitions = [oracle.blocks_line(b) for b in parts]
        words = [oracle.partition_to_outcome(b, n) for b in parts]
        self.outcomes = [oracle.outcome_line(w) for w in words]
        self.gbsps = [oracle.gbsp_line(*oracle.outcome_to_gbsp(w), n) for w in words]

    def batch(self, cli: Cli, tally: Tally, r: int = 0) -> Batch:
        n = str(self.N)
        stages = {}
        t, stages["enumerate"] = cli.run(("enumerate", "partitions", "--n", n), tally=tally)
        tally.unordered("enumerate partitions", stages["enumerate"], set(self.partitions))
        requests = [t]
        for verb, source, expected in (
            ("from-partition", self.partitions, self.outcomes),
            ("to-gbsp", "from-partition", self.gbsps),
            ("from-gbsp", "to-gbsp", self.outcomes),
            ("to-partition", "from-partition", self.partitions),
        ):
            lines = stages[source] if isinstance(source, str) else source
            t, stages[verb] = cli.run((verb,), lines, tally=tally)
            tally.ordered(verb, stages[verb], expected)
            requests.append(t)
        return Batch(requests, requests, sum(map(len, stages.values())), stages)


class LargeN:

    def __init__(self, seed: int):
        self.seed = seed

    def round_inputs(self, r: int) -> dict[str, list[tuple[str, str]]]:
        """(input line, expected reply) per verb for round r: one warm-up object,
        then shallow and deep objects alternating, the same objects for every verb."""
        rng = random.Random(f"{self.seed}:large_n:{r}")
        n = LARGE_N
        profiles = [oracle.shallow_rgs] + [oracle.shallow_rgs, oracle.deep_rgs] * PER_CLASS
        inputs: dict[str, list[tuple[str, str]]] = {v[0]: [] for v in LARGE_VERBS}
        for make in profiles:
            blocks = oracle.blocks_of(make(n, rng))
            word = oracle.partition_to_outcome(blocks, n)
            prefs = oracle.canonical_preimage(word)
            if oracle.park(prefs) != word:
                raise RuntimeError("oracle: canonical preimage does not park back to its outcome")
            out, part = oracle.outcome_line(word), oracle.blocks_line(blocks)
            inputs["park"].append((oracle.ints(prefs), out))
            inputs["to-partition"].append((out, part))
            inputs["from-partition"].append((part, out))
            inputs["invtable"].append((out, oracle.table_line(oracle.inversion_table(word))))
        return inputs

    def batch(self, cli: Cli, tally: Tally, r: int = 0) -> Batch:
        inputs = self.round_inputs(r)
        requests, processes, outputs, objects = [], [], {}, 0
        for args in LARGE_VERBS:
            pairs = inputs[args[0]]
            samples, replies = [], []
            start = time.perf_counter()
            with cli.session(args) as proc:
                for k, (line, _) in enumerate(pairs):
                    sent = time.perf_counter()
                    try:
                        proc.stdin.write(line + "\n")
                        proc.stdin.flush()
                    except BrokenPipeError:
                        break
                    reply = proc.stdout.readline()
                    if not reply:
                        break
                    if k:  # the first reply of a process is set-up, not a sample
                        samples.append(time.perf_counter() - sent)
                    replies.append(reply.rstrip("\n"))
                _, stderr = proc.communicate()
            seconds = time.perf_counter() - start
            scale = cli.clock.factor(seconds)
            requests += [s * scale for s in samples]
            processes.append(seconds * scale)
            cli.exited(" ".join(args), proc.returncode, stderr, tally)
            tally.ordered(args[0], replies, [want for _, want in pairs])
            outputs[args[0]] = replies
            objects += len(replies)
        return Batch(requests, processes, objects, outputs)


WORKLOADS = {"census": Census, "verify": Verify, "roundtrip": Roundtrip, "large_n": LargeN}
