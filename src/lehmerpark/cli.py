"""Command-line interface: one verb per library operation, JSON-lines in and out.

Transform verbs take a single positional value or, when it is omitted, read
one value per line from stdin, so verbs compose in pipelines:

    lehmerpark enumerate partitions --n 6 | lehmerpark from-partition | lehmerpark to-partition

Exit codes: 0 on success, 1 on a domain error (a JSON object describing it is
printed to stderr), 2 when a verification run finds a discrepancy.  Output is
deterministic.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterator

from .armleg import PartialArmLegDiagram
from .bijection import (
    OutcomePermutation,
    fiber,
    fiber_size,
    outcome_to_partition,
    partition_to_outcome,
    phi,
    phi_prime,
    phi_prime_inv,
)
from .enumeration import (
    all_lehmer,
    bell,
    catalan,
    default_n_max,
    describe_theorem,
    iter_outcome_words,
    theorem_ids,
    verify,
)
from .errors import LehmerError, _json_ints
from .paren import GBsp, SpacedParen, enumerate_bsps, enumerate_gbsps, parse as parse_paren
from .parking import (
    PrefTuple,
    is_lehmer,
    is_parking_function,
    is_weakly_decreasing,
    park,
)
from .permutation import (
    InversionTable,
    Permutation,
    contains_armleg_pattern,
    from_inversion_table,
    inversion_table,
)
from .render import armleg_ascii, armleg_svg, paren_ascii, paren_svg
from .setpartition import SetPartition, enumerate_partitions


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _emit(obj) -> None:
    print(_dump(obj))


def _inputs(value: str | None) -> Iterator[str]:
    if value is not None:
        yield value
        return
    for line in sys.stdin:
        line = line.strip()
        if line:
            yield line


def _read_perm(text: str) -> Permutation:
    text = text.strip()
    if text.startswith("{"):
        obj = json.loads(text)
        for key in ("outcome", "perm"):
            if key in obj:
                return Permutation.from_json_obj(obj[key])
        raise LehmerError(f"no permutation found in {text!r}")
    if text.startswith("["):
        return Permutation.from_json_obj(json.loads(text))
    return Permutation.from_text(text)


def _read_prefs(text: str) -> PrefTuple:
    text = text.strip()
    if text.startswith("["):
        return PrefTuple(_json_ints(json.loads(text), "preferences"))
    return PrefTuple.from_text(text)


def _read_table(text: str) -> InversionTable:
    text = text.strip()
    if text.startswith("{"):
        obj = json.loads(text)
        if "table" in obj:
            return InversionTable(_json_ints(obj["table"], "an inversion table"))
        raise LehmerError(f"no table found in {text!r}")
    if text.startswith("["):
        return InversionTable(_json_ints(json.loads(text), "an inversion table"))
    return InversionTable.from_text(text)


def _read_bsp(text: str) -> SpacedParen:
    text = text.strip()
    if text.startswith("{"):
        obj = json.loads(text)
        if "g" in obj:
            raise LehmerError("expected a plain parenthesization without g")
        return SpacedParen.from_json_obj(obj)
    result = parse_paren(text)
    if isinstance(result, GBsp):
        raise LehmerError("expected a plain parenthesization without g")
    return result


def _read_gbsp(text: str) -> GBsp:
    text = text.strip()
    if text.startswith("{"):
        return GBsp.from_json_obj(json.loads(text))
    result = parse_paren(text)
    if isinstance(result, GBsp):
        return result
    return GBsp(result, {})  # valid only when F = [n]; validation reports otherwise


def _read_partition(text: str) -> SetPartition:
    text = text.strip()
    if text.startswith("{") and not text.startswith("{{") and '"' in text:
        return SetPartition.from_json_obj(json.loads(text))
    return SetPartition.from_text(text)


def _cmd_park(args) -> int:
    for text in _inputs(args.value):
        result = park(_read_prefs(text))
        if result.ok:
            _emit({"outcome": result.outcome.to_json_obj()})
        else:
            _emit({"failed_car": result.failed_car})
    return 0


_CHECKS = {
    "parking-function": lambda text: is_parking_function(_read_prefs(text)),
    "lehmer": lambda text: is_lehmer(_read_prefs(text)),
    "weakly-decreasing": lambda text: is_weakly_decreasing(_read_prefs(text)),
    "outcome-membership": lambda text: not contains_armleg_pattern(_read_perm(text)),
}


def _cmd_check(args) -> int:
    run = _CHECKS[args.kind]
    for text in _inputs(args.value):
        _emit({"value": text, "check": args.kind, "ok": run(text)})
    return 0


def _cmd_invtable(args) -> int:
    for text in _inputs(args.value):
        if args.direction == "to-table":
            _emit({"table": inversion_table(_read_perm(text)).to_json_obj()})
        else:
            _emit({"perm": from_inversion_table(_read_table(text)).to_json_obj()})
    return 0


def _cmd_phi(args) -> int:
    for text in _inputs(args.value):
        _emit(phi(OutcomePermutation(_read_perm(text))).to_json_obj())
    return 0


def _cmd_to_gbsp(args) -> int:
    for text in _inputs(args.value):
        _emit(phi_prime(OutcomePermutation(_read_perm(text))).to_json_obj())
    return 0


def _cmd_from_gbsp(args) -> int:
    for text in _inputs(args.value):
        _emit({"outcome": phi_prime_inv(_read_gbsp(text)).perm.to_json_obj()})
    return 0


def _cmd_to_partition(args) -> int:
    for text in _inputs(args.value):
        b = outcome_to_partition(OutcomePermutation(_read_perm(text)))
        _emit({"blocks": [list(blk) for blk in b.blocks]})
    return 0


def _cmd_from_partition(args) -> int:
    for text in _inputs(args.value):
        p = partition_to_outcome(_read_partition(text))
        _emit({"outcome": p.perm.to_json_obj()})
    return 0


def _cmd_fiber(args) -> int:
    for text in _inputs(args.value):
        sp = _read_bsp(text)
        if args.count:
            print(fiber_size(sp))
        else:
            for p in fiber(sp):
                _emit({"outcome": p.perm.to_json_obj()})
    return 0


def _cmd_enumerate(args) -> int:
    n = args.n
    if args.kind == "lehmer":
        for a in all_lehmer(n):
            _emit(a.to_json_obj())
    elif args.kind == "outcomes":
        for w in sorted(iter_outcome_words(n)):
            _emit({"outcome": list(w)})
    elif args.kind == "partitions":
        for b in enumerate_partitions(n):
            _emit({"blocks": [list(blk) for blk in b.blocks]})
    elif args.kind == "bsp":
        for sp in enumerate_bsps(n):
            _emit(sp.to_json_obj())
    else:
        for gb in enumerate_gbsps(n):
            _emit(gb.to_json_obj())
    return 0


def _cmd_count(args) -> int:
    if args.kind == "bell":
        print(bell(args.n))
    elif args.kind == "catalan":
        print(catalan(args.n))
    else:
        print(sum(1 for _ in iter_outcome_words(args.n)))
    return 0


def _cmd_verify(args) -> int:
    report = verify(args.theorem, args.n_max)
    _emit(report.to_json_obj())
    status = "pass" if report.passed else "FAIL"
    print(
        f"{report.theorem:<10} n_max={report.n_max:<3} "
        f"objects={report.objects_checked:<9} {status}  {report.seconds:.2f}s  "
        f"({describe_theorem(report.theorem)})",
        file=sys.stderr,
    )
    for line in report.discrepancies:
        print(f"  {line}", file=sys.stderr)
    return 0 if report.passed else 2


def _cmd_render(args) -> int:
    for text in _inputs(args.value):
        if args.kind == "armleg":
            text = text.strip()
            if text.startswith("{") and "points" in text:
                source = PartialArmLegDiagram.from_json_obj(json.loads(text))
            else:
                source = _read_perm(text)
            out = (
                armleg_svg(source, extend=args.extend)
                if args.format == "svg"
                else armleg_ascii(source)
            )
        else:
            parsed = parse_paren(text) if not text.strip().startswith("{") else None
            if parsed is None:
                obj = json.loads(text)
                parsed = (
                    GBsp.from_json_obj(obj) if obj.get("g") else SpacedParen.from_json_obj(obj)
                )
            out = paren_svg(parsed) if args.format == "svg" else paren_ascii(parsed)
        print(out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lehmerpark",
        description="Staircase parking functions, outcomes, parenthesizations, partitions.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, func, help_text, value=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if value:
            p.add_argument("value", nargs="?", help="input value; stdin lines when omitted")
        return p

    add("park", _cmd_park, "run the parking procedure on a preference tuple")

    p = add("check", _cmd_check, "test a membership predicate", value=False)
    p.add_argument("kind", choices=sorted(_CHECKS))
    p.add_argument("value", nargs="?")

    p = add("invtable", _cmd_invtable, "inversion table of a permutation, or back", value=False)
    p.add_argument("direction", choices=["to-table", "from-table"])
    p.add_argument("value", nargs="?")

    add("phi", _cmd_phi, "arms and legs of an outcome permutation")
    add("to-gbsp", _cmd_to_gbsp, "outcome permutation to g-parenthesization")
    add("from-gbsp", _cmd_from_gbsp, "g-parenthesization back to its outcome")
    add("to-partition", _cmd_to_partition, "outcome permutation to set partition")
    add("from-partition", _cmd_from_partition, "set partition back to its outcome")

    p = add("fiber", _cmd_fiber, "all outcomes over a balanced parenthesization")
    p.add_argument("--count", action="store_true", help="print only the fiber size")

    p = add("enumerate", _cmd_enumerate, "list a family exhaustively", value=False)
    p.add_argument("kind", choices=["lehmer", "outcomes", "partitions", "bsp", "gbsp"])
    p.add_argument("--n", type=int, required=True)

    p = add("count", _cmd_count, "count a family", value=False)
    p.add_argument("kind", choices=["bell", "catalan", "outcomes"])
    p.add_argument("--n", type=int, required=True)

    p = add("verify", _cmd_verify, "run a named exhaustive check", value=False)
    p.add_argument("theorem", choices=theorem_ids(), metavar="theorem")
    p.add_argument("--n-max", type=int, default=None)

    p = add("render", _cmd_render, "draw a diagram or parenthesization", value=False)
    p.add_argument("kind", choices=["armleg", "paren"])
    p.add_argument("value", nargs="?")
    p.add_argument("--format", choices=["svg", "ascii"], default="ascii")
    p.add_argument("--extend", action="store_true", help="overhang arms/legs past the antidiagonal")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args, extras = parser.parse_known_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors; keep 2 for verification
        return 0 if exc.code == 0 else 1
    if extras:
        # argparse will not match a trailing positional once flags intervene,
        # e.g. `render armleg --format svg 3,4,1,5,2,6`; recover the value here
        if (
            len(extras) == 1
            and not extras[0].startswith("-")
            and getattr(args, "value", "") is None
        ):
            args.value = extras[0]
        else:
            print(_dump({"error": f"unrecognized arguments: {' '.join(extras)}", "code": "usage"}), file=sys.stderr)
            return 1
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except (LehmerError, ValueError, json.JSONDecodeError) as exc:
        error = {"error": str(exc), "code": getattr(exc, "code", "domain")}
        if getattr(exc, "position", None) is not None:
            error["position"] = exc.position
        if getattr(exc, "space", None) is not None:
            error["space"] = exc.space
        print(_dump(error), file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
