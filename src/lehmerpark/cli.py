"""Command-line interface: one verb per library operation, JSON-lines in and out.

Transform verbs take a single positional value or, when it is omitted, read
one value per line from stdin, so verbs compose in pipelines:

    lehmerpark enumerate partitions --n 6 | lehmerpark from-partition | lehmerpark to-partition

Exit codes: 0 on success, 1 on a usage error, malformed input or a domain
error (one JSON object describing it is printed to stderr), 2 when a
verification run finds a discrepancy.  Output is deterministic.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterator

from .armleg import PartialArmLegDiagram
from .bijection import (
    OutcomePermutation,
    _certify,
    _phi_prime,
    _phi_prime_inv,
    fiber,
    fiber_size,
    phi,
)
from .enumeration import (
    all_lehmer,
    bell,
    catalan,
    describe_theorem,
    iter_outcome_words,
    outcome_peak_counts,
    theorem_ids,
    verify,
)
from .errors import LehmerError, ParseError, _distinct, _json_array
from .paren import (
    GBsp,
    SpacedParen,
    _check_g,
    _check_paren,
    _g_json,
    _g_pairs,
    _gbsp_obj,
    _paren_json,
    _parse,
    _plain_gbsps,
    enumerate_bsps,
    parse as parse_paren,
)
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
    _check_word,
    _parse_int_word,
    contains_armleg_pattern,
    from_inversion_table,
    inversion_table,
)
from .render import armleg_ascii, armleg_svg, paren_ascii, paren_svg
from .setpartition import (
    _blocks_json,
    _check_blocks,
    _from_gbsp,
    _parse_blocks,
    _partition_blocks,
    _to_gbsp,
)


# built once: json.dumps with non-default separators builds a new encoder per call.
# The CLI encodes only fresh trees of dicts, lists and scalars, never a cycle.
_ENCODER = json.JSONEncoder(separators=(",", ":"), check_circular=False)


def _dump(obj) -> str:
    return _ENCODER.encode(obj)


def _emit(obj) -> None:
    # one write per line: with unbuffered stdout, print would make two
    sys.stdout.write(_dump(obj) + "\n")


def _unique_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        _distinct([key for key, _ in pairs], "a JSON object's keys")
    return obj


# built once: json.loads with a hook would build a new decoder for every line
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def _loads(text: str):
    """The one JSON decode: malformed JSON and a key repeated in one object are
    parse errors, where plain json.loads would keep the last of the repeats."""
    try:
        return _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc}", position=exc.pos + 1) from None
    except RecursionError:  # the C scanner recurses once per level of nesting
        raise ParseError("malformed JSON: nested too deeply") from None


def _inputs(value: str | None) -> Iterator[str]:
    if value is not None:
        yield value
        return
    for line in sys.stdin:
        line = line.strip()
        if line:
            yield line


def _int_word(text: str, make, *keys: str):
    """`make` of the integers of a permutation, preference tuple or inversion table:
    a JSON array, a JSON object holding one under the first of `keys` it has, or the
    comma or digit text form.  `make` checks each entry."""
    text = text.strip()
    if text.startswith(("[", "{")):
        return _json_word(_loads(text), make, *keys)
    word = _parse_int_word(text)
    try:
        return make(word)
    except ValueError as exc:
        if len(word) > 1 and "," not in text:  # the digit form was read: say so
            exc.args = (f"{exc}; the digit string {text!r} is read one digit per entry",)
        raise


def _json_word(value, make, *keys: str):
    if isinstance(value, dict):
        present = [key for key in keys if key in value]
        if len(present) > 1:
            raise ParseError(f"a JSON object holds both {present[0]!r} and {present[1]!r}")
        if present:
            value = value[present[0]]
    return make(_json_array(value, "the integers"))


def _read_perm(text: str) -> Permutation:
    return _int_word(text, Permutation, "outcome", "perm")


def _read_outcome(text: str) -> tuple[int, ...]:
    """The word of an outcome, checked as a permutation and certified."""
    return _certify(_int_word(text, _check_word, "outcome", "perm"))


def _read_prefs(text: str) -> PrefTuple:
    return _int_word(text, PrefTuple)


def _read_paren(text: str) -> SpacedParen | GBsp:
    """A parenthesization as JSON, augmented exactly when it has a "g" key, or
    as the string grammar, augmented exactly when a slot holds a digit."""
    text = text.strip()
    if not text.startswith("{"):
        return parse_paren(text)
    obj = _loads(text)
    return GBsp.from_json_obj(obj) if "g" in obj else SpacedParen.from_json_obj(obj)


def _read_gbsp(text: str) -> tuple[int, frozenset[int], frozenset[int], list[int]]:
    """(n, F, L, g) of a g-parenthesization, read as `_read_paren` reads one and
    checked as `GBsp` checks it; no g is valid only when F = [n]."""
    text = text.strip()
    if text.startswith("{"):
        obj = _loads(text)
        n, F, L = _check_paren(*_paren_json(obj))
        g = _g_json(obj)
    else:
        n, F, L, g = _parse(text)
        n, F, L = _check_paren(n, F, L)
    return n, F, L, _check_g(n, F, L, g)


def _read_partition(text: str) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """n and the sorted blocks of a partition, checked as `SetPartition` checks them."""
    text = text.strip()
    if text.startswith("{") and not text.startswith("{{") and '"' in text:
        n, blocks = _blocks_json(_loads(text))
    else:
        n, blocks = _parse_blocks(text)
    return n, _check_blocks(n, blocks)


def _read_armleg(text: str) -> Permutation | PartialArmLegDiagram:
    """A diagram exactly when the value is a JSON object with a "points" key."""
    text = text.strip()
    if not text.startswith("{"):
        return _read_perm(text)
    value = _loads(text)
    if "points" in value:
        return PartialArmLegDiagram.from_json_obj(value)
    return _json_word(value, Permutation, "outcome", "perm")


def _blocks(blocks) -> dict:
    """The JSON object of a partition's blocks, already in `SetPartition` order."""
    return {"blocks": [list(blk) for blk in blocks]}


def _park(a: PrefTuple) -> dict:
    result = park(a)
    if result.ok:
        return {"outcome": result.outcome.to_json_obj()}
    return {"failed_car": result.failed_car}


def _outcome_to_gbsp(word: tuple[int, ...]) -> dict:
    F, L, g = _phi_prime(word)
    return _gbsp_obj(len(word), F, L, _g_pairs(F, g))


def _outcome_to_partition(word: tuple[int, ...]) -> dict:
    # _from_gbsp lists the blocks in closing order; sorting puts them by minimum
    return _blocks(sorted(_from_gbsp(len(word), *_phi_prime(word))))


def _outcome(word: tuple[int, ...]) -> dict:
    """The JSON object of a rebuilt outcome, checked and certified as
    `OutcomePermutation` certifies it."""
    return {"outcome": list(_certify(_check_word(word)))}


def _partition_to_outcome(partition) -> dict:
    n, blocks = partition
    return _outcome(_phi_prime_inv(n, *_to_gbsp(n, blocks)))


# each transform verb reads one value per input, checked, and maps it to one JSON
# line.  The bijection legs read and write plain values, checked by the same
# functions as the constructors, and a leg whose output is an outcome certifies it.
_TRANSFORMS = {
    "park": (_read_prefs, _park),
    "to-table": (_read_perm, lambda p: {"table": inversion_table(p).to_json_obj()}),
    "from-table": (
        lambda text: _int_word(text, InversionTable, "table"),
        lambda t: {"perm": from_inversion_table(t).to_json_obj()},
    ),
    "phi": (lambda text: OutcomePermutation(_read_perm(text)), lambda p: phi(p).to_json_obj()),
    "to-gbsp": (_read_outcome, _outcome_to_gbsp),
    "from-gbsp": (_read_gbsp, lambda gb: _outcome(_phi_prime_inv(*gb))),
    "to-partition": (_read_outcome, _outcome_to_partition),
    "from-partition": (_read_partition, _partition_to_outcome),
}


def _cmd_transform(args) -> int:
    read, apply = _TRANSFORMS[getattr(args, "direction", args.verb)]
    for text in _inputs(args.value):
        _emit(apply(read(text)))
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


def _cmd_fiber(args) -> int:
    for text in _inputs(args.value):
        sp = _read_paren(text)
        if isinstance(sp, GBsp):
            raise LehmerError("expected a plain parenthesization without g")
        if args.count:
            print(fiber_size(sp))
        else:
            for p in fiber(sp):
                _emit({"outcome": p.perm.to_json_obj()})
    return 0


def _gbsp_objs(n: int) -> Iterator[dict]:
    """The JSON objects of enumerate_gbsps(n), written from the plain fillings."""
    for sp, g in _plain_gbsps(n):
        yield _gbsp_obj(n, sp.F, sp.L, _g_pairs(sp.F, g))


# each enumerate kind lists the JSON objects of its family at n, one line each
_FAMILIES = {
    "lehmer": lambda n: map(PrefTuple.to_json_obj, all_lehmer(n)),
    "outcomes": lambda n: ({"outcome": list(w)} for w in sorted(iter_outcome_words(n))),
    "partitions": lambda n: map(_blocks, _partition_blocks(n)),
    "bsp": lambda n: map(SpacedParen.to_json_obj, enumerate_bsps(n)),
    "gbsp": _gbsp_objs,
}


def _cmd_enumerate(args) -> int:
    for obj in _FAMILIES[args.kind](args.n):
        _emit(obj)
    return 0


_COUNTS = {
    "bell": bell,
    "catalan": catalan,
    "outcomes": lambda n: sum(outcome_peak_counts(n)),
}


def _cmd_count(args) -> int:
    value = _COUNTS[args.kind](args.n)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # Bell(2200) has 4,860 digits; the default limit is 4,300
    try:
        print(value)
    finally:
        sys.set_int_max_str_digits(limit)
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
    svg = args.format == "svg"
    for text in _inputs(args.value):
        if args.kind == "armleg":
            source = _read_armleg(text)
            print(armleg_svg(source, extend=args.extend) if svg else armleg_ascii(source))
        else:
            paren = _read_paren(text)
            print(paren_svg(paren) if svg else paren_ascii(paren))
    return 0


class _UsageError(LehmerError):
    code = "usage"


class _Parser(argparse.ArgumentParser):
    """Raises a usage error, reported like any other error, where argparse would exit 2."""

    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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

    add("park", _cmd_transform, "run the parking procedure on a preference tuple")

    p = add("check", _cmd_check, "test a membership predicate", value=False)
    p.add_argument("kind", choices=sorted(_CHECKS))
    p.add_argument("value", nargs="?")

    p = add("invtable", _cmd_transform, "inversion table of a permutation, or back", value=False)
    p.add_argument("direction", choices=["to-table", "from-table"])
    p.add_argument("value", nargs="?")

    add("phi", _cmd_transform, "arms and legs of an outcome permutation")
    add("to-gbsp", _cmd_transform, "outcome permutation to g-parenthesization")
    add("from-gbsp", _cmd_transform, "g-parenthesization back to its outcome")
    add("to-partition", _cmd_transform, "outcome permutation to set partition")
    add("from-partition", _cmd_transform, "set partition back to its outcome")

    p = add("fiber", _cmd_fiber, "all outcomes over a balanced parenthesization")
    p.add_argument("--count", action="store_true", help="print only the fiber size")

    p = add("enumerate", _cmd_enumerate, "list a family exhaustively", value=False)
    p.add_argument("kind", choices=list(_FAMILIES))
    p.add_argument("--n", type=int, required=True)

    p = add("count", _cmd_count, "count a family", value=False)
    p.add_argument("kind", choices=list(_COUNTS))
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
    try:
        args, extras = build_parser().parse_known_args(argv)
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
                raise _UsageError(f"unrecognized arguments: {' '.join(extras)}")
        return args.func(args)
    except SystemExit as exc:  # only --help exits inside argparse now
        return 0 if exc.code == 0 else 1
    except BrokenPipeError:
        return 0
    except ValueError as exc:
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
