"""Command-line interface: one verb per library operation, JSON-lines in and out.

Transform verbs take a single positional value or, when it is omitted, read
one value per line from stdin, so verbs compose in pipelines:

    lehmerpark enumerate partitions --n 6 | lehmerpark from-partition | lehmerpark to-partition

Stdin is read a buffer at a time, and `_readers` reads each line.  The replies
to the values that one read completes, JSON lines or `render`'s pictures, are
written together, up to about `io.DEFAULT_BUFFER_SIZE` characters per write,
and flushed before the next read, so a caller that waits for each reply gets
it even when stdout is a pipe; `enumerate` writes in the same pieces.  The
lines made before an error are written before it is reported.

Exit codes: 0 on success, 1 on a usage error, malformed input, a domain error
or a run out of memory (one JSON object describing it is printed to stderr), 2
when a verification run finds a discrepancy.  Output is deterministic.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from collections.abc import Callable, Iterable, Iterator
from itertools import chain

# the standard library, errors and counting only: every other module is imported
# inside the handler of a verb that runs it, once per process
from .counting import _outcome_lines, _staircase, bell, catalan, outcome_peak_counts
from .errors import LehmerError, _size


# the C encoder that json.dumps(obj, separators=(",", ":")) builds on every call, built
# once: (markers, default, encoder, indent, key_separator, item_separator, sort_keys,
# skipkeys, allow_nan).  The CLI encodes only fresh trees of dicts, lists and scalars,
# never a cycle, so no markers.
_ENCODE = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii, None,
    ":", ",", False, False, True,
)


def _dump(obj) -> str:
    return "".join(_ENCODE(obj, 0))


def _put(lines: list[str]) -> None:
    """Writes the lines in one write, flushed."""
    if lines:
        sys.stdout.write("\n".join(lines) + "\n")
        sys.stdout.flush()


def _write(texts: Iterable[str]) -> None:
    """Writes each text as a line, in pieces of about io.DEFAULT_BUFFER_SIZE
    characters; the lines made before an error go out before it leaves."""
    lines: list[str] = []
    size = 0
    try:
        for line in texts:
            lines.append(line)
            size += len(line)
            if size >= io.DEFAULT_BUFFER_SIZE:
                piece, lines, size = lines, [], 0
                _put(piece)
    finally:
        _put(lines)


def _reads(value: str | None) -> Iterator[list[str]]:
    """The input lines, nonblank and stripped, one list per read: [value] when it is
    given, else the lines that each read of stdin's buffer completes.  As `sys.stdin`
    reads them on POSIX, lines end at "\n" alone and are decoded with its encoding
    and error handler; a line that a read leaves open is carried on to the next."""
    if value is not None:
        yield [value]
        return
    stdin = sys.stdin
    head: list[bytes] = []  # the bytes of a line no read has ended yet
    while data := stdin.buffer.read1():
        end = data.rfind(b"\n") + 1
        if not end:
            head.append(data)
            continue
        head.append(data[:end])
        text = b"".join(head).decode(stdin.encoding, stdin.errors)
        head = [data[end:]]
        yield [line for line in map(str.strip, text.split("\n")) if line]
    last = b"".join(head).decode(stdin.encoding, stdin.errors).strip()
    if last:
        yield [last]


def _each_value(args, lines: Callable[[str], Iterable[str]]) -> int:
    """Writes the `lines` of each input value; the replies to the values that one
    read completes are written together."""
    for texts in _reads(args.value):
        _write(chain.from_iterable(map(lines, texts)))
    return 0


def _cmd_transform(args) -> int:
    from ._readers import _TRANSFORMS

    read, apply = _TRANSFORMS[getattr(args, "direction", args.verb)]
    return _each_value(args, lambda text: (_dump(apply(read(text))),))


# the keys of `_readers._CHECKS`, listed here so that the parser loads neither `_readers`
# nor `_plain`
_CHECK_KINDS = ("lehmer", "outcome-membership", "parking-function", "weakly-decreasing")


def _cmd_check(args) -> int:
    from ._readers import _CHECKS

    kind, run = args.kind, _CHECKS[args.kind]
    return _each_value(args, lambda text: (_dump({"value": text, "check": kind, "ok": run(text)}),))


def _int_text(value: int) -> str:
    """The decimal text of `value`, past Python's default limit of 4,300 digits
    (Bell(2000) has 4,350 and Catalan(8000) 4,811), which is restored afterwards."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


# a fiber size of more digits is refused: the slower worst case at the ceiling, the nested
# base F = {1..40,713}, runs from spawn to exit in about 1 s (medians of 7 spawns of 0.91 and
# 1.04 s in two runs, base on stdin, no cached bytecode, Python 3.11.7, 2 shared cores), and
# all depths 2 outside F = {1, 2}, at n = 564,730, in 0.74 to 0.83 s
_FIBER_MAX_DIGITS = 170_000


def _cmd_fiber(args) -> int:
    from . import _plain
    from ._readers import _paren_parts

    def lines(text: str) -> Iterable[str]:
        n, F, L, g = _paren_parts(text)
        if g is not None:  # `_paren_parts` checks a g as `GBsp` checks it; it is then refused
            raise LehmerError("expected a plain parenthesization without g")
        base = _plain._fiber_base(n, F, L)
        if not args.count:
            words = _plain._fiber_words(*base)
            return (_dump({"outcome": list(_plain._as_outcome(w))}) for w in words)
        depths = (d for i, d in enumerate(_plain._iter_depths(*base), start=1) if i not in F)
        digits = math.floor(sum(map(math.log10, depths))) + 1  # known before the product
        _size(digits, "digits", ceiling=_FIBER_MAX_DIGITS,
              cost="`fiber --count`, whose product of depths and decimal text")
        return [_int_text(_plain._fiber_size(*base))]

    return _each_value(args, lines)


def _partition_objs(n: int) -> Iterator[dict]:
    from . import _plain

    return map(_plain._blocks_obj, _plain._partition_blocks(n))


def _bsp_objs(n: int) -> Iterator[dict]:
    from . import _plain

    return (_plain._paren_obj(n, F, L) for F, L in _plain._bsps(n))


def _gbsp_objs(n: int) -> Iterator[dict]:
    """The JSON objects of enumerate_gbsps(n), written from the plain fillings."""
    from . import _plain

    return (_plain._gbsp_obj(n, F, L, g) for F, L, g in _plain._gbsps(n))


# each enumerate kind lists the JSON lines of its family at n, one object each
_FAMILIES = {
    "lehmer": lambda n: map(_dump, map(list, _staircase(n))),
    "outcomes": _outcome_lines,
    "partitions": lambda n: map(_dump, _partition_objs(n)),
    "bsp": lambda n: map(_dump, _bsp_objs(n)),
    "gbsp": lambda n: map(_dump, _gbsp_objs(n)),
}


def _cmd_enumerate(args) -> int:
    _write(_FAMILIES[args.kind](args.n))
    return 0


_COUNTS = {
    "bell": bell,
    "catalan": catalan,
    "outcomes": lambda n: sum(outcome_peak_counts(n)),
}


def _cmd_count(args) -> int:
    print(_int_text(_COUNTS[args.kind](args.n)))
    return 0


def _theorem_id(text: str) -> str:
    """The id itself, if the verify registry has it.  Checked as argparse checks a
    choice and with its words, so that only `verify` loads the registry."""
    from .enumeration import theorem_ids

    ids = theorem_ids()
    if text not in ids:
        choices = ", ".join(map(repr, ids))
        raise argparse.ArgumentTypeError(f"invalid choice: {text!r} (choose from {choices})")
    return text


def _cmd_verify(args) -> int:
    from .enumeration import describe_theorem, verify

    report = verify(args.theorem, args.n_max)
    _write([_dump(report.to_json_obj())])
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
    from . import _plain
    from ._readers import _paren_parts, _read_armleg
    from .render import armleg_ascii, armleg_svg, paren_ascii, paren_svg

    svg = args.format == "svg"
    if args.kind == "armleg":
        read = _read_armleg
        draw = (lambda cells: armleg_svg(cells, args.extend)) if svg else armleg_ascii
    else:
        read = lambda text: _plain._paren_text(*_paren_parts(text))
        draw = paren_svg if svg else paren_ascii
    return _each_value(args, lambda text: (draw(read(text)),))


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
    p.add_argument("kind", choices=_CHECK_KINDS)
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
    p.add_argument("theorem", type=_theorem_id)
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
    except MemoryError:
        print(_dump({"error": "out of memory", "code": "memory"}), file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
