"""The CLI's line streams through real pipes: stdin is read a buffer at a time
and the replies to each read are written and flushed before the next one, so
these tests run the CLI in a subprocess and compare what comes out of the pipe
with the library, line by line."""

import contextlib
import io
import json
import os
import select
import subprocess
import sys
import time

import pytest

import lehmerpark
from lehmerpark import (
    GBsp,
    OutcomePermutation,
    Permutation,
    PrefTuple,
    SetPartition,
    SpacedParen,
    fiber,
    fiber_size,
    is_lehmer,
    outcome_to_partition,
    park,
    parse,
    partition_to_outcome,
)
from lehmerpark.cli import _dump, main
from lehmerpark.render import paren_ascii, paren_svg

REPLY_TIMEOUT_S = 10


def _env(unbuffered: bool) -> dict:
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(lehmerpark.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["PYTHONIOENCODING"] = "utf-8:surrogateescape"
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def _argv(*args):
    return [sys.executable, "-m", "lehmerpark.cli", *args]


def _pipe(args, data: bytes, unbuffered=True):
    """(exit code, stdout, stderr) of one CLI run fed `data` through a pipe."""
    done = subprocess.run(_argv(*args), input=data, capture_output=True,
                          env=_env(unbuffered), timeout=120)
    return done.returncode, done.stdout, done.stderr


def _line(obj) -> bytes:
    return (_dump(obj) + "\n").encode()


def _word(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.strip().strip("[]").split(","))


def _parked(text: str) -> dict:
    result = park(PrefTuple(_word(text)))
    return {"outcome": list(result.outcome.word)} if result.ok else {"failed_car": result.failed_car}


def _partition(text: str) -> dict:
    b = outcome_to_partition(OutcomePermutation(Permutation(_word(text))))
    return {"blocks": [list(blk) for blk in b.blocks]}


def _lehmer(text: str) -> dict:
    return {"value": text.strip(), "check": "lehmer", "ok": is_lehmer(PrefTuple(_word(text)))}


# each verb with the library's reply to one stripped input line
LIBRARY = {
    ("park",): _parked,
    ("to-partition",): _partition,
    ("check", "lehmer"): _lehmer,
}


def _outcome_text(n: int, blocks) -> str:
    return ",".join(map(str, partition_to_outcome(SetPartition(n, blocks)).word))


N = 2000
# the outcome of the nested partition {i, n + 1 - i}, as the large-n benchmark sends it
DEEP = _outcome_text(N, [(i, N + 1 - i) for i in range(1, N // 2 + 1)])
SMALL = [_outcome_text(4, [(1, 3), (2, 4)]), _outcome_text(3, [(1,), (2, 3)]), "[2,1]", "1"]


def _reply(proc, lines: int = 1) -> bytes:
    """The next `lines` lines of the process's stdout, which must arrive within the timeout."""
    fd = proc.stdout.fileno()
    deadline = time.monotonic() + REPLY_TIMEOUT_S
    got = b""
    while got.count(b"\n") < lines:
        ready, _, _ = select.select([fd], [], [], max(0.0, deadline - time.monotonic()))
        assert ready, f"no reply within {REPLY_TIMEOUT_S} s; so far {got[:80]!r}"
        chunk = os.read(fd, 1 << 16)
        assert chunk, f"stdout closed; so far {got[:80]!r}"
        got += chunk
    return got


@pytest.mark.parametrize("verb", list(LIBRARY), ids=" ".join)
def test_each_reply_arrives_before_the_next_line_is_sent(verb):
    # no -u and no PYTHONUNBUFFERED: stdout is a block-buffered pipe
    assert len(DEEP) > 8192
    proc = subprocess.Popen(_argv(*verb), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=_env(unbuffered=False), bufsize=0)
    try:
        for text in [SMALL[0], DEEP, *SMALL[1:], DEEP]:
            proc.stdin.write(text.encode() + b"\n")
            assert _reply(proc) == _line(LIBRARY[verb](text))
        proc.stdin.close()
        assert proc.wait(timeout=REPLY_TIMEOUT_S) == 0
        assert proc.stdout.read() == b"" and proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()


PICTURES = {"ascii": paren_ascii, "svg": paren_svg}
PARENS = ["(_ (_ 2 1) (_) 1)", '{"n":6,"F":[1,2,5],"L":[4,5,6]}', "(_)",
          '{"n":3,"F":[1],"L":[3],"g":{"2":1,"3":1}}']


def _paren(text: str):
    """The library's reading of one line that `render paren` draws."""
    if text.startswith("("):
        return parse(text)
    obj = json.loads(text)
    return GBsp.from_json_obj(obj) if "g" in obj else SpacedParen.from_json_obj(obj)


@pytest.mark.parametrize("fmt", list(PICTURES))
def test_each_picture_arrives_before_the_next_line_is_sent(fmt):
    # no -u and no PYTHONUNBUFFERED: each picture must still be flushed before the next read
    proc = subprocess.Popen(_argv("render", "paren", "--format", fmt), stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_env(unbuffered=False), bufsize=0)
    try:
        for text in PARENS:
            picture = (PICTURES[fmt](_paren(text)) + "\n").encode()
            proc.stdin.write(text.encode() + b"\n")
            assert _reply(proc, picture.count(b"\n")) == picture
        proc.stdin.close()
        assert proc.wait(timeout=REPLY_TIMEOUT_S) == 0
        assert proc.stdout.read() == b"" and proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()


def _fiber(text: str) -> bytes:
    return b"".join(_line({"outcome": list(oc.word)}) for oc in fiber(_paren(text)))


# the library's reply to one base, all of its lines
FIBERS = {
    ("fiber",): _fiber,
    ("fiber", "--count"): lambda text: _line(fiber_size(_paren(text))),
}
M = 6  # the nested base F = [1, M], L = [M + 1, 2M]: M! = 720 outcomes, about 25 KB of lines
BASES = ["(_ (_ _ _) (_) _)", json.dumps({"n": 2 * M, "F": list(range(1, M + 1)),
                                          "L": list(range(M + 1, 2 * M + 1))}), "(_)", "(_ _ _)"]


@pytest.mark.parametrize("verb", list(FIBERS), ids=" ".join)
def test_each_fiber_arrives_before_the_next_base_is_sent(verb):
    # no -u and no PYTHONUNBUFFERED: a base's lines, several writes for the nested one,
    # must all be flushed before the next read
    proc = subprocess.Popen(_argv(*verb), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=_env(unbuffered=False), bufsize=0)
    try:
        for text in [*BASES, *BASES]:
            lines = FIBERS[verb](text)
            proc.stdin.write(text.encode() + b"\n")
            assert _reply(proc, lines.count(b"\n")) == lines
        proc.stdin.close()
        assert proc.wait(timeout=REPLY_TIMEOUT_S) == 0
        assert proc.stdout.read() == b"" and proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()


@pytest.mark.parametrize("verb", list(FIBERS), ids=" ".join)
def test_fiber_lines_before_a_bad_base_are_written_in_order_then_one_error(verb):
    good = [BASES[0], BASES[2], BASES[3]] * 2000  # about 60 KB: the bad base comes many reads in
    bad = '{"n":3,"F":[1],"L":[2]}'  # space 3 has depth 0
    code, out, err = _pipe(verb, "".join(t + "\n" for t in [*good, bad, *BASES]).encode(),
                           unbuffered=False)
    assert code == 1
    assert out == b"".join(map(FIBERS[verb], good))
    assert err == _in_process_error(verb, bad)


def _in_process_error(verb, text: str) -> bytes:
    """The error line that one value given on the command line gets."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main([*verb, "--", text]) == 1
    return err.getvalue().encode()


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("verb", list(LIBRARY), ids=" ".join)
def test_lines_before_a_bad_line_are_written_in_order_then_one_error(verb, unbuffered):
    good = SMALL * 3000  # about 50 KB: the bad line comes many reads in
    code, out, err = _pipe(verb, "".join(t + "\n" for t in [*good, "3,x", *SMALL]).encode(),
                           unbuffered)
    assert code == 1
    assert out == b"".join(_line(LIBRARY[verb](t)) for t in good)
    assert err == _in_process_error(verb, "3,x")


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("verb", list(LIBRARY), ids=" ".join)
def test_lines_that_straddle_reads_are_each_read_once(verb, unbuffered):
    # a no-break space is two bytes in UTF-8 and whitespace to str.strip, so a read that
    # ends inside one must carry its first byte on to the next read
    texts = [DEEP, *SMALL, "\u00a0" + SMALL[0] + "\u00a0"] * 40
    data = "".join(t + "\n" for t in texts).encode()
    assert len(data) > 64 * 1024
    assert _pipe(verb, data, unbuffered) == (
        0, b"".join(_line(LIBRARY[verb](t)) for t in texts), b""
    )


@pytest.mark.parametrize("verb", list(LIBRARY), ids=" ".join)
def test_crlf_blank_lines_and_a_last_line_without_newline(verb):
    data = f"{SMALL[0]}\r\n\r\n \t \n\n{SMALL[1]}\r\n   {SMALL[2]}  \n\x0c\n{SMALL[3]}".encode()
    expected = b"".join(_line(LIBRARY[verb](t)) for t in SMALL)
    assert _pipe(verb, data) == (0, expected, b"")
    assert _pipe(verb, data + b"\r\n") == (0, expected, b"")


@pytest.mark.parametrize("verb", list(LIBRARY), ids=" ".join)
def test_bytes_that_are_not_utf8_are_read_with_surrogateescape(verb):
    bad = b"2,\xff,1"
    code, out, err = _pipe(verb, SMALL[0].encode() + b"\n" + bad + b"\n" + SMALL[1].encode())
    assert (code, out) == (1, _line(LIBRARY[verb](SMALL[0])))
    assert err == _in_process_error(verb, bad.decode("utf-8", "surrogateescape"))


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_a_reader_that_closes_after_one_line_ends_the_run_quietly(unbuffered):
    proc = subprocess.Popen(_argv("enumerate", "partitions", "--n", "9"), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=_env(unbuffered))
    try:
        assert proc.stdout.readline() == b'{"blocks":[[1,2,3,4,5,6,7,8,9]]}\n'
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
