"""The CLI's readers and the tables of its line verbs.

This is the one place a CLI line is read: the JSON decode and one reader per
format turn it into checked plain values, and each table entry pairs a reader
with the map that writes the line's JSON object.  `_paren_parts` reads every
parenthesization line, for `from-gbsp`, `fiber` and `render paren`: a JSON
object with a "g" key first goes through a one-pass acceptance test on the
decoded value, and so does a partition's JSON object in `_read_partition`; what
they do not accept goes to the format's checks in `_plain`, which alone word
the errors.  `to-gbsp`, `to-partition` and `from-partition` run one sweep each
over the spaces, where the library chains two legs of `_plain`; those legs are
the sweeps' oracle.  Of the package it imports only `_plain`
and `errors`, and so no object module; `cli` imports it inside the handlers of
the verbs that read lines (transform, check, fiber, render), once per process.
"""

from __future__ import annotations

import json
from bisect import bisect_left

from . import _plain
from .errors import _INT, ParseError, _distinct, _json_array


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


def _int_word(text: str, make, *keys: str):
    """`make` of the integers of a permutation, preference tuple or inversion table:
    a JSON array, a JSON object holding one under the first of `keys` it has, or the
    comma or digit text form.  `make` checks each entry."""
    text = text.strip()
    if text.startswith(("[", "{")):
        return _json_word(_loads(text), make, *keys)
    word = _plain._parse_int_word(text)
    try:
        return make(word)
    except ValueError as exc:
        if len(word) > 1 and "," not in text:  # the digit form was read: say so
            exc.args = (f"{exc}; the digit string {text!r} is read one digit per entry",)
        raise


def _json_word(value, make, *keys: str):
    """`_int_word` of a decoded JSON value."""
    if isinstance(value, dict):
        present = [key for key in keys if key in value]
        if len(present) > 1:
            raise ParseError(f"a JSON object holds both {present[0]!r} and {present[1]!r}")
        if present:
            value = value[present[0]]
    return make(_json_array(value, "the integers"))


def _read_word(text: str) -> tuple[int, ...]:
    """The word of a permutation, checked as `Permutation` checks it."""
    return _int_word(text, _plain._check_word, "outcome", "perm")


def _read_outcome(text: str) -> tuple[int, ...]:
    """The word of an outcome, checked as a permutation and certified.  A JSON object
    with a list under "outcome" and no "perm" goes straight to the check that
    `_json_word` would call on it, any other object through `_json_word`."""
    text = text.strip()
    if not text.startswith("{"):
        return _plain._certify(_read_word(text))
    obj = _loads(text)
    word = obj.get("outcome")
    if "perm" in obj or type(word) is not list:
        return _plain._certify(_json_word(obj, _plain._check_word, "outcome", "perm"))
    return _plain._certify(_plain._check_word(word))


def _read_prefs(text: str) -> tuple[int, ...]:
    """A preference tuple, checked as `PrefTuple` checks it."""
    return _int_word(text, _plain._check_prefs)


def _paren_parts(text: str) -> tuple[int, frozenset[int], frozenset[int], list[int] | None]:
    """(n, F, L) of a parenthesization, checked as `SpacedParen` checks it, and its g,
    checked as `GBsp` checks it and aligned to spaces, or None when it has none: a JSON
    object has g exactly when it has a "g" key, the string grammar exactly when a slot
    holds a digit.  A JSON object with a "g" key goes through `_gbsp_in_one_pass`
    first, and only what it does not accept through the checks, which word the error."""
    text = text.strip()
    if text.startswith("{"):
        obj = _loads(text)
        if "g" in obj and (parts := _gbsp_in_one_pass(obj)):
            return parts
        n, F, L = _plain._check_paren(*_plain._paren_json(obj))
        g = _plain._g_json(obj) if "g" in obj else None
    else:
        n, F, L, g = _plain._parse(text)
        n, F, L = _plain._check_paren(n, F, L)
        g = g or None
    return n, F, L, None if g is None else _plain._check_g(n, F, L, g)


def _gbsp_in_one_pass(obj) -> tuple[int, frozenset[int], frozenset[int], list[int]] | None:
    """(n, F, L, g) of a g-parenthesization's decoded JSON object, or None: one
    depth sweep reads g[str(i)] at each space i outside F.  It accepts exactly the
    objects that `_check_paren` and `_check_g` accept whose g keys are written as
    str(i); on None, they word the error.  With n - |g| = |F| and a key found for
    every space outside F, F lies in [1, n]; with the depth back at 0, so does L."""
    n, F, L, g = obj.get("n"), obj.get("F"), obj.get("L"), obj.get("g", {})
    if (type(n) is not int or type(F) is not list or type(L) is not list or type(g) is not dict
            or not set(map(type, F)) <= _INT or not set(map(type, L)) <= _INT):
        return None
    Fs, Ls = frozenset(F), frozenset(L)
    if not len(Fs) == len(F) == len(Ls) == len(L) == n - len(g):  # so a huge n fails here
        return None
    values = [0] * n
    d = 0
    for i in range(1, n + 1):
        if i in Fs:
            d += 1
        else:
            v = g.get(str(i))
            if type(v) is not int or not 1 <= v <= d:
                return None
            values[i - 1] = v
        if i in Ls:
            d -= 1
    return (n, Fs, Ls, values) if d == 0 else None


def _read_gbsp(text: str) -> tuple[int, frozenset[int], frozenset[int], list[int]]:
    """(n, F, L, g) of a g-parenthesization, checked as `GBsp` checks it; no g is
    valid only when F = [n]."""
    n, F, L, g = _paren_parts(text)
    return n, F, L, _plain._check_g(n, F, L, {}) if g is None else g


def _read_partition(text: str) -> tuple[int, list | tuple]:
    """n and the sorted blocks of a partition, checked as `SetPartition` checks them.
    A JSON object goes through `_blocks_in_one_pass` first, which keeps the decoded
    lists, and only what it does not accept through the checks, which word the error."""
    text = text.strip()
    if text.startswith("{") and not text.startswith("{{") and '"' in text:
        obj = _loads(text)
        if parts := _blocks_in_one_pass(obj):
            return parts
        n, blocks = _plain._blocks_json(obj)
    else:
        n, blocks = _plain._parse_blocks(text)
    return n, _plain._check_blocks(n, blocks)


def _blocks_in_one_pass(obj: dict) -> tuple[int, list[list[int]]] | None:
    """(n, blocks) of a partition's decoded JSON object, or None: one scan checks
    that each block is nonempty, starts above the last block's minimum, and holds
    integers that ascend within [1, n] and are new.  It accepts exactly the objects
    that `_blocks_json` and `_check_blocks` accept whose blocks are already sorted;
    on None, they word the error.  n new members in [1, n] are all of [1, n]."""
    blocks = obj.get("blocks")
    if type(blocks) is not list or not set(map(type, blocks)) <= {list}:
        return None
    n = sum(map(len, blocks))
    if "n" in obj and (type(obj["n"]) is not int or obj["n"] != n):
        return None
    seen = [False] * (n + 1)
    low = 0  # the last block's minimum
    for blk in blocks:
        if not blk:
            return None
        prev = low
        for x in blk:
            if type(x) is not int or not prev < x <= n or seen[x]:
                return None
            seen[x] = True
            prev = x
        low = blk[0]
    return n, blocks


def _read_armleg(text: str) -> tuple[int, ...]:
    """The cells word that `render armleg` draws: a diagram's rows, checked as
    `PartialArmLegDiagram` checks them, exactly when the value is a JSON object with
    a "points" key, else the word `_read_word` reads."""
    text = text.strip()
    if not text.startswith("{"):
        return _read_word(text)
    value = _loads(text)
    if "points" in value:
        return _plain._check_diagram(*_plain._diagram_json(value))[1]
    return _json_word(value, _plain._check_word, "outcome", "perm")


def _parked(prefs: tuple[int, ...]) -> dict:
    word = _plain._park(prefs)
    if isinstance(word, int):
        return {"failed_car": word}
    return {"outcome": list(_plain._check_word(word))}


def _outcome_to_gbsp(word: tuple[int, ...]) -> dict:
    """`_gbsp_obj` of `_phi_prime` in one sweep over the spaces: the space loop of
    `_outcome_to_partition`, writing F, L and g in space order."""
    n = len(word)
    col = [0] * (n + 1)  # col[v]: the column of value v
    for c, v in enumerate(word, start=1):
        col[v] = c
    F, L = [], []  # the spaces in F and in L, ascending
    g: dict[str, int] = {}
    empty: list[int] = []  # as in `_phi_prime`
    for i in range(1, n + 1):
        c = col[n - i + 1]
        if c >= i:  # a peak: i is in F
            F.append(i)
        else:
            k = bisect_left(empty, c)
            del empty[k]
            g[str(i)] = k + 1
        if word[i - 1] >= n - i + 1:  # i is in L
            L.append(i)
        else:
            empty.append(i)
    return {"n": n, "F": F, "L": L, "g": g}


def _outcome_to_partition(word: tuple[int, ...]) -> dict:
    """`_from_gbsp` of `_phi_prime` in one sweep over the spaces: the g(i) that
    `_phi_prime` would record is at once the rank of the open block that i joins."""
    n = len(word)
    col = [0] * (n + 1)  # col[v]: the column of value v
    for c, v in enumerate(word, start=1):
        col[v] = c
    blocks: list[list[int]] = []
    opened: list[list[int]] = []  # open blocks, by minimum
    empty: list[int] = []  # as in `_phi_prime`: ascending, as long as `opened`
    for i in range(1, n + 1):
        c = col[n - i + 1]
        if c >= i:  # a peak: i is in F
            k = len(opened)
            opened.append([i])
            blocks.append(opened[k])
        else:
            k = bisect_left(empty, c)
            del empty[k]
            opened[k].append(i)
        if word[i - 1] >= n - i + 1:  # i is in L
            del opened[k]
        else:
            empty.append(i)
    return {"blocks": blocks}


def _partition_to_outcome(partition) -> dict:
    """`_phi_prime_inv` of `_to_gbsp` in one sweep over the spaces: the rank of
    i's block among the open ones picks the empty column of row n - i + 1."""
    n, blocks = partition
    first = [0] * (n + 1)  # first[x]: the minimum of x's block
    last = [False] * (n + 1)  # last[x]: x ends its block
    for blk in blocks:
        for x in blk:
            first[x] = blk[0]
        last[blk[-1]] = True
    word = [0] * (n + 1)
    minima: list[int] = []  # minima of the open blocks, ascending
    parens: list[int] = []  # spaces in F whose paren is still open
    empty: list[int] = []  # as in `_phi_prime_inv`: as long as `minima`
    for i in range(1, n + 1):
        if first[i] == i:
            k = len(minima)
            minima.append(i)
            parens.append(i)
        else:
            k = bisect_left(minima, first[i])
            word[empty.pop(k)] = n - i + 1
        if last[i]:
            del minima[k]
            word[i] = n - parens.pop() + 1
        else:
            empty.append(i)
    return {"outcome": list(_plain._as_outcome(word[1:]))}


# each transform verb reads one value per input, checked, and maps it to one JSON
# line.  `park` and the two `invtable` legs check what they write as the constructor
# of their output would, and a leg whose output is an outcome certifies it.  `phi`,
# `to-gbsp` and `to-partition` write unchecked: their input is a certified outcome.
# `verify lemma3.12` pins the legs `_phi_prime` and `_phi_prime_inv` on every outcome,
# and the tests pin `to-gbsp`'s sweep to `_gbsp_obj` of `_phi_prime` and the partition
# sweeps to the composed legs.
_TRANSFORMS = {
    "park": (_read_prefs, _parked),
    "to-table": (
        _read_word,
        lambda word: {"table": list(_plain._check_table(_plain._inversion_table(word)))},
    ),
    "from-table": (
        lambda text: _int_word(text, _plain._check_table, "table"),
        lambda entries: {"perm": list(_plain._check_word(_plain._from_inversion_table(entries)))},
    ),
    "phi": (_read_outcome, lambda word: _plain._paren_obj(len(word), *_plain._phi_prime(word)[:2])),
    "to-gbsp": (_read_outcome, _outcome_to_gbsp),
    "from-gbsp": (
        _read_gbsp, lambda gb: {"outcome": list(_plain._as_outcome(_plain._phi_prime_inv(*gb)))},
    ),
    "to-partition": (_read_outcome, _outcome_to_partition),
    "from-partition": (_read_partition, _partition_to_outcome),
}

# each check kind of `cli._CHECK_KINDS` reads one value per input and tests it
_CHECKS = {
    "parking-function": lambda text: _plain._is_parking_function(_read_prefs(text)),
    "lehmer": lambda text: _plain._is_lehmer(_read_prefs(text)),
    "weakly-decreasing": lambda text: _plain._is_weakly_decreasing(_read_prefs(text)),
    "outcome-membership": lambda text: not _plain._contains_armleg(_read_word(text)),
}
