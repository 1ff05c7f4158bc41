"""The CLI's readers and the tables of its line verbs.

Each reader turns one input line into a checked value, and each table entry
pairs a reader with the map that writes the line's JSON object.  `cli` imports
this module inside the handlers of the verbs that read lines (transform,
check, fiber, render), once per process.  The transform and check verbs read,
check and write plain values through `_plain`, the only module besides `cli`
and `errors` imported here at the top, with the checks that the constructors
run; only the readers of `fiber` and `render`, which hand objects on, import
the object modules.
"""

from __future__ import annotations

from . import _plain
from .cli import _blocks, _loads
from .errors import ParseError, _json_array


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


def _read_perm(text: str):
    """A `Permutation`, read as `_read_word` reads its word."""
    from .permutation import Permutation

    return _int_word(text, Permutation, "outcome", "perm")


def _read_outcome(text: str) -> tuple[int, ...]:
    """The word of an outcome, checked as a permutation and certified."""
    return _plain._certify(_read_word(text))


def _read_prefs(text: str) -> tuple[int, ...]:
    """A preference tuple, checked as `PrefTuple` checks it."""
    return _int_word(text, _plain._check_prefs)


def _read_paren(text: str):
    """A `SpacedParen` or `GBsp` as JSON, augmented exactly when it has a "g" key,
    or as the string grammar, augmented exactly when a slot holds a digit."""
    from .paren import GBsp, SpacedParen, parse

    text = text.strip()
    if not text.startswith("{"):
        return parse(text)
    obj = _loads(text)
    return GBsp.from_json_obj(obj) if "g" in obj else SpacedParen.from_json_obj(obj)


def _read_gbsp(text: str) -> tuple[int, frozenset[int], frozenset[int], list[int]]:
    """(n, F, L, g) of a g-parenthesization, read as `_read_paren` reads one and
    checked as `GBsp` checks it; no g is valid only when F = [n]."""
    text = text.strip()
    if text.startswith("{"):
        obj = _loads(text)
        n, F, L = _plain._check_paren(*_plain._paren_json(obj))
        g = _plain._g_json(obj)
    else:
        n, F, L, g = _plain._parse(text)
        n, F, L = _plain._check_paren(n, F, L)
    return n, F, L, _plain._check_g(n, F, L, g)


def _read_partition(text: str) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """n and the sorted blocks of a partition, checked as `SetPartition` checks them."""
    text = text.strip()
    if text.startswith("{") and not text.startswith("{{") and '"' in text:
        n, blocks = _plain._blocks_json(_loads(text))
    else:
        n, blocks = _plain._parse_blocks(text)
    return n, _plain._check_blocks(n, blocks)


def _read_armleg(text: str):
    """A `PartialArmLegDiagram` exactly when the value is a JSON object with a
    "points" key, else a `Permutation`."""
    from .armleg import PartialArmLegDiagram
    from .permutation import Permutation

    text = text.strip()
    if not text.startswith("{"):
        return _read_perm(text)
    value = _loads(text)
    if "points" in value:
        return PartialArmLegDiagram.from_json_obj(value)
    return _json_word(value, Permutation, "outcome", "perm")


def _parked(prefs: tuple[int, ...]) -> dict:
    word = _plain._park(prefs)
    if isinstance(word, int):
        return {"failed_car": word}
    return {"outcome": list(_plain._check_word(word))}


def _outcome_to_gbsp(word: tuple[int, ...]) -> dict:
    F, L, g = _plain._phi_prime(word)
    return _plain._gbsp_obj(len(word), F, L, _plain._g_pairs(F, g))


def _outcome_to_partition(word: tuple[int, ...]) -> dict:
    # _from_gbsp lists the blocks in closing order; sorting puts them by minimum
    return _blocks(sorted(_plain._from_gbsp(len(word), *_plain._phi_prime(word))))


def _partition_to_outcome(partition) -> dict:
    n, blocks = partition
    word = _plain._phi_prime_inv(n, *_plain._to_gbsp(n, blocks))
    return {"outcome": list(_plain._as_outcome(word))}


# each transform verb reads one value per input, checked, and maps it to one JSON
# line.  A map checks what it writes as the constructor of its output would, and
# a leg whose output is an outcome certifies it.
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
