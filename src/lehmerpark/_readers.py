"""The CLI's readers and the tables of its line verbs.

Each reader turns one input line into a checked value, and each table entry
pairs a reader with the map that writes the line's JSON object.  `cli` imports
this module inside the handlers of the verbs that read lines (transform,
check, fiber, render), once per process, so the counting verbs load none of
the object modules it imports.
"""

from __future__ import annotations

from .armleg import PartialArmLegDiagram
from .bijection import OutcomePermutation, _certify, _phi_prime, _phi_prime_inv, phi
from .cli import _blocks, _loads
from .errors import ParseError, _json_array
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
    parse as parse_paren,
)
from .parking import PrefTuple, is_lehmer, is_parking_function, is_weakly_decreasing, park
from .permutation import (
    InversionTable,
    Permutation,
    _check_word,
    _parse_int_word,
    contains_armleg_pattern,
    from_inversion_table,
    inversion_table,
)
from .setpartition import _blocks_json, _check_blocks, _from_gbsp, _parse_blocks, _to_gbsp


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

# each check kind of `cli._CHECK_KINDS` reads one value per input and tests it
_CHECKS = {
    "parking-function": lambda text: is_parking_function(_read_prefs(text)),
    "lehmer": lambda text: is_lehmer(_read_prefs(text)),
    "weakly-decreasing": lambda text: is_weakly_decreasing(_read_prefs(text)),
    "outcome-membership": lambda text: not contains_armleg_pattern(_read_perm(text)),
}
