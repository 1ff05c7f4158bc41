"""Preference tuples, the parking procedure, and the staircase (Lehmer) family.

Cars 1..n drive down a one-way street of spots 1..n.  Car i heads for spot
prefs[i] and takes the first empty spot at or after it; a car that drives past
spot n fails, which is a legal result rather than an exception.  The outcome
records, for each spot, the car that ended up in it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import _ints
from .permutation import (
    InversionTable,
    Permutation,
    _parse_int_word,
    contains_armleg_pattern,
    inverse,
)

__all__ = [
    "PrefTuple",
    "ParkOutcome",
    "park",
    "is_parking_function",
    "is_lehmer",
    "is_weakly_decreasing",
    "lehmer_from_inversion_table",
    "canonical_lehmer_preimage",
]


@dataclass(frozen=True)
class PrefTuple:
    """Length-n tuple of parking preferences, each in [1, n]."""

    prefs: tuple[int, ...]

    def __post_init__(self) -> None:
        prefs = _ints(self.prefs, "a preference tuple")
        object.__setattr__(self, "prefs", prefs)
        n = len(prefs)
        for i, a in enumerate(prefs, start=1):
            if not 1 <= a <= n:
                raise ValueError(f"preference {i} is {a}, outside [1, {n}]")

    @property
    def n(self) -> int:
        return len(self.prefs)

    def to_text(self) -> str:
        return ",".join(str(a) for a in self.prefs)

    @classmethod
    def from_text(cls, text: str) -> "PrefTuple":
        return cls(_parse_int_word(text))

    def to_json_obj(self) -> list[int]:
        return list(self.prefs)


@dataclass(frozen=True)
class ParkOutcome:
    """Either a full street (`outcome`) or the first car that drove past spot n."""

    outcome: Permutation | None = None
    failed_car: int | None = None

    def __post_init__(self) -> None:
        if (self.outcome is None) == (self.failed_car is None):
            raise ValueError("exactly one of outcome and failed_car must be set")

    @property
    def ok(self) -> bool:
        return self.outcome is not None


def park(a: PrefTuple) -> ParkOutcome:
    """Run the parking procedure on `a`; see `_park`.

    >>> park(PrefTuple((2, 2, 1))).outcome.word
    (3, 1, 2)
    >>> park(PrefTuple((2, 2, 3))).failed_car
    3
    """
    result = _park(a.prefs)
    if isinstance(result, int):
        return ParkOutcome(failed_car=result)
    return ParkOutcome(outcome=Permutation(result))


def _park(prefs: tuple[int, ...]) -> tuple[int, ...] | int:
    """The outcome word of the preferences `prefs`, each in [1, n], or the first
    car that drives past spot n.  A next-free pointer with path halving finds
    each car's spot (Knuth, TAOCP Vol. 3 §6.4; Tarjan 1975): a car crosses a run
    of taken spots without visiting each one, so a pass costs O(n log n) at worst."""
    n = len(prefs)
    spots = [0] * (n + 1)  # 1-based; spots[s] = car number or 0
    nxt = list(range(n + 2))  # nxt[s] == s iff spot s is free; n + 1 is past the street
    for car, pref in enumerate(prefs, start=1):
        s = pref
        while nxt[s] != s:
            nxt[s] = s = nxt[nxt[s]]  # path halving: point s at its grandparent, step there
        if s > n:
            return car
        spots[s] = car
        nxt[s] = s + 1
    return tuple(spots[1:])


def is_parking_function(a: PrefTuple) -> bool:
    """Sorted-prefix test: the weakly increasing rearrangement satisfies a'_i <= i."""
    return _is_parking_function(a.prefs)


def _is_parking_function(prefs: tuple[int, ...]) -> bool:
    """`is_parking_function` on plain preferences."""
    return all(v <= i for i, v in enumerate(sorted(prefs), start=1))


def is_lehmer(a: PrefTuple) -> bool:
    """Staircase bound: a_i <= n - i + 1 at every position."""
    n = a.n
    return all(v <= n - i + 1 for i, v in enumerate(a.prefs, start=1))


def is_weakly_decreasing(a: PrefTuple) -> bool:
    return all(x >= y for x, y in zip(a.prefs, a.prefs[1:]))


def lehmer_from_inversion_table(t: InversionTable) -> PrefTuple:
    """Shift every table entry up by one; the image is exactly the staircase family."""
    return PrefTuple(tuple(e + 1 for e in t.entries))


def canonical_lehmer_preimage(p: Permutation) -> PrefTuple:
    """The staircase tuple a with a_k = min(spot of car k, n - k + 1); parks back to `p`.

    Rejects permutations containing the arm-leg pattern, since those are not
    the outcome of any staircase tuple.
    """
    if contains_armleg_pattern(p):
        raise ValueError(
            f"no staircase preimage: {p.to_text()} contains the arm-leg pattern"
        )
    n = p.n
    spot_of_car = inverse(p).word
    return PrefTuple(tuple(min(spot_of_car[k - 1], n - k + 1) for k in range(1, n + 1)))
