"""Preference tuples, the parking procedure, and the staircase (Lehmer) family.

Cars 1..n drive down a one-way street of spots 1..n.  Car i heads for spot
prefs[i] and takes the first empty spot at or after it; a car that drives past
spot n fails, which is a legal result rather than an exception.  The outcome
records, for each spot, the car that ended up in it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _EXPORTS, _plain
from .permutation import InversionTable, Permutation, _IntWord, contains_armleg_pattern, inverse

__all__ = _EXPORTS["parking"]


@dataclass(frozen=True)
class PrefTuple(_IntWord):
    """Length-n tuple of parking preferences, each in [1, n]."""

    prefs: tuple[int, ...]
    _field, _check = "prefs", "_check_prefs"


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
    """Run the parking procedure on `a`; see `_plain._park`.

    >>> park(PrefTuple((2, 2, 1))).outcome.word
    (3, 1, 2)
    >>> park(PrefTuple((2, 2, 3))).failed_car
    3
    """
    result = _plain._park(a.prefs)
    if isinstance(result, int):
        return ParkOutcome(failed_car=result)
    return ParkOutcome(outcome=Permutation(result))


def is_parking_function(a: PrefTuple) -> bool:
    """Sorted-prefix test: the weakly increasing rearrangement satisfies a'_i <= i."""
    return _plain._is_parking_function(a.prefs)


def is_lehmer(a: PrefTuple) -> bool:
    """Staircase bound: a_i <= n - i + 1 at every position."""
    return _plain._is_lehmer(a.prefs)


def is_weakly_decreasing(a: PrefTuple) -> bool:
    return _plain._is_weakly_decreasing(a.prefs)


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
