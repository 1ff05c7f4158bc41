"""Maps between parking outcomes, g-parenthesizations, and set partitions.

An OutcomePermutation is a permutation certified (once, at construction) to
avoid the arm-leg pattern, making it the outcome of at least one staircase
preference tuple.  `phi` reads off arms and legs; `phi_prime` also records
where each peakless row's entry sits among the columns still empty, which
makes the map invertible.  Both maps sweep the spaces 1..n once, space i
standing for row n - i + 1 from the top: a space in F holds a peak, any other
takes the g(i)-th of the depth(i) empty columns j < i, and column i stays
empty unless i is in L.  Composing with the partition maps gives the
bijection outcomes <-> set partitions.  The sweeps live in `_plain` and run on
plain (F, L, g), g aligned to spaces; the maps here wrap them in the checked
dataclasses.  The composite maps chain the sweeps with no GBsp in between, as the
paper defines them, and are the oracle of the CLI's one-sweep partition verbs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from . import _EXPORTS, _plain
from .armleg import arms_legs, peaks
from .paren import GBsp, SpacedParen, _gbsp, _gbsp_values
from .permutation import Permutation
from .setpartition import SetPartition

__all__ = _EXPORTS["bijection"]


@dataclass(frozen=True)
class OutcomePermutation:
    """Permutation certified to avoid the arm-leg pattern."""

    perm: Permutation

    def __post_init__(self) -> None:
        _plain._certify(self.perm.word)

    @property
    def n(self) -> int:
        return self.perm.n

    @property
    def word(self) -> tuple[int, ...]:
        return self.perm.word


def phi(p: OutcomePermutation) -> SpacedParen:
    """Arms and legs of the peak diagram; always balanced on outcomes."""
    return arms_legs(peaks(p.perm))


def phi_prime(p: OutcomePermutation) -> GBsp:
    """phi plus g: the entry of row n - i + 1, for each space i outside F, sits in
    the g(i)-th column still empty."""
    return _gbsp(p.n, *_plain._phi_prime(p.word))


def phi_prime_inv(gb: GBsp) -> OutcomePermutation:
    """The outcome whose phi_prime is `gb`, certified at construction."""
    return OutcomePermutation(Permutation(_plain._phi_prime_inv(*_gbsp_values(gb))))


def fiber_size(sp: SpacedParen) -> int:
    """Number of outcomes (equally, partitions) mapping to `sp`: the product of
    the depths over spaces outside F, one power per distinct depth."""
    return _plain._fiber_size(*_plain._fiber_base(sp.n, sp.F, sp.L))


def fiber(sp: SpacedParen) -> Iterator[OutcomePermutation]:
    """All outcomes whose arms and legs equal `sp`, in g-lexicographic order.
    Each g runs through the plain sweep, with no GBsp, and each word is certified."""
    words = _plain._fiber_words(*_plain._fiber_base(sp.n, sp.F, sp.L))
    return (OutcomePermutation(Permutation(w)) for w in words)


def outcome_to_partition(p: OutcomePermutation) -> SetPartition:
    """from_gbsp(phi_prime(p)), with no GBsp built in between."""
    return SetPartition(p.n, _plain._from_gbsp(p.n, *_plain._phi_prime(p.word)))


def partition_to_outcome(b: SetPartition) -> OutcomePermutation:
    """phi_prime_inv(to_gbsp(b)), with no GBsp built in between."""
    word = _plain._phi_prime_inv(b.n, *_plain._to_gbsp(b.n, b.blocks))
    return OutcomePermutation(Permutation(word))
