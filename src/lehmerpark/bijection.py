"""Maps between parking outcomes, g-parenthesizations, and set partitions.

An OutcomePermutation is a permutation certified (once, at construction) to
avoid the arm-leg pattern, making it the outcome of at least one staircase
preference tuple.  `phi` reads off arms and legs; `phi_prime` also records
where each peakless row's entry sits among the columns still empty, which
makes the map invertible.  Both maps sweep the spaces 1..n once, space i
standing for row n - i + 1 from the top: a space in F holds a peak, any other
takes the g(i)-th of the depth(i) empty columns j < i, and column i stays
empty unless i is in L.  Composing with the partition maps gives the
bijection outcomes <-> set partitions.  The sweeps run on plain (F, L, g), g
aligned to spaces; the public maps build and check the dataclasses, and the
composite maps chain the sweeps with no GBsp in between.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator

from .armleg import arms_legs, peaks
from .paren import GBsp, SpacedParen, _g_fillings, _gbsp, _iter_depths, _plain, is_balanced
from .permutation import Permutation, _contains_armleg
from .setpartition import SetPartition, _from_gbsp, _to_gbsp

__all__ = [
    "OutcomePermutation",
    "phi",
    "phi_prime",
    "phi_prime_inv",
    "fiber_size",
    "fiber",
    "outcome_to_partition",
    "partition_to_outcome",
]


@dataclass(frozen=True)
class OutcomePermutation:
    """Permutation certified to avoid the arm-leg pattern."""

    perm: Permutation

    def __post_init__(self) -> None:
        _certify(self.perm.word)

    @property
    def n(self) -> int:
        return self.perm.n

    @property
    def word(self) -> tuple[int, ...]:
        return self.perm.word


def _certify(word: tuple[int, ...]) -> tuple[int, ...]:
    """The check of `OutcomePermutation`: the permutation `word` if it avoids the
    arm-leg pattern.  The constructor and the CLI both certify through it."""
    if _contains_armleg(word):
        raise ValueError(
            f"{','.join(map(str, word))} contains the arm-leg pattern and is not "
            "the outcome of any staircase preference tuple"
        )
    return word


def phi(p: OutcomePermutation) -> SpacedParen:
    """Arms and legs of the peak diagram; always balanced on outcomes."""
    return arms_legs(peaks(p.perm))


def phi_prime(p: OutcomePermutation) -> GBsp:
    """phi plus g: the entry of row n - i + 1, for each space i outside F, sits in
    the g(i)-th column still empty."""
    F, L, g = _phi_prime(p.word)
    return _gbsp(SpacedParen(p.n, F, L), g)


def _phi_prime(word: tuple[int, ...]) -> tuple[frozenset[int], frozenset[int], list[int]]:
    """(F, L, g) of the outcome `word`, g aligned to spaces and 0 on F.  The entry v
    in column c is a peak iff v >= n - c + 1, which puts n - v + 1 in F and c in L."""
    n = len(word)
    L = frozenset(c for c, v in enumerate(word, start=1) if v >= n - c + 1)
    F = frozenset(n - word[c - 1] + 1 for c in L)
    col_of_row = {v: c for c, v in enumerate(word, start=1)}
    g = [0] * n
    # columns j < i holding neither a peak nor a higher row; ascending, since
    # columns enter in space order, so bisect ranks a column in O(log depth)
    empty: list[int] = []
    depth = 0
    for i in range(1, n + 1):
        if i in F:
            depth += 1
        else:
            assert len(empty) == depth, "empty-column count equals the depth"
            k = bisect_left(empty, col_of_row[n - i + 1])
            g[i - 1] = k + 1
            del empty[k]
        if i in L:
            depth -= 1
        else:
            empty.append(i)
    return F, L, g


def phi_prime_inv(gb: GBsp) -> OutcomePermutation:
    """The outcome whose phi_prime is `gb`, certified at construction."""
    return OutcomePermutation(Permutation(_phi_prime_inv(*_plain(gb))))


def _phi_prime_inv(n: int, F, L, g) -> tuple[int, ...]:
    """Rebuild the outcome word in one sweep.  Parens are matched on a stack, and
    the pair (f, l) puts the peak of row n - f + 1 in column l; each space i
    outside F puts row n - i + 1 in the g(i)-th column still empty."""
    word = [0] * (n + 1)
    opened: list[int] = []  # spaces in F whose paren is still open
    empty: list[int] = []  # columns j < i holding neither a peak nor a higher row
    for i in range(1, n + 1):
        if i in F:
            opened.append(i)
        else:
            assert len(empty) == len(opened), "empty-column count equals the depth"
            word[empty.pop(g[i - 1] - 1)] = n - i + 1
        if i in L:
            word[i] = n - opened.pop() + 1
        else:
            empty.append(i)
    return tuple(word[1:])


def fiber_size(sp: SpacedParen) -> int:
    """Number of outcomes (equally, partitions) mapping to `sp`: the product of
    the depths over spaces outside F, a running product that holds no value per space."""
    if not is_balanced(sp):
        raise ValueError("fibers are defined only for balanced parenthesizations")
    depths = _iter_depths(sp.n, sp.F, sp.L)
    return math.prod(d for i, d in enumerate(depths, start=1) if i not in sp.F)


def fiber(sp: SpacedParen) -> Iterator[OutcomePermutation]:
    """All outcomes whose arms and legs equal `sp`, in g-lexicographic order.
    Each g runs through the plain sweep, with no GBsp, and each word is certified."""
    if not is_balanced(sp):
        raise ValueError("fibers are defined only for balanced parenthesizations")
    words = (_phi_prime_inv(sp.n, sp.F, sp.L, g) for g in _g_fillings(sp))
    return (OutcomePermutation(Permutation(w)) for w in words)


def outcome_to_partition(p: OutcomePermutation) -> SetPartition:
    """from_gbsp(phi_prime(p)), with no GBsp built in between."""
    return SetPartition(p.n, _from_gbsp(p.n, *_phi_prime(p.word)))


def partition_to_outcome(b: SetPartition) -> OutcomePermutation:
    """phi_prime_inv(to_gbsp(b)), with no GBsp built in between."""
    return OutcomePermutation(Permutation(_phi_prime_inv(b.n, *_to_gbsp(b.n, b.blocks))))
