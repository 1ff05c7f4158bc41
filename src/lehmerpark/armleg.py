"""Arm-leg diagrams: grid points at or above the antidiagonal.

The n-by-n grid has column 1 at the left and row n at the top, so the cell
(col, row) = (1, n) is the upper-left corner and the antidiagonal is the set
of cells with row = n - col + 1.  Plotting a permutation puts an entry in cell
(i, p_i); the entries at or above the antidiagonal are its peaks.  Each peak
grows an arm (leftwards to the antidiagonal) and a leg (down to it); the arm
of a peak in row r starts at space n - r + 1, the leg of a peak in column c
ends at space c, which ties diagrams to spaced parenthesizations.

The check, the JSON splitter, the peak reading, the arms and legs, the box
count and the crossing test run in `_plain` on the plain diagram, its rows by
column with 0 marking an empty column; this module wraps them in the checked
`PartialArmLegDiagram`, which hands its points to the check as given, an
iterator too, and keeps the plain diagram the check returns.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _EXPORTS, _plain
from ._plain import GridPoint
from .errors import _index
from .paren import MatchedPairs, SpacedParen
from .permutation import Permutation

__all__ = _EXPORTS["armleg"]


@dataclass(frozen=True)
class PartialArmLegDiagram:
    """Points (col, row) with row >= n - col + 1, no two sharing a row or column."""

    n: int
    points: frozenset[GridPoint]

    def __post_init__(self) -> None:
        points, rows = _plain._check_diagram(self.n, self.points)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "_rows", rows)

    def sorted_points(self) -> list[GridPoint]:
        return sorted(self.points)

    def to_json_obj(self) -> dict:
        return {"n": self.n, "points": [[p.col, p.row] for p in self.sorted_points()]}

    @classmethod
    def from_json_obj(cls, obj) -> "PartialArmLegDiagram":
        return cls(*_plain._diagram_json(obj))


def peaks(p: Permutation) -> PartialArmLegDiagram:
    """The entries of `p` at or above the antidiagonal.

    Nonempty for n >= 1: the entry in the top row always qualifies.

    >>> peaks(Permutation((3, 4, 1, 5, 2, 6))).sorted_points()
    [GridPoint(col=4, row=5), GridPoint(col=5, row=2), GridPoint(col=6, row=6)]
    """
    rows = _plain._peaks(p.word)
    pts = frozenset(GridPoint(c, r) for c, r in enumerate(rows, start=1) if r)
    diagram = PartialArmLegDiagram(p.n, pts)
    assert p.n == 0 or diagram.points, "the top-row entry is always a peak"
    return diagram


def arms_legs(t: PartialArmLegDiagram) -> SpacedParen:
    """Arm starts {n - row + 1} as openings, leg ends {col} as closings.

    >>> sp = arms_legs(peaks(Permutation((3, 4, 1, 5, 2, 6))))
    >>> (sorted(sp.F), sorted(sp.L))
    ([1, 2, 5], [4, 5, 6])
    """
    return SpacedParen(t.n, *_plain._arms_legs(t._rows))


def is_intersecting(t: PartialArmLegDiagram) -> bool:
    """True iff some arm crosses some leg; equivalently, points in columns
    i < j exist with n - i + 1 <= row_j < row_i."""
    return _plain._armleg_crossing(t._rows) is not None


def peaks_from_pairs(pairs: MatchedPairs, n: int) -> PartialArmLegDiagram:
    """One point (l, n - f + 1) per matched pair (f, l).

    The nesting condition on the pairs makes the result non-intersecting, and
    its arms and legs reproduce the originating (F, L).
    """
    pts = frozenset(GridPoint(l, n - f + 1) for f, l in pairs)
    if len(pts) != len(pairs):
        raise ValueError("duplicate pairs")
    diagram = PartialArmLegDiagram(n, pts)
    assert not is_intersecting(diagram), "matched pairs always give a non-intersecting diagram"
    return diagram


def depth_at(t: PartialArmLegDiagram, i: int) -> int:
    """Number of points in the box cols >= i, rows >= n - i + 1.

    Agrees with the parenthesization depth of space i under arms_legs.
    """
    return _plain._depth_at(t._rows, _index(i, t.n, "space"))
