"""ASCII and SVG renderers for arm-leg diagrams and parenthesizations.

Each drawer takes its object or the plain value it draws from, which is what
the CLI's `render` passes: the cells word of a diagram (a tuple, the row of each
column, 0 for an empty one; a permutation's word draws the same way) or a
parenthesization's string form.  One body draws both, so a plain value and its
object give the same picture.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .armleg import PartialArmLegDiagram
    from .paren import GBsp, SpacedParen
    from .permutation import Permutation

__all__ = ["armleg_ascii", "armleg_svg", "paren_ascii", "paren_svg"]

_CELL = 40
_MARGIN = 30


def _escape(text: str) -> str:
    """XML character data, as xml.sax.saxutils.escape gives it; that module's
    import would load urllib.request, http, ssl and email into every CLI run."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _cells(source: Permutation | PartialArmLegDiagram | tuple[int, ...]) -> tuple[int, ...]:
    """The cells word of `source`: a plain word, checked before the import that the
    CLI never runs, else a permutation's word or a diagram's rows."""
    if isinstance(source, tuple):
        n = len(source)
        for c, r in enumerate(source, start=1):
            if not 0 <= r <= n:
                raise ValueError(f"column {c} is in row {r}, outside [0, {n}]")
        rows = [r for r in source if r]
        if len(set(rows)) < len(rows):
            raise ValueError("two columns share a row")
        return source
    from .permutation import Permutation

    return source.word if isinstance(source, Permutation) else source._rows


def _diagram(cells) -> tuple[int, list[tuple[int, int]], list[tuple[int, int]]]:
    """n and the points (col, row) of the cells word, in column order: the peaks,
    at or above the antidiagonal, then the hollow extras below it."""
    n = len(cells)
    points = [(c, r) for c, r in enumerate(cells, start=1) if r]
    return n, [p for p in points if p[1] >= n - p[0] + 1], [p for p in points if p[1] <= n - p[0]]


def armleg_ascii(source: Permutation | PartialArmLegDiagram | tuple[int, ...]) -> str:
    """Character grid, row n at the top: 'o' entries, '-' arms, '|' legs,
    '+' where an arm crosses a leg, '\\' on empty antidiagonal cells."""
    n, peak_pts, extra = _diagram(_cells(source))
    grid = [["." for _ in range(n)] for _ in range(n)]

    def put(c: int, r: int, ch: str) -> None:
        cell = grid[n - r][c - 1]
        if ch in "-|" and cell in "-|" and cell != ch:
            ch = "+"
        grid[n - r][c - 1] = ch

    for c in range(1, n + 1):
        put(c, n - c + 1, "\\")
    for c, r in peak_pts:
        for x in range(n - r + 1, c):
            put(x, r, "-")
        for y in range(n - c + 1, r):
            put(c, y, "|")
    for c, r in peak_pts + extra:
        put(c, r, "o")
    return "\n".join(" ".join(row) for row in grid)


def armleg_svg(
    source: Permutation | PartialArmLegDiagram | tuple[int, ...], extend: bool = False
) -> str:
    """SVG with the grid, the antidiagonal, points, arms, and legs.

    (1, n) is the upper-left cell.  `extend` stretches arms and legs slightly
    past the antidiagonal, as in hand-drawn figures.
    """
    n, peak_pts, extra = _diagram(_cells(source))
    side = 2 * _MARGIN + max(n, 1) * _CELL

    def x(col: float) -> float:
        return _MARGIN + (col - 0.5) * _CELL

    def y(row: float) -> float:
        return _MARGIN + (n - row + 0.5) * _CELL

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{side}" height="{side}" '
        f'viewBox="0 0 {side} {side}">',
        f'<rect x="0" y="0" width="{side}" height="{side}" fill="white"/>',
    ]
    for k in range(n + 1):
        offset = _MARGIN + k * _CELL
        parts.append(
            f'<line x1="{offset}" y1="{_MARGIN}" x2="{offset}" y2="{_MARGIN + n * _CELL}" '
            'stroke="#cccccc" stroke-width="1"/>'
        )
        parts.append(
            f'<line x1="{_MARGIN}" y1="{offset}" x2="{_MARGIN + n * _CELL}" y2="{offset}" '
            'stroke="#cccccc" stroke-width="1"/>'
        )
    if n:
        parts.append(
            f'<line x1="{x(1):g}" y1="{y(n):g}" x2="{x(n):g}" y2="{y(1):g}" '
            'stroke="#888888" stroke-width="1" stroke-dasharray="4 3"/>'
        )
    over = 0.35 * _CELL if extend else 0.0
    for c, r in peak_pts:
        parts.append(
            f'<line x1="{x(n - r + 1) - over:g}" y1="{y(r):g}" x2="{x(c):g}" y2="{y(r):g}" '
            'stroke="black" stroke-width="2"/>'
        )
        parts.append(
            f'<line x1="{x(c):g}" y1="{y(n - c + 1) + over:g}" x2="{x(c):g}" y2="{y(r):g}" '
            'stroke="black" stroke-width="2"/>'
        )
    for c, r in peak_pts:
        parts.append(f'<circle cx="{x(c):g}" cy="{y(r):g}" r="6" fill="black"/>')
    for c, r in extra:
        parts.append(
            f'<circle cx="{x(c):g}" cy="{y(r):g}" r="6" fill="white" stroke="black" '
            'stroke-width="2"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def _labels(top: str) -> str:
    """The row of space labels under the string form `top`: each starts under its
    slot, or right after the label before it where that one runs on past the slot."""
    labels = ""
    col = 0  # where the token starts in `top`
    for i, token in enumerate(top.split(), start=1):
        labels += " " * (col + token.startswith("(") - len(labels)) + str(i)
        col += len(token) + 1
    return labels


def paren_ascii(x: SpacedParen | GBsp | str) -> str:
    """Two rows: the paren string over the space labels.

    >>> from lehmerpark.paren import SpacedParen
    >>> print(paren_ascii(SpacedParen(7, frozenset({1, 3, 5}), frozenset({5, 6, 7}))))
    (_ _ (_ _ (_) _) _)
     1 2  3 4  5  6  7
    """
    top = str(x)  # `paren.render(x)`, the string form, and a string form itself
    labels = _labels(top)
    return f"{top}\n{labels}" if labels else top


def paren_svg(x: SpacedParen | GBsp | str) -> str:
    top = str(x)
    labels = _labels(top)
    char = 12
    width = 2 * _MARGIN + char * max(len(top), 1)
    height = 2 * _MARGIN + 3 * char
    return "\n".join(
        [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">',
            f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
            f'<text x="{_MARGIN}" y="{_MARGIN + char}" font-family="monospace" '
            f'font-size="{char + 4}" xml:space="preserve">{_escape(top)}</text>',
            f'<text x="{_MARGIN}" y="{_MARGIN + int(2.5 * char)}" font-family="monospace" '
            f'font-size="{char + 4}" fill="#555555" xml:space="preserve">{_escape(labels)}</text>',
            "</svg>",
        ]
    )
