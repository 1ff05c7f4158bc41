"""ASCII and SVG renderers for arm-leg diagrams and parenthesizations."""

from __future__ import annotations

from .armleg import PartialArmLegDiagram, peaks
from .paren import GBsp, SpacedParen, render as render_paren_string
from .permutation import Permutation

__all__ = ["armleg_ascii", "armleg_svg", "paren_ascii", "paren_svg"]

_CELL = 40
_MARGIN = 30


def _escape(text: str) -> str:
    """XML character data, as xml.sax.saxutils.escape gives it; that module's
    import would load urllib.request, http, ssl and email into every CLI run."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _diagram_parts(source: Permutation | PartialArmLegDiagram):
    # returns (n, peak points, extra non-peak points)
    if isinstance(source, Permutation):
        diagram = peaks(source)
        extra = [
            (i, v)
            for i, v in enumerate(source.word, start=1)
            if v < source.n - i + 1
        ]
        return source.n, diagram.sorted_points(), extra
    return source.n, source.sorted_points(), []


def armleg_ascii(source: Permutation | PartialArmLegDiagram) -> str:
    """Character grid, row n at the top: 'o' entries, '-' arms, '|' legs,
    '+' where an arm crosses a leg, '\\' on empty antidiagonal cells."""
    n, peak_pts, extra = _diagram_parts(source)
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
    for c, r in peak_pts:
        put(c, r, "o")
    for c, r in extra:
        put(c, r, "o")
    return "\n".join(" ".join(row) for row in grid)


def armleg_svg(source: Permutation | PartialArmLegDiagram, extend: bool = False) -> str:
    """SVG with the grid, the antidiagonal, points, arms, and legs.

    (1, n) is the upper-left cell.  `extend` stretches arms and legs slightly
    past the antidiagonal, as in hand-drawn figures.
    """
    n, peak_pts, extra = _diagram_parts(source)
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


def _paren_lines(x: SpacedParen | GBsp) -> tuple[str, str]:
    top = render_paren_string(x)
    tokens = top.split()
    labels = []
    col = 0
    cursor = 0
    for i, token in enumerate(tokens, start=1):
        slot_col = col + (1 if token.startswith("(") else 0)
        label = str(i)
        start = max(slot_col, cursor)
        labels.append(" " * (start - cursor) + label)
        cursor = start + len(label)
        col += len(token) + 1
    return top, "".join(labels)


def paren_ascii(x: SpacedParen | GBsp) -> str:
    """Two rows: the paren string over the space labels.

    >>> print(paren_ascii(SpacedParen(7, frozenset({1, 3, 5}), frozenset({5, 6, 7}))))
    (_ _ (_ _ (_) _) _)
     1 2  3 4  5  6  7
    """
    top, labels = _paren_lines(x)
    return f"{top}\n{labels}" if labels else top


def paren_svg(x: SpacedParen | GBsp) -> str:
    top, labels = _paren_lines(x)
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
