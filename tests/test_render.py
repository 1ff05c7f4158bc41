import io
import itertools
import json
import sys
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import pytest

from lehmerpark.armleg import GridPoint, PartialArmLegDiagram
from lehmerpark.cli import main
from lehmerpark.paren import GBsp, SpacedParen, enumerate_bsps, enumerate_gbsps, parse
from lehmerpark.permutation import Permutation
from lehmerpark.render import _escape, armleg_ascii, armleg_svg, paren_ascii, paren_svg


def svg_elements(text, tag):
    root = ET.fromstring(text)
    return root.findall(f".//{{http://www.w3.org/2000/svg}}{tag}")


def test_armleg_ascii_worked_example():
    assert armleg_ascii(Permutation((3, 4, 1, 5, 2, 6))) == "\n".join(
        [
            "- - - - - o",
            ". - - o . |",
            ". o \\ | . |",
            "o . . | . |",
            ". . . . o |",
            ". . o . . |",
        ]
    )


def test_armleg_ascii_marks_crossings():
    # the arm of the peak in column 3 crosses the leg of the peak in column 2
    assert armleg_ascii(Permutation((1, 3, 2))) == "\n".join(
        [
            "- o .",
            ". + o",
            "o . |",
        ]
    )


def test_armleg_ascii_diagram_input():
    d = PartialArmLegDiagram(3, frozenset({GridPoint(1, 3), GridPoint(3, 2)}))
    assert armleg_ascii(d) == "o . .\n. - o\n. . |"


def test_armleg_ascii_empty():
    assert armleg_ascii(Permutation(())) == ""
    assert armleg_ascii(Permutation((1,))) == "o"


def test_armleg_svg_is_valid_and_complete():
    p = Permutation((3, 4, 1, 5, 2, 6))
    text = armleg_svg(p)
    circles = svg_elements(text, "circle")
    # three filled peaks, three hollow non-peak entries
    assert len(circles) == 6
    assert sum(1 for c in circles if c.get("fill") == "black") == 3
    assert sum(1 for c in circles if c.get("fill") == "white") == 3
    lines = svg_elements(text, "line")
    dashed = [l for l in lines if l.get("stroke-dasharray")]
    assert len(dashed) == 1
    hooks = [l for l in lines if l.get("stroke") == "black"]
    assert len(hooks) == 6  # one arm and one leg per peak


def test_armleg_svg_extend_moves_hook_ends():
    p = Permutation((3, 4, 1, 5, 2, 6))
    plain = armleg_svg(p)
    extended = armleg_svg(p, extend=True)
    assert plain != extended
    assert len(svg_elements(extended, "line")) == len(svg_elements(plain, "line"))


def test_armleg_svg_diagram_input():
    d = PartialArmLegDiagram(3, frozenset({GridPoint(1, 3), GridPoint(3, 2)}))
    circles = svg_elements(armleg_svg(d), "circle")
    assert len(circles) == 2
    assert all(c.get("fill") == "black" for c in circles)


def test_paren_ascii_worked_example():
    gb = parse("(_ (_ 2 1) (_) 1)")
    assert isinstance(gb, GBsp)
    assert paren_ascii(gb) == "(_ (_ 2 1) (_) 1)\n 1  2 3 4   5  6"


def test_paren_ascii_base():
    sp = SpacedParen(7, frozenset({1, 3, 5}), frozenset({5, 6, 7}))
    assert paren_ascii(sp) == "(_ _ (_ _ (_) _) _)\n 1 2  3 4  5  6  7"


def test_paren_ascii_labels_count_every_space():
    for n in range(1, 10):
        sp = SpacedParen(n, frozenset({1}), frozenset({n}))
        top, labels = paren_ascii(sp).split("\n")
        assert labels.split() == [str(i) for i in range(1, n + 1)]
        assert len(top.split(" ")) == n


def test_paren_svg_is_valid_xml_with_two_text_rows():
    gb = parse("(_ (_ 2 1) (_) 1)")
    text = paren_svg(gb)
    rows = svg_elements(text, "text")
    assert len(rows) == 2
    assert rows[0].text == "(_ (_ 2 1) (_) 1)"
    assert rows[1].text == " 1  2 3 4   5  6"


def test_paren_svg_empty():
    root = ET.fromstring(paren_svg(SpacedParen(0, frozenset(), frozenset())))
    assert root.tag.endswith("svg")


def test_escape_matches_the_stdlib_escape():
    # every string of up to four characters over the three specials, an entity and text
    for k in range(5):
        for parts in itertools.product(["&", "<", ">", "&amp;", "a"], repeat=k):
            text = "".join(parts)
            assert _escape(text) == escape(text), text


def _render_cli(capsys, monkeypatch, argv, lines):
    """(exit code, stdout, stderr) of one in-process `render` run reading `lines` on stdin."""
    data = "".join(f"{line}\n" for line in lines).encode()
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), "utf-8"))
    code = main(["render", *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _diagrams(n):
    """Every valid diagram on n columns: at most one point per column at or above
    the antidiagonal, no two in one row."""
    for rows in itertools.product(*([0, *range(n - c + 1, n + 1)] for c in range(1, n + 1))):
        used = [r for r in rows if r]
        if len(set(used)) == len(used):
            yield PartialArmLegDiagram(n, frozenset(GridPoint(c, r) for c, r in enumerate(rows, 1) if r))


def _armleg_inputs():
    """(line, library object) for every permutation of n <= 6, in the comma and the
    JSON object forms, and every valid diagram of n <= 4."""
    for n in range(7):
        for word in itertools.permutations(range(1, n + 1)):
            p = Permutation(word)
            yield ",".join(map(str, word)) if n else "[]", p
            yield json.dumps({"outcome": list(word)}), p
    for n in range(5):
        for d in _diagrams(n):
            yield json.dumps(d.to_json_obj()), d


def _paren_inputs():
    """(line, library object) for every balanced parenthesization of n <= 6 and every
    g-parenthesization of n <= 5, in the string form (n >= 1) and the JSON form."""
    objects = [*(sp for n in range(7) for sp in enumerate_bsps(n)),
               *(gb for n in range(6) for gb in enumerate_gbsps(n))]
    for x in objects:
        if x.n:
            yield str(x), x
        yield json.dumps(x.to_json_obj()), x


DRAWERS = {
    "ascii": ((), armleg_ascii, paren_ascii),
    "svg": (("--format", "svg"), armleg_svg, paren_svg),
    "svg-extend": (("--format", "svg", "--extend"), lambda s: armleg_svg(s, extend=True), paren_svg),
}


@pytest.mark.parametrize("fmt", list(DRAWERS))
@pytest.mark.parametrize("kind", ["armleg", "paren"])
def test_render_cli_equals_the_public_drawer_on_the_library_object(capsys, monkeypatch, kind, fmt):
    flags, draw_armleg, draw_paren = DRAWERS[fmt]
    inputs, draw = (_armleg_inputs(), draw_armleg) if kind == "armleg" else (_paren_inputs(), draw_paren)
    lines, objects = zip(*inputs)
    expected = "".join(draw(x) + "\n" for x in objects)
    assert _render_cli(capsys, monkeypatch, [kind, *flags], lines) == (0, expected, "")


def _plain_value(x):
    """The plain value that `render` passes to a drawer for `x`: a permutation's word,
    a diagram's row by column (0 for an empty column), or the string form."""
    if isinstance(x, Permutation):
        return x.word
    if isinstance(x, PartialArmLegDiagram):
        rows = dict(x.points)
        return tuple(rows.get(c, 0) for c in range(1, x.n + 1))
    return str(x)


@pytest.mark.parametrize("fmt", list(DRAWERS))
@pytest.mark.parametrize("kind", ["armleg", "paren"])
def test_each_drawer_draws_the_plain_value_as_it_draws_the_object(kind, fmt):
    _, draw_armleg, draw_paren = DRAWERS[fmt]
    inputs, draw = (_armleg_inputs(), draw_armleg) if kind == "armleg" else (_paren_inputs(), draw_paren)
    for _, x in inputs:
        assert draw(_plain_value(x)) == draw(x), x
    if kind == "armleg":  # a cells word that is no diagram is refused, not drawn on the wrong row
        for cells, message in [((4, 0, 0), "column 1 is in row 4, outside [0, 3]"),
                               ((0, -1), "column 2 is in row -1, outside [0, 2]"),
                               ((5,), "column 1 is in row 5, outside [0, 1]"),
                               ((2, 0, 2), "two columns share a row")]:
            with pytest.raises(ValueError) as exc:
                draw(cells)
            assert str(exc.value) == message


def _error(message, code="domain", **extra):
    return json.dumps({"error": message, "code": code, **extra}, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("kind, text, err", [
    ("armleg", '{"n":3,"points":[[4,1]]}', _error("point (4,1) outside the [3] grid")),
    ("armleg", '{"n":3,"points":[[0,3]]}', _error("point (0,3) outside the [3] grid")),
    ("armleg", '{"n":3,"points":[[1,2]]}', _error("point (1,2) lies below the antidiagonal")),
    ("armleg", '{"n":3,"points":[[4,1],[1,2]]}', _error("point (1,2) lies below the antidiagonal")),
    ("armleg", '{"n":3,"points":[[2,3],[3,3]]}', _error("two points share a row or column")),
    ("armleg", '{"n":3,"points":[[3,2],[3,3]]}', _error("two points share a row or column")),
    ("armleg", '{"n":-1,"points":[]}', _error("n must be nonnegative")),
    ("armleg", '{"n":-1,"points":[[1,1]]}', _error("n must be nonnegative")),
    ("armleg", '{"n":3.0,"points":[]}', _error("n must be an integer, got 3.0", "parse")),
    ("armleg", '{"n":3,"points":[[1,3.0]]}',
     _error("entry 1 of points must be a pair of integers, got (1, 3.0)", "parse", position=1)),
    ("armleg", '{"n":3,"points":[[1,true]]}',
     _error("entry 1 of points must be a pair of integers, got (1, True)", "parse", position=1)),
    ("armleg", '{"n":2,"points":[[1,2,3]]}',
     _error("entry 1 of points must be a pair of integers, got (1, 2, 3)", "parse", position=1)),
    ("armleg", '{"n":3,"points":[[1,3]],"points":[[2,3]]}',
     _error("repeated entry 'points' in a JSON object's keys", "parse", position=3)),
    ("armleg", '{"n":2,"points":[[2,2],[2,2]]}',
     _error("repeated entry GridPoint(col=2, row=2) in points", "parse", position=2)),
    ("armleg", '{"points":[]}', _error("expected keys n, points in {'points': []}", "parse")),
    ("armleg", '{"n":2,"points":5}', _error("expected points as a JSON array, got 5", "parse")),
    ("armleg", '{"n":2,"points":[5]}', _error("expected a point as a JSON array, got 5", "parse")),
    ("paren", "(_ 5)", _error("g(2) = 5 outside [1, 1]", "g-out-of-range", space=2)),
    ("paren", '{"n":2,"F":[1],"L":[2],"g":{"2":5}}',
     _error("g(2) = 5 outside [1, 1]", "g-out-of-range", space=2)),
    ("paren", "(_) 1", _error("base parenthesization is not balanced", "unbalanced-base")),
    ("paren", '{"n":2,"F":[2],"L":[1],"g":{"1":1}}',
     _error("base parenthesization is not balanced", "unbalanced-base")),
    ("paren", '{"n":2,"F":[1],"L":[2],"g":{}}', _error("missing g entry for space 2", "g-missing", space=2)),
    ("paren", '{"n":1,"F":[1],"L":[1],"g":{"1":1}}',
     _error("unexpected g entry for space 1", "g-extra", space=1)),
    ("paren", '{"n":2,"F":[1],"L":[2],"g":[[2,1]]}',
     _error("expected g as a JSON object keyed by space, got [[2, 1]]", "parse")),
])
def test_render_refuses_each_invalid_value_with_its_error(capsys, monkeypatch, kind, text, err):
    assert _render_cli(capsys, monkeypatch, [kind, text], []) == (1, "", err)
    assert _render_cli(capsys, monkeypatch, [kind, "--format", "svg"], [text]) == (1, "", err)


@pytest.mark.parametrize("text", ["_) (_", '{"n":2,"F":[2],"L":[1]}'])
def test_render_paren_draws_an_unbalanced_base_without_g(capsys, monkeypatch, text):
    expected = paren_ascii(SpacedParen(2, frozenset({2}), frozenset({1}))) + "\n"
    assert _render_cli(capsys, monkeypatch, ["paren"], [text]) == (0, expected, "")
