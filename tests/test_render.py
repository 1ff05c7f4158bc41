import itertools
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

from lehmerpark.armleg import GridPoint, PartialArmLegDiagram
from lehmerpark.paren import GBsp, SpacedParen, parse
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
