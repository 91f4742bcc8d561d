from collections import Counter
from fractions import Fraction

import pytest

from braidcat.complexes import (
    Side,
    TriComplex,
    Triangle,
    X1BAR_SYMMETRY,
    brady_equilateral,
    glue,
    is_edge_automorphism,
    relabel,
    vertex_link,
    x1bar,
    ybar1,
)

try:
    from hypothesis import given
    from hypothesis import strategies as st
except ImportError:  # the random-complex test skips itself
    given = None

F = Fraction
THIRD = F(1, 3)


def test_side_tokens():
    assert Side("a", True).token() == "a+"
    assert Side("t1", False).token() == "t1-"
    assert Side.from_token("B^+") == Side("B^", True)
    with pytest.raises(ValueError):
        Side.from_token("a")


def test_validation_rejects_bad_complexes():
    with pytest.raises(ValueError):
        brady_equilateral("a", "a", "b")
    with pytest.raises(ValueError):  # angles must sum to pi
        TriComplex(
            ("o",),
            (("a", "o", "o"),),
            (Triangle((Side("a", True),) * 3, (THIRD, THIRD, F(1, 2))),),
        )
    with pytest.raises(ValueError):  # boundary must close
        TriComplex(
            ("o", "p"),
            (("a", "o", "p"), ("b", "o", "o"), ("c", "o", "o")),
            (
                Triangle(
                    (Side("a", True), Side("b", True), Side("c", False)),
                    (THIRD, THIRD, THIRD),
                ),
            ),
        )


def loop_triangle(*sides, angles=(THIRD, THIRD, THIRD)):
    return Triangle(tuple(Side(label, True) for label in sides), angles)


@pytest.mark.parametrize(
    "vertices, edges, triangles, message",
    [
        (("o", "o"), (), (), "duplicate vertex names"),
        (("o",), (("a", "o", "o"), ("a", "o", "o")), (), "duplicate edge labels"),
        (("o",), (("a", "o", "o"), ("b", "o", "p")), (), "edge b has an unknown endpoint"),
        (("o",), (("a", "o", "o"),), (loop_triangle("a", "a"),), "triangles have exactly three"),
        (("o",), (("a", "o", "o"),), (loop_triangle("a", "a", "b"),), "side uses unknown edge 'b'"),
        (("o", "p"), (("a", "o", "p"),), (loop_triangle("a", "a", "a"),), "does not close"),
        (("o",), (("a", "o", "o"),), (loop_triangle("a", "a", "a", angles=(1, 0, 0)),), "positive"),
        (("o",), (("a", "o", "o"),), (loop_triangle("a", "a", "a", angles=(1, 1, 1)),), "sum to pi"),
    ],
)
def test_each_malformed_complex_is_refused_by_name(vertices, edges, triangles, message):
    with pytest.raises(ValueError, match=message):
        TriComplex(vertices, edges, triangles)


def test_ybar1_shape():
    cx = ybar1()
    assert len(cx.vertices) == 1
    assert len(cx.edges) == 4
    assert len(cx.triangles) == 3
    assert cx.euler_characteristic() == 0
    assert all(angle == THIRD for t in cx.triangles for angle in t.angles)


def test_x1bar_shape():
    cx = x1bar()
    assert len(cx.vertices) == 1
    assert [label for label, _, _ in cx.edges] == [
        "a", "e", "b1", "t1", "B^", "b2", "t2", "b3", "t3",
    ]
    assert len(cx.triangles) == 9
    assert cx.euler_characteristic() == 1
    assert all(angle == THIRD for t in cx.triangles for angle in t.angles)


def test_glue_rejects_conflicting_endpoints():
    one = TriComplex(("o", "p"), (("a", "o", "p"),), ())
    other = TriComplex(("o", "p"), (("a", "p", "o"),), ())
    with pytest.raises(ValueError):
        glue(one, other)


def test_x1bar_link_matches_frozen_corner_table():
    link = vertex_link(x1bar(), "o")
    assert len(link.nodes) == 18
    assert len(link.arcs) == 27
    assert all(length == THIRD for _, _, length in link.arcs)
    expected = [
        ("a-", "e+"), ("e-", "t1-"), ("t1+", "a+"),
        ("e-", "b1+"), ("b1-", "t1-"), ("t1+", "e+"),
        ("b1-", "a+"), ("a-", "t1-"), ("t1+", "b1+"),
        ("e-", "B^+"), ("B^-", "t2-"), ("t2+", "e+"),
        ("B^-", "b2+"), ("b2-", "t2-"), ("t2+", "B^+"),
        ("b2-", "e+"), ("e-", "t2-"), ("t2+", "b2+"),
        ("B^-", "a+"), ("a-", "t3-"), ("t3+", "B^+"),
        ("a-", "b3+"), ("b3-", "t3-"), ("t3+", "a+"),
        ("b3-", "B^+"), ("B^-", "t3-"), ("t3+", "b3+"),
    ]
    assert [(u, v) for u, v, _ in link.arcs] == expected


def test_x1bar_link_degrees_and_girth():
    link = vertex_link(x1bar(), "o")
    degree = link.degrees()
    assert all(degree[g + s] == 4 for g in ("a", "e", "B^") for s in "+-")
    assert all(degree[f"t{i}" + s] == 3 for i in (1, 2, 3) for s in "+-")
    assert all(degree[f"b{i}" + s] == 2 for i in (1, 2, 3) for s in "+-")
    assert link.is_bipartite()
    assert link.girth() == F(2)
    assert link.girth_exhaustive() == F(2)


def test_x1bar_link_smooth():
    sm = vertex_link(x1bar(), "o").smooth()
    assert len(sm.nodes) == 12
    assert len(sm.arcs) == 21
    lengths = Counter(length for _, _, length in sm.arcs)
    assert lengths == Counter({THIRD: 15, F(2, 3): 6})
    assert sm.distance("t1+", "t2-") == F(1)
    assert sm.girth() == F(2)


def test_ybar1_link_is_theta_after_smoothing():
    link = vertex_link(ybar1(), "o")
    assert len(link.nodes) == 8
    assert len(link.arcs) == 9
    assert link.girth() == F(2)
    assert link.girth_exhaustive() == F(2)
    assert link.degree_multiset() == (2, 2, 2, 2, 2, 2, 3, 3)
    sm = link.smooth()
    assert sorted(sm.nodes) == ["t+", "t-"]
    assert sorted((min(u, v), max(u, v), length) for u, v, length in sm.arcs) == [
        ("t+", "t-", F(1))
    ] * 3


@pytest.mark.parametrize("build, triangles, loops", [(x1bar, 9, 9), (ybar1, 3, 4)])
def test_link_counting_identities(build, triangles, loops):
    # A second judge of vertex_link from counts alone: each loop edge at o
    # has two ends there, each triangle puts its three corners there, and
    # Euclidean corner angles sum to pi (lengths are in units of pi).
    cx = build()
    assert len(cx.triangles) == triangles
    assert sum(src == dst == "o" for _, src, dst in cx.edges) == loops == len(cx.edges)
    link = vertex_link(cx, "o")
    assert sum(length for _, _, length in link.arcs) == triangles
    assert len(link.nodes) == 2 * loops
    assert len(link.arcs) == 3 * triangles
    assert sum(link.degrees().values()) == 6 * triangles


def link_from_text(lines, vertex):
    """A second judge of ``vertex_link``: the link read off the complex's
    text form by the germ rule of the complexes module docstring.  The
    germ of edge g at its source is g+ and at its target g-.  A side
    leaves along the germ its own token names (g+ leaves the source of g,
    g- its target) and arrives along the germ of the opposite sign; the
    corner after it sits where it arrives, and joins the germ it arrives
    along to the germ the next side leaves along."""
    germ_at, nodes, arcs = {}, [], []
    for line in lines:
        kind, *fields = line.split()
        if kind == "edge":
            label, source, target = fields
            germ_at[label + "+"], germ_at[label + "-"] = source, target
            nodes += [label + sign for sign in "+-" if germ_at[label + sign] == vertex]
        elif kind == "triangle":
            tokens, angles = fields[:3], fields[3:]
            for i, token in enumerate(tokens):
                arrives = token[:-1] + {"+": "-", "-": "+"}[token[-1]]
                if germ_at[arrives] == vertex:
                    arcs.append((arrives, tokens[(i + 1) % 3], Fraction(angles[i])))
    return nodes, arcs


def assert_links_agree(cx):
    for vertex in cx.vertices:
        link = vertex_link(cx, vertex)
        nodes, arcs = link_from_text(cx.to_lines(), vertex)
        assert Counter(link.nodes) == Counter(nodes)
        assert Counter(link.arcs) == Counter(arcs)


@pytest.mark.parametrize("name", ["ybar1", "x1bar", "triangle.txt", "fan.txt"])
def test_link_matches_the_link_read_from_the_text_form(name):
    from test_golden import INPUTS

    fixtures = {"ybar1": ybar1, "x1bar": x1bar}
    cx = fixtures[name]() if name in fixtures else TriComplex.from_lines(INPUTS[name].splitlines())
    assert_links_agree(cx)


if given is None:

    def test_link_of_a_random_complex_matches_the_text_form():
        pytest.skip("needs hypothesis")

else:

    @st.composite
    def complexes(draw):
        """A valid complex of up to four triangles on up to three vertices.
        Each triangle's sides run corner to corner; a side reuses an edge
        between its two corners or adds one in either direction."""
        vertices = tuple(f"p{i}" for i in range(draw(st.integers(1, 3))))
        edges, triangles = [], []
        for _ in range(draw(st.integers(0, 4))):
            corners = [draw(st.sampled_from(vertices)) for _ in range(3)]
            sides = []
            for i in range(3):
                start, stop = corners[i], corners[(i + 1) % 3]
                fits = [e for e in edges if {e[1], e[2]} == {start, stop}]
                if fits and draw(st.booleans()):
                    label, source, _ = draw(st.sampled_from(fits))
                    forward = draw(st.booleans()) if start == stop else source == start
                else:
                    label, forward = f"e{len(edges)}", draw(st.booleans())
                    edges.append((label, start, stop) if forward else (label, stop, start))
                sides.append(Side(label, forward))
            parts = [draw(st.integers(1, 5)) for _ in range(3)]
            triangles.append(Triangle(tuple(sides), tuple(F(k, sum(parts)) for k in parts)))
        for _ in range(draw(st.integers(0, 2))):  # edges on no triangle
            ends = [draw(st.sampled_from(vertices)) for _ in range(2)]
            edges.append((f"e{len(edges)}", *ends))
        return TriComplex(vertices, tuple(edges), tuple(triangles))

    @given(complexes())
    def test_link_of_a_random_complex_matches_the_text_form(cx):
        assert_links_agree(cx)


def test_symmetry_is_order_three_automorphism():
    cx = x1bar()
    assert is_edge_automorphism(cx, X1BAR_SYMMETRY)
    twice = {k: X1BAR_SYMMETRY[X1BAR_SYMMETRY[k]] for k in X1BAR_SYMMETRY}
    assert is_edge_automorphism(cx, twice)
    thrice = {k: X1BAR_SYMMETRY[twice[k]] for k in X1BAR_SYMMETRY}
    assert thrice == {k: k for k in X1BAR_SYMMETRY}
    assert X1BAR_SYMMETRY != thrice

    link = vertex_link(cx, "o")
    node_map = {n: X1BAR_SYMMETRY[n[:-1]] + n[-1] for n in link.nodes}
    assert link.is_automorphism(node_map)
    assert all(node_map[n] != n for n in link.nodes)


def test_symmetry_rejects_wrong_maps():
    cx = x1bar()
    assert not is_edge_automorphism(cx, {**X1BAR_SYMMETRY, "b1": "b1", "b2": "b1"})
    assert not is_edge_automorphism(cx, {**X1BAR_SYMMETRY, "a": "B^", "B^": "e", "e": "a"})


def test_serialisation_round_trip():
    for cx in (ybar1(), x1bar()):
        again = TriComplex.from_lines(cx.to_lines())
        assert again == cx
    with pytest.raises(ValueError):
        TriComplex.from_lines(["edge a o"])


def test_relabel_identity():
    cx = x1bar()
    assert relabel(cx, {}) == cx
