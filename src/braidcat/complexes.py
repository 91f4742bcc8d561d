"""Piecewise Euclidean triangle complexes and their vertex links.

A complex here is a finite set of vertices, a finite set of labelled
oriented edges, and a finite set of Euclidean triangles, each glued
along a three-sided boundary word.  A side traverses an edge either
forwards or backwards, consecutive sides must share the vertex between
them, and the three corner angles of each triangle are positive
rationals summing to pi (stored in units of pi).

The link of a vertex v is a metric graph.  Its nodes are the germs of
edges at v: the germ at the source of an edge g is written ``g+`` and
the germ at the target ``g-``, and a loop at v contributes both.  Each
corner of a triangle sitting at v contributes one arc whose length is
the corner angle, joining the germ along which the corner's first side
arrives to the germ along which its second side leaves.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction

from .metric_graph import MetricGraph, format_length, parse_length

__all__ = [
    "Side",
    "Triangle",
    "TriComplex",
    "vertex_link",
    "brady_equilateral",
    "glue",
    "relabel",
    "is_edge_automorphism",
    "ybar1",
    "x1bar",
    "X1BAR_SYMMETRY",
]

THIRD = Fraction(1, 3)


class Side(namedtuple("Side", "label forward")):
    __slots__ = ()

    def token(self) -> str:
        return self.label + ("+" if self.forward else "-")

    def head(self, ends: dict[str, tuple[str, str]]) -> str:
        """The vertex the side arrives at; ``ends`` maps each edge label
        to its (source, target)."""
        src, dst = ends[self.label]
        return dst if self.forward else src

    def tail(self, ends: dict[str, tuple[str, str]]) -> str:
        src, dst = ends[self.label]
        return src if self.forward else dst

    @staticmethod
    def from_token(token: str) -> Side:
        if len(token) < 2 or token[-1] not in "+-":
            raise ValueError(f"bad side token {token!r}")
        return Side(token[:-1], token[-1] == "+")


class Triangle(namedtuple("Triangle", "sides angles")):
    """A Euclidean triangle; ``angles[i]`` is the corner angle between
    ``sides[i]`` and ``sides[(i + 1) % 3]``, in units of pi."""

    __slots__ = ()

    def canonical(self) -> tuple:
        rotations = [
            (self.sides[k:] + self.sides[:k], self.angles[k:] + self.angles[:k])
            for k in range(3)
        ]
        return min(
            (tuple(s.token() for s in sides), angles) for sides, angles in rotations
        )


class TriComplex(namedtuple("TriComplex", "vertices edges triangles")):
    """Tuples of vertex names, of (label, source, target) edges and of
    :class:`Triangle`."""

    __slots__ = ()

    def __new__(cls, vertices, edges, triangles) -> TriComplex:
        self = super().__new__(cls, vertices, edges, triangles)
        known = set(self.vertices)
        if len(known) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        ends = self._ends()
        if len(ends) != len(self.edges):
            raise ValueError("duplicate edge labels")
        for label, (src, dst) in ends.items():
            if src not in known or dst not in known:
                raise ValueError(f"edge {label} has an unknown endpoint")
        for t in self.triangles:
            if len(t.sides) != 3 or len(t.angles) != 3:
                raise ValueError("triangles have exactly three sides and angles")
            for side in t.sides:
                if side.label not in ends:
                    raise ValueError(f"side uses unknown edge {side.label!r}")
            for i, side in enumerate(t.sides):
                nxt = t.sides[(i + 1) % 3]
                if side.head(ends) != nxt.tail(ends):
                    raise ValueError(
                        f"boundary of {[s.token() for s in t.sides]} does not close"
                    )
            if any(angle <= 0 for angle in t.angles):
                raise ValueError("corner angles must be positive")
            if sum(t.angles) != 1:
                raise ValueError(
                    f"corner angles {t.angles} of a Euclidean triangle must sum to pi"
                )
        return self

    # through __new__, so that _replace validates too
    _make = classmethod(lambda cls, values: cls(*values))

    def _ends(self) -> dict[str, tuple[str, str]]:
        """edge label -> (source, target)"""
        return {label: (src, dst) for label, src, dst in self.edges}

    def euler_characteristic(self) -> int:
        return len(self.vertices) - len(self.edges) + len(self.triangles)

    def canonical_triangles(self) -> Counter:
        return Counter(t.canonical() for t in self.triangles)

    # -- serialisation --------------------------------------------------

    def to_lines(self) -> list[str]:
        lines = [f"vertex {v}" for v in self.vertices]
        lines.extend(f"edge {label} {src} {dst}" for label, src, dst in self.edges)
        for t in self.triangles:
            sides = " ".join(s.token() for s in t.sides)
            angles = " ".join(format_length(a) for a in t.angles)
            lines.append(f"triangle {sides} {angles}")
        return lines

    @staticmethod
    def from_lines(lines: list[str]) -> TriComplex:
        vertices: list[str] = []
        edges: list[tuple[str, str, str]] = []
        triangles: list[Triangle] = []
        for raw in lines:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] == "vertex" and len(parts) == 2:
                vertices.append(parts[1])
            elif parts[0] == "edge" and len(parts) == 4:
                edges.append((parts[1], parts[2], parts[3]))
            elif parts[0] == "triangle" and len(parts) == 7:
                sides = tuple(Side.from_token(tok) for tok in parts[1:4])
                angles = tuple(parse_length(tok) for tok in parts[4:7])
                triangles.append(Triangle(sides, angles))
            else:
                raise ValueError(f"bad complex line {raw!r}")
        return TriComplex(tuple(vertices), tuple(edges), tuple(triangles))


def vertex_link(cx: TriComplex, vertex: str) -> MetricGraph:
    """The metric graph of directions at a vertex; see the module
    docstring for the germ naming and the corner rule."""
    if vertex not in cx.vertices:
        raise ValueError(f"unknown vertex {vertex!r}")
    nodes = []
    for label, src, dst in cx.edges:
        if src == vertex:
            nodes.append(label + "+")
        if dst == vertex:
            nodes.append(label + "-")
    arcs = []
    ends = cx._ends()
    for t in cx.triangles:
        for i in range(3):
            arriving, leaving = t.sides[i], t.sides[(i + 1) % 3]
            if arriving.head(ends) != vertex:
                continue
            start = arriving.label + ("-" if arriving.forward else "+")
            end = leaving.label + ("+" if leaving.forward else "-")
            arcs.append((start, end, t.angles[i]))
    return MetricGraph(tuple(nodes), tuple(arcs))


def brady_equilateral(
    u: str, v: str, w: str, diagonal: str = "t", vertex: str = "o"
) -> TriComplex:
    """Three unit equilateral triangles glued along a common diagonal.

    Presentation-wise this is the complex of the relations
    u v = v w = w u, the common product being the diagonal; each corner
    angle is pi/3 and all four edges are loops at the one vertex.
    """
    labels = (u, v, w, diagonal)
    if len(set(labels)) != 4:
        raise ValueError(f"edge labels {labels} must be distinct")
    back = Side(diagonal, False)
    triangles = tuple(
        Triangle((Side(p, True), Side(q, True), back), (THIRD, THIRD, THIRD))
        for p, q in ((u, v), (v, w), (w, u))
    )
    edges = tuple((label, vertex, vertex) for label in labels)
    return TriComplex((vertex,), edges, triangles)


def glue(*complexes: TriComplex) -> TriComplex:
    """Union of complexes, identifying vertices by name and edges by
    label.  A label shared between pieces must have the same endpoints
    in each, which is what gluing along those edges means."""
    vertices: list[str] = []
    edges: list[tuple[str, str, str]] = []
    have: dict[str, tuple[str, str]] = {}
    triangles: list[Triangle] = []
    for cx in complexes:
        for v in cx.vertices:
            if v not in vertices:
                vertices.append(v)
        for label, src, dst in cx.edges:
            if label in have:
                if have[label] != (src, dst):
                    raise ValueError(f"edge {label} glued with conflicting endpoints")
            else:
                have[label] = (src, dst)
                edges.append((label, src, dst))
        triangles.extend(cx.triangles)
    return TriComplex(tuple(vertices), tuple(edges), tuple(triangles))


def relabel(cx: TriComplex, edge_map: dict[str, str]) -> TriComplex:
    """Rename edge labels; labels not mentioned stay fixed."""

    def rename(label: str) -> str:
        return edge_map.get(label, label)

    edges = tuple((rename(label), src, dst) for label, src, dst in cx.edges)
    triangles = tuple(
        Triangle(tuple(Side(rename(s.label), s.forward) for s in t.sides), t.angles)
        for t in cx.triangles
    )
    return TriComplex(cx.vertices, edges, triangles)


def is_edge_automorphism(cx: TriComplex, edge_map: dict[str, str]) -> bool:
    """Does relabelling by the map carry the complex onto itself?"""
    labels = sorted(label for label, _, _ in cx.edges)
    if sorted(edge_map) != labels or sorted(edge_map.values()) != labels:
        return False
    image = relabel(cx, edge_map)
    return (
        image.vertices == cx.vertices
        and sorted(image.edges) == sorted(cx.edges)
        and image.canonical_triangles() == cx.canonical_triangles()
    )


def ybar1() -> TriComplex:
    """The single-wing complex: u v = v w = w u on edges a, e, b."""
    return brady_equilateral("a", "e", "b", diagonal="t")


def x1bar() -> TriComplex:
    """Three wings glued pairwise along the shared edges a, e and B^.

    Wing one runs along (a, e), wing two along (e, B^), wing three
    along (B^, a); the b_i close up the wings and the t_i are the
    diagonals.  One vertex, nine edges, nine triangles.
    """
    return glue(
        brady_equilateral("a", "e", "b1", diagonal="t1"),
        brady_equilateral("e", "B^", "b2", diagonal="t2"),
        brady_equilateral("B^", "a", "b3", diagonal="t3"),
    )


# Cycling the three wings: the edge relabelling induced by the order
# three symmetry of the construction.
X1BAR_SYMMETRY: dict[str, str] = {
    "a": "e",
    "e": "B^",
    "B^": "a",
    "b1": "b2",
    "b2": "b3",
    "b3": "b1",
    "t1": "t2",
    "t2": "t3",
    "t3": "t1",
}
