"""Named fixtures: the dictionary of braid words, the two finite
presentations with their distinguished subgroups, and the complexes and
graphs addressable from the command line.

The dictionary words are all in the crossing alphabet a, b, c.  Twisted
conjugates come in pairs (a candidate that looks plausible and the one
the relations actually force); the audit resolves each pair and the
resolution is frozen in the test suite.
"""

from __future__ import annotations

from collections.abc import Callable

from .complexes import TriComplex, X1BAR_SYMMETRY, vertex_link, x1bar, ybar1
from .cosets import Presentation
from .metric_graph import MetricGraph, brady_link
from .words import ALPHABET_ST, ALPHABET_XY, Word, parse

__all__ = [
    "WORDS",
    "G0_RELATORS",
    "g0_presentation",
    "sl2_presentation",
    "SUBGROUPS",
    "complex_fixture",
    "graph_fixture",
    "COMPLEX_NAMES",
    "GRAPH_NAMES",
    "link_symmetry",
]


def _w(text: str) -> Word:
    return parse(text)


WORDS: dict[str, Word] = {
    # generators and the two products everything is built from
    "a": _w("a"),
    "b": _w("b"),
    "c": _w("c"),
    "x": _w("bac"),
    "y": _w("bacc"),
    # twisted conjugates: the resolved dictionary
    "e": _w("Aba"),
    "f": _w("Cbc"),
    "d": _w("CAbac"),
    "bhat": _w("CCbcc"),
    # rejected candidates kept for the audit to rule out
    "e-candidate": _w("abA"),
    "f-candidate": _w("cbC"),
    "bhat-candidate": _w("Cbcc"),
}


G0_RELATORS = ("x^4", "y^3", "x y x^2 Y X Y x^-2 y")


def g0_presentation() -> Presentation:
    return Presentation(
        ALPHABET_XY, tuple(parse(text, ALPHABET_XY) for text in G0_RELATORS)
    )


def sl2_presentation() -> Presentation:
    return Presentation(
        ALPHABET_ST,
        (parse("S^4", ALPHABET_ST), parse("S T S T S T S^-2", ALPHABET_ST)),
    )


# (presentation factory, subgroup generator words)
SUBGROUPS: dict[str, tuple] = {
    "index-four": (
        g0_presentation,
        [parse("x y x^-2", ALPHABET_XY), parse("y", ALPHABET_XY)],
    ),
    "whole-group-xy": (
        g0_presentation,
        [parse("x", ALPHABET_XY), parse("y", ALPHABET_XY)],
    ),
    "whole-group-ax": (
        g0_presentation,
        [parse("x y x^-2", ALPHABET_XY), parse("x", ALPHABET_XY)],
    ),
    "matrix-pair": (
        sl2_presentation,
        [parse("S^2 T", ALPHABET_ST), parse("S^3 T", ALPHABET_ST)],
    ),
}


_COMPLEXES = {
    "ybar1": ybar1,
    "x1bar": x1bar,
}

# A graph asks for the fixtures it is built from through get(fn, *args).
_GRAPHS = {
    "brady-link": lambda get: brady_link(),
    "ybar1-link": lambda get: vertex_link(get(complex_fixture, "ybar1"), "o"),
    "ybar1-link-smooth": lambda get: get(graph_fixture, "ybar1-link", get).smooth(),
    "x1bar-link": lambda get: vertex_link(get(complex_fixture, "x1bar"), "o"),
    "x1bar-link-smooth": lambda get: get(graph_fixture, "x1bar-link", get).smooth(),
}

COMPLEX_NAMES = tuple(sorted(_COMPLEXES))
GRAPH_NAMES = tuple(sorted(_GRAPHS))


def complex_fixture(name: str) -> TriComplex:
    if name not in _COMPLEXES:
        raise KeyError(f"unknown complex {name!r}; have {', '.join(COMPLEX_NAMES)}")
    return _COMPLEXES[name]()


def graph_fixture(name: str, get: Callable = lambda fn, *args: fn(*args)) -> MetricGraph:
    """The named graph.  ``get(fn, *args)`` returns ``fn(*args)``; a memo
    passed as ``get`` builds each fixture the graph comes from once."""
    if name not in _GRAPHS:
        raise KeyError(f"unknown graph {name!r}; have {', '.join(GRAPH_NAMES)}")
    return _GRAPHS[name](get)


def link_symmetry(graph: MetricGraph) -> dict[str, str]:
    """The node map a link inherits from cycling the three wings.  Only
    meaningful for the glued-complex link and its smoothing."""
    mapping = {}
    for node in graph.nodes:
        label, direction = node[:-1], node[-1]
        if label not in X1BAR_SYMMETRY:
            raise ValueError(f"node {node!r} does not come from the glued complex")
        mapping[node] = X1BAR_SYMMETRY[label] + direction
    return mapping
