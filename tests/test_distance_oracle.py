"""Differential tests of the metric-graph distance kernel, of girth,
of bipartiteness and of smoothing.

Random small metric graphs, with loops, parallel arcs, disconnected
parts, mixed denominators and lengths near 10^9, are checked against a
Floyd-Warshall table computed here, which shares no code with the
Dijkstra loop of ``distances_from`` and ``girth``, against the
per-arc ``Fraction`` deletion that ``girth`` used to run, and against a
2-colouring found by trying every colouring.
"""

import heapq
import itertools
from fractions import Fraction
from math import lcm

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from braidcat.metric_graph import MetricGraph, _adjacency, _settle  # noqa: E402

F = Fraction

LONG_ARC = MetricGraph(("a", "b"), (("a", "b", F(1000000001)),))
LONG_CYCLE = MetricGraph(("a", "b"), (("a", "b", F(1000000000)), ("a", "b", F(1))))
# an isolated node first, then a triangle: a colouring must visit each part
APART_TRIANGLE = MetricGraph(
    ("a", "b", "c", "d"), (("b", "c", F(1)), ("c", "d", F(2)), ("d", "b", F(1, 3)))
)

lengths = st.one_of(
    st.builds(Fraction, st.integers(1, 12), st.integers(1, 6)),
    st.builds(Fraction, st.integers(10**9 - 1, 10**9 + 1), st.sampled_from([1, 3])),
)


@st.composite
def metric_graphs(draw):
    nodes = tuple(f"n{i}" for i in range(draw(st.integers(1, 6))))
    end = st.sampled_from(nodes)
    arcs = draw(st.lists(st.tuples(end, end, lengths), max_size=9))
    return MetricGraph(nodes, tuple(arcs))


def floyd_warshall(nodes, arcs):
    """All-pairs shortest distances; None where a pair is unreachable."""
    dist = {u: {v: F(0) if u == v else None for v in nodes} for u in nodes}
    for u, v, length in arcs:
        if u == v:  # a loop never shortens a path
            continue
        if dist[u][v] is None or length < dist[u][v]:
            dist[u][v] = dist[v][u] = length
    for k in nodes:
        for i in nodes:
            for j in nodes:
                if dist[i][k] is None or dist[k][j] is None:
                    continue
                through = dist[i][k] + dist[k][j]
                if dist[i][j] is None or through < dist[i][j]:
                    dist[i][j] = through
    return dist


@given(metric_graphs())
@example(LONG_ARC)
def test_distances_from_matches_floyd_warshall(g):
    table = floyd_warshall(g.nodes, g.arcs)
    for u in g.nodes:
        reachable = {v: d for v, d in table[u].items() if d is not None}
        assert g.distances_from(u) == reachable


@given(metric_graphs())
@example(LONG_CYCLE)
def test_distance_without_an_arc_matches_floyd_warshall(g):
    """The loop as girth runs it: integer lengths in units of 1/L, one
    adjacency, and the arc taken out of the list of the end the search
    starts from.  Nodes settle in order of distance."""
    scale = lcm(*(length.denominator for _, _, length in g.arcs))
    arcs = [(u, v, int(length * scale)) for u, v, length in g.arcs]
    adjacency = _adjacency(g.nodes, arcs)
    for i, (u, v, length) in enumerate(arcs):
        adjacency[u].remove((v, length))
        settled = list(_settle(adjacency, u, 0))
        adjacency[u].append((v, length))
        assert [d for _, d in settled] == sorted(d for _, d in settled)
        table = floyd_warshall(g.nodes, g.arcs[:i] + g.arcs[i + 1 :])
        reachable = {w: d for w, d in table[u].items() if d is not None}
        assert {w: Fraction(d, scale) for w, d in settled} == reachable


def reference_girth(g):
    """Girth as it was computed before the shared loop: for each arc, a
    ``Fraction`` Dijkstra over an adjacency rebuilt without that arc."""
    best = None
    for i, (u, v, length) in enumerate(g.arcs):
        if u == v:
            best = length if best is None else min(best, length)
            continue
        adjacency = {n: [] for n in g.nodes}
        for j, (a, b, arc_length) in enumerate(g.arcs):
            if j != i:
                adjacency[a].append((b, arc_length))
                adjacency[b].append((a, arc_length))
        dist, settled, heap = {u: Fraction(0)}, set(), [(Fraction(0), u)]
        while heap:
            d, node = heapq.heappop(heap)
            if node in settled:
                continue
            settled.add(node)
            for other, arc_length in adjacency[node]:
                if other not in dist or d + arc_length < dist[other]:
                    dist[other] = d + arc_length
                    heapq.heappush(heap, (d + arc_length, other))
        if v in dist:
            best = dist[v] + length if best is None else min(best, dist[v] + length)
    return best


GIRTH_EXAMPLES = {
    "lone-loop": (MetricGraph(("a",), (("a", "a", F(5, 7)),)), F(5, 7)),
    "parallel-pair": (
        MetricGraph(("a", "b"), (("a", "b", F(1, 2)), ("a", "b", F(1, 3)))),
        F(5, 6),
    ),
    "acyclic": (
        MetricGraph(("a", "b", "c", "d"), (("a", "b", F(1)), ("b", "c", F(2)), ("b", "d", F(3)))),
        None,
    ),
    # the only cycle lies in the second component
    "second-component": (
        MetricGraph(
            ("a", "b", "c", "d", "e"),
            (("a", "b", F(1)), ("c", "d", F(1, 3)), ("d", "e", F(1, 3)), ("e", "c", F(1, 2))),
        ),
        F(7, 6),
    ),
    # a square of 1/2, 1/3, 1/7, 1/7 and a chord: the lcm is 42, no one denominator
    "denominators-2-3-7": (
        MetricGraph(
            ("a", "b", "c", "d"),
            (
                ("a", "b", F(1, 2)),
                ("b", "c", F(1, 3)),
                ("c", "d", F(1, 7)),
                ("d", "a", F(1, 7)),
                ("a", "c", F(3, 2)),
            ),
        ),
        F(47, 42),
    ),
    "long-cycle": (LONG_CYCLE, F(1000000001)),
}


@pytest.mark.parametrize("g, girth", GIRTH_EXAMPLES.values(), ids=GIRTH_EXAMPLES)
def test_girth_examples(g, girth):
    assert g.girth() == reference_girth(g) == g.girth_exhaustive() == girth


@given(metric_graphs())
@example(LONG_CYCLE)
def test_girth_algorithms_agree(g):
    assert g.girth() == reference_girth(g) == g.girth_exhaustive()


def two_colourable(nodes, arcs):
    """Whether some colouring in two colours gives each arc two colours
    (a loop never does), trying all 2^n colourings."""
    for bits in itertools.product((0, 1), repeat=len(nodes)):
        colour = dict(zip(nodes, bits))
        if all(colour[u] != colour[v] for u, v, _ in arcs):
            return True
    return False


@given(metric_graphs())
@example(APART_TRIANGLE)
def test_is_bipartite_matches_every_colouring(g):
    assert g.is_bipartite() == two_colourable(g.nodes, g.arcs)


@given(metric_graphs())
@example(APART_TRIANGLE)
@example(LONG_CYCLE)
def test_smooth_keeps_the_metric(g):
    smooth = g.smooth()
    degree = g.degrees()
    kept = set(smooth.nodes)
    loop_holders = {u for u, v, _ in g.arcs if u == v}
    assert {n for n in g.nodes if degree[n] != 2} | loop_holders <= kept <= set(g.nodes)
    assert all(smooth.degrees()[n] == degree[n] for n in kept)
    before, after = floyd_warshall(g.nodes, g.arcs), floyd_warshall(smooth.nodes, smooth.arcs)
    assert all(after[u][v] == before[u][v] for u in kept for v in kept)
    assert smooth.girth() == smooth.girth_exhaustive() == g.girth()
    assert sum(a[2] for a in smooth.arcs) == sum(a[2] for a in g.arcs)
    # no node is left on exactly two distinct arcs
    assert all(len(ends) != 2 or ends[0][0] == ends[1][0] for ends in smooth.incidence().values())
