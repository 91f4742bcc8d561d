"""Differential tests of the metric-graph distance kernel, of
bipartiteness and of smoothing.

Random small metric graphs, with loops, parallel arcs, disconnected
parts, mixed denominators and lengths near 10^9, are checked against a
Floyd-Warshall table computed here, which shares no code with the
Dijkstra search in ``MetricGraph.distances_from``, and against a
2-colouring found by trying every colouring.
"""

import itertools
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from braidcat.metric_graph import MetricGraph  # noqa: E402

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
    for i in range(len(g.arcs)):
        table = floyd_warshall(g.nodes, g.arcs[:i] + g.arcs[i + 1 :])
        for u in g.nodes:
            for v in g.nodes:
                assert g.distance(u, v, skip_arc=i) == table[u][v]


@given(metric_graphs())
@example(LONG_CYCLE)
def test_girth_algorithms_agree(g):
    assert g.girth() == g.girth_exhaustive()


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
