"""Differential tests of the metric-graph distance kernel.

Random small metric graphs, with loops, parallel arcs, disconnected
parts, mixed denominators and lengths near 10^9, are checked against a
Floyd-Warshall table computed here, which shares no code with the
Dijkstra search in ``MetricGraph.distances_from``.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from braidcat.metric_graph import MetricGraph  # noqa: E402

F = Fraction

LONG_ARC = MetricGraph(("a", "b"), (("a", "b", F(1000000001)),))
LONG_CYCLE = MetricGraph(("a", "b"), (("a", "b", F(1000000000)), ("a", "b", F(1))))

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
