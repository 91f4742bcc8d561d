"""Differential tests of the metric-graph distance kernel, of girth,
of bipartiteness, of smoothing and of the dart table ``MetricGraph.darts``.

Random small metric graphs, with loops, parallel arcs, disconnected
parts, mixed denominators and lengths near 10^9, are checked against a
Floyd-Warshall table computed here, which shares no code with the
Dijkstra loop of ``distances_from`` and ``girth``, against the
per-arc ``Fraction`` deletion that ``girth`` used to run, against a
2-colouring found by trying every colouring, and against the smoothing
loop that suppressed one node per rebuilt incidence table.
"""

import heapq
import itertools
from fractions import Fraction
from math import lcm

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from braidcat.fixtures import GRAPH_NAMES, graph_fixture  # noqa: E402
from braidcat.metric_graph import MetricGraph, _settle  # noqa: E402

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
@example(LONG_CYCLE)
@example(APART_TRIANGLE)
def test_darts_list_each_arc_end_in_arc_order(g):
    """Arc i = (u, v, l) is (i, 0, v, l) at u and (i, 1, u, l) at v, and
    nothing else is listed; a scale of L gives the integers l*L."""
    darts = g.darts()
    for i, (u, v, length) in enumerate(g.arcs):
        assert darts[u].count((i, 0, v, length)) == darts[v].count((i, 1, u, length)) == 1
    assert sum(len(ends) for ends in darts.values()) == 2 * len(g.arcs)
    for ends in darts.values():
        keys = [dart[:2] for dart in ends]
        assert keys == sorted(set(keys))
    assert g.degrees() == {n: len(ends) for n, ends in darts.items()}
    scale = lcm(*(length.denominator for _, _, length in g.arcs))
    scaled = g.darts(scale)
    assert all(type(dart[3]) is int for ends in scaled.values() for dart in ends)
    assert scaled == {n: [(*d[:3], d[3] * scale) for d in ends] for n, ends in darts.items()}


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
    dart table, and arcs 0..i deleted for good in arc order, so arc i's
    darts lead its ends' lists.  Nodes settle in order of distance."""
    scale = lcm(*(length.denominator for _, _, length in g.arcs))
    darts = g.darts(scale)
    for i, (u, v, _) in enumerate(g.arcs):
        assert darts[u].pop(0)[:2] == (i, 0)
        assert darts[v].pop(0)[:2] == (i, 1)
        settled = list(_settle(darts, u, 0))
        assert [d for _, d in settled] == sorted(d for _, d in settled)
        table = floyd_warshall(g.nodes, g.arcs[i + 1 :])
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
@example(MetricGraph(("a", "b"), (("a", "b", F(1)),)))  # one arc, no cycle
@example(MetricGraph(("a",), (("a", "a", F(2)), ("a", "a", F(1, 2)))))  # two loops at one node
# a triangle with a loop at c, a node the walks from a and b pass through
@example(
    MetricGraph(
        ("a", "b", "c"),
        (("a", "b", F(1)), ("b", "c", F(1)), ("c", "a", F(1)), ("c", "c", F(5, 2))),
    )
)
# three parallel arcs, the longest first: girth 4, not the 5 of the first two
@example(MetricGraph(("a", "b"), (("a", "b", F(3)), ("a", "b", F(2)), ("b", "a", F(2)))))
# names listed against their sorted order
@example(
    MetricGraph(
        ("d", "c", "b", "a"),
        (
            ("d", "c", F(1)),
            ("c", "b", F(1, 2)),
            ("b", "d", F(1, 3)),
            ("b", "a", F(1)),
            ("a", "d", F(1)),
        ),
    )
)
def test_girth_algorithms_agree(g):
    assert g.girth() == reference_girth(g) == g.girth_exhaustive()
    assert g._replace(arcs=g.arcs[::-1]).girth() == g.girth()


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
    assert all(len(ends) != 2 or ends[0][0] == ends[1][0] for ends in smooth.darts().values())


def reference_smooth(g):
    """Smoothing as it was computed before the single pass: rebuild the
    incidence table, suppress the least node that can go, and repeat."""
    nodes = list(g.nodes)
    arcs = [tuple(arc) for arc in g.arcs]
    while True:
        inc: dict[str, list[int]] = {n: [] for n in nodes}
        for i, (u, v, _) in enumerate(arcs):
            inc[u].append(i)
            inc[v].append(i)
        target = None
        for n in sorted(nodes):
            ends = inc[n]
            if len(ends) == 2 and ends[0] != ends[1]:
                target = n
                break
        if target is None:
            return MetricGraph(tuple(nodes), tuple(arcs))
        i, j = inc[target]
        u1, v1, l1 = arcs[i]
        u2, v2, l2 = arcs[j]
        merged = (
            u1 if v1 == target else v1,
            u2 if v2 == target else v2,
            l1 + l2,
        )
        arcs = [arc for k, arc in enumerate(arcs) if k not in (i, j)]
        arcs.append(merged)
        nodes.remove(target)


# the same graphs with their nodes listed in any order, so that the order
# of the pass (by name) and the order of the output (as listed) differ
listed_in_any_order = metric_graphs().flatmap(
    lambda g: st.permutations(g.nodes).map(lambda order: g._replace(nodes=tuple(order)))
)


@given(listed_in_any_order)
# a pure cycle collapses to one node holding a loop
@example(MetricGraph(("c", "a", "b"), (("a", "b", F(1)), ("b", "c", F(1, 2)), ("c", "a", F(1, 3)))))
# a parallel pair through b leaves a loop on c, which then stays
@example(MetricGraph(("b", "c"), (("b", "c", F(1, 2)), ("c", "b", F(1, 3)))))
# a chain of degree-two nodes, listed out of order, between two cubic nodes
@example(
    MetricGraph(
        ("x", "y", "m3", "m1", "m2"),
        (
            ("x", "y", F(1)),
            ("x", "m3", F(1, 2)),
            ("m1", "m3", F(1, 3)),
            ("y", "x", F(2)),
            ("m2", "y", F(1, 4)),
            ("m1", "m2", F(1, 5)),
        ),
    )
)
# a loop holder next to a degree-two node
@example(MetricGraph(("h", "d", "e"), (("h", "h", F(1)), ("d", "e", F(1, 2)), ("h", "d", F(1, 3)))))
# names listed against their sorted order
@example(
    MetricGraph(("d", "c", "b", "a"), (("a", "b", F(1)), ("b", "c", F(1, 2)), ("c", "d", F(1, 3))))
)
def test_smooth_matches_the_reference_loop(g):
    assert g.smooth() == reference_smooth(g)


@pytest.mark.parametrize("name", GRAPH_NAMES)
def test_smooth_of_each_graph_fixture_matches_the_reference_loop(name):
    g = graph_fixture(name)
    assert g.smooth() == reference_smooth(g)
