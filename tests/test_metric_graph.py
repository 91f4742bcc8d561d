import gc
import os
import random
import time
from fractions import Fraction

import pytest

from braidcat.metric_graph import (
    MetricGraph,
    brady_link,
    format_length,
    parse_length,
)

SEED = int(os.environ.get("GGT_SEED", "17"))

F = Fraction


def path_graph():
    return MetricGraph(("p", "q", "r"), (("p", "q", F(1, 3)), ("q", "r", F(1, 2))))


def test_validation():
    with pytest.raises(ValueError, match="^duplicate node names$"):
        MetricGraph(("p", "p"), ())
    with pytest.raises(ValueError, match=r"^arc \(p, q\) mentions an unknown node$"):
        MetricGraph(("p",), (("p", "q", F(1)),))
    with pytest.raises(ValueError, match=r"^arc \(p, p\) has non-positive length 0$"):
        MetricGraph(("p",), (("p", "p", F(0)),))


def test_degrees_and_loops():
    g = MetricGraph(("p", "q"), (("p", "p", F(1)), ("p", "q", F(1, 3))))
    assert g.degrees()["p"] == 3
    assert g.degrees()["q"] == 1
    assert g.degree_multiset() == (1, 3)


def test_distance():
    g = path_graph()
    assert g.distance("p", "r") == F(5, 6)
    assert g.distance("p", "p") == 0
    lonely = MetricGraph(("p", "q"), ())
    assert lonely.distance("p", "q") is None


def test_long_distance_is_reachable():
    # a length that a large stand-in for infinity would swallow
    g = MetricGraph(("a", "b"), (("a", "b", F(1000000001)),))
    assert g.distance("a", "b") == F(1000000001)


def test_distance_prefers_short_way_round():
    g = MetricGraph(
        ("p", "q"),
        (("p", "q", F(1, 3)), ("p", "q", F(2, 3))),
    )
    assert g.distance("p", "q") == F(1, 3)
    assert g.girth() == F(1)
    assert g.girth_exhaustive() == F(1)


def test_girth_loop():
    g = MetricGraph(("p",), (("p", "p", F(1, 2)),))
    assert g.girth() == F(1, 2)
    assert g.girth_exhaustive() == F(1, 2)


def test_girth_triangle_with_chord():
    g = MetricGraph(
        ("p", "q", "r", "s"),
        (
            ("p", "q", F(1)),
            ("q", "r", F(1)),
            ("r", "p", F(1)),
            ("p", "s", F(5)),
        ),
    )
    assert g.girth() == F(3)
    assert g.girth_exhaustive() == F(3)


def test_girth_forest_is_infinite():
    assert path_graph().girth() is None
    assert path_graph().girth_exhaustive() is None


def test_long_cycle_has_a_girth():
    g = MetricGraph(("a", "b"), (("a", "b", F(1000000000)), ("a", "b", F(1))))
    assert g.girth() == F(1000000001)
    assert g.girth_exhaustive() == F(1000000001)


def random_cubic(size, seed):
    """A simple cubic graph from a random matching of three ends per node,
    with lengths p/q for p in 1..6 and q in 1..3."""
    rng = random.Random(seed)
    nodes = tuple(f"v{i}" for i in range(size))
    while True:
        ends = [n for n in nodes for _ in range(3)]
        rng.shuffle(ends)
        pairs = list(zip(ends[::2], ends[1::2]))
        if all(u != v for u, v in pairs) and len({frozenset(p) for p in pairs}) == len(pairs):
            break
    return MetricGraph(nodes, tuple((u, v, F(rng.randint(1, 6), rng.choice((1, 2, 3)))) for u, v in pairs))


def unit_cycle(size):
    nodes = tuple(f"v{i}" for i in range(size))
    return MetricGraph(nodes, tuple((nodes[i - 1], nodes[i], F(1)) for i in range(size)))


def shuffled(graph, seed):
    arcs = list(graph.arcs)
    random.Random(seed).shuffle(arcs)
    return graph._replace(arcs=tuple(arcs))


@pytest.mark.parametrize(
    "graph, girth, seconds",
    [
        (random_cubic(320, 320), F(47, 6), 0.1),
        (unit_cycle(1200), F(1200), 2.0),
        (unit_cycle(2400), F(2400), 0.25),
        (shuffled(unit_cycle(2400), 1), F(2400), 0.25),
    ],
    ids=["cubic-320", "cycle-1200", "cycle-2400", "cycle-2400-shuffled"],
)
def test_girth_of_a_large_graph(graph, girth, seconds):
    """One dart table, integer lengths, searches that stop early, and
    each arc deleted for good.  On one Intel Xeon core, a Fraction search
    over a rebuilt adjacency for every arc took 2.1-2.5 s of CPU on the
    cubic graph and 5.2 s on the 1,200-node cycle.  Searches that put
    each arc back took 0.0075 s, 0.67-0.82 s, and 2.8-3.6 s on each
    2,400-node cycle.  Deleting each arc for good takes about 0.0022 s,
    0.0025 s, 0.005 s and 0.013 s."""
    start = time.process_time()
    assert graph.girth() == girth
    assert time.process_time() - start < seconds


def test_girth_exhaustive_of_a_long_cycle():
    """The enumeration keeps its own stack, so a cycle of 1,200 nodes
    needs no recursion: a recursive walk raised RecursionError here
    under the default limit of 1,000."""
    start = time.process_time()
    assert unit_cycle(1200).girth_exhaustive() == F(1200)
    assert time.process_time() - start < 2.0


def test_girth_algorithms_agree_random():
    rng = random.Random(SEED)
    for _ in range(60):
        n = rng.randint(2, 7)
        nodes = tuple(f"n{i}" for i in range(n))
        arcs = []
        for _ in range(rng.randint(1, 10)):
            u, v = rng.choice(nodes), rng.choice(nodes)
            arcs.append((u, v, F(rng.randint(1, 4), rng.randint(1, 4))))
        g = MetricGraph(nodes, tuple(arcs))
        assert g.girth() == g.girth_exhaustive()


def test_smooth_chain():
    g = path_graph()
    sm = g.smooth()
    assert sm.nodes == ("p", "r")
    assert sm.arcs == (("p", "r", F(5, 6)),)


def test_smooth_cycle_keeps_one_node():
    g = MetricGraph(
        ("p", "q", "r"),
        (("p", "q", F(1)), ("q", "r", F(1)), ("r", "p", F(1))),
    )
    sm = g.smooth()
    assert len(sm.nodes) == 1
    assert len(sm.arcs) == 1
    u, v, length = sm.arcs[0]
    assert u == v
    assert length == F(3)
    assert sm.girth() == F(3) == g.girth()


def test_smooth_leaves_cubic_graph_alone():
    g = brady_link()
    assert g.smooth().arc_census() == g.arc_census()


def test_smooth_of_a_long_theta():
    """Three arcs of 1,101 pieces each between x and y: 3,302 nodes, all
    but two suppressed in one pass.  Rebuilding the incidence table for
    each suppressed node took, on one Intel Xeon core, 1.8-2.3 s of CPU,
    against about 0.01 s here."""
    nodes, arcs = ["x", "y"], []
    for k in range(3):
        chain = [f"s{k}.{i}" for i in range(1100)]
        nodes += chain
        ends = ["x", *chain, "y"]
        arcs += [(ends[i], ends[i + 1], F(1, 3)) for i in range(1101)]
    theta = MetricGraph(tuple(nodes), tuple(arcs))
    # collect first: a full collection of what earlier tests left, about
    # 0.035 s on its own, would otherwise fall inside the timing
    gc.collect()
    start = time.process_time()
    smooth = theta.smooth()
    assert time.process_time() - start < 0.05
    assert smooth == MetricGraph(("x", "y"), (("y", "x", F(367)),) * 3)


def test_bipartite():
    square = MetricGraph(
        ("p", "q", "r", "s"),
        (("p", "q", F(1)), ("q", "r", F(1)), ("r", "s", F(1)), ("s", "p", F(1))),
    )
    assert square.is_bipartite()
    triangle = MetricGraph(
        ("p", "q", "r"),
        (("p", "q", F(1)), ("q", "r", F(1)), ("r", "p", F(1))),
    )
    assert not triangle.is_bipartite()
    loop = MetricGraph(("p",), (("p", "p", F(1)),))
    assert not loop.is_bipartite()


@pytest.mark.parametrize("size, bipartite", [(5000, True), (5001, False)])
def test_bipartite_long_cycle(size, bipartite):
    """The search reads one dart table.  A scan of every arc for each
    node is quadratic: on one Intel Xeon core it took about 1.5 s of CPU
    on these cycles, against a few ms for the table."""
    nodes = tuple(f"v{i}" for i in range(size))
    cycle = MetricGraph(nodes, tuple((nodes[i - 1], nodes[i], F(1)) for i in range(size)))
    start = time.process_time()
    assert cycle.is_bipartite() == bipartite
    assert time.process_time() - start < 0.5


def test_automorphism():
    g = brady_link()
    rotate = {f"v{i}": f"v{i % 8 + 1}" for i in range(1, 9)}
    assert g.is_automorphism(rotate)
    reflect = {f"v{i}": f"v{(10 - i - 1) % 8 + 1}" for i in range(1, 9)}
    assert g.is_automorphism(reflect)
    assert not g.is_automorphism({f"v{i}": f"v{i}" for i in range(1, 8)} | {"v8": "v1"})
    swap_two = {f"v{i}": f"v{i}" for i in range(1, 9)} | {"v1": "v2", "v2": "v1"}
    assert not g.is_automorphism(swap_two)


def test_brady_link_shape():
    g = brady_link()
    assert len(g.nodes) == 8
    assert g.degree_multiset() == (3,) * 8
    assert g.girth() == F(2)
    assert g.girth_exhaustive() == F(2)
    lengths = sorted(length for _, _, length in g.arcs)
    assert lengths == [F(1, 3)] * 8 + [F(2, 3)] * 4


def test_serialisation_round_trip():
    g = brady_link()
    again = MetricGraph.from_lines(g.to_lines())
    assert again == g
    assert parse_length("2/3") == F(2, 3)
    assert format_length(F(2, 3)) == "2/3"
    with pytest.raises(ValueError):
        parse_length("0.5")
    with pytest.raises(ValueError):
        parse_length("-1/3")
    with pytest.raises(ValueError, match="zero denominator"):
        MetricGraph.from_lines(["node p", "node q", "arc p q 1/0"])
    with pytest.raises(ValueError):
        MetricGraph.from_lines(["squiggle p q"])


def test_to_dot():
    dot = path_graph().to_dot()
    assert dot.startswith("graph {")
    assert '"p" -- "q" [label="1/3"];' in dot
