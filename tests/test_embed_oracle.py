"""Differential tests of the embedding search.

Random small sources (every node of degree at least three, loops and
parallel arcs allowed) are searched for in random small targets, half
of them built around a planted copy of the source.  On every instance
each certificate must pass ``verify_embedding``, the trace must not
change the outcome, and ``mode="first"`` must return the first
certificate of ``mode="all"``.  On the tiny instances the certificates
must be exactly those of a brute-force enumerator written here from
the definition, which shares no code with the search.

The routes the search enumerates for each (start, goal, length) key
must be, in order, the chains ``walks`` lists that pass through no node
twice and through neither end.

The root symmetry's orbit representatives are checked against the
former implementation, which enumerated the whole generated group.
"""

import itertools
from collections import Counter
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from braidcat.embed import (  # noqa: E402
    Embedding,
    _Search,
    find_embeddings,
    orbit_representatives,
    verify_embedding,
)
from braidcat.metric_graph import MetricGraph  # noqa: E402

F = Fraction

lengths = st.sampled_from([F(1, 2), F(1), F(3, 2)])

# Hand-made instances the random draws rarely reach.  Two source loops
# on one node, with target loops to carry them in either direction.
TWO_LOOPS = (
    MetricGraph(("s0",), (("s0", "s0", F(1)), ("s0", "s0", F(1)))),
    MetricGraph(
        ("t0", "t1"),
        (("t0", "t0", F(1)), ("t0", "t1", F(1, 2)), ("t1", "t0", F(1, 2)), ("t0", "t0", F(1))),
    ),
)
# Three arcs from P to Q, and three target paths whose only spare
# middle node M both indirect ones would have to share.
SHARED_MIDDLE = (
    MetricGraph(("P", "Q"), (("P", "Q", F(1)),) * 3),
    MetricGraph(
        ("P", "Q", "M"),
        (("P", "M", F(1, 2)), ("M", "Q", F(1, 2))) * 2 + (("P", "Q", F(1)),),
    ),
)
# The third path of length 3/2 from P to Q runs round a loop at M, so
# it passes through M twice and is not embedded.
LOOP_IN_THE_MIDDLE = (
    MetricGraph(("P", "Q"), (("P", "Q", F(3, 2)),) * 3),
    MetricGraph(
        ("P", "Q", "M"),
        (("P", "M", F(1, 2)), ("M", "M", F(1, 2)), ("M", "Q", F(1, 2)))
        + (("P", "Q", F(3, 2)),) * 2,
    ),
)

# Three loops at one node would carry the arcs of a theta graph if both
# of its nodes could land on that one node.
ONE_NODE = (
    MetricGraph(("P", "Q"), (("P", "Q", F(1)),) * 3),
    MetricGraph(("T",), (("T", "T", F(1)),) * 3),
)


def hand_made(test):
    for instance in (TWO_LOOPS, SHARED_MIDDLE, LOOP_IN_THE_MIDDLE, ONE_NODE):
        test = example(instance)(test)
    return test


@st.composite
def sources(draw):
    """A graph whose every node has degree at least three."""
    nodes = tuple(f"s{i}" for i in range(draw(st.integers(1, 3))))
    end = st.sampled_from(nodes)
    arcs = draw(st.lists(st.tuples(end, end, lengths), max_size=3))
    degree = Counter(n for u, v, _ in arcs for n in (u, v))
    for node in nodes:
        while degree[node] < 3:
            other = draw(st.sampled_from([n for n in nodes if n != node] or [node]))
            arcs.append((node, other, draw(lengths)))
            degree[node] += 1
            degree[other] += 1
    return MetricGraph(nodes, tuple(arcs))


@st.composite
def instances(draw, max_target_arcs=6):
    """A source and a target: either random, or the source with some
    arcs halved through a new node and a few decoy arcs added."""
    source = draw(sources())
    if draw(st.booleans()):
        names = {n: f"t{i}" for i, n in enumerate(source.nodes)}
        nodes, arcs = list(names.values()), []
        for k, (u, v, length) in enumerate(source.arcs):
            if draw(st.booleans()):
                nodes.append(f"m{k}")
                arcs += [(names[u], f"m{k}", length / 2), (f"m{k}", names[v], length / 2)]
            else:
                arcs.append((names[u], names[v], length))
        end = st.sampled_from(nodes)
        arcs += draw(st.lists(st.tuples(end, end, lengths), max_size=2))
    else:
        nodes = [f"t{i}" for i in range(draw(st.integers(1, 4)))]
        end = st.sampled_from(nodes)
        arcs = draw(st.lists(st.tuples(end, end, lengths), max_size=max_target_arcs))
    return source, MetricGraph(tuple(nodes), tuple(arcs))


def walks(target, start, goal, length):
    """Every chain of darts from start to goal of exactly this length
    that crosses no arc twice; a dart is (arc index, 0 forwards or 1
    backwards)."""
    found = []

    def extend(at, darts, left):
        crossed = {a for a, _ in darts}
        for i, (u, v, arc_length) in enumerate(target.arcs):
            if i in crossed or at not in (u, v) or arc_length > left:
                continue
            for direction, (tail, head) in enumerate(((u, v), (v, u))):
                if tail != at:
                    continue
                chain = darts + ((i, direction),)
                if arc_length == left:
                    if head == goal:
                        found.append(chain)
                else:
                    extend(head, chain, left - arc_length)

    extend(start, (), length)
    return found


def brute_force(source, target):
    """Every locally isometric embedding, straight from the definition:
    an injective node map and one length-preserving chain per source
    arc, where no target arc is crossed twice, no node inside a chain is
    an image or inside a chain twice, and the directions leaving each
    image are distinct."""
    found = set()
    for images in itertools.permutations(target.nodes, len(source.nodes)):
        image = dict(zip(source.nodes, images))
        options = [walks(target, image[u], image[v], length) for u, v, length in source.arcs]
        for chains in itertools.product(*options):
            crossed = [a for chain in chains for a, _ in chain]
            inside = [_head(target, d) for chain in chains for d in chain[:-1]]
            leaving = [
                (image[node], dart)
                for (u, v, _), chain in zip(source.arcs, chains)
                for node, dart in ((u, chain[0]), (v, (chain[-1][0], 1 - chain[-1][1])))
            ]
            if (
                len(set(crossed)) == len(crossed)
                and len(set(inside)) == len(inside)
                and not set(inside) & set(images)
                and len(set(leaving)) == len(leaving)
            ):
                found.add(
                    Embedding(
                        node_images=tuple(sorted(image.items())),
                        routes=tuple(enumerate(chains)),
                    )
                )
    return found


def _head(target, dart):
    u, v, _ = target.arcs[dart[0]]
    return v if dart[1] == 0 else u


@given(instances(max_target_arcs=5))
@hand_made
def test_certificates_are_the_brute_force_embeddings(instance):
    source, target = instance
    certificates = find_embeddings(source, target, mode="all").certificates
    assert len(set(certificates)) == len(certificates)
    assert set(certificates) == brute_force(source, target)


@given(instances())
@hand_made
def test_search_agrees_with_verifier_trace_and_first_mode(instance):
    source, target = instance
    everything = find_embeddings(source, target, mode="all")
    for certificate in everything.certificates:
        assert all(ok for _, ok in verify_embedding(source, target, certificate))
    traced = find_embeddings(source, target, mode="all", with_trace=True)
    assert everything.trace is None and traced.trace is not None
    assert traced.certificates == everything.certificates
    assert traced.prunes == everything.prunes
    assert traced.nodes_explored == everything.nodes_explored
    first = find_embeddings(source, target, mode="first")
    assert first.certificates == everything.certificates[:1]


@given(instances())
@hand_made
def test_route_enumeration_is_the_embedded_walks(instance):
    """Each ordered pair of target nodes, and each length in the search's
    unit 1/L up to 2, past the longest arc a source is drawn with."""
    source, target = instance
    search = _Search(source, target, "all", [], False)
    most = search._scaled(F(2))
    for start, goal in itertools.product(target.nodes, repeat=2):
        for n in range(1, most + 1):
            embedded = []
            for chain in walks(target, start, goal, F(n, search.scale)):
                inner = [_head(target, d) for d in chain[:-1]]
                if len(set(inner)) == len(inner) and not {start, goal} & set(inner):
                    embedded.append(chain)
            assert [darts for darts, _, _ in search._embedded_paths(start, goal, n)] == embedded


# -- orbit representatives ----------------------------------------------


def group_orbit_representatives(graph, automorphisms):
    """The reference: enumerate the generated group as sorted tuples,
    then take the least node of each orbit."""
    identity = {n: n for n in graph.nodes}
    group = {tuple(sorted(identity.items()))}
    frontier = [identity]
    while frontier:
        g = frontier.pop()
        for h in automorphisms:
            composed = {n: h[g[n]] for n in graph.nodes}
            key = tuple(sorted(composed.items()))
            if key not in group:
                group.add(key)
                frontier.append(composed)
    reps = []
    seen = set()
    for node in sorted(graph.nodes):
        if node not in seen:
            reps.append(node)
            for perm in group:
                seen.add(dict(perm)[node])
    return reps


@st.composite
def symmetric_graphs(draw):
    """A graph on at most six nodes and up to three permutations of its
    nodes that are automorphisms: random arcs, closed under the maps."""
    nodes = [f"n{i}" for i in range(draw(st.integers(1, 6)))]
    maps = [
        dict(zip(nodes, draw(st.permutations(nodes))))
        for _ in range(draw(st.integers(0, 3)))
    ]
    pick = st.sampled_from(nodes)
    frontier = draw(st.lists(st.tuples(pick, pick, lengths), max_size=4))
    arcs = set()
    while frontier:
        u, v, length = frontier.pop()
        arc = (min(u, v), max(u, v), length)
        if arc not in arcs:
            arcs.add(arc)
            frontier.extend((m[u], m[v], length) for m in maps)
    return MetricGraph(tuple(nodes), tuple(sorted(arcs))), maps


@given(symmetric_graphs())
def test_orbit_representatives_match_the_group_enumeration(case):
    graph, maps = case
    assert orbit_representatives(graph, maps) == group_orbit_representatives(graph, maps)
