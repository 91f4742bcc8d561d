import inspect
import os
import random
import sys
import time
from fractions import Fraction

import pytest

from braidcat import fixtures
from braidcat.complexes import X1BAR_SYMMETRY, vertex_link, x1bar, ybar1
from braidcat.embed import (
    Embedding,
    certificates_total,
    find_embeddings,
    orbit_representatives,
    verify_embedding,
)
from braidcat.metric_graph import MetricGraph, brady_link, parse_length

SEED = int(os.environ.get("GGT_SEED", "17"))

F = Fraction


def smoothed_link():
    return vertex_link(x1bar(), "o").smooth()


def link_symmetry(graph):
    return {n: X1BAR_SYMMETRY[n[:-1]] + n[-1] for n in graph.nodes}


def theta(length=F(1)):
    return MetricGraph(("P", "Q"), (("P", "Q", length),) * 3)


def two_thetas():
    """Two theta components: no route joins a node of one to the other."""
    return MetricGraph(("P", "Q", "R", "S"), (("P", "Q", F(1)),) * 3 + (("R", "S", F(1)),) * 3)


def subdivided_theta(length):
    """The theta of three arcs of the given whole length, cut into unit arcs."""
    nodes, arcs = ["P", "Q"], []
    for k in range(3):
        path = ["P", *(f"m{k}_{j}" for j in range(1, length)), "Q"]
        nodes += path[1:-1]
        arcs += [(u, v, F(1)) for u, v in zip(path, path[1:])]
    return MetricGraph(tuple(nodes), tuple(arcs))


def distance_prunes_in(trace):
    """The distance prunes of a decision tree, walked in search order:
    (source distance, target distance) texts -> (count, first prune)."""
    stats = {}

    def walk(node):
        prune = node.get("prune")
        if prune and prune["reason"] == "distance":
            key = (prune["source_distance"], prune["target_distance"])
            count, first = stats.get(key, (0, prune))
            stats[key] = (count + 1, first)
        for child in node.get("children", []):
            walk(child)

    walk(trace)
    return stats


# -- verifier ------------------------------------------------------------


def identity_theta_embedding():
    return Embedding(
        node_images=(("P", "P"), ("Q", "Q")),
        routes=((0, ((0, 0),)), (1, ((1, 0),)), (2, ((2, 0),))),
    )


def test_verifier_accepts_identity():
    g = theta()
    assert all(ok for _, ok in verify_embedding(g, g, identity_theta_embedding()))


def test_verifier_rejects_missing_route():
    g = theta()
    broken = Embedding(
        node_images=(("P", "P"), ("Q", "Q")),
        routes=((0, ((0, 0),)), (1, ((1, 0),))),
    )
    failed = [name for name, ok in verify_embedding(g, g, broken) if not ok]
    assert failed == ["every-arc-routed"]


def test_verifier_rejects_non_injective_images():
    g = theta()
    broken = Embedding(
        node_images=(("P", "P"), ("Q", "P")),
        routes=identity_theta_embedding().routes,
    )
    assert not verify_embedding(g, g, broken)[0][1]


def test_verifier_rejects_reused_arc():
    g = theta()
    broken = Embedding(
        node_images=(("P", "P"), ("Q", "Q")),
        routes=((0, ((0, 0),)), (1, ((0, 0),)), (2, ((2, 0),))),
    )
    failures = dict(verify_embedding(g, g, broken))
    assert not failures["target-arcs-used-at-most-once"]


def test_verifier_rejects_wrong_length():
    src = theta(F(1))
    tgt = theta(F(2, 3))
    broken = identity_theta_embedding()
    failures = dict(verify_embedding(src, tgt, broken))
    assert not failures["routes-preserve-length"]


def test_verifier_rejects_broken_chain():
    src = theta()
    tgt = MetricGraph(
        ("P", "Q", "M"),
        (
            ("P", "M", F(1, 2)),
            ("M", "Q", F(1, 2)),
            ("P", "Q", F(1)),
            ("P", "Q", F(1)),
        ),
    )
    good = Embedding(
        node_images=(("P", "P"), ("Q", "Q")),
        routes=((0, ((0, 0), (1, 0))), (1, ((2, 0),)), (2, ((3, 0),))),
    )
    assert all(ok for _, ok in verify_embedding(src, tgt, good))
    shuffled = Embedding(
        node_images=good.node_images,
        routes=((0, ((1, 0), (0, 0))), (1, ((2, 0),)), (2, ((3, 0),))),
    )
    failures = dict(verify_embedding(src, tgt, shuffled))
    assert not failures["routes-connect-endpoint-images"]


def test_verifier_rejects_interior_collision():
    src = MetricGraph(
        ("P", "Q"),
        (("P", "Q", F(1)), ("P", "Q", F(1)), ("P", "Q", F(1)), ("P", "Q", F(1))),
    )
    tgt = MetricGraph(
        ("P", "Q", "M"),
        (
            ("P", "M", F(1, 2)),
            ("M", "Q", F(1, 2)),
            ("P", "M", F(1, 2)),
            ("M", "Q", F(1, 2)),
            ("P", "Q", F(1)),
            ("P", "Q", F(1)),
        ),
    )
    collide = Embedding(
        node_images=(("P", "P"), ("Q", "Q")),
        routes=(
            (0, ((0, 0), (1, 0))),
            (1, ((2, 0), (3, 0))),
            (2, ((4, 0),)),
            (3, ((5, 0),)),
        ),
    )
    failures = dict(verify_embedding(src, tgt, collide))
    assert not failures["route-interiors-disjoint-from-everything"]


# -- search controls -----------------------------------------------------


def test_identity_control():
    g = brady_link()
    out = find_embeddings(g, g, mode="first")
    assert out.found
    emb = out.certificates[0]
    assert all(ok for _, ok in verify_embedding(g, g, emb))
    assert dict(emb.node_images) == {n: n for n in g.nodes}


def test_single_wing_link_embeds():
    src = vertex_link(ybar1(), "o").smooth()
    tgt = smoothed_link()
    out = find_embeddings(src, tgt, mode="all")
    assert out.found
    assert len(out.certificates) == 432
    for emb in out.certificates[::37]:
        assert all(ok for _, ok in verify_embedding(src, tgt, emb))


def test_cube_does_not_embed_in_cubic_link():
    # Negative control: the cube graph has girth 4*pi/3 with unit-third
    # arcs; its image would need a cycle shorter than 2*pi.
    nodes = tuple(f"c{i}" for i in range(8))
    arcs = []
    for i in range(4):
        arcs.append((nodes[i], nodes[(i + 1) % 4], F(1, 3)))
        arcs.append((nodes[i + 4], nodes[(i + 1) % 4 + 4], F(1, 3)))
        arcs.append((nodes[i], nodes[i + 4], F(1, 3)))
    cube = MetricGraph(nodes, tuple(arcs))
    out = find_embeddings(cube, smoothed_link(), mode="first")
    assert not out.found


# -- the main search -----------------------------------------------------


def test_brady_link_embeds_in_smoothed_link():
    """The exhaustive search, restricted at the root by the wing
    symmetry, finds embeddings of the eight-node cubic link; every
    certificate passes the independent verifier."""
    src = brady_link()
    tgt = smoothed_link()
    out = find_embeddings(src, tgt, mode="all", automorphisms=[link_symmetry(tgt)])
    assert len(out.certificates) == 32
    for emb in out.certificates:
        assert all(ok for _, ok in verify_embedding(src, tgt, emb))


def test_brady_search_full_count_matches_orbit_count():
    src = brady_link()
    tgt = smoothed_link()
    symmetry = [link_symmetry(tgt)]
    reduced = find_embeddings(src, tgt, mode="all", automorphisms=symmetry)
    full = find_embeddings(src, tgt, mode="all")
    assert len(full.certificates) == 96  # 32 root-orbit representatives times 3
    assert certificates_total(src, reduced.certificates, symmetry) == 96
    for emb in full.certificates[::11]:
        assert all(ok for _, ok in verify_embedding(src, tgt, emb))


def test_wing_search_full_count_matches_orbit_count():
    src = vertex_link(ybar1(), "o").smooth()
    tgt = smoothed_link()
    symmetry = [link_symmetry(tgt)]
    reduced = find_embeddings(src, tgt, mode="all", automorphisms=symmetry)
    full = find_embeddings(src, tgt, mode="all")
    assert (len(reduced.certificates), len(full.certificates)) == (144, 432)
    assert certificates_total(src, reduced.certificates, symmetry) == 432
    # both nodes have degree three, so the root is t+, the least name, and
    # only its images are restricted to orbit representatives
    reps = set(orbit_representatives(tgt, symmetry))
    assert {dict(c.node_images)["t+"] for c in reduced.certificates} <= reps
    assert not {dict(c.node_images)["t-"] for c in reduced.certificates} <= reps


def test_known_certificate_is_found():
    src = brady_link()
    tgt = smoothed_link()
    out = find_embeddings(src, tgt, mode="all", automorphisms=[link_symmetry(tgt)])
    expected = {
        "v1": "t1+", "v2": "e+", "v3": "a-", "v4": "t1-",
        "v5": "e-", "v6": "t2-", "v7": "B^-", "v8": "a+",
    }
    assert any(dict(emb.node_images) == expected for emb in out.certificates)


# -- automorphisms from the search ----------------------------------------


def self_maps(graph):
    """The node maps of every embedding of a graph into itself."""
    return [dict(c.node_images) for c in find_embeddings(graph, graph, mode="all").certificates]


def test_brady_link_self_maps_are_the_dihedral_symmetries():
    g = brady_link()
    # walk the 8-cycle of pi/3 arcs; its symmetries turn it by k and may reflect it
    ring = {n: [] for n in g.nodes}
    for u, v, length in g.arcs:
        if length == F(1, 3):
            ring[u].append(v)
            ring[v].append(u)
    cycle = [g.nodes[0], ring[g.nodes[0]][0]]
    while len(cycle) < 8:
        cycle.append(next(n for n in ring[cycle[-1]] if n != cycle[-2]))
    dihedral = {
        frozenset((cycle[i], cycle[(sign * i + k) % 8]) for i in range(8))
        for k in range(8)
        for sign in (1, -1)
    }
    assert len(dihedral) == 16
    maps = self_maps(g)
    assert len(maps) == 16
    assert {frozenset(m.items()) for m in maps} == dihedral


@pytest.mark.parametrize("name", ["ybar1-link-smooth", "x1bar-link-smooth"])
def test_smoothed_link_self_maps_are_automorphisms(name):
    g = fixtures.graph_fixture(name)
    maps = self_maps(g)
    assert len(maps) == 12
    assert all(g.is_automorphism(m) for m in maps)
    if name == "x1bar-link-smooth":
        assert fixtures.link_symmetry(g) in maps


def test_trace_contains_distance_obstruction():
    src = brady_link()
    tgt = smoothed_link()
    out = find_embeddings(
        src, tgt, mode="all", automorphisms=[link_symmetry(tgt)], with_trace=True
    )
    hits = distance_prunes_in(out.trace)
    assert any(parse_length(s) == F(1, 3) and parse_length(d) >= F(2, 3) for s, d in hits)
    assert out.prunes["distance"] == sum(count for count, _ in hits.values())
    assert out.trace["decision"]["kind"] == "root"


def test_first_mode_stops_early():
    src = brady_link()
    tgt = smoothed_link()
    first = find_embeddings(src, tgt, mode="first")
    everything = find_embeddings(src, tgt, mode="all")
    assert len(first.certificates) == 1
    assert first.nodes_explored < everything.nodes_explored


def test_routes_longer_than_the_recursion_limit():
    """Routes are enumerated on a stack of their own, so three routes of
    1,100 arcs each need no recursion: a recursive enumeration raised
    RecursionError here under the default limit of 1,000."""
    start = time.process_time()
    src, tgt = theta(F(1100)), subdivided_theta(1100)
    out = find_embeddings(src, tgt, mode="first")
    assert out.found
    assert all(ok for _, ok in verify_embedding(src, tgt, out.certificates[0]))
    assert time.process_time() - start < 2.0


def prism(rungs):
    """Two cycles of unit arcs joined by rungs: a cubic graph whose search
    places every node and routes every arc along one branch."""
    nodes = [f"{side}{i}" for i in range(rungs) for side in "ab"]
    arcs = []
    for i in range(rungs):
        j = (i + 1) % rungs
        arcs += [(f"a{i}", f"a{j}", F(1)), (f"b{i}", f"b{j}", F(1)), (f"a{i}", f"b{i}", F(1))]
    return MetricGraph(tuple(nodes), tuple(arcs))


@pytest.mark.parametrize("mode", ["first", "all"])
@pytest.mark.parametrize("with_trace", [False, True])
def test_search_deeper_than_the_recursion_limit(mode, with_trace):
    """The search keeps its steps on one list, so 20 nodes and 30 arcs
    find the same outcome under a limit of 40 frames above the caller's
    stack as under the default.  A deep trace's == and repr recurse, so
    the outcomes are compared after the limit is restored."""
    g = prism(10)
    expected = find_embeddings(g, g, mode=mode, with_trace=with_trace)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 40)
    try:
        out = find_embeddings(g, g, mode=mode, with_trace=with_trace)
    finally:
        sys.setrecursionlimit(limit)
    assert out == expected
    if mode == "all":
        assert (len(out.certificates), out.nodes_explored) == (40, 88080)
        assert out.prunes == {"target-node-used": 31380, "distance": 47640}


def test_route_enumeration_is_linear_in_route_length():
    """The walk changes one list of darts and two sets in place, so a
    route of 4,400 arcs costs no tuple copies or scans per step: a walk
    that copied each partial path took about 2.5 s of CPU on it."""
    start = time.process_time()
    out = find_embeddings(theta(F(4400)), subdivided_theta(4400), mode="first")
    assert out.found
    assert time.process_time() - start < 1.5


def _audit_searches():
    """The four searches the audit runs, as find_embeddings arguments."""
    g, tgt = brady_link(), smoothed_link()
    wing = vertex_link(ybar1(), "o").smooth()
    return [
        (g, g, "first", None),
        (wing, tgt, "all", None),
        (g, tgt, "all", [link_symmetry(tgt)]),
        (g, tgt, "all", None),
    ]


def _planted_searches(count=30):
    return [
        (*planted_instance(random.Random(SEED + i)), "first" if i % 2 else "all", None)
        for i in range(count)
    ]


def _case_id(i):
    return f"audit-{i}" if i < 4 else f"planted-{i - 4}" if i < 34 else "two-thetas"


@pytest.mark.parametrize("case", range(4 + 30 + 1), ids=_case_id)
def test_trace_does_not_change_the_search(case):
    cases = _audit_searches() + _planted_searches() + [(theta(), two_thetas(), "all", None)]
    src, tgt, mode, automorphisms = cases[case]
    runs = [
        find_embeddings(src, tgt, mode=mode, automorphisms=automorphisms, with_trace=traced)
        for traced in (False, True)
    ]
    untraced, traced = runs
    assert untraced.trace is None and traced.trace is not None
    assert untraced.certificates == traced.certificates
    assert untraced.prunes == traced.prunes
    assert untraced.nodes_explored == traced.nodes_explored
    # the untraced distance-prune stats are what a walk of the tree finds
    assert untraced.distance_prunes == traced.distance_prunes
    counts = [count for count, _ in untraced.distance_prunes.values()]
    assert sum(counts) == untraced.prunes["distance"]
    walked = distance_prunes_in(traced.trace)
    assert list(untraced.distance_prunes.items()) == list(walked.items())
    # each node's keys, in the order the JSON writes them: its decision first,
    # then at most one of a prune, a certificate's mark and its children
    stack = [traced.trace]
    while stack:
        node = stack.pop()
        keys = list(node)
        assert keys[0] == "decision" and len(keys) <= 2
        assert set(keys[1:]) <= {"prune", "complete", "children"}
        stack.extend(node.get("children", []))


# The work of the audit's four searches, in _audit_searches order: any
# change to the search that alters what it explores shows up here.
AUDIT_SEARCH_WORK = [
    (48, 1, {"target-node-used": 28}),
    (1122, 432, {"injectivity-clash": 12, "length-mismatch": 90, "target-node-used": 12}),
    (2366, 32, {"distance": 870, "target-node-used": 928}),
    (7098, 96, {"distance": 2610, "target-node-used": 2784}),
]


@pytest.mark.parametrize(
    "case", range(4), ids=["identity", "wing", "main-symmetry", "main-no-symmetry"]
)
def test_audit_search_work_is_pinned(case):
    src, tgt, mode, automorphisms = _audit_searches()[case]
    explored, certificates, prunes = AUDIT_SEARCH_WORK[case]
    out = find_embeddings(src, tgt, mode=mode, automorphisms=automorphisms)
    assert out.nodes_explored == explored
    assert len(out.certificates) == certificates
    assert dict(out.prunes) == prunes


def test_distance_rows_are_made_when_a_node_is_first_placed(monkeypatch):
    """Each search makes the rows of the two source nodes and of their two
    images only, not one row per node of both graphs (2 + 179)."""
    src, tgt = theta(F(60)), subdivided_theta(60)
    assert len(tgt.nodes) == 179
    calls = []
    real = MetricGraph.distances_from

    def distances_from(graph, node):
        calls.append(node)
        return real(graph, node)

    monkeypatch.setattr(MetricGraph, "distances_from", distances_from)
    work = {
        "all": (12, 567, {"degree": 531, "target-node-used": 2}),
        "first": (1, 6, {"target-node-used": 1}),
    }
    for mode, (certificates, explored, prunes) in work.items():
        calls.clear()
        out = find_embeddings(src, tgt, mode=mode)
        assert len(calls) == 4
        assert len(out.certificates) == certificates
        assert out.nodes_explored == explored
        assert dict(out.prunes) == prunes


# -- pruning and error behaviour ----------------------------------------


def test_unreachable_target_pair_is_a_distance_prune():
    out = find_embeddings(theta(), two_thetas(), mode="all", with_trace=True)
    assert len(out.certificates) == 4 * 6  # four node maps, six ways to route
    hits = distance_prunes_in(out.trace)
    assert list(hits) == [("1/1", None)]
    assert out.prunes["distance"] == hits["1/1", None][0] > 0
    assert list(out.distance_prunes) == [("1/1", None)]


def test_degree_prune_reason():
    src = theta()
    path = MetricGraph(("P", "Q"), (("P", "Q", F(1)),))
    out = find_embeddings(src, path, mode="all", with_trace=True)
    assert not out.found
    assert out.prunes["degree"] > 0


def test_length_mismatch_prune_reason():
    src = theta(F(1))
    tgt = theta(F(2, 3))
    out = find_embeddings(src, tgt, mode="all")
    assert not out.found
    assert out.prunes["length-mismatch"] > 0


def test_injectivity_prune_reason():
    src = theta()
    # Exactly one route of length one exists between the only two nodes
    # of degree three or more, so the three source arcs fight over it.
    tgt = MetricGraph(
        ("P", "Q", "M"),
        (
            ("P", "M", F(1, 2)),
            ("M", "Q", F(1, 2)),
            ("P", "M", F(1, 4)),
            ("P", "M", F(1, 4)),
            ("M", "Q", F(1, 4)),
            ("M", "Q", F(1, 4)),
        ),
    )
    out = find_embeddings(src, tgt, mode="all")
    assert not out.found
    assert out.prunes["injectivity-clash"] > 0


def test_source_with_low_degree_rejected():
    path = MetricGraph(("P", "Q"), (("P", "Q", F(1)),))
    with pytest.raises(ValueError):
        find_embeddings(path, brady_link())
    with pytest.raises(ValueError):
        find_embeddings(brady_link(), brady_link(), mode="some")


def test_orbit_representatives():
    g = brady_link()
    rotate = {f"v{i}": f"v{i % 8 + 1}" for i in range(1, 9)}
    assert orbit_representatives(g, [rotate]) == ["v1"]
    assert orbit_representatives(g, []) == sorted(g.nodes)
    link = smoothed_link()
    assert orbit_representatives(link, [link_symmetry(link)]) == ["B^+", "B^-", "t1+", "t1-"]
    with pytest.raises(ValueError):
        orbit_representatives(g, [{n: "v1" for n in g.nodes}])


def test_bad_automorphism_rejected_by_search():
    g = brady_link()
    swap = {n: n for n in g.nodes} | {"v1": "v2", "v2": "v1"}
    with pytest.raises(ValueError):
        find_embeddings(g, g, automorphisms=[swap])


# -- randomized planted recovery ----------------------------------------


def planted_instance(rng):
    """A source of minimum degree three, hidden in a larger target by
    subdividing arcs and sprinkling decoy material around it."""
    n = rng.choice((4, 6, 8))
    names = [f"s{i}" for i in range(n)]
    arcs = []
    for i in range(n):
        arcs.append((names[i], names[(i + 1) % n], F(rng.randint(1, 3), 3)))
    half = n // 2
    for i in range(half):
        arcs.append((names[i], names[i + half], F(rng.randint(1, 3), 3)))
    source = MetricGraph(tuple(names), tuple(arcs))

    tnodes = [f"t{i}" for i in range(n)]
    tarcs = []
    extra = 0
    for u, v, length in arcs:
        tu, tv = tnodes[names.index(u)], tnodes[names.index(v)]
        if rng.random() < 0.5:
            mid = f"m{extra}"
            extra += 1
            tnodes.append(mid)
            tarcs.append((tu, mid, length / 2))
            tarcs.append((mid, tv, length / 2))
        else:
            tarcs.append((tu, tv, length))
    for _ in range(rng.randint(0, 4)):
        decoy = f"d{extra}"
        extra += 1
        tnodes.append(decoy)
        tarcs.append((decoy, rng.choice(tnodes[:-1]), F(rng.randint(1, 4), 3)))
    return source, MetricGraph(tuple(tnodes), tuple(tarcs))


def test_planted_recovery_hundred_instances():
    for i in range(100):
        rng = random.Random(SEED + i)
        src, tgt = planted_instance(rng)
        out = find_embeddings(src, tgt, mode="first")
        assert out.found, f"planted instance {i} was not recovered"
        assert all(ok for _, ok in verify_embedding(src, tgt, out.certificates[0]))
