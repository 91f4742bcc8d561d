"""Locally isometric embeddings of one metric graph into another.

The source must have every node of degree at least three (smooth a
graph first if it does not), which forces each source node to land on
a target node: a point in the interior of an arc has only two
directions to offer.  An embedding is then

  * an injective map from source nodes to target nodes, and
  * for each source arc, a route: a chain of whole target arcs of the
    same total length between the images of its endpoints,

subject to injectivity of the whole picture: no target arc appears in
two routes or twice in one, the nodes interior to a route are not
images of source nodes and belong to no other route, and at a shared
endpoint the initial directions of the incident routes are pairwise
distinct.  The last condition is exactly local injectivity of the
induced map on directions, so an accepted certificate is an isometry
onto its image that is locally injective everywhere, and rejecting
every candidate refutes such an embedding outright.

The search assigns images to source nodes in order of decreasing
degree, routing an arc as soon as both of its ends have landed, and
prunes by three sound tests: a target node of smaller degree can never
host a source node, images already used are unavailable, and distances
can only shrink under the map, never grow.  On request the whole
decision tree is retained, with every pruned branch carrying the
reason it died; failed routing attempts are classified by retrying
with constraints off one class at a time (no path of the right length
at all, or paths blocked by arc and node reuse, or paths blocked only
by the direction condition).

Arithmetic: the search runs on integers.  Every arc length of both
graphs, and every distance between their nodes, is a multiple of 1/L,
where L is the least common multiple of the arc lengths' denominators,
so routing budgets and distance comparisons are exact integer
operations on lengths measured in units of 1/L.  Each graph's distance
table comes from one ``distances_from`` search per node, n searches
for n nodes.  Lengths turn back into fractions only where they are
reported.  The decision tree is built only when a trace is requested;
without one the search keeps just its counters (nodes explored,
prunes by reason), which are the same either way.

Root symmetry: the image of the first source node may be restricted to
one representative per orbit of a supplied group of target
automorphisms.  Composing an embedding with a target automorphism is
again an embedding, so existence and refutation are unaffected; the
certificate list is then complete up to that symmetry, and the trace
records the restriction.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter
from fractions import Fraction

from .metric_graph import MetricGraph, format_length

__all__ = [
    "Embedding",
    "SearchNode",
    "SearchOutcome",
    "find_embeddings",
    "verify_embedding",
    "orbit_representatives",
]

# A dart is an oriented crossing of an arc: (arc index, 0) runs from
# the arc's first end to its second, (arc index, 1) the other way.
Dart = tuple[int, int]


def _dart_maps(graph: MetricGraph):
    by_node: dict[str, list[Dart]] = {n: [] for n in graph.nodes}
    head: dict[Dart, str] = {}
    tail: dict[Dart, str] = {}
    for i, (u, v, _) in enumerate(graph.arcs):
        by_node[u].append((i, 0))
        by_node[v].append((i, 1))
        tail[(i, 0)], head[(i, 0)] = u, v
        tail[(i, 1)], head[(i, 1)] = v, u
    return by_node, tail, head


def _reverse(dart: Dart) -> Dart:
    return (dart[0], 1 - dart[1])


@dataclasses.dataclass(frozen=True)
class Embedding:
    """A certificate: node images plus one route of darts per source arc."""

    node_images: tuple[tuple[str, str], ...]
    routes: tuple[tuple[int, tuple[Dart, ...]], ...]

    def image_of(self, node: str) -> str:
        return dict(self.node_images)[node]

    def to_json_dict(self, source: MetricGraph, target: MetricGraph) -> dict:
        _, tail, head = _dart_maps(target)
        routes = []
        for arc_index, darts in self.routes:
            u, v, length = source.arcs[arc_index]
            routes.append(
                {
                    "source_arc": [u, v],
                    "length": format_length(length),
                    "path": [tail[darts[0]]] + [head[d] for d in darts],
                }
            )
        return {"node_images": dict(self.node_images), "routes": routes}


def verify_embedding(
    source: MetricGraph, target: MetricGraph, embedding: Embedding
) -> list[tuple[str, bool]]:
    """Re-check a certificate from its raw data, sharing nothing with
    the search.  Returns one (condition, holds) pair per condition."""
    images = dict(embedding.node_images)
    routes = dict(embedding.routes)
    by_node, tail, head = _dart_maps(target)
    checks: list[tuple[str, bool]] = []

    checks.append(
        (
            "node-map-total-injective",
            sorted(images) == sorted(source.nodes)
            and len(set(images.values())) == len(source.nodes)
            and all(t in target.nodes for t in images.values()),
        )
    )
    checks.append(("every-arc-routed", sorted(routes) == list(range(len(source.arcs)))))
    if not all(ok for _, ok in checks):
        return checks

    chains_ok = all(
        routes[i]
        and tail[routes[i][0]] == images[u]
        and head[routes[i][-1]] == images[v]
        and all(head[a] == tail[b] for a, b in zip(routes[i], routes[i][1:]))
        for i, (u, v, _) in enumerate(source.arcs)
    )
    checks.append(("routes-connect-endpoint-images", chains_ok))
    if not chains_ok:
        return checks

    checks.append(
        (
            "routes-preserve-length",
            all(
                sum(target.arcs[a][2] for a, _ in routes[i]) == length
                for i, (_, _, length) in enumerate(source.arcs)
            ),
        )
    )

    crossings = [a for darts in routes.values() for a, _ in darts]
    checks.append(("target-arcs-used-at-most-once", len(crossings) == len(set(crossings))))

    image_nodes = set(images.values())
    interiors: list[str] = []
    interior_ok = True
    for darts in routes.values():
        inner = [head[d] for d in darts[:-1]]
        interior_ok &= len(inner) == len(set(inner)) and not (set(inner) & image_nodes)
        interiors.extend(inner)
    checks.append(
        (
            "route-interiors-disjoint-from-everything",
            interior_ok and len(interiors) == len(set(interiors)),
        )
    )

    germs: dict[str, list[Dart]] = {}
    for i, (u, v, _) in enumerate(source.arcs):
        germs.setdefault(images[u], []).append(routes[i][0])
        germs.setdefault(images[v], []).append(_reverse(routes[i][-1]))
    checks.append(
        (
            "directions-at-images-distinct",
            all(len(d) == len(set(d)) for d in germs.values()),
        )
    )
    return checks


@dataclasses.dataclass
class SearchNode:
    """One decision in the search tree."""

    decision: dict
    children: list[SearchNode] = dataclasses.field(default_factory=list)
    prune: dict | None = None
    complete: bool = False

    def to_json_dict(self) -> dict:
        out: dict = {"decision": self.decision}
        if self.prune is not None:
            out["prune"] = self.prune
        if self.complete:
            out["complete"] = True
        if self.children:
            out["children"] = [c.to_json_dict() for c in self.children]
        return out


@dataclasses.dataclass
class SearchOutcome:
    certificates: list[Embedding]
    prunes: Counter
    nodes_explored: int
    trace: SearchNode | None

    @property
    def found(self) -> bool:
        return bool(self.certificates)


def orbit_representatives(
    graph: MetricGraph, automorphisms: list[dict[str, str]]
) -> list[str]:
    """Least-named node of each orbit under the generated group.  Every
    supplied map must actually be an automorphism."""
    for mapping in automorphisms:
        if not graph.is_automorphism(mapping):
            raise ValueError(f"not an automorphism of the target: {mapping}")
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
    seen: set[str] = set()
    for node in sorted(graph.nodes):
        if node not in seen:
            reps.append(node)
            for perm in group:
                seen.add(dict(perm)[node])
    return reps


def find_embeddings(
    source: MetricGraph,
    target: MetricGraph,
    mode: str = "all",
    automorphisms: list[dict[str, str]] | None = None,
    with_trace: bool = False,
) -> SearchOutcome:
    """Search for locally isometric embeddings of source into target.

    ``mode="first"`` stops at the first certificate, ``"all"`` collects
    every one (restricted at the root as described in the module
    docstring when automorphisms are supplied).
    """
    if mode not in ("all", "first"):
        raise ValueError(f"unknown mode {mode!r}")
    search = _Search(source, target, mode, automorphisms or [], with_trace)
    return search.run()


class _Search:
    def __init__(self, source, target, mode, automorphisms, with_trace):
        self.src_degree = source.degrees()
        bad = [n for n in source.nodes if self.src_degree[n] < 3]
        if bad:
            raise ValueError(
                f"source nodes {bad} have degree below three; smooth the graph first"
            )
        self.tgt_degree = target.degrees()
        self.src = source
        self.mode = mode
        self.with_trace = with_trace
        self.node_order = sorted(source.nodes, key=lambda n: (-self.src_degree[n], n))
        self.candidates = sorted(target.nodes)
        self.root_candidates = (
            orbit_representatives(target, automorphisms) if automorphisms else self.candidates
        )
        # ready[k]: the source arcs whose last end to land is node_order[k]
        position = {n: k for k, n in enumerate(self.node_order)}
        self.ready: list[list[int]] = [[] for _ in self.node_order]
        for i, (p, q, _) in enumerate(source.arcs):
            self.ready[max(position[p], position[q])].append(i)

        self.scale = math.lcm(*(length.denominator for *_, length in source.arcs + target.arcs))
        self.src_length = [self._scaled(length) for *_, length in source.arcs]
        by_node, self.tail, self.head = _dart_maps(target)
        # target node -> (dart, arc, scaled length, head) for each dart leaving it
        self.out: dict[str, list[tuple[Dart, int, int, str]]] = {
            node: [
                (dart, dart[0], self._scaled(target.arcs[dart[0]][2]), self.head[dart])
                for dart in sorted(darts)
            ]
            for node, darts in by_node.items()
        }
        self.src_dist = self._all_pairs(source)
        self.tgt_dist = self._all_pairs(target)

        self.images: dict[str, str] = {}
        self.taken: dict[str, str] = {}
        self.routes: dict[int, tuple[Dart, ...]] = {}
        self.used_arcs: set[int] = set()
        self.interior: set[str] = set()
        self.germs: dict[str, set[Dart]] = {n: set() for n in target.nodes}

        self.certificates: list[Embedding] = []
        self.prunes: Counter = Counter()
        self.nodes_explored = 0
        self.stop = False

    def _scaled(self, length: Fraction) -> int:
        return length.numerator * (self.scale // length.denominator)

    def _format(self, scaled: int | None) -> str | None:
        return None if scaled is None else format_length(Fraction(scaled, self.scale))

    def _all_pairs(self, graph: MetricGraph) -> dict[str, dict[str, int | None]]:
        """Scaled distances by source then target; None where unreachable."""
        table: dict[str, dict[str, int | None]] = {}
        for u in graph.nodes:
            reach = graph.distances_from(u)
            table[u] = {v: self._scaled(reach[v]) if v in reach else None for v in graph.nodes}
        return table

    def run(self) -> SearchOutcome:
        root = None
        if self.with_trace:
            root = SearchNode({"kind": "root", "root_candidates": list(self.root_candidates)})
        self._assign(0, root)
        return SearchOutcome(
            certificates=self.certificates,
            prunes=self.prunes,
            nodes_explored=self.nodes_explored,
            trace=root,
        )

    # The trace is built only when requested: without it every parent is
    # None, and the thunks that build decisions and prune details never run.

    def _child(self, parent: SearchNode | None, decision) -> SearchNode | None:
        self.nodes_explored += 1
        if parent is None:
            return None
        node = SearchNode(decision())
        parent.children.append(node)
        return node

    def _record_prune(self, node: SearchNode | None, reason: str, detail) -> None:
        self.prunes[reason] += 1
        if node is not None:
            node.prune = {"reason": reason, **detail()}

    def _arc_detail(self, arc_index: int) -> dict:
        u, v, length = self.src.arcs[arc_index]
        return {"source_arc": [u, v], "length": format_length(length)}

    def _assign(self, k: int, parent: SearchNode | None) -> None:
        if self.stop:
            return
        if k == len(self.node_order):
            certificate = Embedding(
                node_images=tuple(sorted(self.images.items())),
                routes=tuple(sorted(self.routes.items())),
            )
            self.certificates.append(certificate)
            if parent is not None:
                parent.complete = True
            if self.mode == "first":
                self.stop = True
            return
        u = self.node_order[k]
        candidates = self.root_candidates if k == 0 else self.candidates
        for t in candidates:
            node = self._child(parent, lambda: {"kind": "assign", "source": u, "target": t})
            prune = self._assignment_prune(u, t)
            if prune is not None:
                self._record_prune(node, *prune)
                continue
            self.images[u] = t
            self.taken[t] = u
            self._route_ready(self.ready[k], 0, k, node)
            del self.images[u]
            del self.taken[t]
            if self.stop:
                return

    def _assignment_prune(self, u: str, t: str):
        """Why t cannot host u, as (reason, detail thunk), or None."""
        if self.src_degree[u] > self.tgt_degree[t]:
            return "degree", lambda: {
                "source": u,
                "target": t,
                "source_degree": self.src_degree[u],
                "target_degree": self.tgt_degree[t],
            }
        if t in self.taken or t in self.interior:
            return "target-node-used", lambda: {"source": u, "target": t}
        src_row, tgt_row = self.src_dist[u], self.tgt_dist[t]
        for w, fw in self.images.items():
            s, d = src_row[w], tgt_row[fw]
            if s is not None and (d is None or d > s):
                return "distance", lambda: {
                    "source_pair": [u, w],
                    "target_pair": [t, fw],
                    "source_distance": self._format(s),
                    "target_distance": self._format(d),
                }
        return None

    def _route_ready(
        self, ready: list[int], i: int, k: int, parent: SearchNode | None
    ) -> None:
        if self.stop:
            return
        if i == len(ready):
            self._assign(k + 1, parent)
            return
        arc_index = ready[i]
        u, v, _ = self.src.arcs[arc_index]
        options = self._routes_for(arc_index, check_usage=True, check_germs=True)
        if not options:
            node = self._child(parent, lambda: {"kind": "route", **self._arc_detail(arc_index)})
            reason = self._classify_routing_failure(arc_index)
            self._record_prune(node, reason, lambda: self._arc_detail(arc_index))
            return
        for route in options:
            node = self._child(
                parent,
                lambda: {
                    "kind": "route",
                    **self._arc_detail(arc_index),
                    "path": [self.tail[route[0]]] + [self.head[d] for d in route],
                },
            )
            inner = [self.head[d] for d in route[:-1]]
            self.routes[arc_index] = route
            self.used_arcs.update(a for a, _ in route)
            self.interior.update(inner)
            self.germs[self.images[u]].add(route[0])
            self.germs[self.images[v]].add(_reverse(route[-1]))
            self._route_ready(ready, i + 1, k, node)
            self.germs[self.images[v]].discard(_reverse(route[-1]))
            self.germs[self.images[u]].discard(route[0])
            self.interior.difference_update(inner)
            self.used_arcs.difference_update(a for a, _ in route)
            del self.routes[arc_index]
            if self.stop:
                return

    def _classify_routing_failure(self, arc_index: int) -> str:
        if not self._routes_for(arc_index, check_usage=False, check_germs=False):
            return "length-mismatch"
        if not self._routes_for(arc_index, check_usage=True, check_germs=False):
            return "injectivity-clash"
        return "local-isometry-clash"

    def _routes_for(
        self, arc_index: int, check_usage: bool, check_germs: bool
    ) -> list[tuple[Dart, ...]]:
        """Every admissible route for one source arc, in dart order.

        A route may pass through target nodes, but only through ones
        not serving as anything else; its own endpoints and repeats of
        its own interior are never allowed, so routes are embedded
        paths (or an embedded loop when the source arc is a loop).
        """
        u, v, _ = self.src.arcs[arc_index]
        start, goal = self.images[u], self.images[v]
        out = self.out
        used_arcs = self.used_arcs if check_usage else ()
        taken = self.taken if check_usage else ()
        interior = self.interior if check_usage else ()
        start_germs = self.germs[start] if check_germs else ()
        goal_germs = self.germs[goal] if check_germs else ()
        found: list[tuple[Dart, ...]] = []
        # the route so far: its darts, their arcs, and the nodes inside it
        path: list[Dart] = []
        path_arcs: set[int] = set()
        inner: set[str] = set()

        def extend(at: str, remaining: int) -> None:
            for dart, arc, length, end in out[at]:
                if arc in path_arcs or arc in used_arcs:
                    continue
                if not path and dart in start_germs:
                    continue
                left = remaining - length
                if left < 0:
                    continue
                if left == 0:
                    if end == goal and _reverse(dart) not in goal_germs:
                        found.append((*path, dart))
                elif not (
                    end == start
                    or end == goal
                    or end in taken
                    or end in interior
                    or end in inner
                ):
                    path.append(dart)
                    path_arcs.add(arc)
                    inner.add(end)
                    extend(end, left)
                    inner.remove(end)
                    path_arcs.remove(arc)
                    path.pop()

        extend(start, self.src_length[arc_index])
        return found
