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

Root symmetry: the image of the first source node may be restricted to
one representative per orbit of a supplied group of target
automorphisms.  Composing an embedding with a target automorphism is
again an embedding, so existence and refutation are unaffected; the
certificate list is then complete up to that symmetry, and the trace
records the restriction.
"""

from __future__ import annotations

import dataclasses
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
        self.tgt = target
        self.mode = mode
        self.with_trace = with_trace
        self.node_order = sorted(source.nodes, key=lambda n: (-self.src_degree[n], n))
        self.root_candidates = (
            orbit_representatives(target, automorphisms)
            if automorphisms
            else sorted(target.nodes)
        )
        self.tgt_darts, self.tail, self.head = _dart_maps(target)
        for darts in self.tgt_darts.values():
            darts.sort()
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

    @staticmethod
    def _all_pairs(graph: MetricGraph) -> dict[tuple[str, str], Fraction]:
        return {
            (u, v): graph.distance(u, v) for u in graph.nodes for v in graph.nodes
        }

    def run(self) -> SearchOutcome:
        root = SearchNode(
            {"kind": "root", "root_candidates": list(self.root_candidates)}
        )
        self._assign(0, root)
        return SearchOutcome(
            certificates=self.certificates,
            prunes=self.prunes,
            nodes_explored=self.nodes_explored,
            trace=root if self.with_trace else None,
        )

    def _child(self, parent: SearchNode, decision: dict) -> SearchNode:
        self.nodes_explored += 1
        node = SearchNode(decision)
        if self.with_trace:
            parent.children.append(node)
        return node

    def _record_prune(self, node: SearchNode, prune: dict) -> None:
        self.prunes[prune["reason"]] += 1
        node.prune = prune

    def _assign(self, k: int, parent: SearchNode) -> None:
        if self.stop:
            return
        if k == len(self.node_order):
            certificate = Embedding(
                node_images=tuple(sorted(self.images.items())),
                routes=tuple(sorted(self.routes.items())),
            )
            self.certificates.append(certificate)
            parent.complete = True
            if self.mode == "first":
                self.stop = True
            return
        u = self.node_order[k]
        candidates = self.root_candidates if k == 0 else sorted(self.tgt.nodes)
        for t in candidates:
            node = self._child(parent, {"kind": "assign", "source": u, "target": t})
            prune = self._assignment_prune(u, t)
            if prune is not None:
                self._record_prune(node, prune)
                continue
            self.images[u] = t
            self.taken[t] = u
            ready = [
                i
                for i, (p, q, _) in enumerate(self.src.arcs)
                if i not in self.routes and p in self.images and q in self.images
            ]
            self._route_ready(ready, 0, k, node)
            del self.images[u]
            del self.taken[t]
            if self.stop:
                return

    def _assignment_prune(self, u: str, t: str) -> dict | None:
        if self.src_degree[u] > self.tgt_degree[t]:
            return {
                "reason": "degree",
                "source": u,
                "target": t,
                "source_degree": self.src_degree[u],
                "target_degree": self.tgt_degree[t],
            }
        if t in self.taken or t in self.interior:
            return {"reason": "target-node-used", "source": u, "target": t}
        for w, fw in self.images.items():
            if self.tgt_dist[(t, fw)] > self.src_dist[(u, w)]:
                return {
                    "reason": "distance",
                    "source_pair": [u, w],
                    "target_pair": [t, fw],
                    "source_distance": format_length(self.src_dist[(u, w)]),
                    "target_distance": format_length(self.tgt_dist[(t, fw)]),
                }
        return None

    def _route_ready(self, ready: list[int], i: int, k: int, parent: SearchNode) -> None:
        if self.stop:
            return
        if i == len(ready):
            self._assign(k + 1, parent)
            return
        arc_index = ready[i]
        u, v, length = self.src.arcs[arc_index]
        options = self._routes_for(arc_index, check_usage=True, check_germs=True)
        if not options:
            node = self._child(
                parent,
                {"kind": "route", "source_arc": [u, v], "length": format_length(length)},
            )
            self._record_prune(node, self._classify_routing_failure(arc_index))
            return
        for route in options:
            node = self._child(
                parent,
                {
                    "kind": "route",
                    "source_arc": [u, v],
                    "length": format_length(length),
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

    def _classify_routing_failure(self, arc_index: int) -> dict:
        u, v, length = self.src.arcs[arc_index]
        base = {"source_arc": [u, v], "length": format_length(length)}
        if not self._routes_for(arc_index, check_usage=False, check_germs=False):
            return {"reason": "length-mismatch", **base}
        if not self._routes_for(arc_index, check_usage=True, check_germs=False):
            return {"reason": "injectivity-clash", **base}
        return {"reason": "local-isometry-clash", **base}

    def _routes_for(
        self, arc_index: int, check_usage: bool, check_germs: bool
    ) -> list[tuple[Dart, ...]]:
        """Every admissible route for one source arc, in dart order.

        A route may pass through target nodes, but only through ones
        not serving as anything else; its own endpoints and repeats of
        its own interior are never allowed, so routes are embedded
        paths (or an embedded loop when the source arc is a loop).
        """
        u, v, length = self.src.arcs[arc_index]
        start, goal = self.images[u], self.images[v]
        found: list[tuple[Dart, ...]] = []

        def blocked_interior(node: str) -> bool:
            if node in (start, goal):
                return True
            if check_usage and (node in self.taken or node in self.interior):
                return True
            return False

        def extend(at: str, remaining: Fraction, path: list[Dart], inner: list[str]):
            for dart in self.tgt_darts[at]:
                arc, _ = dart
                if arc in (a for a, _ in path):
                    continue
                if check_usage and arc in self.used_arcs:
                    continue
                if not path and check_germs and dart in self.germs[start]:
                    continue
                left = remaining - self.tgt.arcs[arc][2]
                if left < 0:
                    continue
                end = self.head[dart]
                if left == 0:
                    if end != goal:
                        continue
                    if check_germs and _reverse(dart) in self.germs[goal]:
                        continue
                    found.append(tuple(path + [dart]))
                else:
                    if blocked_interior(end) or end in inner:
                        continue
                    extend(end, left, path + [dart], inner + [end])

        extend(start, length, [], [])
        return found
