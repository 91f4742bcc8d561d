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
every candidate refutes such an embedding outright.  The search needs
no test of its own for directions: each is the first dart of a route,
read from one end, and routes cross pairwise distinct arcs, so two
directions can share an arc only as the two ends of a one-dart route,
and then they cross it in opposite senses.  ``verify_embedding`` still
checks the condition.

The search assigns images to source nodes in order of decreasing
degree, routing an arc as soon as both of its ends have landed, and
prunes by three sound tests: a target node of smaller degree can never
host a source node, images already used are unavailable, and distances
can only shrink under the map, never grow.  A failed routing is a
``length-mismatch`` when no embedded path of the right length joins the
two images at all, and an ``injectivity-clash`` when every such path
crosses an arc or a node already in use.  Each step is a generator that
yields the next one and undoes its change when resumed; ``run`` drives
them from one list, so a search's depth costs no recursion.

Routes: the embedded target paths for a (start, goal, length) key are
enumerated once per search, in dart order and ignoring what is in use,
each with its set of arcs and of interior nodes.  Each later use
filters that list by the arcs and nodes in use, which keeps the dart
order, and routing one adds and removes those precomputed sets.

Arithmetic: the search runs on integers.  Every arc length of both
graphs, and every distance between their nodes, is a multiple of 1/L,
where L is the least common multiple of the arc lengths' denominators,
so routing budgets and distance comparisons are exact integer
operations on lengths measured in units of 1/L.  A node's exact
``distances_from`` row is scaled to 1/L when the search first places it
(or uses it as an image) and kept for the rest of the search; the
distance test reads d(w, u) and d(f(w), t) from the rows of each placed
node w and its image f(w).  Lengths turn back into fractions only where
they are reported, each distinct length once.  The decision tree, every
pruned branch with the reason it died, is built only when a trace is
requested; without one no record is built at any node and the search
keeps just its counters, the same either way: nodes explored, prunes by
reason, and distance prunes by distance pair.

Root symmetry: the image of the first source node may be restricted to
one representative per orbit of a supplied group of target
automorphisms.  Composing an embedding with a target automorphism is
again an embedding, so existence and refutation are unaffected; the
certificate list is then complete up to that symmetry, and the trace
records the restriction.  Composing with g maps the certificates whose
root lands on t one-to-one onto those whose root lands on g(t), so
``certificates_total`` recovers the unreduced count from them.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from fractions import Fraction

from .metric_graph import MetricGraph, format_length

__all__ = [
    "Embedding",
    "SearchOutcome",
    "find_embeddings",
    "verify_embedding",
    "orbit_representatives",
    "certificates_total",
]

# A dart is an oriented crossing of an arc: (arc index, 0) runs from
# the arc's first end to its second, (arc index, 1) the other way.
Dart = tuple[int, int]
# An embedded target path: its darts, the arcs they cross and the nodes
# strictly inside it.
_Path = tuple[tuple[Dart, ...], frozenset[int], frozenset[str]]


def _dart_maps(graph: MetricGraph):
    head: dict[Dart, str] = {}
    tail: dict[Dart, str] = {}
    for i, (u, v, _) in enumerate(graph.arcs):
        tail[(i, 0)], head[(i, 0)] = u, v
        tail[(i, 1)], head[(i, 1)] = v, u
    return tail, head


def _reverse(dart: Dart) -> Dart:
    return (dart[0], 1 - dart[1])


class Embedding(namedtuple("Embedding", "node_images routes")):
    """A certificate: sorted (source node, image) pairs, and sorted
    (source arc index, route of darts) pairs, one per source arc."""

    __slots__ = ()

    def to_json_dict(self, source: MetricGraph, target: MetricGraph) -> dict:
        tail, head = _dart_maps(target)
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
    tail, head = _dart_maps(target)
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


class SearchOutcome(
    namedtuple("SearchOutcome", "certificates prunes nodes_explored distance_prunes trace")
):
    """Certificates, prunes by reason, nodes explored, the distance prunes as (source,
    target distance) text -> (count, first prune), and the trace or None.  The trace is
    the decision tree as JSON dicts: each node has a ``decision`` and at most one of
    ``prune``, ``complete`` (a certificate) and ``children``, in that key order."""

    __slots__ = ()

    @property
    def found(self) -> bool:
        return bool(self.certificates)


def _orbit(node: str, automorphisms: list[dict[str, str]]) -> set[str]:
    """A permutation's inverse is one of its powers, so the orbit of a node
    under the generated group is its closure under the maps."""
    orbit, new = set(), {node}
    while new:
        orbit |= new
        new = {mapping[n] for mapping in automorphisms for n in new} - orbit
    return orbit


def orbit_representatives(graph: MetricGraph, automorphisms: list[dict[str, str]]) -> list[str]:
    """Least-named node of each orbit under the generated group.  Every
    supplied map must actually be an automorphism."""
    for mapping in automorphisms:
        if not graph.is_automorphism(mapping):
            raise ValueError(f"not an automorphism of the target: {mapping}")
    return [n for n in sorted(graph.nodes) if n == min(_orbit(n, automorphisms))]


def _search_order(degree: dict[str, int]) -> list[str]:
    """Nodes in the order the search places them, root first: highest degree, then least name."""
    return sorted(degree, key=lambda n: (-degree[n], n))


def certificates_total(source: MetricGraph, certificates: list, automorphisms: list) -> int:
    """The unreduced search's count, from every certificate found with the root restricted by
    ``automorphisms``: each stands for the orbit of its root's image."""
    root = _search_order(source.degrees())[0]
    return sum(len(_orbit(dict(c.node_images)[root], automorphisms)) for c in certificates)


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
    return _Search(source, target, mode, automorphisms or [], with_trace).run()


class _Search:
    def __init__(self, source, target, mode, automorphisms, with_trace):
        self.src_degree = source.degrees()
        bad = [n for n in source.nodes if self.src_degree[n] < 3]
        if bad:
            raise ValueError(
                f"source nodes {bad} have degree below three; smooth the graph first"
            )
        self.tgt_degree = target.degrees()
        self.src, self.tgt = source, target
        self.mode = mode
        self.with_trace = with_trace
        self.node_order = _search_order(self.src_degree)
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
        self.tail, self.head = _dart_maps(target)
        # target node -> (dart, arc, scaled length, head) for each dart leaving
        # it, in dart order: the dart (i, end) leaves arc i's end at the node
        self.out: dict[str, list[tuple[Dart, int, int, str]]] = {
            node: [((i, end), i, length, other) for i, end, other, length in ends]
            for node, ends in target.darts(self.scale).items()
        }
        # node placed (source) or used as an image (target) -> its scaled distances
        self.src_rows, self.tgt_rows = {}, {}
        # (start, goal, scaled length) -> that key's embedded target paths
        self.paths: dict[tuple[str, str, int], list[_Path]] = {}
        self.texts: dict[int, str] = {}

        self.images: dict[str, str] = {}
        self.routes: dict[int, tuple[Dart, ...]] = {}
        self.used_arcs: set[int] = set()
        # target nodes that are images or lie inside a route
        self.occupied: set[str] = set()

        self.certificates: list[Embedding] = []
        self.prunes: Counter = Counter()
        # (scaled source, target distance) -> [count, u, t, w, f(w) of the first]
        self.distance_stats: dict[tuple, list] = {}
        self.nodes_explored = 0

    def _scaled(self, length: Fraction) -> int:
        return length.numerator * (self.scale // length.denominator)

    def _format(self, scaled: int | None) -> str | None:
        if scaled is None:
            return None
        text = self.texts.get(scaled)
        if text is None:
            text = self.texts[scaled] = format_length(Fraction(scaled, self.scale))
        return text

    def _row(self, rows: dict, graph: MetricGraph, node: str) -> None:
        if node not in rows:
            rows[node] = {v: self._scaled(d) for v, d in graph.distances_from(node).items()}

    def run(self) -> SearchOutcome:
        root = None
        if self.with_trace:
            root = {"decision": {"kind": "root", "root_candidates": list(self.root_candidates)}}
        stack = [self._assign(0, root)]
        while stack and not (self.certificates and self.mode == "first"):
            child = next(stack[-1], None)
            if child is None:
                stack.pop()
            else:
                stack.append(child)
        distance_prunes = {}
        for count, *first in self.distance_stats.values():
            prune = self._assignment_detail("distance", *first)
            distance_prunes[prune["source_distance"], prune["target_distance"]] = count, prune
        return SearchOutcome(
            certificates=self.certificates,
            prunes=self.prunes,
            nodes_explored=self.nodes_explored,
            distance_prunes=distance_prunes,
            trace=root,
        )

    # Without a trace every parent is None and no record is built.

    @staticmethod
    def _child(parent: dict, decision: dict) -> dict:
        node = {"decision": decision}
        parent.setdefault("children", []).append(node)
        return node

    def _arc_detail(self, arc_index: int) -> dict:
        u, v, _ = self.src.arcs[arc_index]
        return {"source_arc": [u, v], "length": self._format(self.src_length[arc_index])}

    def _assign(self, k: int, parent: dict | None):
        if k == len(self.node_order):
            certificate = Embedding(
                node_images=tuple(sorted(self.images.items())),
                routes=tuple(sorted(self.routes.items())),
            )
            self.certificates.append(certificate)
            if parent is not None:
                parent["complete"] = True
            return
        u = self.node_order[k]
        candidates = self.root_candidates if k == 0 else self.candidates
        for t in candidates:
            self.nodes_explored += 1
            node = None
            if parent is not None:
                node = self._child(parent, {"kind": "assign", "source": u, "target": t})
            reason, w = self._assignment_prune(u, t)
            if reason is not None:
                self.prunes[reason] += 1
                if node is not None:
                    node["prune"] = self._assignment_detail(reason, u, t, w, self.images.get(w))
                continue
            self.images[u] = t
            self.occupied.add(t)
            self._row(self.src_rows, self.src, u)
            self._row(self.tgt_rows, self.tgt, t)
            yield self._route_ready(self.ready[k], 0, k, node)
            del self.images[u]
            self.occupied.remove(t)

    def _assignment_prune(self, u: str, t: str) -> tuple[str | None, str | None]:
        """Why t cannot host u, or None, and for a distance prune (which it
        counts) the first placed node whose image is farther from t than it is from u."""
        if self.src_degree[u] > self.tgt_degree[t]:
            return "degree", None
        if t in self.occupied:
            return "target-node-used", None
        src_rows, tgt_rows = self.src_rows, self.tgt_rows
        for w, fw in self.images.items():
            s, d = src_rows[w].get(u), tgt_rows[fw].get(t)
            if s is not None and (d is None or d > s):
                self.distance_stats.setdefault((s, d), [0, u, t, w, fw])[0] += 1
                return "distance", w
        return None, None

    def _assignment_detail(self, reason: str, u: str, t: str, w: str | None, fw: str | None):
        if reason == "distance":
            return {
                "reason": reason,
                "source_pair": [u, w],
                "target_pair": [t, fw],
                "source_distance": self._format(self.src_rows[w].get(u)),
                "target_distance": self._format(self.tgt_rows[fw].get(t)),
            }
        detail = {"reason": reason, "source": u, "target": t}
        if reason == "degree":
            detail.update(source_degree=self.src_degree[u], target_degree=self.tgt_degree[t])
        return detail

    def _route_ready(self, ready: list[int], i: int, k: int, parent: dict | None):
        if i == len(ready):
            yield self._assign(k + 1, parent)
            return
        arc_index = ready[i]
        u, v, _ = self.src.arcs[arc_index]
        key = (self.images[u], self.images[v], self.src_length[arc_index])
        paths = self.paths.get(key)
        if paths is None:
            paths = self.paths[key] = self._embedded_paths(*key)
        used_arcs, occupied = self.used_arcs, self.occupied
        routed = False
        for darts, arcs, inner in paths:
            if not (used_arcs.isdisjoint(arcs) and occupied.isdisjoint(inner)):
                continue
            routed = True
            self.nodes_explored += 1
            node = None
            if parent is not None:
                path = [self.tail[darts[0]]] + [self.head[d] for d in darts]
                node = self._child(
                    parent, {"kind": "route", **self._arc_detail(arc_index), "path": path}
                )
            self.routes[arc_index] = darts
            used_arcs |= arcs
            occupied |= inner
            yield self._route_ready(ready, i + 1, k, node)
            occupied -= inner
            used_arcs -= arcs
            del self.routes[arc_index]
        if not routed:
            self.nodes_explored += 1
            reason = "injectivity-clash" if paths else "length-mismatch"
            self.prunes[reason] += 1
            if parent is not None:
                detail = self._arc_detail(arc_index)
                node = self._child(parent, {"kind": "route", **detail})
                node["prune"] = {"reason": reason, **detail}

    def _embedded_paths(self, start: str, goal: str, length: int) -> list[_Path]:
        """Every embedded path (or loop, when start is goal) of the given
        length from start to goal, in dart order, whatever else is in use.

        One walk with its own stack of frames, each the length a path still
        needs and an iterator over its last node's darts.  The path's darts
        are a list, its arcs and inner nodes sets, changed in place on the
        way down and back up; a path's tuple and frozensets are built only
        when it is found.  Darts are tried in order, so paths come out
        depth first in dart order."""
        found: list[_Path] = []
        darts: list[Dart] = []
        arcs: set[int] = set()
        inner: set[str] = set()
        stack = [(length, iter(self.out[start]))]
        while stack:
            remaining, steps = stack[-1]
            for dart, arc, step, end in steps:
                left = remaining - step
                if left < 0 or arc in arcs:
                    continue
                if left == 0:
                    if end == goal:
                        found.append(((*darts, dart), frozenset((*arcs, arc)), frozenset(inner)))
                elif not (end == start or end == goal or end in inner):
                    darts.append(dart)
                    arcs.add(arc)
                    inner.add(end)
                    stack.append((left, iter(self.out[end])))
                    break
            else:
                stack.pop()
                if darts:
                    dart = darts.pop()
                    arcs.remove(dart[0])
                    inner.remove(self.head[dart])
        return found
