"""Finite metric graphs with exact rational edge lengths.

Lengths are :class:`fractions.Fraction` values measured in units of pi,
so the angle 2*pi/3 is stored as Fraction(2, 3) and every comparison in
the package is exact.  Graphs are undirected and may contain loops and
parallel arcs, which vertex links of small complexes genuinely produce.

The girth here is the length of a shortest closed loop that never
backtracks (reverses along the arc it just used).  Such a loop always
contains an embedded cycle of no greater length, so two independent
computations are provided: one deletes the arcs for good in arc order,
asking after each for a shortest path between its ends; the other lists
embedded cycles outright, on a stack of its own, so a long cycle needs
no recursion.  They must agree, and the test suite insists on it.

Each node's arc ends, with the other end and the length, come from one
table, ``MetricGraph.darts``.  One Dijkstra loop, ``_settle``, walks it
for ``girth`` on integers in units of 1/L (L the lcm of the denominators)
and for ``distances_from`` on ``Fraction``s, as faster search rows break
the benchmark's memory bound (see ROADMAP).
"""

from __future__ import annotations

import heapq
from collections import Counter, namedtuple
from fractions import Fraction
from math import lcm

__all__ = [
    "MetricGraph",
    "brady_link",
    "format_length",
    "parse_length",
]

Arc = tuple[str, str, Fraction]


def _settle(darts: dict, source: str, zero):
    """Dijkstra from ``source`` over a ``MetricGraph.darts`` table, on
    lengths of the exact type of ``zero``: yields (node, distance) as each
    node it reaches settles."""
    dist, settled, heap = {source: zero}, set(), [(zero, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        yield node, d
        for _, _, other, length in darts[node]:
            nd = d + length
            if other not in dist or nd < dist[other]:
                dist[other] = nd
                heapq.heappush(heap, (nd, other))


class MetricGraph(namedtuple("MetricGraph", "nodes arcs")):
    """An undirected metric graph; arcs are (end, end, length) triples."""

    __slots__ = ()

    def __new__(cls, nodes: tuple[str, ...], arcs: tuple[Arc, ...]) -> MetricGraph:
        known = set(nodes)
        if len(known) != len(nodes):
            raise ValueError("duplicate node names")
        for u, v, length in arcs:
            if u not in known or v not in known:
                raise ValueError(f"arc ({u}, {v}) mentions an unknown node")
            if length <= 0:
                raise ValueError(f"arc ({u}, {v}) has non-positive length {length}")
        return super().__new__(cls, nodes, arcs)

    # through __new__, so that _replace validates too
    _make = classmethod(lambda cls, values: cls(*values))

    # -- local structure ------------------------------------------------

    def darts(self, scale: int = 0) -> dict[str, list[tuple]]:
        """node -> (arc index, end, other end, length) for each arc end at
        it, in arc order, end 0 at u and 1 at v, so a loop is listed twice.
        Lengths are Fractions, or whole numbers of 1/scale given a scale."""
        table: dict[str, list[tuple]] = {n: [] for n in self.nodes}
        for i, (u, v, length) in enumerate(self.arcs):
            if scale:
                length = length.numerator * (scale // length.denominator)
            table[u].append((i, 0, v, length))
            table[v].append((i, 1, u, length))
        return table

    def degrees(self) -> dict[str, int]:
        """node -> degree: the length of its dart list."""
        return {n: len(ends) for n, ends in self.darts().items()}

    def degree_multiset(self) -> tuple[int, ...]:
        return tuple(sorted(self.degrees().values()))

    # -- metric ---------------------------------------------------------

    def distances_from(self, source: str) -> dict[str, Fraction]:
        """Exact shortest-path distance from ``source`` to every node it
        reaches; unreachable nodes are left out."""
        return dict(_settle(self.darts(), source, Fraction(0)))

    def distance(self, source: str, target: str) -> Fraction | None:
        """Exact shortest-path distance; None when disconnected."""
        return self.distances_from(source).get(target)

    def girth(self) -> Fraction | None:
        """Shortest embedded cycle; None when the graph has no cycle.

        Deletes the arcs for good in arc order, so arc i's darts lead u's
        and v's lists, and after each deletion searches from u until v
        settles or nothing can beat the best.  Each candidate, a shortest
        u-v path plus arc i, is an embedded cycle, and a shortest cycle is
        found at its first arc, while all its other arcs are still there."""
        scale = lcm(*(length.denominator for _, _, length in self.arcs))
        darts, best = self.darts(scale), None
        for u, v, _ in self.arcs:
            *_, length = darts[u].pop(0)
            darts[v].pop(0)
            for node, d in _settle(darts, u, 0):
                if best is not None and d + length >= best:
                    break
                if node == v:
                    best = d + length
                    break
        return None if best is None else Fraction(best, scale)

    def girth_exhaustive(self) -> Fraction | None:
        """Shortest embedded cycle, by direct enumeration; None when the
        graph has no cycle.

        From each root, one walk with its own stack grows paths over arcs
        through unused nodes named above the root, never back along the
        arc just taken, and drops a path that can no longer beat the best.
        An arc back to the root closes a cycle, so a loop is a cycle of one
        arc and a parallel pair one of two; each is found from its least
        node.  It builds its own table, not ``darts``, so that it shares no
        code with ``girth``, which it checks."""
        scale = lcm(*(length.denominator for _, _, length in self.arcs))
        ends: dict[str, list[tuple[int, str, int]]] = {n: [] for n in self.nodes}
        for i, (u, v, length) in enumerate(self.arcs):
            ends[u].append((i, v, int(length * scale)))
            ends[v].append((i, u, int(length * scale)))
        best = None
        for root in self.nodes:
            used, stack = {root}, [(root, None, 0, iter(ends[root]))]
            while stack:
                node, came_by, total, todo = stack[-1]
                for i, other, length in todo:
                    if i == came_by or best is not None and total + length >= best:
                        continue
                    if other == root:
                        best = total + length
                    elif other not in used and other > root:
                        used.add(other)
                        stack.append((other, i, total + length, iter(ends[other])))
                        break
                else:
                    stack.pop()
                    used.remove(node)
        return None if best is None else Fraction(best, scale)

    # -- operations -----------------------------------------------------

    def smooth(self) -> MetricGraph:
        """Suppress every node of degree two, adding the lengths of its
        two arcs.  A node whose both germs lie on one loop stays, since
        a circle needs at least one node to survive.

        One pass in name order gives what suppressing the least eligible
        node, again and again, would: a suppression changes no other
        node's degree and can leave a loop on a neighbour, never take one
        away, so the next node to go is the next eligible one by name.  The
        merged arc goes last; each node lists its arcs by creation."""
        arcs = [tuple(arc) for arc in self.arcs]
        inc = {n: [i for i, *_ in ends] for n, ends in self.darts().items()}
        for n in sorted(self.nodes):
            ends = inc[n]
            if len(ends) == 2 and ends[0] != ends[1]:
                (u1, v1, l1), (u2, v2, l2) = arcs[ends[0]], arcs[ends[1]]
                merged = (u1 if v1 == n else v1, u2 if v2 == n else v2, l1 + l2)
                for i, other in zip(ends, merged[:2]):
                    inc[other].remove(i)
                    inc[other].append(len(arcs))
                    arcs[i] = None
                arcs.append(merged)
                del inc[n]
        kept = tuple(arc for arc in arcs if arc is not None)
        return MetricGraph(tuple(n for n in self.nodes if n in inc), kept)

    def is_bipartite(self) -> bool:
        """Whether the nodes 2-colour across every arc; a loop never does."""
        darts = self.darts()
        color: dict[str, int] = {}
        for start in self.nodes:
            if start in color:
                continue
            color[start] = 0
            frontier = [start]
            while frontier:
                node = frontier.pop()
                for _, _, other, _ in darts[node]:
                    if other == node:
                        return False
                    if other not in color:
                        color[other] = 1 - color[node]
                        frontier.append(other)
                    elif color[other] == color[node]:
                        return False
        return True

    def arc_census(self) -> Counter:
        return Counter(
            (min(u, v), max(u, v), length) for u, v, length in self.arcs
        )

    def is_automorphism(self, mapping: dict[str, str]) -> bool:
        if sorted(mapping) != sorted(self.nodes) or sorted(mapping.values()) != sorted(self.nodes):
            return False
        image = Counter(
            (min(mapping[u], mapping[v]), max(mapping[u], mapping[v]), length)
            for u, v, length in self.arcs
        )
        return image == self.arc_census()

    # -- serialisation --------------------------------------------------

    def to_lines(self) -> list[str]:
        lines = [f"node {n}" for n in self.nodes]
        lines.extend(f"arc {u} {v} {format_length(length)}" for u, v, length in self.arcs)
        return lines

    @staticmethod
    def from_lines(lines: list[str]) -> MetricGraph:
        nodes: list[str] = []
        arcs: list[Arc] = []
        for raw in lines:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] == "node" and len(parts) == 2:
                nodes.append(parts[1])
            elif parts[0] == "arc" and len(parts) == 4:
                arcs.append((parts[1], parts[2], parse_length(parts[3])))
            else:
                raise ValueError(f"bad graph line {raw!r}")
        return MetricGraph(tuple(nodes), tuple(arcs))

    def to_dot(self) -> str:
        lines = ["graph {"]
        for n in self.nodes:
            lines.append(f'  "{n}";')
        for u, v, length in self.arcs:
            lines.append(f'  "{u}" -- "{v}" [label="{format_length(length)}"];')
        lines.append("}")
        return "\n".join(lines)


def format_length(length: Fraction) -> str:
    return f"{length.numerator}/{length.denominator}"


def parse_length(text: str) -> Fraction:
    num, _, den = text.partition("/")
    if not den:
        raise ValueError(f"length must be written p/q, got {text!r}")
    numerator, denominator = int(num), int(den)
    if denominator == 0:
        raise ValueError(f"length has a zero denominator: {text!r}")
    value = Fraction(numerator, denominator)
    if value <= 0:
        raise ValueError(f"length must be positive, got {text!r}")
    return value


def brady_link() -> MetricGraph:
    """The cubic graph on eight nodes from the reference construction:
    an eight-cycle of arcs of length pi/3 with the four long diagonals
    of length 2*pi/3.  Girth 2*pi, every node of degree three."""
    nodes = tuple(f"v{i}" for i in range(1, 9))
    arcs = []
    for i in range(8):
        arcs.append((nodes[i], nodes[(i + 1) % 8], Fraction(1, 3)))
    for i in range(4):
        arcs.append((nodes[i], nodes[i + 4], Fraction(2, 3)))
    return MetricGraph(nodes, tuple(arcs))
