"""Planted embedding instances.

A copy of ``planted_instance`` from ``tests/test_embed.py``, kept here
so that the benchmark does not import the test suite.  Keep the two in
step: the benchmark's embed-planted workload is the test's generator
drawn with other seeds.  The one difference: the benchmark may fix the
source's size ``n``, where the test draws it.
"""

from __future__ import annotations

from fractions import Fraction as F

from braidcat.metric_graph import MetricGraph


SIZES = (4, 6, 8)


def planted_instance(rng, n=None):
    """A source of minimum degree three, hidden in a larger target by
    subdividing arcs and sprinkling decoy material around it."""
    n = rng.choice(SIZES) if n is None else n
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
