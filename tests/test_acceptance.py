"""The acceptance gate: one test per stated criterion, run with -v for
one pass/fail line each.

Two criteria assert values that the machine contradicts, and the tests
state the criteria faithfully rather than what the machine finds, so
they fail by design:

  * criterion 1b expects the matrix-pair subgroup to have index four;
    every enumeration strategy gives index one, and the element S itself
    is a quotient of the two generators, which settles it.
  * criterion 7a expects the embedding search to come back empty; it
    returns 32 verified certificates up to the wing symmetry (96 in
    total), refuting the claimed non-embedding under this formalization.

The failure messages carry the machine's witnesses.
"""

import random
import time
from fractions import Fraction

import pytest

import test_embed
from braidcat import fixtures
from braidcat.audit import run_audit
from braidcat.complexes import X1BAR_SYMMETRY, is_edge_automorphism, vertex_link, x1bar
from braidcat.cosets import Enumeration, enumerate_cosets, verify_table
from braidcat.embed import find_embeddings, verify_embedding
from braidcat.garside import NormalForm, conjugation_orbit, equals, is_central, normal_form
from braidcat.metric_graph import MetricGraph, brady_link
from braidcat.reps import (
    IDENTITY_2X2,
    MAT_S,
    MAT_T,
    cycle_type,
    evaluate_matrix,
    evaluate_permutation,
    generated_subgroup,
    mat_mul,
    modular_assignment,
    stabilizer_of,
    strand_assignment,
)
from braidcat.words import ALPHABET_ST, parse
from garside_words import check_presentation

W = fixtures.WORDS
THIRD = Fraction(1, 3)


def _enumerate_both(name, cap=100_000):
    factory, subgroup = fixtures.SUBGROUPS[name]
    out = {}
    for strategy in ("hlt", "felsch"):
        start = time.perf_counter()
        result = enumerate_cosets(factory(), subgroup, strategy=strategy, cap=cap)
        elapsed = time.perf_counter() - start
        assert isinstance(result, Enumeration), f"{name}/{strategy} hit the cap"
        assert elapsed < 1.0, f"{name}/{strategy} took {elapsed:.3f}s"
        assert result.defined < 1000, f"{name}/{strategy} defined {result.defined}"
        assert all(ok for _, ok in verify_table(result, factory(), subgroup))
        out[strategy] = result
    assert out["hlt"].count == out["felsch"].count
    return out["hlt"]


def test_criterion_1a_braid_quotient_indices():
    """Index 4 for the marked subgroup, index 1 for both generating
    pairs; each enumeration under a second and under a thousand cosets;
    the two strategies agree."""
    assert _enumerate_both("index-four").count == 4
    assert _enumerate_both("whole-group-xy").count == 1
    assert _enumerate_both("whole-group-ax").count == 1


def test_criterion_1b_matrix_pair_index_as_stated():
    """The stated index of the pair S^2 T, S^3 T in the matrix group is
    four.  The machine disagrees."""
    result = _enumerate_both("matrix-pair")
    st = {"S": MAT_S, "T": MAT_T}
    u = evaluate_matrix(parse("S^3 T", ALPHABET_ST), st)
    v = evaluate_matrix(parse("S^2 T", ALPHABET_ST), st)
    from braidcat.reps import mat_inv

    witness = (
        f"both strategies complete with index {result.count}; "
        f"(S^3 T)(S^2 T)^-1 = {mat_mul(u, mat_inv(v))} = S, so S lies in the "
        "subgroup and the subgroup is everything"
    )
    assert result.count == 4, witness


def test_criterion_2_matrix_homomorphism():
    """The assignment x -> S, y -> -ST kills all three relators exactly;
    S^4 = I and (ST)^3 = S^2; well under a millisecond."""
    assignment = modular_assignment()
    relators = fixtures.g0_presentation().relators

    def evaluate_all():
        return [evaluate_matrix(r, assignment) for r in relators]

    best = min(_timed(evaluate_all) for _ in range(5))
    images = evaluate_all()
    assert all(m == IDENTITY_2X2 for m in images)
    st = {"S": MAT_S, "T": MAT_T}
    assert evaluate_matrix(parse("S^4", ALPHABET_ST), st) == IDENTITY_2X2
    assert evaluate_matrix(parse("S T S T S T", ALPHABET_ST), st) == mat_mul(MAT_S, MAT_S)
    assert best < 0.001, f"relator evaluation took {best * 1000:.3f} ms"


def _timed(thunk):
    start = time.perf_counter()
    thunk()
    return time.perf_counter() - start


def test_criterion_3_permutation_image():
    """The images of a and y generate a group of order exactly six that
    stabilizes one endpoint, and the cycle types of x and y match the
    coset-table action."""
    sa = strand_assignment()
    px = evaluate_permutation(W["x"], sa)
    py = evaluate_permutation(W["y"], sa)
    sub = generated_subgroup([sa["a"], py])
    full = generated_subgroup(list(sa.values()))
    assert len(sub) == 6
    fixed = [point for point in range(4) if all(p[point] == point for p in sub)]
    assert len(fixed) == 1
    assert sub == stabilizer_of(fixed[0], full)

    table = _enumerate_both("index-four")
    # the coset table's images are 1-based
    coset_x, coset_y = (tuple(i - 1 for i in table.action[g]) for g in ("x", "y"))
    assert cycle_type(px) == (4,) == cycle_type(coset_x)
    assert cycle_type(py) == (1, 3) == cycle_type(coset_y)


def test_criterion_4_garside_audit():
    """All ten presentation equalities hold; x^4 and y^3 share the
    central normal form D^2; the three conjugation orbits close with
    periods 4, 2, 3 under the convention the audit discovers; the two
    flagged ambiguities carry definite machine verdicts; the whole
    catalogue runs in under five seconds."""
    assert all(ok for _, ok in check_presentation(W["e"], W["f"], W["d"]))

    nf = normal_form(W["x"] ** 4)
    assert nf == normal_form(W["y"] ** 3) == NormalForm(2, ())
    assert is_central(W["x"] ** 4)

    orbit_x_a = conjugation_orbit(W["x"], W["a"], convention="left")
    orbit_x_b = conjugation_orbit(W["x"], W["b"], convention="left")
    orbit_y_c = conjugation_orbit(W["y"], W["c"], convention="left")
    assert (len(orbit_x_a), len(orbit_x_b), len(orbit_y_c)) == (4, 2, 3)
    assert all(
        equals(got, W[name])
        for got, name in zip(orbit_x_a, ("a", "e", "c", "f"))
    )
    assert all(equals(got, W[name]) for got, name in zip(orbit_y_c, ("c", "f", "d")))

    start = time.perf_counter()
    report = run_audit()
    assert time.perf_counter() - start < 5.0
    statuses = {r.ident: r.status for r in report.results}
    assert statuses["dictionary:bhat"].startswith("resolved:")
    assert statuses["dictionary:c-from-xy"].startswith("resolved:")
    assert statuses["convention:conjugation"] == "resolved:left"


def test_criterion_5_link_condition():
    """The glued-complex link has 18 nodes, 27 arcs of length pi/3,
    degree multiset 4^6 3^6 2^6, is bipartite, and has girth exactly
    2 pi by two independent algorithms; so does the reference link; all
    in under a second."""
    start = time.perf_counter()
    link = vertex_link(x1bar(), "o")
    assert len(link.nodes) == 18
    assert len(link.arcs) == 27
    assert all(length == THIRD for _, _, length in link.arcs)
    assert link.degree_multiset() == (2,) * 6 + (3,) * 6 + (4,) * 6
    assert link.is_bipartite()
    assert link.girth() == link.girth_exhaustive() == Fraction(2)

    reference = brady_link()
    assert reference.girth() == reference.girth_exhaustive() == Fraction(2)
    assert time.perf_counter() - start < 1.0


def test_criterion_6_symmetry():
    """Cycling the wings is an order-three automorphism of the complex
    and of its link, fixing no link node; under a second."""
    start = time.perf_counter()
    cx = x1bar()
    assert is_edge_automorphism(cx, X1BAR_SYMMETRY)
    twice = {k: X1BAR_SYMMETRY[X1BAR_SYMMETRY[k]] for k in X1BAR_SYMMETRY}
    assert any(twice[k] != k for k in twice)
    assert all(X1BAR_SYMMETRY[twice[k]] == k for k in twice)

    link = vertex_link(cx, "o")
    node_map = fixtures.link_symmetry(link)
    assert link.is_automorphism(node_map)
    assert all(node_map[n] != n for n in link.nodes)
    assert time.perf_counter() - start < 1.0


def test_criterion_7a_non_embedding_as_stated():
    """The exhaustive search for a locally isometric embedding of the
    reference link into the smoothed glued link returns empty.  The
    machine disagrees."""
    target = vertex_link(x1bar(), "o").smooth()
    symmetry = fixtures.link_symmetry(target)
    start = time.perf_counter()
    reduced = find_embeddings(
        brady_link(), target, mode="all", automorphisms=[symmetry], with_trace=True
    )
    full = find_embeddings(brady_link(), target, mode="all")
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"search took {elapsed:.1f}s"

    verified = all(
        all(ok for _, ok in verify_embedding(brady_link(), target, emb))
        for emb in reduced.certificates
    )
    example = (
        dict(reduced.certificates[0].node_images) if reduced.certificates else None
    )
    witness = (
        f"search is exhaustive yet finds {len(reduced.certificates)} certificates "
        f"up to the wing symmetry ({len(full.certificates)} without reduction, "
        f"exactly three times as many); independent verification of every "
        f"certificate: {verified}; example node map: {example}"
    )
    assert not reduced.found, witness


def test_criterion_7b_distance_obstruction_in_trace():
    """The symmetry-reduced trace contains the distance obstruction: a
    source arc of length pi/3 whose endpoint images lie at target
    distance 2 pi/3 or more."""
    target = vertex_link(x1bar(), "o").smooth()
    symmetry = fixtures.link_symmetry(target)
    outcome = find_embeddings(
        brady_link(), target, mode="all", automorphisms=[symmetry], with_trace=True
    )
    hits = []

    def walk(node):
        prune = node.get("prune")
        if prune and prune["reason"] == "distance":
            hits.append(prune)
        for child in node.get("children", []):
            walk(child)

    walk(outcome.trace)
    from braidcat.metric_graph import parse_length

    obstructions = [
        p
        for p in hits
        if parse_length(p["source_distance"]) == THIRD
        and parse_length(p["target_distance"]) >= Fraction(2, 3)
    ]
    assert obstructions, "no pi/3 arc was ever pruned for distance"


def test_criterion_8_positive_and_negative_controls():
    """The identity self-embedding is found; planted-subgraph recovery
    succeeds on 100 randomized instances; corrupted fixtures are
    rejected by the independent checkers."""
    link = vertex_link(x1bar(), "o").smooth()
    out = find_embeddings(link, link, mode="first")
    assert out.found
    assert all(ok for _, ok in verify_embedding(link, link, out.certificates[0]))

    for i in range(100):
        rng = random.Random(test_embed.SEED + i)
        src, tgt = test_embed.planted_instance(rng)
        recovered = find_embeddings(src, tgt, mode="first")
        assert recovered.found, f"planted instance {i} was not recovered"
        assert all(
            ok for _, ok in verify_embedding(src, tgt, recovered.certificates[0])
        )

    # corrupted certificate: reroute one arc through the wrong nodes
    good = out.certificates[0]
    images = dict(good.node_images)
    two = sorted(images)[:2]
    images[two[0]], images[two[1]] = images[two[1]], images[two[0]]
    bad = good._replace(node_images=tuple(sorted(images.items())))
    assert not all(ok for _, ok in verify_embedding(link, link, bad))

    # corrupted coset table: redirect one entry
    factory, subgroup = fixtures.SUBGROUPS["index-four"]
    table = enumerate_cosets(factory(), subgroup, strategy="hlt", cap=100_000)
    action = {g: list(images) for g, images in table.action.items()}
    action["x"][0] = action["x"][1]
    doctored = Enumeration(
        count=table.count,
        action={g: tuple(images) for g, images in action.items()},
        defined=table.defined,
        strategy=table.strategy,
    )
    assert not all(ok for _, ok in verify_table(doctored, factory(), subgroup))

    # corrupted graph: shortening one arc drops the girth below 2 pi
    reference = brady_link()
    shortened = MetricGraph(
        reference.nodes,
        reference.arcs[:-1] + ((*reference.arcs[-1][:2], Fraction(1, 3)),),
    )
    assert shortened.girth() < Fraction(2) == reference.girth()
    assert shortened.girth() == shortened.girth_exhaustive()
