"""The claim catalogue: one deliberate failure, everything else green."""

import json
import re
import time
from collections import Counter

import pytest

from braidcat.audit import check_identifiers, run_audit

STATUS_SHAPE = re.compile(r"^(pass|fail|inconclusive|resolved:.+)$")


@pytest.fixture(scope="module")
def report():
    return run_audit()


def test_identifiers_unique_and_sorted(report):
    idents = [r.ident for r in report.results]
    assert idents == sorted(idents)
    assert len(set(idents)) == len(idents)
    assert idents == check_identifiers()


def test_every_status_well_formed(report):
    for r in report.results:
        assert STATUS_SHAPE.match(r.status), r.ident
        assert r.seconds >= 0


def test_single_deliberate_failure(report):
    # The embedding search finds certificates, so the emptiness claim is
    # the one red entry of the catalogue.
    assert [r.ident for r in report.failed] == ["embed:main"]
    assert report.inconclusive == []
    assert report.exit_code == 1


def test_resolved_verdicts(report):
    by_id = {r.ident: r for r in report.results}
    assert by_id["dictionary:e"].status == "resolved:e=A b a"
    assert by_id["dictionary:f"].status == "resolved:f=C b c"
    assert by_id["dictionary:bhat"].status == "resolved:bhat=C^2 b c^2"
    assert by_id["dictionary:c-from-xy"].status == "resolved:c=X y"
    assert by_id["convention:conjugation"].status == "resolved:left"
    assert by_id["index:matrix-pair"].status == "resolved:1"
    witness = by_id["index:matrix-pair"].witness
    assert witness["quotient_of_generators_is_S"] is True
    assert witness["hlt"]["count"] == 1 and witness["felsch"]["count"] == 1


def test_embedding_failure_witness(report):
    by_id = {r.ident: r for r in report.results}
    witness = by_id["embed:main"].witness
    assert witness["certificates_up_to_symmetry"] == 32
    assert witness["certificates_total"] == 96
    assert witness["all_verified"] is True
    assert witness["example"]["node_images"]
    assert witness["prunes"]["distance"] > 0

    obstruction = by_id["embed:distance-obstruction"]
    assert obstruction.status == "pass"
    assert obstruction.witness["short-arc-far-images"] > 0
    example = obstruction.witness["example"]
    assert example["source_distance"] == "1/3"


def test_index_four_stays_small(report):
    by_id = {r.ident: r for r in report.results}
    witness = by_id["index:four"].witness
    assert witness["hlt"]["count"] == 4 and witness["felsch"]["count"] == 4
    assert witness["defined_below_thousand"] is True
    assert witness["tables_verified"] is True


def test_selection_by_prefix_and_full_id():
    partial = run_audit(only=["index"])
    assert [r.ident for r in partial.results] == [
        "index:four",
        "index:matrix-pair",
        "index:whole-ax",
        "index:whole-xy",
    ]
    assert partial.exit_code == 0

    single = run_audit(only=["embed:main"])
    assert len(single.results) == 1
    assert single.exit_code == 1


def test_empty_selection_is_empty_report():
    report = run_audit(only=[])
    assert report.results == ()
    assert report.exit_code == 0


def test_unknown_selector_rejected():
    with pytest.raises(ValueError, match="matches no check"):
        run_audit(only=["garbage"])
    with pytest.raises(ValueError, match="convention"):
        run_audit(convention="sideways")


def test_shared_orbit_is_computed_once(monkeypatch):
    import braidcat.audit

    calls = []
    real = braidcat.audit.conjugation_orbit

    def counted(g, seed, **kwargs):
        calls.append((str(g), str(seed), kwargs["convention"]))
        return real(g, seed, **kwargs)

    monkeypatch.setattr(braidcat.audit, "conjugation_orbit", counted)
    report = run_audit(only=["orbit:x-a", "convention"])
    assert [r.status for r in report.results] == ["resolved:left", "pass"]
    assert sorted(c[2] for c in calls) == ["left", "right"]


def test_each_normal_form_is_computed_once(monkeypatch):
    import braidcat.audit
    import braidcat.garside

    calls = []
    real = braidcat.garside.normal_form

    def counted(word):
        calls.append(str(word))
        return real(word)

    monkeypatch.setattr(braidcat.garside, "normal_form", counted)
    monkeypatch.setattr(braidcat.audit, "normal_form", counted)
    run_audit()
    assert len(calls) == 87


def test_each_graph_and_complex_is_built_once(monkeypatch):
    import braidcat.fixtures

    requested, built = Counter(), Counter()
    for name in ("graph_fixture", "complex_fixture"):
        real = getattr(braidcat.fixtures, name)

        def counted(fixture, *args, real=real):
            requested[fixture] += 1
            return real(fixture, *args)

        monkeypatch.setattr(braidcat.fixtures, name, counted)
    for name in ("x1bar", "ybar1", "vertex_link"):

        def build(*args, name=name, real=getattr(braidcat.fixtures, name)):
            built[name] += 1
            return real(*args)

        monkeypatch.setattr(braidcat.fixtures, name, build)
        if name in braidcat.fixtures._COMPLEXES:
            monkeypatch.setitem(braidcat.fixtures._COMPLEXES, name, build)
    run_audit()
    assert requested == Counter(
        {
            name: 1
            for name in (
                "brady-link", "x1bar-link", "x1bar-link-smooth", "ybar1-link",
                "ybar1-link-smooth", "x1bar", "ybar1",
            )
        }
    )
    # each smoothed link is smoothed from the link the audit already holds
    assert built == Counter({"x1bar": 1, "ybar1": 1, "vertex_link": 2})


def test_audit_work_is_pinned(monkeypatch):
    import braidcat.audit
    import braidcat.metric_graph
    from braidcat.metric_graph import MetricGraph

    searches, calls = [], Counter()
    real_search, real_distances_from = braidcat.audit.find_embeddings, MetricGraph.distances_from
    real_settle = braidcat.metric_graph._settle

    def search(*args, **kwargs):
        searches.append(kwargs)
        return real_search(*args, **kwargs)

    def distances_from(graph, source):
        calls["table row"] += 1
        return real_distances_from(graph, source)

    def settle(adjacency, source, zero):
        girth = type(zero) is int  # the rows run on Fractions
        calls["girth search"] += girth
        for settled in real_settle(adjacency, source, zero):
            calls["girth settled"] += girth
            yield settled

    monkeypatch.setattr(braidcat.audit, "find_embeddings", search)
    monkeypatch.setattr(MetricGraph, "distances_from", distances_from)
    monkeypatch.setattr(braidcat.metric_graph, "_settle", settle)
    report = run_audit()
    # each search makes the rows of the nodes it places, source + target: identity 8 + 8,
    # wing 2 + 12, main 8 + 12; and link:smooth reads one distance
    assert calls["table row"] == (8 + 8) + (2 + 12) + (8 + 12) + 1
    # girth searches once per arc of x1bar-link (27), ybar1-link (9) and brady-link (12),
    # each with that arc and every earlier one deleted for good, so the graph it walks
    # shrinks as the searches go on
    assert calls["girth search"] == 27 + 9 + 12
    assert calls["girth settled"] == 249
    assert len(searches) == 3
    assert not any(kwargs.get("with_trace") for kwargs in searches)
    witness = {r.ident: r for r in report.results}["embed:distance-obstruction"].witness
    assert json.dumps(witness) == json.dumps(
        {
            "distance_prunes": 870,
            "short-arc-far-images": 484,
            "example": {
                "reason": "distance",
                "source_pair": ["v2", "v1"],
                "target_pair": ["B^-", "B^+"],
                "source_distance": "1/3",
                "target_distance": "1/1",
            },
        }
    )


def test_check_that_raises_is_an_error(monkeypatch):
    import braidcat.audit

    def broken():
        raise RuntimeError("no matrices today")

    monkeypatch.setattr(braidcat.audit, "matrix_claims", broken)
    report = run_audit(only=["matrix", "perm:images"])
    assert [(r.ident, r.status) for r in report.results] == [
        ("matrix:minus-t", "error"),
        ("matrix:relators", "error"),
        ("perm:images", "pass"),
    ]
    witness = {"exception": "RuntimeError", "message": "no matrices today"}
    assert all(r.witness == witness for r in report.results if r.status == "error")
    assert report.exit_code == 1
    assert [r.ident for r in report.failed] == ["matrix:minus-t", "matrix:relators"]


def test_duplicate_identifier_is_rejected():
    import braidcat.audit

    with pytest.raises(ValueError, match="duplicate check identifier 'index:four'"):
        braidcat.audit._check("index:four", "a second claim")(lambda ctx: ("pass", {}))


def test_right_convention_breaks_the_asymmetric_orbits():
    report = run_audit(only=["orbit"], convention="right")
    statuses = {r.ident: r.status for r in report.results}
    assert statuses["orbit:x-a"] == "fail"
    assert statuses["orbit:y-a"] == "fail"
    assert statuses["orbit:y-c"] == "fail"
    # the period-two orbit reads the same in both directions
    assert statuses["orbit:x-b"] == "pass"
    assert report.exit_code == 1
    assert "right" in report.meta["conjugation"]


@pytest.mark.parametrize("check", ["index:four", "index:matrix-pair", "perm:coset-match"])
def test_tiny_cap_is_inconclusive_not_failed(check):
    report = run_audit(only=[check], cap=2)
    assert [r.status for r in report.results] == ["inconclusive"]
    assert report.exit_code == 2


def test_fail_takes_precedence_over_inconclusive():
    report = run_audit(only=["embed:main", "index:four"], cap=2)
    assert report.exit_code == 1


def test_json_round_trip(report):
    data = report.to_json_dict()
    json.dumps(data)
    stripped = report.to_json_dict(include_timing=False)
    assert all("seconds" not in entry for entry in stripped["results"])


def test_deterministic_modulo_timing(report):
    second = run_audit()
    assert report.to_json_dict(include_timing=False) == second.to_json_dict(
        include_timing=False
    )


def test_text_rendering(report):
    text = report.to_text()
    lines = text.splitlines()
    assert len(lines) == len(report.results) + 1
    assert lines[-1].endswith("1 failed, 0 inconclusive")


def test_full_catalogue_under_five_seconds():
    start = time.perf_counter()
    run_audit()
    assert time.perf_counter() - start < 5.0
