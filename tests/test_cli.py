"""The command line surface: parsing, exit codes, JSON payloads, exports."""

import argparse
import hashlib
import inspect
import json
import os
import stat
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

import braidcat
from braidcat import cli
from braidcat.audit import run_audit
from braidcat.cli import main
from braidcat.complexes import TriComplex
from braidcat.fixtures import COMPLEX_NAMES, GRAPH_NAMES, SUBGROUPS, graph_fixture
from braidcat.metric_graph import MetricGraph, format_length


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code = main([*argv, "--json", "-"])
    captured = capsys.readouterr()
    return code, json.loads(captured.out)


# -- garside ----------------------------------------------------------------


def test_nf_of_the_full_twist(capsys):
    code, out, _ = run(capsys, "garside", "nf", "bac bac bac bac")
    assert code == 0
    assert out.strip() == "D^2"


def test_nf_json_payload(capsys):
    code, payload = run_json(capsys, "garside", "nf", "a b a B A B")
    assert code == 0
    assert payload["normal_form"] == "D^0"
    assert payload["canonical_length"] == 0


def test_eq_exit_codes(capsys):
    code, out, _ = run(capsys, "garside", "eq", "a b a", "b a b")
    assert code == 0 and out.strip() == "equal"
    code, out, _ = run(capsys, "garside", "eq", "a", "b")
    assert code == 1 and out.startswith("different")


def test_bad_letter_is_a_usage_error(capsys):
    code, _, err = run(capsys, "garside", "nf", "q")
    assert code == 2
    assert "alphabet" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("garside", "nf", "a^99999999999"),
        ("verify", "index", "--group", "g0", "--subgroup", "x^-100000000000, y"),
    ],
)
def test_word_too_long_to_expand_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: word has more than 1000000 letters\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("garside", "nf", "a b^4000"),
        ("garside", "eq", "a", "b^4001"),
        ("garside", "orbit", "x", "a b^4000"),
    ],
)
def test_word_too_long_for_a_normal_form_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: word has 4001 letters; the limit is 4000\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("garside", "eq", "a b^3999", "c a^3999"), "left right^-1 has 8000 letters"),
        (
            ("garside", "orbit", "b^1000", "a"),
            "step 16 of the orbit may normalise a word that has 32002 letters",
        ),
        (
            ("garside", "orbit", "b a c", "a", "--max-steps", "667"),
            "step 667 of the orbit may normalise a word that has 4004 letters",
        ),
    ],
)
def test_word_a_command_would_normalise_is_within_the_limit(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}; the limit is 4000\n"


def test_words_just_under_the_limit_are_accepted(capsys):
    # (b a c)^2 is the half twist D, so these long words have short normal forms
    code, out, _ = run(capsys, "garside", "eq", "b a c " * 1333, "b")  # 4000 letters
    assert code == 1 and out.startswith("different, difference D^665 ")
    code, payload = run_json(capsys, "garside", "orbit", "b a c", "a", "--max-steps", "666")
    assert code == 0 and payload["period"] == 4  # 2 + 2 * 666 * 3 = 3998 letters


@pytest.mark.parametrize("steps", ["-3", "0"])
def test_max_steps_below_one_is_an_invocation_error(capsys, steps):
    with pytest.raises(SystemExit) as exc:
        main(["garside", "orbit", "x", "a", "--max-steps", steps])
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert errors == [
        f"braidcat garside orbit: error: argument --max-steps: must be at least 1, got {steps}"
    ]


def test_word_limit_counts_letters_after_free_reduction(capsys):
    code, out, _ = run(capsys, "garside", "nf", "b^5000 B^5000 a")
    assert code == 0 and out.strip() == "D^0 | [2 1 3 4]"


def test_orbit_accepts_dictionary_names(capsys):
    code, payload = run_json(capsys, "garside", "orbit", "x", "a")
    assert code == 0
    assert payload["period"] == 4
    assert payload["convention"] == "left"


def test_orbit_convention_flag(capsys):
    _, left = run_json(capsys, "garside", "orbit", "y", "a")
    _, right = run_json(capsys, "garside", "orbit", "y", "a", "--convention", "right")
    assert left["period"] == right["period"] == 3
    assert left["orbit"] != right["orbit"]


def test_audit_presentation(capsys):
    code, payload = run_json(capsys, "garside", "audit-presentation")
    assert code == 0
    assert len(payload["equalities"]) == 10
    assert all(payload["equalities"].values())


# -- verify -----------------------------------------------------------------


def test_verify_index_fixture_both_strategies(capsys):
    code, payload = run_json(capsys, "verify", "index", "--fixture", "index-four")
    assert code == 0
    assert payload["hlt"]["count"] == 4
    assert payload["felsch"]["count"] == 4
    assert payload["agree"] is True
    assert payload["hlt"]["verified"] is True


def test_verify_index_single_strategy_exports_table(capsys):
    code, payload = run_json(
        capsys, "verify", "index", "--fixture", "index-four", "--strategy", "hlt"
    )
    assert code == 0
    assert payload["count"] == 4
    assert sorted(payload["action"]) == ["x", "y"]
    assert sorted(payload["action"]["x"]) == [1, 2, 3, 4]


def test_verify_index_inline_group_and_subgroup(capsys):
    code, payload = run_json(
        capsys, "verify", "index",
        "--group", "sl2", "--subgroup", "S^2 T,S^3 T", "--strategy", "hlt",
    )
    assert code == 0
    assert payload["count"] == 1


def test_verify_index_from_presentation_file(tmp_path, capsys):
    path = tmp_path / "group.txt"
    path.write_text("x y\nx^4\ny^3\nx y x^2 Y X Y x^-2 y\n")
    code, payload = run_json(
        capsys, "verify", "index", "--group", str(path), "--subgroup", "x,y"
    )
    assert code == 0
    assert payload["hlt"]["count"] == 1 and payload["felsch"]["count"] == 1


def test_verify_index_trivial_subgroup_is_spelled_one(tmp_path, capsys):
    path = tmp_path / "cyclic.txt"
    path.write_text("x\nx^3\n")
    code, _, err = run(capsys, "verify", "index", "--group", str(path), "--subgroup", "")
    assert code == 2 and "trivial subgroup is spelled 1" in err
    code, payload = run_json(capsys, "verify", "index", "--group", str(path), "--subgroup", "1")
    assert code == 0
    assert payload["hlt"]["count"] == 3 and payload["felsch"]["count"] == 3


def test_verify_index_overflow_is_exit_two(capsys):
    code, _, _ = run(
        capsys, "verify", "index", "--fixture", "index-four", "--cap", "2"
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "index", "--fixture", "index-four", "--cap", "-5"),
        ("verify", "index", "--fixture", "index-four", "--cap", "0"),
        ("audit", "index:four", "--cap", "-5"),
    ],
)
def test_cap_below_one_is_an_invocation_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "--cap: must be at least 1" in capsys.readouterr().err


def test_verify_index_requires_a_target(capsys):
    code, _, err = run(capsys, "verify", "index")
    assert code == 2
    assert "--fixture" in err or "--group" in err


def test_verify_index_unknown_fixture(capsys):
    code, _, err = run(capsys, "verify", "index", "--fixture", "bogus")
    assert code == 2
    assert "index-four" in err


def test_verify_pi(capsys):
    code, payload = run_json(capsys, "verify", "pi")
    assert code == 0
    assert all(entry["identity"] for entry in payload["relators"])
    assert all(payload["identities"].values())
    assert payload["is_minus_T"] is True
    assert payload["image_of_x_y_x^-2"] == [[-1, 0], [-1, -1]]


def test_verify_perm(capsys):
    code, payload = run_json(capsys, "verify", "perm")
    assert code == 0
    assert all(payload["checks"].values())
    assert payload["subgroup_order"] == 6


@pytest.mark.parametrize(
    "argv, selectors",
    [
        (("verify", "pi"), ["matrix:"]),
        (("verify", "perm"), ["perm:images", "perm:stabilizer"]),
        (("complex", "cat0", "x1bar"), ["link:girth"]),
        (("complex", "cat0", "ybar1"), ["link:wing-girth"]),
        (("garside", "audit-presentation"), ["presentation:"]),
        (("verify", "index", "--fixture", "index-four"), ["index:four"]),
        (("verify", "index", "--fixture", "whole-group-xy"), ["index:whole-xy"]),
        (("verify", "index", "--fixture", "whole-group-ax"), ["index:whole-ax"]),
        (("verify", "index", "--fixture", "matrix-pair"), ["index:matrix-pair"]),
    ],
)
def test_view_exit_code_agrees_with_the_audit(capsys, argv, selectors):
    code, _, _ = run(capsys, *argv)
    assert code == run_audit(only=selectors).exit_code


# -- complex and graph ------------------------------------------------------


def test_complex_build_summary(capsys):
    code, payload = run_json(capsys, "complex", "build", "x1bar")
    assert code == 0
    assert payload == {
        "vertices": 1,
        "edges": 9,
        "triangles": 9,
        "euler_characteristic": 1,
    }


def test_complex_build_unknown(capsys):
    code, _, err = run(capsys, "complex", "build", "mystery")
    assert code == 2 and "unknown complex" in err


def test_complex_link_smooth_node_count(capsys):
    code, out, _ = run(capsys, "complex", "link", "x1bar", "--smooth")
    assert code == 0
    nodes = [line for line in out.splitlines() if line.startswith("node ")]
    assert len(nodes) == 12


def test_complex_cat0_both_fixtures(capsys):
    for name in ("x1bar", "ybar1"):
        code, payload = run_json(capsys, "complex", "cat0", name)
        assert code == 0
        assert payload["girth_at_least_two_pi"] is True
        assert payload["girth_by_deletion"] == "2/1"
        assert payload["girth_by_enumeration"] == "2/1"


def test_complex_cat0_unknown_vertex(capsys):
    code, _, err = run(capsys, "complex", "cat0", "x1bar", "--vertex", "w")
    assert code == 2 and err


def test_graph_girth_both_algorithms(capsys):
    code, payload = run_json(capsys, "graph", "girth", "brady-link", "--both")
    assert code == 0
    assert payload["girth"] == "2/1"
    assert payload["agree"] is True


def test_graph_dist(capsys):
    code, out, _ = run(capsys, "graph", "dist", "x1bar-link-smooth", "t1+", "t2-")
    assert code == 0
    assert out.strip() == "1/1 pi"


def test_long_lengths_are_not_infinite(tmp_path, capsys):
    cycle = tmp_path / "cycle.txt"
    cycle.write_text("node a\nnode b\narc a b 1000000000/1\narc a b 1/1\n")
    code, out, _ = run(capsys, "graph", "girth", str(cycle), "--both")
    assert code == 0 and out.strip() == "girth 1000000001/1 pi, enumeration agrees: yes"
    single = tmp_path / "single.txt"
    single.write_text("node a\nnode b\narc a b 1000000001/1\n")
    code, out, _ = run(capsys, "graph", "dist", str(single), "a", "b")
    assert code == 0 and out.strip() == "1000000001/1 pi"


def unit_paths(ends, count, length):
    """Graph lines: ``count`` paths of ``length`` unit arcs from the first
    end to the last, so cycles when ``ends`` is one node."""
    lines = [f"node {end}" for end in ends]
    for k in range(count):
        path = [ends[0], *(f"m{k}_{j}" for j in range(1, length)), ends[-1]]
        lines += [f"node {node}" for node in path[1:-1]]
        lines += [f"arc {u} {v} 1/1" for u, v in zip(path, path[1:])]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("search", ["girth", "embed", "prism", "prism-trace"])
def test_input_deeper_than_the_recursion_limit(tmp_path, capsys, search):
    # The girth enumeration, the route enumeration and the search keep
    # their own stacks, so a 60-node cycle, a 60-arc route of a theta graph
    # into its subdivision and a prism of 20 nodes and 30 arcs into itself
    # get answers.  The JSON encoder recurses per level of the search tree,
    # so the prism's trace is refused and leaves no file.
    theta, target = tmp_path / "theta.txt", tmp_path / "target.txt"
    theta.write_text("node P\nnode Q\n" + "arc P Q 60/1\n" * 3)
    target.write_text(unit_paths(["P", "Q"], 3, 60))
    cycle = tmp_path / "cycle.txt"
    cycle.write_text(unit_paths(["v"], 1, 60))
    prism = tmp_path / "prism.txt"
    prism.write_text(
        "".join(f"node a{i}\nnode b{i}\n" for i in range(10))
        + "".join(
            f"arc a{i} a{(i + 1) % 10} 1/1\narc b{i} b{(i + 1) % 10} 1/1\narc a{i} b{i} 1/1\n"
            for i in range(10)
        )
    )
    argv = {
        "girth": ("graph", "girth", str(cycle), "--both"),
        "embed": ("embed", "--source", str(theta), "--target", str(target), "--mode", "first"),
        "prism": ("embed", "--source", str(prism), "--target", str(prism), "--mode", "first"),
    }[search.removesuffix("-trace")]
    trace = tmp_path / "trace.json"
    if search == "prism-trace":
        argv += ("--trace", str(trace))
    limit, low = sys.getrecursionlimit(), len(inspect.stack(0)) + 40
    sys.setrecursionlimit(low)
    try:
        code, out, err = run(capsys, *argv)
    finally:
        sys.setrecursionlimit(limit)
    if search == "girth":
        assert (code, out, err) == (0, "girth 60/1 pi, enumeration agrees: yes\n", "")
    elif search == "embed":
        assert (code, out, err) == (0, "1 embedding(s) found (all verified), 6 search nodes\n", "")
    elif search == "prism":
        assert (code, out, err) == (0, "1 embedding(s) found (all verified), 240 search nodes\n", "")
    else:
        assert code == 2 and out == "" and not trace.exists()
        assert err == "error: the trace is too deep to write as JSON; run without --trace\n"


def test_no_cycle_and_no_path_render_as_null(tmp_path, capsys):
    path = tmp_path / "path.txt"
    path.write_text("node a\nnode b\nnode c\narc a b 1/1\n")
    code, out, _ = run(capsys, "graph", "girth", str(path))
    assert code == 0 and out.strip() == "acyclic (no girth)"
    code, payload = run_json(capsys, "graph", "girth", str(path), "--both")
    assert payload == {"girth": None, "girth_by_enumeration": None, "agree": True}
    code, out, _ = run(capsys, "graph", "dist", str(path), "a", "c")
    assert code == 0 and out.strip() == "unreachable"
    code, payload = run_json(capsys, "graph", "dist", str(path), "a", "c")
    assert payload["distance"] is None
    # one triangle: the link of a corner is a single arc
    triangle = tmp_path / "triangle.txt"
    triangle.write_text(
        "vertex p\nvertex q\nvertex r\nedge a p q\nedge b q r\nedge c p r\n"
        "triangle a+ b+ c- 1/3 1/3 1/3\n"
    )
    code, out, _ = run(capsys, "complex", "cat0", str(triangle), "--vertex", "p")
    assert "girth none (deletion) = none (enumeration)" in out
    # a link with no cycle satisfies the link condition
    assert code == 0 and "nonpositively curved at p: yes" in out
    code, payload = run_json(capsys, "complex", "cat0", str(triangle), "--vertex", "p")
    assert payload["girth_by_deletion"] is None and payload["girth_by_enumeration"] is None
    assert code == 0 and payload["girth_at_least_two_pi"] is True


def fan(angle_at_p):
    """Three triangles around p; the link of p is a three-cycle of arcs
    of length ``angle_at_p``."""
    rim = (1 - angle_at_p) / 2
    lines = ["vertex p"] + [f"vertex q{i}" for i in range(3)]
    lines += [f"edge s{i} p q{i}" for i in range(3)]
    lines += [f"edge r{i} q{i} q{(i + 1) % 3}" for i in range(3)]
    lines += [
        f"triangle s{i}+ r{i}+ s{(i + 1) % 3}- "
        f"{format_length(rim)} {format_length(rim)} {format_length(angle_at_p)}"
        for i in range(3)
    ]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "angle_at_p, girth, code, verdict",
    [
        (Fraction(4, 5), "12/5", 0, "yes"),  # girth above 2 pi
        (Fraction(1, 3), "1/1", 1, "NO"),  # girth below 2 pi
    ],
)
def test_complex_cat0_is_the_link_condition(tmp_path, capsys, angle_at_p, girth, code, verdict):
    path = tmp_path / "fan.txt"
    path.write_text(fan(angle_at_p))
    got, out, _ = run(capsys, "complex", "cat0", str(path), "--vertex", "p")
    assert got == code and f"nonpositively curved at p: {verdict}" in out
    got, payload = run_json(capsys, "complex", "cat0", str(path), "--vertex", "p")
    assert got == code
    assert payload["girth_by_deletion"] == payload["girth_by_enumeration"] == girth
    assert payload["girth_at_least_two_pi"] is (code == 0)


def test_graph_dist_unknown_node(capsys):
    code, _, err = run(capsys, "graph", "dist", "brady-link", "v1", "v99")
    assert code == 2 and "v99" in err


def test_graph_from_file(tmp_path, capsys):
    path = tmp_path / "graph.txt"
    code, out, _ = run(
        capsys, "export", "x1bar-link-smooth", "--format", "text", "--out", str(path)
    )
    assert code == 0
    graph = MetricGraph.from_lines(path.read_text().splitlines())
    assert len(graph.nodes) == 12

    code, payload = run_json(capsys, "graph", "girth", str(path), "--both")
    assert code == 0 and payload["agree"] is True


# -- embed ------------------------------------------------------------------


def test_embed_main_search_through_cli(capsys, tmp_path):
    trace = tmp_path / "trace.json"
    code, payload = run_json(
        capsys, "embed",
        "--source", "brady-link", "--target", "x1bar-link-smooth",
        "--symmetry", "--certificates", "--trace", str(trace),
    )
    assert code == 0
    assert payload["found"] is True
    assert payload["certificates"] == 32
    assert payload["verified"] is True
    assert len(payload["certificate_list"]) == 32
    first = payload["certificate_list"][0]
    assert set(first) == {"node_images", "routes"}
    tree = json.loads(trace.read_text())
    assert tree["decision"]["kind"] == "root"
    assert tree["children"]


# (embed arguments, trace size, sha256, nodes, prunes by reason, complete nodes)
TRACE_PINS = {
    "main-symmetry": (
        ("--source", "brady-link", "--target", "x1bar-link-smooth", "--symmetry"),
        1_289_820,
        "0536c83db27aad6eb5f83fa7aff3b2add5d5dc9bfed164820e4c20d1c8f23ae4",
        2366,
        {"distance": 870, "target-node-used": 928},
        32,
    ),
    "wing": (
        ("--source", "ybar1-link-smooth", "--target", "x1bar-link"),
        354_484,
        "4bbc4f9d3226d6a641cb90c2c92e8dba68dca287838b558dd8a33f985ae041a5",
        1200,
        {"degree": 78, "target-node-used": 12, "length-mismatch": 90, "injectivity-clash": 12},
        432,
    ),
    "brady-first": (
        ("--source", "brady-link", "--target", "x1bar-link", "--mode", "first"),
        39_954,
        "9ef290e2e1c0a9e2a1aca11b0a25c18a3217fd05f9608342fe75b8e46af32ccc",
        87,
        {"degree": 30, "target-node-used": 19, "distance": 18},
        1,
    ),
}


@pytest.mark.parametrize("case", TRACE_PINS)
def test_embed_trace_file_is_pinned(capsys, tmp_path, case):
    """Traces byte for byte, every prune reason among them: the search's
    arithmetic and its trace construction may change, the tree it writes
    may not."""
    argv, size, sha256, want_nodes, want_prunes, want_complete = TRACE_PINS[case]
    trace = tmp_path / "trace.json"
    code, _, _ = run(capsys, "embed", *argv, "--trace", str(trace))
    assert code == 0
    data = trace.read_bytes()
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == sha256
    nodes, prunes, complete = 0, Counter(), 0
    stack = list(json.loads(data)["children"])
    while stack:
        node = stack.pop()
        nodes += 1
        prunes.update([node["prune"]["reason"]] if "prune" in node else [])
        complete += node.get("complete", False)
        stack.extend(node.get("children", []))
    assert nodes == want_nodes
    assert prunes == want_prunes
    assert complete == want_complete


def test_embed_trace_is_written_whole_or_not_at_all(capsys, tmp_path, monkeypatch):
    """The trace is streamed into a file beside the target and moved into
    place: a refused trace leaves no file, and a written one has the mode
    of a plain write."""
    monkeypatch.chdir(tmp_path)
    argv = ("embed", "--source", "brady-link", "--target", "x1bar-link", "--mode", "first")
    assert run(capsys, *argv, "--trace", "t.json")[0] == 0
    umask = os.umask(0)
    os.umask(umask)
    assert [p.name for p in tmp_path.iterdir()] == ["t.json"]
    assert stat.S_IMODE((tmp_path / "t.json").stat().st_mode) == 0o666 & ~umask

    def too_deep(*args, **kwargs):
        raise RecursionError

    monkeypatch.setattr(json, "dump", too_deep)
    code, out, err = run(capsys, *argv, "--trace", "u.json")
    assert (code, out) == (2, "") and err.startswith("error: the trace is too deep")
    assert [p.name for p in tmp_path.iterdir()] == ["t.json"]


def test_embed_without_symmetry_triples_the_count(capsys):
    code, payload = run_json(
        capsys, "embed", "--source", "brady-link", "--target", "x1bar-link-smooth"
    )
    assert code == 0
    assert payload["certificates"] == 96


def test_embed_negative_target(capsys):
    code, payload = run_json(
        capsys, "embed", "--source", "brady-link", "--target", "ybar1-link-smooth"
    )
    assert code == 0
    assert payload["found"] is False
    assert payload["certificates"] == 0
    assert payload["prunes"]


def test_embed_rejects_thin_source(capsys):
    code, _, err = run(
        capsys, "embed", "--source", "ybar1-link", "--target", "x1bar-link"
    )
    assert code == 2
    assert "degree" in err


def test_embed_refuses_a_trace_on_stdout(capsys, tmp_path, monkeypatch):
    """Stdout carries the result, so ``--trace -`` is refused before the
    search, not written to a file named ``-``."""
    monkeypatch.chdir(tmp_path)
    code, out, err = run(
        capsys, "embed", "--source", "brady-link", "--target", "x1bar-link", "--trace", "-"
    )
    assert code == 2 and out == ""
    assert err.startswith("error: --trace")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("result", ["out.json", "./out.json", "{tmp}/out.json"])
def test_embed_refuses_one_file_for_trace_and_result(capsys, tmp_path, monkeypatch, result):
    """The result would overwrite the trace, so two spellings of one path
    are refused before the search, and nothing is written."""
    monkeypatch.chdir(tmp_path)
    code, out, err = run(
        capsys, "embed", "--source", "brady-link", "--target", "brady-link", "--mode", "first",
        "--trace", "out.json", "--json", result.replace("{tmp}", str(tmp_path)),
    )
    assert code == 2 and out == ""
    assert err == "error: --trace and --json name one file; give the trace its own\n"
    assert list(tmp_path.iterdir()) == []


# one minimal valid argv per subcommand, and the flag that names its result file
SUBCOMMANDS = {
    "garside-nf": (("garside", "nf", "a"), "--json"),
    "garside-eq": (("garside", "eq", "a", "a"), "--json"),
    "garside-orbit": (("garside", "orbit", "a", "b"), "--json"),
    "garside-audit-presentation": (("garside", "audit-presentation"), "--json"),
    "verify-index": (("verify", "index", "--fixture", "index-four"), "--json"),
    "verify-pi": (("verify", "pi"), "--json"),
    "verify-perm": (("verify", "perm"), "--json"),
    "complex-build": (("complex", "build", "x1bar"), "--json"),
    "complex-link": (("complex", "link", "x1bar"), "--json"),
    "complex-cat0": (("complex", "cat0", "x1bar"), "--json"),
    "graph-girth": (("graph", "girth", "brady-link"), "--json"),
    "graph-dist": (("graph", "dist", "brady-link", "v1", "v2"), "--json"),
    "embed": (("embed", "--source", "brady-link", "--target", "brady-link"), "--json"),
    "audit": (("audit",), "--json"),
    "export": (("export", "audit-report"), "--out"),
}
IS_DIRECTORY, NO_DIRECTORY = "is a directory, not a file", "no directory missing"
EMPTY_PATH = "takes a file name, not an empty path"


def embed_with(trace, result):
    return SUBCOMMANDS["embed"][0] + ("--trace", trace, "--json", result)


OUTPUT_REFUSALS = {
    **{
        f"{name}-directory": (argv + (flag, "out"), f"{flag} out: {IS_DIRECTORY}")
        for name, (argv, flag) in SUBCOMMANDS.items()
    },
    **{
        f"{name}-missing": (
            argv + (flag, "missing/r.json"), f"{flag} missing/r.json: {NO_DIRECTORY}"
        )
        for name, (argv, flag) in SUBCOMMANDS.items()
    },
    **{
        f"{name}-empty": (argv + (flag, ""), f"{flag} {EMPTY_PATH}")
        for name, (argv, flag) in SUBCOMMANDS.items()
    },
    "embed-trace-empty": (embed_with("", "r.json"), f"--trace {EMPTY_PATH}"),
    "embed-both-empty": (embed_with("", ""), f"--trace {EMPTY_PATH}"),
    # either output is refused, and the other one is not left behind
    "embed-trace-missing": (
        embed_with("missing/t.json", "r.json"), f"--trace missing/t.json: {NO_DIRECTORY}"
    ),
    "embed-json-missing": (
        embed_with("t.json", "missing/r.json"), f"--json missing/r.json: {NO_DIRECTORY}"
    ),
    "embed-trace-directory": (embed_with(".", "r.json"), f"--trace .: {IS_DIRECTORY}"),
    "embed-json-dot": (embed_with("t.json", "."), f"--json .: {IS_DIRECTORY}"),
    "embed-json-directory": (embed_with("t.json", "out"), f"--json out: {IS_DIRECTORY}"),
}


@pytest.mark.parametrize("argv, refused", OUTPUT_REFUSALS.values(), ids=OUTPUT_REFUSALS)
def test_bad_output_is_refused_before_any_work(capsys, tmp_path, monkeypatch, argv, refused):
    """An output that could not be written is refused with one error line
    before any work: no file is written and the audit never runs."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "run_audit", lambda *a, **k: pytest.fail("the audit ran"))
    (tmp_path / "out").mkdir()
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {refused}\n")
    assert [path.name for path in tmp_path.rglob("*")] == ["out"]


# The argv sweep: every leaf subcommand of build_parser(), with no
# arguments, with an unknown name, and with each flag given one valid and
# each invalid value after a valid argv.  Every enumeration has finite
# index, and all but the bare `audit`'s run under `--cap 1000`.
SWEEP_ARGV = {  # leaf: (a valid argv, one naming a fixture or file that does not exist)
    "garside nf": (("a",), ("nope",)),
    "garside eq": (("a", "a"), ("nope", "a")),
    "garside orbit": (("x", "a"), ("nope", "a")),
    "garside audit-presentation": ((), ("nope",)),
    "verify index": (
        ("--group", "g0", "--subgroup", "x y x^-2,y", "--cap", "1000"),
        ("--fixture", "nope", "--cap", "1000"),
    ),
    "verify pi": ((), ("nope",)),
    "verify perm": ((), ("nope",)),
    "complex build": (("x1bar",), ("nope",)),
    "complex link": (("x1bar",), ("nope",)),
    "complex cat0": (("x1bar",), ("nope",)),
    "graph girth": (("brady-link",), ("nope",)),
    "graph dist": (("brady-link", "v1", "v2"), ("nope", "v1", "v2")),
    "embed": (
        ("--source", "brady-link", "--target", "brady-link"),
        ("--source", "nope", "--target", "brady-link"),
    ),
    "audit": (("index:four", "--cap", "1000"), ("nope",)),
    "export": (("brady-link",), ("nope",)),
}
SWEEP_VALUES = {  # flag: (a valid value, *invalid values)
    "--cap": ("1000", "0", "x"),
    "--max-steps": ("16", "0", "x"),
    "--strategy": ("hlt", "bogus"),
    "--format": ("json", "bogus"),
    "--convention": ("right", "bogus"),
    "--mode": ("first", "bogus"),
    "--vertex": ("o", "nope"),
    "--fixture": ("index-four", "nope"),
    "--group": ("g0", "nope"),
    "--subgroup": ("x y x^-2,y", "q"),
    "--source": ("brady-link", "nope"),
    "--target": ("brady-link", "nope"),
    "--json": ("r.json", ""),
    "--out": ("r.json", ""),
    "--trace": ("t.json", ""),
}
OUTPUT_FLAGS = ("--json", "--out", "--trace")


def leaf_parsers(parser, path=()):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from leaf_parsers(sub, path + (name,))
            return
    yield path, parser


def sweep_argvs():
    for path, leaf in leaf_parsers(cli.build_parser()):
        argv, unknown = SWEEP_ARGV[" ".join(path)]
        yield path
        yield path + unknown
        for action in leaf._actions:
            for flag in action.option_strings[-1:]:
                if action.nargs == 0:
                    yield from (path + argv + (flag,), path + argv + (flag + "=x",))
                else:
                    yield from (path + argv + (flag, value) for value in SWEEP_VALUES[flag])


def test_argv_sweep(capsys, tmp_path, monkeypatch):
    """Each run exits 0, 1 or 2 without a traceback, an exit 2 says why in
    exactly one ``error:`` line, and no file appears but the ones named."""
    argvs, failures = list(sweep_argvs()), []
    for k, argv in enumerate(argvs):
        scratch = tmp_path / str(k)
        scratch.mkdir()
        monkeypatch.chdir(scratch)
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's own refusals, and --help
            code = exc.code
        except Exception as exc:
            code = repr(exc)
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        named = {argv[i + 1] for i, word in enumerate(argv[:-1]) if word in OUTPUT_FLAGS}
        written = {path.name for path in scratch.rglob("*")}
        if code not in (0, 1, 2) or (code == 2 and len(errors) != 1) or not written <= named:
            failures.append((argv, code, errors, written))
    assert {" ".join(path) for path, _ in leaf_parsers(cli.build_parser())} == set(SWEEP_ARGV)
    assert not failures


def test_embed_symmetry_needs_a_compatible_target(capsys, tmp_path):
    code, _, err = run(
        capsys, "embed",
        "--source", "brady-link", "--target", "brady-link", "--symmetry",
    )
    assert code == 2
    # the glued link's node names, but one arc longer: no wing symmetry
    lines = graph_fixture("x1bar-link-smooth").to_lines()
    first = next(k for k, line in enumerate(lines) if line.startswith("arc "))
    lines[first] = lines[first].rsplit(" ", 1)[0] + " 7/3"
    path = tmp_path / "lopsided.txt"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(
        capsys, "embed", "--source", "brady-link", "--target", str(path), "--symmetry"
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "automorphism" in err and err.count("\n") == 1


# -- audit ------------------------------------------------------------------


def test_audit_full_run_exits_one(capsys):
    code, out, _ = run(capsys, "audit")
    assert code == 1
    assert "embed:main" in out
    assert "# composition:" in out


def test_audit_selection_exits_zero(capsys):
    code, out, _ = run(capsys, "audit", "index", "link")
    assert code == 0
    assert "index:four" in out and "link:girth" in out


def test_audit_json_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, _, _ = run(capsys, "audit", "presentation", "--json", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    assert data["summary"]["total"] == 10
    assert data["summary"]["exit_code"] == 0


def test_audit_list(capsys):
    code, out, _ = run(capsys, "audit", "--list")
    assert code == 0
    idents = out.split()
    assert len(idents) == 53
    assert idents == sorted(idents)
    code, payload = run_json(capsys, "audit", "--list")
    assert code == 0 and payload == {"checks": idents}
    code, out, _ = run(capsys, "audit", "--list", "embed")
    assert code == 0
    assert out.split() == [i for i in idents if i.startswith("embed:")] and len(out.split()) == 4


def test_audit_bad_selector(capsys):
    code, _, err = run(capsys, "audit", "garbage")
    assert code == 2 and "matches no check" in err
    code, out, err = run(capsys, "audit", "--list", "garbage")
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: selector 'garbage' matches no check"]


def test_audit_check_that_raises_is_reported(capsys, monkeypatch):
    def broken():
        raise RuntimeError("no matrices today")

    monkeypatch.setattr("braidcat.audit.matrix_claims", broken)
    code, out, err = run(capsys, "audit", "matrix")
    assert code == 1 and err == ""
    assert out.count(" error ") == 2


def test_audit_cap_flag_reaches_the_enumerator(capsys):
    code, _, _ = run(capsys, "audit", "index:four", "--cap", "2")
    assert code == 2


# -- export -----------------------------------------------------------------


def test_export_brady_json_counts(capsys):
    code, out, _ = run(capsys, "export", "brady-link", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["nodes"]) == 8
    assert len(data["arcs"]) == 12


def test_export_link_dot_has_every_node(capsys):
    code, out, _ = run(capsys, "export", "x1bar-link", "--format", "dot")
    assert code == 0
    assert out.count(";") >= 18 + 27
    for germ in ("a+", "e-", "B^+", "t3-", "b2+"):
        assert f'"{germ}"' in out


def test_export_complex_text_round_trips(capsys):
    code, out, _ = run(capsys, "export", "x1bar", "--format", "text")
    assert code == 0
    cx = TriComplex.from_lines(out.splitlines())
    assert len(cx.triangles) == 9


def test_export_table(capsys):
    code, out, _ = run(capsys, "export", "index-four", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 4
    assert data["action"]["x"] == [2, 3, 4, 1]


def test_export_audit_report_is_byte_deterministic(tmp_path, capsys):
    first, second = tmp_path / "one.json", tmp_path / "two.json"
    assert run(capsys, "export", "audit-report", "--format", "json", "--out", str(first))[0] == 0
    assert run(capsys, "export", "audit-report", "--format", "json", "--out", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()
    data = json.loads(first.read_text())
    assert data["summary"]["failed"] == ["embed:main"]


@pytest.mark.parametrize(
    "fmt, sha256",
    [
        ("json", "1df0ead74f3b017527e6864d5351f832be158bc5e02316cdbf8fc3f8a8889485"),
        ("text", "72d2d5b2d7143386ceec12cc1022992c24ddd380322978f3608d343b5f2e1b6a"),
    ],
)
def test_export_audit_report_is_pinned(tmp_path, capsys, fmt, sha256):
    """Every id, status and claim (text) and every witness (json), byte
    for byte: a change to any of them must change this pin on purpose."""
    path = tmp_path / f"report.{fmt}"
    assert run(capsys, "export", "audit-report", "--format", fmt, "--out", str(path))[0] == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


def test_export_unknown_object(capsys):
    code, _, err = run(capsys, "export", "nonsense")
    assert code == 2 and "unknown object" in err


def test_export_dot_rejected_for_complexes(capsys):
    code, _, err = run(capsys, "export", "x1bar", "--format", "dot")
    assert code == 2 and "link" in err


@pytest.mark.parametrize("name", ["audit-report", "index-four"])
def test_export_dot_rejected_before_building(capsys, monkeypatch, name):
    def refuse(*args, **kwargs):
        raise AssertionError("built the object before checking the format")

    monkeypatch.setattr("braidcat.cli.run_audit", refuse)
    monkeypatch.setattr("braidcat.cli.enumerate_cosets", refuse)
    code, _, err = run(capsys, "export", name, "--format", "dot")
    assert code == 2 and err.strip() == "error: dot export is for graphs"


@pytest.mark.parametrize("fmt", ["text", "json", "dot"])
@pytest.mark.parametrize(
    "name", [*GRAPH_NAMES, *COMPLEX_NAMES, *sorted(SUBGROUPS), "audit-report"]
)
def test_every_export_writes_to_out_what_it_prints(tmp_path, capsys, name, fmt):
    path = tmp_path / "out"
    code, out, err = run(capsys, "export", name, "--format", fmt)
    assert run(capsys, "export", name, "--format", fmt, "--out", str(path)) == (code, "", err)
    if fmt == "dot" and name not in GRAPH_NAMES:
        assert code == 2 and out == "" and not path.exists()
        assert err.startswith("error: dot export is for graphs") and err.count("\n") == 1
    else:
        assert code == 0 and err == "" and out.endswith("\n")
        assert path.read_bytes() == out.encode()
        if fmt == "json":
            json.loads(out)


def without_seconds(report: dict) -> dict:
    for entry in report["results"]:
        del entry["seconds"]
    return report


@pytest.mark.parametrize(
    "argv",
    [
        ("garside", "nf", "a b a B A B"),
        ("garside", "eq", "a", "b"),
        ("garside", "orbit", "x", "a"),
        ("garside", "audit-presentation"),
        ("verify", "index", "--fixture", "index-four"),
        ("verify", "pi"),
        ("verify", "perm"),
        ("complex", "build", "x1bar"),
        ("complex", "link", "x1bar", "--smooth"),
        ("complex", "cat0", "ybar1"),
        ("graph", "girth", "brady-link", "--both"),
        ("graph", "dist", "x1bar-link-smooth", "t1+", "t2-"),
        ("embed", "--source", "brady-link", "--target", "ybar1-link-smooth"),
        ("audit", "presentation", "index:four"),
        ("audit", "--list"),
    ],
)
def test_json_file_holds_what_json_stdout_prints(tmp_path, capsys, argv):
    path = tmp_path / "out.json"
    code, out, err = run(capsys, *argv, "--json", "-")
    assert run(capsys, *argv, "--json", str(path)) == (code, "", err)
    printed, written = out.encode(), path.read_bytes()
    if argv[0] == "audit" and "--list" not in argv:
        # the per-check timings differ between any two runs
        printed, written = (without_seconds(json.loads(data)) for data in (printed, written))
    assert written == printed


# -- the parser -------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("--help",),
        ("bogus",),
        ("--bogus", "audit"),
        ("-h", "garside"),
        ("--", "garside"),
        ("garside",),
        ("garside", "nf", "--help"),
        ("verify", "index", "--cap", "0"),
        ("graph", "girth"),
        ("embed", "--source", "x"),
        ("export", "--format", "svg", "x"),
    ],
)
def test_main_answers_usage_as_the_whole_parser(capsys, monkeypatch, argv):
    """``main`` adds only the subcommands of the command it is given; its
    help and usage errors read as the whole parser's do."""
    monkeypatch.setenv("COLUMNS", "80")
    answers = []
    for parse in (main, cli.build_parser().parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(list(argv))
        answers.append((exc.value.code, *capsys.readouterr()))
    assert answers[0] == answers[1]


# -- the installed entry point ----------------------------------------------


def test_console_script_runs():
    # The child imports the same braidcat as this test, installed or not.
    src = os.path.dirname(os.path.dirname(braidcat.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "braidcat.cli", "audit", "index:four"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "index:four" in proc.stdout
