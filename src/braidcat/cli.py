"""Command line front end.

One subcommand per verification surface, plus ``audit`` to run the whole
catalogue and ``export`` to dump any named fixture.  Each handler maps
the parsed arguments to (payload, text, exit code), and ``main`` writes
one of the two.  Every subcommand but ``export`` writes its payload as
JSON with ``--json PATH`` and its text without it; ``export`` renders
as ``--format`` says and writes to ``--out PATH``.  A path of ``-``, or
no path, means stdout; one that could not be written is refused before any work.

Exit codes: 0 when every requested check passed (resolved counts as a
pass), 1 when any check failed, 2 when the outcome is inconclusive (a
coset cap was hit) or the invocation itself was invalid.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import fixtures
from .audit import (
    certificates_verified,
    check_identifiers,
    index_runs,
    matrix_claims,
    presentation_results,
    run_audit,
    strand_claims,
)
from .complexes import TriComplex, vertex_link
from .cosets import DEFAULT_CAP, Enumeration, Presentation, enumerate_cosets
from .embed import find_embeddings
from .garside import conjugation_orbit, difference, normal_form
from .metric_graph import MetricGraph, format_length
from .reps import COMPOSITION_CONVENTION
from .words import ALPHABET_ABC, Alphabet, Word, parse

__all__ = ["main"]

# The longest word the garside commands take: a normal form costs time
# quadratic in the word's length, about 1 s at 4,000 letters.
MAX_BRAID_LETTERS = 4_000


# A handler's JSON payload, its text and its exit code; an export sets only one of the two.
Result = tuple[dict | None, str | None, int]


class CliError(Exception):
    """Invalid invocation or unknown object; reported on stderr, exit 2."""


# ---------------------------------------------------------------------------
# shared plumbing


def _graph_json(graph: MetricGraph) -> dict:
    return {
        "nodes": list(graph.nodes),
        "arcs": [[u, v, format_length(length)] for u, v, length in graph.arcs],
    }


def _complex_json(cx: TriComplex) -> dict:
    return {
        "vertices": list(cx.vertices),
        "edges": [[label, src, dst] for label, src, dst in cx.edges],
        "triangles": [
            {
                "sides": [side.token() for side in t.sides],
                "angles": [format_length(a) for a in t.angles],
            }
            for t in cx.triangles
        ],
    }


def _load(kind: str, name: str) -> MetricGraph | TriComplex:
    """A graph or complex: a named fixture, or a file in its text format."""
    names, fixture, from_lines = {
        "graph": (fixtures.GRAPH_NAMES, fixtures.graph_fixture, MetricGraph.from_lines),
        "complex": (fixtures.COMPLEX_NAMES, fixtures.complex_fixture, TriComplex.from_lines),
    }[kind]
    if name in names:
        return fixture(name)
    path = Path(name)
    if path.is_file():
        return from_lines(path.read_text().splitlines())
    raise CliError(
        f"unknown {kind} {name!r}: not a fixture ({', '.join(names)}) and not a readable file"
    )


def _load_presentation(name: str) -> Presentation:
    """A fixture name, or a file whose first line lists the generators
    and whose remaining nonempty lines are one relator each."""
    if name == "g0":
        return fixtures.g0_presentation()
    if name == "sl2":
        return fixtures.sl2_presentation()
    path = Path(name)
    if not path.is_file():
        raise CliError(f"unknown group {name!r}: not g0, sl2, or a readable file")
    lines = [line.strip() for line in path.read_text().splitlines()]
    lines = [line for line in lines if line and not line.startswith("#")]
    if not lines:
        raise CliError(f"presentation file {name!r} is empty")
    alphabet = Alphabet(tuple(lines[0].split()))
    relators = tuple(parse(text, alphabet) for text in lines[1:])
    return Presentation(alphabet, relators)


def _length_or_none(length: Fraction | None) -> str | None:
    """A length for a JSON payload; None (no cycle, no path) stays null."""
    return None if length is None else format_length(length)


def _pi_or_none(length: Fraction | None) -> str:
    return "none" if length is None else f"{format_length(length)} pi"


def _mat_rows(matrix) -> list[list[int]]:
    return [list(row) for row in matrix]


def _within_limit(what: str, letters: int) -> None:
    """Refuse to normalise ``what`` when it has more than MAX_BRAID_LETTERS letters."""
    if letters > MAX_BRAID_LETTERS:
        raise CliError(f"{what} has {letters} letters; the limit is {MAX_BRAID_LETTERS}")


def _braid_word(text: str) -> Word:
    """A word over a, b, c of at most MAX_BRAID_LETTERS letters."""
    word = parse(text, ALPHABET_ABC)
    _within_limit("word", len(word))
    return word


# ---------------------------------------------------------------------------
# garside


def _cmd_garside_nf(args) -> Result:
    word = _braid_word(args.word)
    nf = normal_form(word)
    payload = {
        "word": str(word),
        "normal_form": str(nf),
        "infimum": nf.infimum,
        "supremum": nf.supremum,
        "canonical_length": nf.canonical_length,
    }
    return payload, str(nf), 0


def _cmd_garside_eq(args) -> Result:
    left, right = _braid_word(args.left), _braid_word(args.right)
    _within_limit("left right^-1", len(left * right.inverse()))
    nf = difference(left, right)
    same = nf.is_identity
    payload = {
        "left": str(left),
        "right": str(right),
        "equal": same,
        "difference_normal_form": str(nf),
    }
    text = "equal" if same else f"different, difference {nf}"
    return payload, text, 0 if same else 1


def _cmd_garside_orbit(args) -> Result:
    conjugator = fixtures.WORDS.get(args.conjugator) or _braid_word(args.conjugator)
    seed = fixtures.WORDS.get(args.seed) or _braid_word(args.seed)
    # step k normalises g^k seed g^-k seed^-1: at most 2|seed| + 2k|g| letters
    longest = 2 * len(seed) + 2 * args.max_steps * len(conjugator)
    _within_limit(f"step {args.max_steps} of the orbit may normalise a word that", longest)
    orbit = conjugation_orbit(
        conjugator, seed, max_steps=args.max_steps, convention=args.convention
    )
    payload = {
        "conjugator": str(conjugator),
        "seed": str(seed),
        "convention": args.convention,
        "period": len(orbit),
        "orbit": [str(w) for w in orbit],
    }
    text = "\n".join(
        [f"period {len(orbit)} under {args.convention} conjugation"]
        + [f"  {w}" for w in orbit]
    )
    return payload, text, 0


def _cmd_garside_audit_presentation(args) -> Result:
    results = {label: nf.is_identity for label, nf in presentation_results().items()}
    payload = {
        "dictionary": {name: str(fixtures.WORDS[name]) for name in ("e", "f", "d")},
        "equalities": results,
    }
    width = max(len(label) for label in results)
    text = "\n".join(
        f"{label:<{width}}  {'pass' if ok else 'fail'}" for label, ok in results.items()
    )
    return payload, text, 0 if all(results.values()) else 1


# ---------------------------------------------------------------------------
# verify


def _cmd_verify_index(args) -> Result:
    if args.fixture:
        if args.group or args.subgroup:
            raise CliError("--fixture names the group and subgroup; drop --group and --subgroup")
        if args.fixture not in fixtures.SUBGROUPS:
            raise CliError(
                f"unknown subgroup fixture {args.fixture!r}; "
                f"have {', '.join(sorted(fixtures.SUBGROUPS))}"
            )
        factory, subgroup = fixtures.SUBGROUPS[args.fixture]
        presentation = factory()
    else:
        if not (args.group and args.subgroup):
            raise CliError(
                "need either --fixture or both --group and --subgroup "
                "(the trivial subgroup is spelled 1)"
            )
        presentation = _load_presentation(args.group)
        subgroup = [
            parse(text, presentation.alphabet) for text in args.subgroup.split(",") if text.strip()
        ]

    strategies = ("hlt", "felsch") if args.strategy == "both" else (args.strategy,)
    runs = index_runs(presentation, subgroup, strategies, args.cap)

    payload: dict = {"subgroup": [str(w) for w in subgroup]}
    lines = []
    for strategy, (result, verified) in runs.items():
        if isinstance(result, Enumeration):
            payload[strategy] = {**result.to_json_dict(), "verified": verified}
            lines.append(
                f"{strategy}: index {result.count}, defined {result.defined}, "
                f"table {'verified' if verified else 'BROKEN'}"
            )
        else:
            payload[strategy] = {"overflow_cap": result.cap}
            lines.append(f"{strategy}: inconclusive, cap {result.cap} hit")
    if not all(isinstance(result, Enumeration) for result, _ in runs.values()):
        return payload, "\n".join(lines), 2
    counts = {result.count for result, _ in runs.values()}
    if len(runs) == 2:
        payload["agree"] = len(counts) == 1
        lines.append(f"strategies agree: {'yes' if payload['agree'] else 'NO'}")
    else:
        payload.update({key: payload[strategies[0]][key] for key in ("count", "action")})
    ok = all(verified for _, verified in runs.values()) and len(counts) == 1
    return payload, "\n".join(lines), 0 if ok else 1


def _cmd_verify_pi(args) -> Result:
    claims = matrix_claims()
    assignment = claims["assignment"]
    relator_report = [
        {"relator": str(r["word"]), "image": _mat_rows(r["image"]), "identity": r["identity"]}
        for r in claims["relators"]
    ]
    identities = claims["identities"]
    payload = {
        "assignment": {"x": _mat_rows(assignment["x"]), "y": _mat_rows(assignment["y"])},
        "relators": relator_report,
        "identities": identities,
        "image_of_x_y_x^-2": _mat_rows(claims["minus_t"]),
        "is_minus_T": claims["is_minus_t"],
    }
    lines = [
        f"{entry['relator']}: {'identity' if entry['identity'] else 'NOT identity'}"
        for entry in relator_report
    ]
    lines += [f"{label}: {'pass' if ok else 'fail'}" for label, ok in identities.items()]
    lines.append(f"x y x^-2 maps to -T: {'pass' if payload['is_minus_T'] else 'fail'}")
    ok = (
        all(entry["identity"] for entry in relator_report)
        and all(identities.values())
        and payload["is_minus_T"]
    )
    return payload, "\n".join(lines), 0 if ok else 1


def _cmd_verify_perm(args) -> Result:
    claims = strand_claims()
    checks = {label: ok for facts in claims["facts"].values() for label, ok in facts.items()}
    payload = {
        "composition": COMPOSITION_CONVENTION,
        "images": {name: list(p) for name, p in sorted(claims["assignment"].items())},
        "x_image": list(claims["x"]),
        "y_image": list(claims["y"]),
        "subgroup_order": len(claims["subgroup"]),
        "checks": checks,
    }
    text = "\n".join(f"{label}: {'pass' if ok else 'fail'}" for label, ok in checks.items())
    return payload, text, 0 if all(checks.values()) else 1


# ---------------------------------------------------------------------------
# complex


def _cmd_complex_build(args) -> Result:
    cx = _load("complex", args.name)
    payload = {
        "vertices": len(cx.vertices),
        "edges": len(cx.edges),
        "triangles": len(cx.triangles),
        "euler_characteristic": cx.euler_characteristic(),
    }
    text = "\n".join(cx.to_lines()) + f"\n# chi = {payload['euler_characteristic']}"
    return payload, text, 0


def _cmd_complex_link(args) -> Result:
    link = vertex_link(_load("complex", args.name), args.vertex)
    if args.smooth:
        link = link.smooth()
    return _graph_json(link), "\n".join(link.to_lines()), 0


def _cmd_complex_cat0(args) -> Result:
    link = vertex_link(_load("complex", args.name), args.vertex)
    by_deletion, by_enumeration = link.girth(), link.girth_exhaustive()
    # the link condition: no cycle, or girth at least 2 pi
    ok = by_deletion == by_enumeration and (by_deletion is None or by_deletion >= 2)
    payload = {
        "vertex": args.vertex,
        "link_nodes": len(link.nodes),
        "link_arcs": len(link.arcs),
        "girth_by_deletion": _length_or_none(by_deletion),
        "girth_by_enumeration": _length_or_none(by_enumeration),
        "girth_at_least_two_pi": ok,
    }
    text = (
        f"link of {args.vertex}: {len(link.nodes)} nodes, {len(link.arcs)} arcs\n"
        f"girth {_pi_or_none(by_deletion)} (deletion) "
        f"= {_pi_or_none(by_enumeration)} (enumeration)\n"
        f"nonpositively curved at {args.vertex}: {'yes' if ok else 'NO'}"
    )
    return payload, text, 0 if ok else 1


# ---------------------------------------------------------------------------
# graph


def _cmd_graph_girth(args) -> Result:
    graph = _load("graph", args.name)
    by_deletion = graph.girth()
    payload = {"girth": _length_or_none(by_deletion)}
    if args.both:
        by_enumeration = graph.girth_exhaustive()
        payload["girth_by_enumeration"] = _length_or_none(by_enumeration)
        payload["agree"] = by_deletion == by_enumeration
    if by_deletion is None:
        text = "acyclic (no girth)"
    else:
        text = f"girth {format_length(by_deletion)} pi"
        if args.both:
            text += f", enumeration agrees: {'yes' if payload['agree'] else 'NO'}"
    return payload, text, 1 if args.both and not payload["agree"] else 0


def _cmd_graph_dist(args) -> Result:
    graph = _load("graph", args.name)
    for node in (args.source, args.dest):
        if node not in graph.nodes:
            raise CliError(f"node {node!r} not in graph")
    d = graph.distance(args.source, args.dest)
    payload = {"from": args.source, "to": args.dest, "distance": _length_or_none(d)}
    text = "unreachable" if d is None else f"{format_length(d)} pi"
    return payload, text, 0


# ---------------------------------------------------------------------------
# embed


def _cmd_embed(args) -> Result:
    source = _load("graph", args.source)
    target = _load("graph", args.target)
    automorphisms = [fixtures.link_symmetry(target)] if args.symmetry else None
    outcome = find_embeddings(
        source,
        target,
        mode=args.mode,
        automorphisms=automorphisms,
        with_trace=args.trace is not None,
    )
    verified = certificates_verified(source, target, outcome.certificates)
    payload = {
        "source": args.source,
        "target": args.target,
        "mode": args.mode,
        "symmetry_reduced": bool(automorphisms),
        "found": outcome.found,
        "certificates": len(outcome.certificates),
        "verified": verified,
        "nodes_explored": outcome.nodes_explored,
        "prunes": dict(outcome.prunes),
    }
    if args.certificates:
        payload["certificate_list"] = [
            emb.to_json_dict(source, target) for emb in outcome.certificates
        ]
    if args.trace is not None:
        import tempfile  # here, so that no other command pays for the import

        # streamed into a file beside the target, which replaces it once whole
        out = tempfile.NamedTemporaryFile("w", dir=Path(args.trace).parent, delete=False)
        try:
            with out:  # the encoder recurses about twice per level of the search tree
                json.dump(outcome.trace, out, indent=1)
                out.write("\n")
        except BaseException as exc:
            os.remove(out.name)
            if not isinstance(exc, RecursionError):
                raise
            raise CliError("the trace is too deep to write as JSON; run without --trace") from None
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(out.name, 0o666 & ~umask)  # the mode a plain write would give
        os.replace(out.name, args.trace)
        payload["trace_file"] = args.trace
    if outcome.found:
        text = (
            f"{len(outcome.certificates)} embedding(s) found "
            f"({'all verified' if verified else 'VERIFIER REJECTED SOME'}), "
            f"{outcome.nodes_explored} search nodes"
        )
    else:
        text = (
            f"no embedding (exhaustive), {outcome.nodes_explored} search nodes, "
            f"prunes {dict(outcome.prunes)}"
        )
    return payload, text, 0 if verified else 1


# ---------------------------------------------------------------------------
# audit and export


def _cmd_audit(args) -> Result:
    if args.list:
        idents = check_identifiers(args.checks or None)
        return {"checks": idents}, "\n".join(idents), 0
    report = run_audit(only=args.checks or None, cap=args.cap, convention=args.convention)
    header = "\n".join(
        f"# {key}: {value}" for key, value in sorted(report.meta.items())
    )
    text = header + "\n" + report.to_text()
    return report.to_json_dict(), text, report.exit_code


_EXPORT_FORMATS = ("text", "json", "dot")


def _cmd_export(args) -> Result:
    name, fmt = args.object, args.format
    if name in fixtures.GRAPH_NAMES:
        graph = fixtures.graph_fixture(name)
        if fmt == "dot":
            return None, graph.to_dot(), 0
        if fmt == "text":
            return None, "\n".join(graph.to_lines()), 0
        return _graph_json(graph), None, 0
    if fmt == "dot":
        if name in fixtures.COMPLEX_NAMES:
            raise CliError("dot export is for graphs; export the link instead")
        if name in fixtures.SUBGROUPS or name == "audit-report":
            raise CliError("dot export is for graphs")
    if name in fixtures.COMPLEX_NAMES:
        cx = fixtures.complex_fixture(name)
        if fmt == "text":
            return None, "\n".join(cx.to_lines()), 0
        return _complex_json(cx), None, 0
    if name in fixtures.SUBGROUPS:
        factory, subgroup = fixtures.SUBGROUPS[name]
        result = enumerate_cosets(factory(), subgroup, strategy="hlt")
        if not isinstance(result, Enumeration):
            raise CliError(f"enumeration for {name!r} hit the cap")
        if fmt == "text":
            rows = [f"index {result.count}"]
            for gen, images in sorted(result.action.items()):
                rows.append(f"{gen}: {' '.join(str(i) for i in images)}")
            return None, "\n".join(rows), 0
        return result.to_json_dict(), None, 0
    if name == "audit-report":
        report = run_audit()
        if fmt == "text":
            return None, report.to_text(), 0
        # timing stripped so equal builds export equal bytes
        return report.to_json_dict(include_timing=False), None, 0
    known = (
        list(fixtures.GRAPH_NAMES)
        + list(fixtures.COMPLEX_NAMES)
        + sorted(fixtures.SUBGROUPS)
        + ["audit-report"]
    )
    raise CliError(f"unknown object {name!r}; have {', '.join(known)}")


# ---------------------------------------------------------------------------
# parser


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _handled_by(parser: argparse.ArgumentParser, func, flag: str = "--json", **options) -> None:
    """Makes ``func`` the subcommand's handler and adds, last, its output
    flag, stored as ``args.json``: the path ``main`` writes to."""
    options.setdefault("help", "write the result as JSON to PATH (- for stdout) instead of text")
    parser.add_argument(flag, dest="json", metavar="PATH", **options)
    parser.set_defaults(func=func)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The whole parser; given ``command``, only that command's subcommands
    are added, since the other commands need just their help line."""
    parser = argparse.ArgumentParser(
        prog="braidcat",
        description="exact verification of the braid-group and link computations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    garside = sub.add_parser("garside", help="normal forms and word identities")
    if command in (None, "garside"):
        gsub = garside.add_subparsers(dest="subcommand", required=True)

        p = gsub.add_parser("nf", help="left-greedy normal form of a word")
        p.add_argument("word", help="word over a, b, c (uppercase inverts)")
        _handled_by(p, _cmd_garside_nf)

        p = gsub.add_parser("eq", help="decide equality of two words (exit 1 if different)")
        p.add_argument("left")
        p.add_argument("right")
        _handled_by(p, _cmd_garside_eq)

        p = gsub.add_parser("orbit", help="conjugation orbit of a seed word")
        p.add_argument("conjugator", help="word, or a dictionary name like x or y")
        p.add_argument("seed", help="word, or a dictionary name like a or bhat")
        p.add_argument(
            "--convention",
            choices=("left", "right"),
            default="left",
            help="left: w -> g w g^-1 (default); right: w -> g^-1 w g",
        )
        p.add_argument("--max-steps", type=_positive_int, default=16)
        _handled_by(p, _cmd_garside_orbit)

        p = gsub.add_parser(
            "audit-presentation",
            help="check the ten defining equalities of the six-generator presentation",
        )
        _handled_by(p, _cmd_garside_audit_presentation)

    verify = sub.add_parser("verify", help="index, matrix, and permutation checks")
    if command in (None, "verify"):
        vsub = verify.add_subparsers(dest="subcommand", required=True)

        p = vsub.add_parser("index", help="coset enumeration for a subgroup")
        p.add_argument("--fixture", help=f"named pair: {', '.join(sorted(fixtures.SUBGROUPS))}")
        p.add_argument("--group", help="g0, sl2, or a presentation file")
        p.add_argument("--subgroup", help="comma-separated generator words")
        p.add_argument("--strategy", choices=("hlt", "felsch", "both"), default="both")
        p.add_argument("--cap", type=_positive_int, default=DEFAULT_CAP, help="max cosets defined")
        _handled_by(p, _cmd_verify_index)

        p = vsub.add_parser("pi", help="the matrix homomorphism kills the relators")
        _handled_by(p, _cmd_verify_pi)

        p = vsub.add_parser("perm", help="the strand-permutation images")
        _handled_by(p, _cmd_verify_perm)

    cx = sub.add_parser("complex", help="triangle complexes and their links")
    if command in (None, "complex"):
        csub = cx.add_subparsers(dest="subcommand", required=True)

        p = csub.add_parser("build", help="build a named complex and print it")
        p.add_argument("name", help=f"fixture ({', '.join(fixtures.COMPLEX_NAMES)}) or file")
        _handled_by(p, _cmd_complex_build)

        p = csub.add_parser("link", help="vertex link as a metric graph")
        p.add_argument("name")
        p.add_argument("--vertex", default="o")
        p.add_argument("--smooth", action="store_true", help="suppress degree-two nodes first")
        _handled_by(p, _cmd_complex_link)

        p = csub.add_parser(
            "cat0", help="link condition: girth of the vertex link is at least 2 pi"
        )
        p.add_argument("name")
        p.add_argument("--vertex", default="o")
        _handled_by(p, _cmd_complex_cat0)

    graph = sub.add_parser("graph", help="metric-graph computations")
    if command in (None, "graph"):
        grsub = graph.add_subparsers(dest="subcommand", required=True)

        p = grsub.add_parser("girth", help="length of the shortest cycle")
        p.add_argument("name", help=f"fixture ({', '.join(fixtures.GRAPH_NAMES)}) or file")
        p.add_argument(
            "--both",
            action="store_true",
            help="also run the exhaustive algorithm and compare",
        )
        _handled_by(p, _cmd_graph_girth)

        p = grsub.add_parser("dist", help="shortest path length between two nodes")
        p.add_argument("name")
        p.add_argument("source")
        p.add_argument("dest")
        _handled_by(p, _cmd_graph_dist)

    p = sub.add_parser(
        "embed", help="search for locally isometric embeddings between graphs"
    )
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--mode", choices=("all", "first"), default="all")
    p.add_argument(
        "--symmetry",
        action="store_true",
        help="reduce root choices by the wing symmetry of the target",
    )
    p.add_argument(
        "--certificates",
        action="store_true",
        help="include every certificate in the JSON payload",
    )
    p.add_argument("--trace", metavar="PATH", help="write the full search tree as JSON to a file")
    _handled_by(p, _cmd_embed)

    p = sub.add_parser("audit", help="run the whole claim catalogue")
    p.add_argument(
        "checks",
        nargs="*",
        metavar="CHECK",
        help="check identifiers or prefixes (default: everything)",
    )
    p.add_argument("--list", action="store_true", help="list the selected identifiers and exit")
    p.add_argument("--cap", type=_positive_int, default=DEFAULT_CAP)
    p.add_argument(
        "--convention",
        choices=("left", "right"),
        default="left",
        help="conjugation direction for the orbit checks, echoed in the header",
    )
    _handled_by(p, _cmd_audit)

    p = sub.add_parser("export", help="dump a named fixture or the audit report")
    p.add_argument("object")
    p.add_argument("--format", choices=_EXPORT_FORMATS, default="text")
    _handled_by(p, _cmd_export, "--out", default="-", help="output file (default stdout)")

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the top level takes no option with a value, so its first other word names the command
    args = build_parser(next((w for w in argv if not w.startswith("-")), None)).parse_args(argv)
    try:  # refuse, before any work, an output that could not be written
        trace = getattr(args, "trace", None)
        if trace == "-":
            raise CliError("--trace takes a file; stdout carries the result")
        if trace and args.json not in (None, "", "-"):  # an empty path is refused below
            if Path(trace).resolve() == Path(args.json).resolve():
                raise CliError("--trace and --json name one file; give the trace its own")
        result = "--out" if args.command == "export" else "--json"
        for flag, path in (("--trace", trace), (result, args.json)):
            if path == "":
                raise CliError(f"{flag} takes a file name, not an empty path")
            if path not in (None, "-") and Path(path).is_dir():
                raise CliError(f"{flag} {path}: is a directory, not a file")
            if path not in (None, "-") and not Path(path).parent.is_dir():
                raise CliError(f"{flag} {path}: no directory {Path(path).parent}")
        payload, text, code = args.func(args)
        if args.json is not None and payload is not None:
            text = json.dumps(payload, indent=2, sort_keys=True)
        if args.json in (None, "-"):
            print(text)
        else:
            Path(args.json).write_text(text + "\n")
        return code
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
