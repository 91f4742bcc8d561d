"""The four benchmark workloads: seeded inputs, fixed job lists, and the
oracles that judge each verdict.

Every oracle knows its answer without calling the layer it judges:
braid equalities hold by construction and inequalities are shown by
invariants computed here, subgroup indices are n!/|H| from the shape of
the subgroup, planted embeddings exist because they were planted, and
the audit is compared with a frozen status map.

Jobs call braidcat through module attributes (``garside.normal_form``,
not a name imported from it), so that the traced run sees the wrappers
``tracing.py`` installs.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
import subprocess
import sys
import time
from collections.abc import Callable
from pathlib import Path

from braidcat import cosets, embed, garside, words
from braidcat.metric_graph import MetricGraph

from planted import SIZES, planted_instance

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACED_CLI = Path(__file__).resolve().parent / "traced_cli.py"

WORKLOADS = ("audit-cli", "braid-words", "coset-index", "embed-planted")


class WrongVerdict(Exception):
    """A job finished, but its verdict differs from the known answer."""


@dataclasses.dataclass
class Job:
    """One closed-loop request.  ``run(traced)`` returns nothing and raises
    on a wrong verdict; ``tag`` groups jobs for per-layer figures."""

    name: str
    tag: str
    run: Callable[[bool], None]


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise WrongVerdict(what)


# ---------------------------------------------------------------------------
# audit-cli: the user's main command, one fresh process per job

AUDIT_JOBS = 20

# The frozen catalogue: 53 checks, only embed:main fails, the resolved
# verdicts as pinned by the test suite.
AUDIT_STATUSES = {
    ident: "pass"
    for ident in (
        "brady:graph center:full-twist center:x2-not-central center:z-central "
        "complex:glued complex:wing embed:distance-obstruction "
        "embed:identity-control embed:wing-control identity:a identity:b "
        "identity:b-conjugate index:four index:whole-ax index:whole-xy "
        "link:bipartite link:census link:girth link:smooth link:wing-girth "
        "matrix:minus-t matrix:relators orbit:x-a orbit:x-b orbit:y-a orbit:y-c "
        "perm:coset-match perm:images perm:stabilizer presentation:ae=eb "
        "presentation:ba=ae presentation:bc=cf presentation:ca=ac "
        "presentation:cf=fb presentation:de=ec presentation:df=fa "
        "presentation:ec=cd presentation:ef=fe presentation:fa=ad relator:long "
        "relator:x4 relator:y3 symmetry:wing-cycle wing:1 wing:2 wing:3"
    ).split()
}
AUDIT_STATUSES.update(
    {
        "convention:conjugation": "resolved:left",
        "dictionary:bhat": "resolved:bhat=C^2 b c^2",
        "dictionary:c-from-xy": "resolved:c=X y",
        "dictionary:e": "resolved:e=A b a",
        "dictionary:f": "resolved:f=C b c",
        "index:matrix-pair": "resolved:1",
        "embed:main": "fail",
    }
)
AUDIT_ARGS = ("audit", "--json", "-")


def subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def judge_audit(returncode: int, stdout: str) -> dict:
    """Check one audit report against the frozen catalogue; return it."""
    expect(returncode == 1, f"audit exit code {returncode}, expected 1")
    report = json.loads(stdout)
    statuses = {r["ident"]: r["status"] for r in report["results"]}
    idents = statuses.keys() | AUDIT_STATUSES.keys()
    wrong = sorted(k for k in idents if statuses.get(k) != AUDIT_STATUSES.get(k))
    expect(not wrong, f"statuses differ from the frozen catalogue: {wrong}")
    witness = next(r["witness"] for r in report["results"] if r["ident"] == "embed:main")
    expect(
        witness["certificates_up_to_symmetry"] == 32
        and witness["certificates_total"] == 96
        and witness["all_verified"] is True,
        "embed:main witness differs from 32 up to symmetry, 96 in total",
    )
    return report


def audit_jobs(seed: int, on_traced_job: Callable | None = None) -> list[Job]:
    """A traced job runs the command under ``traced_cli.py`` and hands
    ``on_traced_job(wall_s, report, stderr)`` what its process brought back.
    The audit takes no input, so the seed changes nothing here."""
    env = subprocess_env()

    def run(traced: bool) -> None:
        start = time.perf_counter()
        if traced:
            argv = [sys.executable, str(TRACED_CLI), repr(start), *AUDIT_ARGS]
        else:
            argv = [sys.executable, "-m", "braidcat.cli", *AUDIT_ARGS]
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - start
        report = judge_audit(proc.returncode, proc.stdout)
        if traced and on_traced_job is not None:
            on_traced_job(wall, report, proc.stderr)

    return [Job(f"audit-{i}", "audit", run) for i in range(AUDIT_JOBS)]


def setup_audit(seed: int) -> None:
    import braidcat.cli  # noqa: F401  (the import is what a fresh audit pays)


# ---------------------------------------------------------------------------
# braid-words: Garside normal forms and equality by word length

# (letters, words of that length).  The long words take most of a pass,
# which is where a super-linear normal form shows.  One word's jobs cost
# up to a third more or less than another's of the same length, so each
# percentile is placed in the middle of many jobs of one length, where it
# reads about the same for every seed: the 50-letter jobs are as many as
# those of 200 letters and more, which puts the median in the middle of
# the 100-letter jobs, of which there are many, and the long-word work is
# spread over ten words of 400 letters and one of 800, which puts the
# tail percentile among the 400-letter normal forms.
LENGTHS = ((50, 17), (100, 32), (200, 6), (400, 10), (800, 1))
PIECES = 6
GENERATORS = "abc"
BRAID_RELATORS = ("abaBAB", "bcbCBC", "acAC")
# Unequal partners insert the conjugate of one of these: a single letter
# changes the exponent sum, a product like "aB" only the permutation.
DEFECTS = ("a", "B", "c", "aB", "bC", "cA")
DELTA = (3, 2, 1, 0)
IDENTITY = (0, 1, 2, 3)


def _inverse_text(text: str) -> str:
    return text[::-1].swapcase()


def random_word_text(rng: random.Random, n: int) -> str:
    """A freely reduced word of exactly n letters; uppercase is inverse."""
    out: list[str] = []
    while len(out) < n:
        ch = rng.choice("abcABC")
        if out and out[-1] == ch.swapcase():
            continue
        out.append(ch)
    return "".join(out)


def _conjugate(rng: random.Random, core: str) -> str:
    g = random_word_text(rng, rng.randint(1, 3))
    return g + core + _inverse_text(g)


def _insert_pieces(rng: random.Random, text: str, pieces: list[str]) -> str:
    """Insert piece i at a random place in the i-th of len(pieces) equal
    stretches of the word's first half.

    ``equals(w, w2)`` normalises w w2^-1, in which the shared tail of the
    two words cancels freely.  Keeping the insertions in the first half
    makes that product about as long as w, the same size for every seed."""
    n, k = len(text) // 2, len(pieces)
    cuts = [rng.randint(i * n // k, (i + 1) * n // k) for i in range(k)]
    out, prev = [], 0
    for cut, piece in zip(cuts, pieces):
        out += [text[prev:cut], piece]
        prev = cut
    out.append(text[prev:])
    return "".join(out)


def exponent_sum(text: str) -> int:
    return sum(1 if ch.islower() else -1 for ch in text)


def _then(p: tuple, q: tuple) -> tuple:
    """p then q, in one-line notation on the four strands."""
    return tuple(q[p[i]] for i in range(4))


def strand_permutation(text: str) -> tuple:
    perm = IDENTITY
    for ch in text:
        i = GENERATORS.index(ch.lower())
        swap = list(IDENTITY)
        swap[i], swap[i + 1] = swap[i + 1], swap[i]
        perm = _then(perm, tuple(swap))
    return perm


def _inversions(p: tuple) -> int:
    return sum(1 for i in range(4) for j in range(i + 1, 4) if p[i] > p[j])


def judge_normal_form(text: str, nf) -> None:
    """The normal form D^k p_1 ... p_m has exponent sum 6k + sum of the
    factors' inversion counts, and the strand permutation of D^k then the
    factors; both are computed here from the letters."""
    expect(
        exponent_sum(text) == 6 * nf.power + sum(_inversions(p) for p in nf.factors),
        "exponent sum differs from 6 power + sum of inversions",
    )
    perm = DELTA if nf.power % 2 else IDENTITY
    for p in nf.factors:
        perm = _then(perm, tuple(p))
    expect(perm == strand_permutation(text), "strand permutation differs")


def braid_jobs(seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for n, count in LENGTHS:
        for i in range(count):
            text = random_word_text(rng, n)
            pieces = [_conjugate(rng, rng.choice(BRAID_RELATORS)) for _ in range(PIECES)]
            equal_text = _insert_pieces(rng, text, pieces)
            pieces[rng.randrange(PIECES)] += _conjugate(rng, rng.choice(DEFECTS))
            unequal_text = _insert_pieces(rng, text, pieces)
            invariants = (exponent_sum(text), strand_permutation(text))
            if invariants == (exponent_sum(unequal_text), strand_permutation(unequal_text)):
                raise AssertionError("an unequal partner kept both invariants")
            jobs += _braid_word_jobs(f"L{n}", f"L{n}-{i}", text, equal_text, unequal_text)
    rng.shuffle(jobs)
    return jobs


def _braid_word_jobs(tag, name, text, equal_text, unequal_text) -> list[Job]:
    w, w_eq, w_ne = (words.parse(t) for t in (text, equal_text, unequal_text))

    def nf(traced: bool) -> None:
        judge_normal_form(text, garside.normal_form(w))

    def eq(traced: bool) -> None:
        expect(garside.equals(w, w_eq), "a word and its relator-inserted copy differ")

    def ne(traced: bool) -> None:
        expect(not garside.equals(w, w_ne), "words with different invariants are equal")

    return [Job(f"{name}-nf", tag, nf), Job(f"{name}-eq", tag, eq), Job(f"{name}-ne", tag, ne)]


# ---------------------------------------------------------------------------
# coset-index: HLT and Felsch, then the table verifier, on Coxeter groups

# (name, n, subgroup generators) for the symmetric group S_n in its
# Coxeter presentation.  S7 over the trivial subgroup is left out: its
# table verification alone takes minutes.
COSET_INSTANCES = (("S5-1", 5, ""), ("S6-1", 6, ""), ("S7-abc", 7, "abc"), ("S7-abce", 7, "abce"))


def coxeter_presentation(n: int) -> cosets.Presentation:
    names = "abcdefghij"[: n - 1]
    alphabet = words.Alphabet(tuple(names))
    relators = []
    for i, x in enumerate(names):
        relators.append(f"{x}^2")
        for j in range(i + 1, len(names)):
            y = names[j]
            relators.append(f"{x} {y} " * (3 if j == i + 1 else 2))
    return cosets.Presentation(alphabet, tuple(words.parse(r, alphabet) for r in relators))


def parabolic_order(gens: str) -> int:
    """Order of the subgroup of S_n generated by adjacent transpositions:
    each maximal run of r consecutive generators gives a factor S_{r+1}."""
    order, run, prev = 1, 0, None
    for x in sorted(gens):
        run = run + 1 if prev is not None and ord(x) == ord(prev) + 1 else 1
        order *= run + 1
        prev = x
    return order


def coset_jobs(seed: int) -> list[Job]:
    jobs = []
    for name, n, gens in COSET_INSTANCES:
        presentation = coxeter_presentation(n)
        subgroup = [words.parse(x, presentation.alphabet) for x in gens]
        expected = math.factorial(n) // parabolic_order(gens)
        jobs.append(Job(name, name, _coset_job(presentation, subgroup, expected)))
    # The seed only orders the instances; the instances are fixed.
    random.Random(seed).shuffle(jobs)
    return jobs


def _coset_job(presentation, subgroup, expected):
    def run(traced: bool) -> None:
        tables = [
            cosets.enumerate_cosets(presentation, subgroup, strategy=s) for s in ("hlt", "felsch")
        ]
        for table in tables:
            expect(
                isinstance(table, cosets.Enumeration) and table.count == expected,
                f"{table.strategy} gave {getattr(table, 'count', 'overflow')}, expected {expected}",
            )
        for table in tables:
            failed = [c for c, ok in cosets.verify_table(table, presentation, subgroup) if not ok]
            expect(not failed, f"verifier rejected the {table.strategy} table: {failed}")

    return run


# ---------------------------------------------------------------------------
# embed-planted: planted embedding recovery, distance-heavy

# A multiple of len(SIZES): every size of source gets the same share of
# the instances, so that the mix, which sets most of a pass's cost, is
# the same for every seed.
PLANTED_INSTANCES = 300


def judge_certificate(source: MetricGraph, target: MetricGraph, cert) -> None:
    """An injective node map and one chain of target arcs per source arc,
    of the source arc's length, using no target arc twice."""
    images = dict(cert.node_images)
    expect(
        sorted(images) == sorted(source.nodes) and len(set(images.values())) == len(images),
        "node map is not injective and total",
    )
    used: list[int] = []
    for index, darts in cert.routes:
        u, v, length = source.arcs[index]
        at, total = images[u], 0
        for arc, direction in darts:
            a, b, arc_length = target.arcs[arc]
            start, end = (a, b) if direction == 0 else (b, a)
            expect(start == at, "route is not a chain")
            at, total = end, total + arc_length
            used.append(arc)
        expect(at == images[v] and total == length, "route misses its end or its length")
    expect(len(used) == len(set(used)), "a target arc is used twice")


def embed_jobs(seed: int) -> list[Job]:
    jobs = []
    for i in range(PLANTED_INSTANCES):
        n = SIZES[i % len(SIZES)]
        source, target = planted_instance(random.Random(seed * 100_003 + i), n)
        jobs.append(Job(f"planted-{i}", f"n{len(source.nodes)}", _embed_job(source, target)))
    return jobs


def _embed_job(source, target):
    def run(traced: bool) -> None:
        out = embed.find_embeddings(source, target, mode="first")
        expect(out.found, "a planted embedding was not recovered")
        cert = out.certificates[0]
        failed = [c for c, ok in embed.verify_embedding(source, target, cert) if not ok]
        expect(not failed, f"verifier rejected the certificate: {failed}")
        judge_certificate(source, target, cert)

    return run


BUILDERS = {
    "audit-cli": audit_jobs,
    "braid-words": braid_jobs,
    "coset-index": coset_jobs,
    "embed-planted": embed_jobs,
}
SETUP = {**BUILDERS, "audit-cli": setup_audit}
