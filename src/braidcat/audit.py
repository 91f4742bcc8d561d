"""The full catalogue of finite claims, each checked from first
principles at run time.

Every check has a stable identifier, a one-line claim, a status and a
witness dictionary with the numbers behind the verdict.  Statuses:

  * ``pass`` / ``fail``: the claim as stated holds / does not hold;
  * ``resolved:<text>``: the inputs offered competing candidates (or a
    stated value contradicted by computation) and the check pins down
    the variant the mathematics forces; these count as passing;
  * ``inconclusive``: a resource cap was hit, nothing is asserted.

The exit-code convention for command line use: 0 when nothing failed,
1 when any check failed, 2 when nothing failed but something was
inconclusive.
"""

from __future__ import annotations

import dataclasses
import time
from fractions import Fraction

from . import fixtures
from .complexes import X1BAR_SYMMETRY, is_edge_automorphism, vertex_link, x1bar, ybar1
from .cosets import Enumeration, OverflowResult, Presentation, enumerate_cosets, verify_table
from .embed import find_embeddings, verify_embedding
from .garside import (
    NormalForm,
    conjugation_orbit,
    equals,
    is_central,
    normal_form,
    presentation_differences,
    presentation_equalities,
)
from .metric_graph import MetricGraph, brady_link, format_length, parse_length
from .reps import (
    COMPOSITION_CONVENTION,
    IDENTITY_2X2,
    MAT_S,
    MAT_T,
    cycle_type,
    evaluate_matrix,
    evaluate_permutation,
    generated_subgroup,
    mat_inv,
    mat_mul,
    mat_neg,
    modular_assignment,
    stabilizer_of,
    strand_assignment,
)
from .words import ALPHABET_ST, ALPHABET_XY, Word, parse, substitute

__all__ = [
    "CheckResult", "AuditReport", "run_audit", "check_identifiers",
    "presentation_results", "index_runs", "matrix_claims", "strand_claims", "link_girths",
    "certificates_verified",
]

THIRD = Fraction(1, 3)
# The full twist D^2, which generates the centre.
FULL_TWIST = NormalForm(2, ())


@dataclasses.dataclass(frozen=True)
class CheckResult:
    ident: str
    claim: str
    status: str
    witness: dict
    seconds: float

    @property
    def ok(self) -> bool:
        return self.status == "pass" or self.status.startswith("resolved:")

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class AuditReport:
    results: tuple[CheckResult, ...]
    meta: dict

    @property
    def failed(self) -> list[CheckResult]:
        return [r for r in self.results if not r.ok and r.status != "inconclusive"]

    @property
    def inconclusive(self) -> list[CheckResult]:
        return [r for r in self.results if r.status == "inconclusive"]

    @property
    def exit_code(self) -> int:
        if self.failed:
            return 1
        if self.inconclusive:
            return 2
        return 0

    def to_json_dict(self, include_timing: bool = True) -> dict:
        results = []
        for r in self.results:
            d = r.to_json_dict()
            if not include_timing:
                del d["seconds"]
            results.append(d)
        return {
            "meta": self.meta,
            "results": results,
            "summary": {
                "total": len(self.results),
                "failed": [r.ident for r in self.failed],
                "inconclusive": [r.ident for r in self.inconclusive],
                "exit_code": self.exit_code,
            },
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "AuditReport":
        results = tuple(
            CheckResult(
                ident=d["ident"],
                claim=d["claim"],
                status=d["status"],
                witness=d["witness"],
                seconds=d.get("seconds", 0.0),
            )
            for d in data["results"]
        )
        return cls(results, dict(data["meta"]))

    def to_text(self) -> str:
        lines = []
        width = max(len(r.ident) for r in self.results) if self.results else 0
        for r in self.results:
            lines.append(f"{r.ident:<{width}}  {r.status:<18}  {r.claim}")
        lines.append(
            f"{len(self.results)} checks, {len(self.failed)} failed, "
            f"{len(self.inconclusive)} inconclusive"
        )
        return "\n".join(lines)


class _Context:
    """Shared lazily computed objects, so the catalogue stays cheap."""

    def __init__(self, cap: int, convention: str = "left"):
        self.cap = cap
        self.convention = convention
        self._cache: dict[str, object] = {}

    def once(self, key: str, thunk):
        if key not in self._cache:
            self._cache[key] = thunk()
        return self._cache[key]

    # shared claims ------------------------------------------------------

    def presentation(self, e: str, f: str) -> dict[str, NormalForm]:
        return self.once(f"presentation:{e}:{f}", lambda: presentation_results(e, f))

    def index(self, name: str):
        def run():
            factory, subgroup = fixtures.SUBGROUPS[name]
            return index_runs(factory(), subgroup, ("hlt", "felsch"), self.cap)

        return self.once(f"index:{name}", run)

    def orbit(self, g: str, seed: str, convention: str) -> list[Word]:
        words = fixtures.WORDS
        return self.once(
            f"orbit:{g}:{seed}:{convention}",
            lambda: conjugation_orbit(words[g], words[seed], convention=convention),
        )

    # geometry -----------------------------------------------------------

    @property
    def link(self):
        return self.once("link", lambda: vertex_link(x1bar(), "o"))

    @property
    def smoothed(self):
        return self.once("smoothed", lambda: self.link.smooth())

    @property
    def wing_link(self):
        return self.once("wing-link", lambda: vertex_link(ybar1(), "o"))

    @property
    def main_search(self):
        def run():
            sym = fixtures.link_symmetry(self.smoothed)
            return find_embeddings(
                brady_link(), self.smoothed, mode="all", automorphisms=[sym], with_trace=True
            )

        return self.once("main-search", run)


def _nf_str(word: Word) -> str:
    return str(normal_form(word))


def _status(ok: bool) -> str:
    return "pass" if ok else "fail"


def _enum_witness(result) -> dict:
    if isinstance(result, Enumeration):
        return {"count": result.count, "defined": result.defined, "strategy": result.strategy}
    return {"overflow_cap": result.cap, "strategy": result.strategy}


# ---------------------------------------------------------------------------
# claims the command line shows too; the catalogue and the CLI render these


def presentation_results(e: str = "e", f: str = "f") -> dict[str, NormalForm]:
    """The ten band-presentation equalities, label -> normal form of
    lhs rhs^-1 (the identity when the equality holds), for the
    dictionary words named ``e`` and ``f`` (``d`` is fixed)."""
    W = fixtures.WORDS
    return dict(presentation_differences(W[e], W[f], W["d"]))


def index_runs(
    presentation: Presentation, subgroup: list[Word], strategies: tuple[str, ...], cap: int
) -> dict[str, tuple[Enumeration | OverflowResult, bool]]:
    """Enumerate with each strategy and re-check every completed table.

    Returns strategy -> (result, verified); ``verified`` is False when
    the cap was hit.
    """
    runs = {}
    for strategy in strategies:
        result = enumerate_cosets(presentation, subgroup, strategy=strategy, cap=cap)
        verified = isinstance(result, Enumeration) and all(
            ok for _, ok in verify_table(result, presentation, subgroup)
        )
        runs[strategy] = (result, verified)
    return runs


def matrix_claims() -> dict:
    """Images under x -> S, y -> -S T: each relator of G0 with whether it
    maps to the identity (matrix:relators), the image of x y x^-2 with
    whether it is -T (matrix:minus-t), and the S, T identities behind
    the choice of -S T."""
    mod = modular_assignment()
    relators = []
    for text in fixtures.G0_RELATORS:
        word = parse(text, ALPHABET_XY)
        image = evaluate_matrix(word, mod)
        relators.append(
            {"text": text, "word": word, "image": image, "identity": image == IDENTITY_2X2}
        )
    st = {"S": MAT_S, "T": MAT_T}
    minus_t = evaluate_matrix(parse("x y x^-2", ALPHABET_XY), mod)
    return {
        "assignment": mod,
        "relators": relators,
        "identities": {
            "S^4 = I": evaluate_matrix(parse("S^4", ALPHABET_ST), st) == IDENTITY_2X2,
            "(S T)^3 = S^2": evaluate_matrix(parse("S T S T S T", ALPHABET_ST), st)
            == mat_mul(MAT_S, MAT_S),
            "-S T = S^-1 T": mat_neg(mat_mul(MAT_S, MAT_T)) == mat_mul(mat_inv(MAT_S), MAT_T),
        },
        "minus_t": minus_t,
        "is_minus_t": minus_t == mat_neg(MAT_T),
    }


def strand_claims() -> dict:
    """The strand-permutation images of the crossings, x and y, the group
    <a, y-image> and the whole group the crossings generate, with the
    five facts grouped by the check that judges them."""
    W = fixtures.WORDS
    sa = strand_assignment()
    px = evaluate_permutation(W["x"], sa)
    py = evaluate_permutation(W["y"], sa)
    subgroup = generated_subgroup([sa["a"], py])
    full = generated_subgroup(list(sa.values()))
    return {
        "assignment": sa,
        "x": px,
        "y": py,
        "subgroup": subgroup,
        "group": full,
        "facts": {
            "perm:images": {
                "x is a 4-cycle": cycle_type(px) == (4,),
                "y is a 3-cycle fixing 3": cycle_type(py) == (1, 3) and py[3] == 3,
            },
            "perm:stabilizer": {
                "order of <a, y-image> is 6": len(subgroup) == 6,
                "<a, y-image> = stabiliser of 3": subgroup == stabilizer_of(3, full),
                "crossings generate all 24": len(full) == 24,
            },
        },
    }


def certificates_verified(source: MetricGraph, target: MetricGraph, certificates) -> bool:
    """Whether every embedding certificate passes the independent verifier."""
    return all(
        all(ok for _, ok in verify_embedding(source, target, emb)) for emb in certificates
    )


def link_girths(link: MetricGraph) -> tuple[Fraction | None, Fraction | None]:
    """The girth of a link by arc deletion and by cycle enumeration;
    None when the link has no cycle.  Both exactly 2 pi is flatness."""
    return link.girth(), link.girth_exhaustive()


# ---------------------------------------------------------------------------
# the catalogue


def _build_catalogue(ctx: _Context):
    checks: list[tuple[str, str, object]] = []
    W = fixtures.WORDS

    # -- the six-generator presentation ---------------------------------

    def presentation_check(label):
        def run():
            lhs, rhs = label.split("=")
            difference = ctx.presentation("e", "f")[label]
            return _status(difference.is_identity), {
                "left": lhs,
                "right": rhs,
                "normal_form": str(difference),
            }

        return run

    for label, _, _ in presentation_equalities():
        checks.append(
            (
                f"presentation:{label}",
                f"the relation {label} holds for the resolved dictionary",
                presentation_check(label),
            )
        )

    # -- dictionary resolutions -----------------------------------------

    def resolve_conjugate(name, candidate_e, candidate_f):
        """The resolved word for ``name`` satisfies every equality; the
        dictionary with the candidates (candidate_e, candidate_f) does not."""

        def run():
            candidate = ctx.presentation(candidate_e, candidate_f)
            failures = sorted(k for k, nf in candidate.items() if not nf.is_identity)
            resolved = ctx.presentation("e", "f").values()
            ok = all(nf.is_identity for nf in resolved) and bool(failures)
            witness = {
                "candidate": str(W[f"{name}-candidate"]),
                "candidate_failures": failures,
                "resolved": str(W[name]),
            }
            return (f"resolved:{name}={W[name]}" if ok else "fail"), witness

        return run

    for name, by, candidate_e, candidate_f in (
        ("e", "a", "e-candidate", "f-candidate"),
        ("f", "c", "e", "f-candidate"),
    ):
        checks.append(
            (
                f"dictionary:{name}",
                f"of the two conjugates of b by {by}, only {by}^-1 b {by} satisfies "
                "the relations",
                resolve_conjugate(name, candidate_e, candidate_f),
            )
        )

    def resolve_bhat():
        target = W["y"] ** 2 * W["a"] * W["y"] ** -2
        good = equals(W["bhat"], target)
        bad = equals(W["bhat-candidate"], target)
        alt = equals(parse("bccbCCB"), target)
        ok = good and not bad and alt
        witness = {
            "target": "y^2 a y^-2",
            "resolved": str(W["bhat"]),
            "rejected": str(W["bhat-candidate"]),
            "also_equals": "b c^2 b C^2 B",
        }
        return ("resolved:bhat=C^2 b c^2" if ok else "fail"), witness

    checks.append(
        (
            "dictionary:bhat",
            "the twisted conjugate y^2 a y^-2 is c^-2 b c^2, not c^-1 b c^2",
            resolve_bhat,
        )
    )

    def resolve_c():
        good = equals(W["c"], W["x"].inverse() * W["y"])
        bad = equals(W["c"], W["x"] * W["y"].inverse())
        witness = {
            "resolved": "c = x^-1 y",
            "rejected": "c = x y^-1",
            "normal_form_difference": _nf_str(W["x"] * W["y"].inverse() * W["c"].inverse()),
        }
        return ("resolved:c=X y" if good and not bad else "fail"), witness

    checks.append(
        (
            "dictionary:c-from-xy",
            "c is recovered from the products as x^-1 y and not as x y^-1",
            resolve_c,
        )
    )

    def resolve_convention():
        left = ctx.orbit("x", "a", "left")
        ok = (
            len(left) == 4
            and equals(left[1], W["e"])
            and equals(left[2], W["c"])
            and equals(left[3], W["f"])
        )
        right = ctx.orbit("x", "a", "right")
        right_matches = equals(right[1], W["e"])
        witness = {
            "left_orbit": [str(w) for w in left],
            "right_first_step_is_e": right_matches,
        }
        return ("resolved:left" if ok and not right_matches else "fail"), witness

    checks.append(
        (
            "convention:conjugation",
            "w -> g w g^-1 realises the documented orbits; the opposite does not",
            resolve_convention,
        )
    )

    # -- centre ----------------------------------------------------------

    def center_powers():
        nf_x4, nf_y3 = normal_form(W["x"] ** 4), normal_form(W["y"] ** 3)
        return _status(nf_x4 == nf_y3 == FULL_TWIST), {
            "nf_x4": str(nf_x4),
            "nf_y3": str(nf_y3),
        }

    checks.append(
        (
            "center:full-twist",
            "the fourth power of x and the third power of y are both the full twist",
            center_powers,
        )
    )

    checks.append(
        (
            "center:z-central",
            "the full twist commutes with all three crossings",
            lambda: (_status(is_central(W["x"] ** 4)), {}),
        )
    )

    checks.append(
        (
            "center:x2-not-central",
            "the half power x^2 is not central (negative control)",
            lambda: (_status(not is_central(W["x"] ** 2)), {"nf_x2": _nf_str(W["x"] ** 2)}),
        )
    )

    # -- orbits ----------------------------------------------------------

    def orbit_check(g, seed, expected):
        def run():
            orbit = ctx.orbit(g, seed, ctx.convention)
            ok = len(orbit) == len(expected) and all(
                equals(w, W[name]) for w, name in zip(orbit, expected)
            )
            return _status(ok), {
                "orbit": list(expected),
                "period": len(orbit),
                "convention": ctx.convention,
            }

        return run

    checks.append(
        ("orbit:x-a", "conjugation by x cycles a -> e -> c -> f with period four",
         orbit_check("x", "a", ["a", "e", "c", "f"])))
    checks.append(
        ("orbit:x-b", "conjugation by x swaps b and d",
         orbit_check("x", "b", ["b", "d"])))
    checks.append(
        ("orbit:y-a", "conjugation by y cycles a -> e -> bhat with period three",
         orbit_check("y", "a", ["a", "e", "bhat"])))
    checks.append(
        ("orbit:y-c", "conjugation by y cycles c -> f -> d with period three",
         orbit_check("y", "c", ["c", "f", "d"])))

    # -- exact identities ------------------------------------------------

    def identity_check(lhs, rhs):
        def run():
            difference = normal_form(lhs * rhs.inverse())
            return _status(difference.is_identity), {"difference_nf": str(difference)}

        return run

    checks.append(
        ("identity:a", "a equals x y x^-2 exactly, not merely up to the centre",
         identity_check(W["a"], W["x"] * W["y"] * W["x"] ** -2)))
    checks.append(
        ("identity:b", "b equals x c^-1 a^-1 exactly",
         identity_check(W["b"], W["x"] * W["c"].inverse() * W["a"].inverse())))
    checks.append(
        ("identity:b-conjugate", "b is the conjugate e^-1 a e",
         identity_check(W["b"], W["e"].inverse() * W["a"] * W["e"])))

    def long_relator():
        r = parse(fixtures.G0_RELATORS[-1], ALPHABET_XY)
        nf = normal_form(substitute(r, {"x": W["x"], "y": W["y"]}))
        return _status(nf.is_identity), {"relator": str(r), "normal_form": str(nf)}

    checks.append(
        (
            "relator:long",
            "the ten-letter relator in x and y is exactly trivial in the braid group",
            long_relator,
        )
    )

    def relator_central(name, power):
        def run():
            nf = normal_form(W[name] ** power)
            return _status(nf == FULL_TWIST), {"normal_form": str(nf)}

        return run

    checks.append(
        ("relator:x4", "x^4 is trivial modulo the centre (it is the full twist)",
         relator_central("x", 4)))
    checks.append(
        ("relator:y3", "y^3 is trivial modulo the centre (it is the full twist)",
         relator_central("y", 3)))

    # -- wing relations --------------------------------------------------

    def wing_check(index, u, v, w):
        def run():
            ok = equals(u * v, v * w) and equals(v * w, w * u)
            return _status(ok), {
                "uv_nf": _nf_str(u * v),
                "vw_nf": _nf_str(v * w),
                "wu_nf": _nf_str(w * u),
            }

        return run

    y = W["y"]
    wings = (
        (1, W["a"], W["e"], W["b"]),
        (2, W["e"], W["bhat"], y * W["b"] * y.inverse()),
        (3, W["bhat"], W["a"], y ** 2 * W["b"] * y ** -2),
    )
    for index, u, v, w in wings:
        checks.append(
            (
                f"wing:{index}",
                f"wing {index} satisfies u v = v w = w u in the braid group",
                wing_check(index, u, v, w),
            )
        )

    # -- coset enumerations ----------------------------------------------

    def index_check(name, expected):
        def run():
            runs = ctx.index(name)
            witness = {strategy: _enum_witness(result) for strategy, (result, _) in runs.items()}
            if not all(isinstance(result, Enumeration) for result, _ in runs.values()):
                return "inconclusive", witness
            verified = all(ok for _, ok in runs.values())
            witness["tables_verified"] = verified
            ok = {result.count for result, _ in runs.values()} == {expected} and verified
            if name == "index-four":
                defined = max(result.defined for result, _ in runs.values())
                witness["defined_below_thousand"] = defined < 1000
                ok = ok and witness["defined_below_thousand"]
            return _status(ok), witness

        return run

    checks.append(
        (
            "index:four",
            "the marked subgroup has index four, by both strategies, verified",
            index_check("index-four", 4),
        )
    )
    checks.append(
        (
            "index:whole-xy",
            "the pair x, y generates everything (index one)",
            index_check("whole-group-xy", 1),
        )
    )
    checks.append(
        (
            "index:whole-ax",
            "the pair x y x^-2, x generates everything (index one)",
            index_check("whole-group-ax", 1),
        )
    )

    def matrix_pair_index():
        status, witness = index_check("matrix-pair", 1)()
        witness["stated"] = 4
        if status == "inconclusive":
            return status, witness
        st = {"S": MAT_S, "T": MAT_T}
        u = evaluate_matrix(parse("S^3 T", ALPHABET_ST), st)
        v = evaluate_matrix(parse("S^2 T", ALPHABET_ST), st)
        quotient_is_s = mat_mul(u, mat_inv(v)) == MAT_S
        witness["quotient_of_generators_is_S"] = quotient_is_s
        return ("resolved:1" if status == "pass" and quotient_is_s else "fail"), witness

    checks.append(
        (
            "index:matrix-pair",
            "the pair S^2 T, S^3 T generates the whole matrix group: index one, "
            "not the stated four",
            matrix_pair_index,
        )
    )

    # -- representations -------------------------------------------------

    def matrix_relators():
        killed = {r["text"]: r["identity"] for r in ctx.once("matrices", matrix_claims)["relators"]}
        return _status(all(killed.values())), {"relators_killed": killed}

    checks.append(
        (
            "matrix:relators",
            "sending x to S and y to -ST kills all three relators",
            matrix_relators,
        )
    )

    def matrix_minus_t():
        claims = ctx.once("matrices", matrix_claims)
        return _status(claims["is_minus_t"]), {"image": claims["minus_t"]}

    checks.append(
        (
            "matrix:minus-t",
            "the subgroup generator x y x^-2 maps to -T",
            matrix_minus_t,
        )
    )

    def perm_images():
        claims = ctx.once("strands", strand_claims)
        ok = all(claims["facts"]["perm:images"].values())
        return _status(ok), {
            "x_image": list(claims["x"]),
            "y_image": list(claims["y"]),
            "composition": COMPOSITION_CONVENTION,
        }

    checks.append(
        (
            "perm:images",
            "on strand endpoints x is a four-cycle and y a three-cycle fixing the last",
            perm_images,
        )
    )

    def perm_stabilizer():
        claims = ctx.once("strands", strand_claims)
        ok = all(claims["facts"]["perm:stabilizer"].values())
        return _status(ok), {
            "subgroup_order": len(claims["subgroup"]),
            "group_order": len(claims["group"]),
        }

    checks.append(
        (
            "perm:stabilizer",
            "the images of a and y generate exactly the stabiliser of the last "
            "endpoint, of order six",
            perm_stabilizer,
        )
    )

    def perm_coset_match():
        enum, _ = ctx.index("index-four")["hlt"]
        if not isinstance(enum, Enumeration):
            return "inconclusive", {}
        strand = {g: cycle_type(ctx.once("strands", strand_claims)[g]) for g in ("x", "y")}
        # the table's images are 1-based
        coset = {g: cycle_type(tuple(i - 1 for i in enum.action[g])) for g in ("x", "y")}
        return _status(strand == coset), {"strand": strand, "coset": coset}

    checks.append(
        (
            "perm:coset-match",
            "the coset action of x and y has the same cycle structure as the "
            "strand action",
            perm_coset_match,
        )
    )

    # -- complexes and links ---------------------------------------------

    def wing_complex():
        cx = ybar1()
        link = ctx.wing_link
        ok = (
            len(cx.vertices) == 1
            and len(cx.edges) == 4
            and len(cx.triangles) == 3
            and cx.euler_characteristic() == 0
            and len(link.nodes) == 8
            and len(link.arcs) == 9
            and link.degree_multiset() == (2, 2, 2, 2, 2, 2, 3, 3)
        )
        return _status(ok), {
            "euler": cx.euler_characteristic(),
            "link_nodes": len(link.nodes),
            "link_arcs": len(link.arcs),
        }

    checks.append(
        (
            "complex:wing",
            "one wing: a torus-like complex with four edges, three triangles, "
            "and an eight-node link",
            wing_complex,
        )
    )

    def glued_complex():
        cx = x1bar()
        ok = (
            len(cx.vertices) == 1
            and len(cx.edges) == 9
            and len(cx.triangles) == 9
            and cx.euler_characteristic() == 1
            and all(angle == THIRD for t in cx.triangles for angle in t.angles)
        )
        return _status(ok), {"euler": cx.euler_characteristic()}

    checks.append(
        (
            "complex:glued",
            "three wings glue to one vertex, nine edges, nine equilateral triangles",
            glued_complex,
        )
    )

    def link_census():
        link = ctx.link
        degree = link.degrees()
        ok = (
            len(link.nodes) == 18
            and len(link.arcs) == 27
            and all(length == THIRD for _, _, length in link.arcs)
            and all(degree[g + s] == 4 for g in ("a", "e", "B^") for s in "+-")
            and all(degree[f"t{i}" + s] == 3 for i in (1, 2, 3) for s in "+-")
            and all(degree[f"b{i}" + s] == 2 for i in (1, 2, 3) for s in "+-")
        )
        return _status(ok), {
            "nodes": len(link.nodes),
            "arcs": len(link.arcs),
            "degree_multiset": sorted(degree.values()),
        }

    checks.append(
        (
            "link:census",
            "the glued-complex link has 18 direction nodes and 27 corner arcs "
            "of length pi/3",
            link_census,
        )
    )

    checks.append(
        (
            "link:bipartite",
            "the glued-complex link is bipartite",
            lambda: (_status(ctx.link.is_bipartite()), {}),
        )
    )

    def link_girth():
        by_deletion, by_enumeration = link_girths(ctx.link)
        flat = by_deletion == by_enumeration == Fraction(2)
        return _status(flat), {
            "deletion": format_length(by_deletion),
            "enumeration": format_length(by_enumeration),
        }

    checks.append(
        (
            "link:girth",
            "the shortest loop in the glued-complex link is 2 pi: the flatness "
            "condition holds at the vertex",
            link_girth,
        )
    )

    def wing_girth():
        by_deletion, by_enumeration = link_girths(ctx.wing_link)
        flat = by_deletion == by_enumeration == Fraction(2)
        return _status(flat), {"girth": format_length(by_deletion)}

    checks.append(
        (
            "link:wing-girth",
            "the single-wing link also has girth 2 pi",
            wing_girth,
        )
    )

    def smoothing():
        sm = ctx.smoothed
        from collections import Counter

        lengths = Counter(length for _, _, length in sm.arcs)
        ok = (
            len(sm.nodes) == 12
            and len(sm.arcs) == 21
            and lengths == Counter({THIRD: 15, Fraction(2, 3): 6})
            and sm.distance("t1+", "t2-") == Fraction(1)
        )
        return _status(ok), {
            "nodes": len(sm.nodes),
            "arcs": len(sm.arcs),
            "d(t1+,t2-)": format_length(sm.distance("t1+", "t2-")),
        }

    checks.append(
        (
            "link:smooth",
            "suppressing the six degree-two nodes leaves 12 nodes and 21 arcs, "
            "and t1+ sits at distance pi from t2-",
            smoothing,
        )
    )

    def symmetry():
        cx = x1bar()
        link = ctx.link
        node_map = fixtures.link_symmetry(link)
        twice = {k: X1BAR_SYMMETRY[X1BAR_SYMMETRY[k]] for k in X1BAR_SYMMETRY}
        thrice = {k: X1BAR_SYMMETRY[twice[k]] for k in X1BAR_SYMMETRY}
        ok = (
            is_edge_automorphism(cx, X1BAR_SYMMETRY)
            and thrice == {k: k for k in X1BAR_SYMMETRY}
            and X1BAR_SYMMETRY != thrice
            and link.is_automorphism(node_map)
            and all(node_map[n] != n for n in link.nodes)
        )
        return _status(ok), {"order": 3, "fixed_nodes": 0}

    checks.append(
        (
            "symmetry:wing-cycle",
            "cycling the wings is an order-three automorphism of the complex and "
            "its link, with no fixed direction",
            symmetry,
        )
    )

    def brady_graph():
        g = brady_link()
        lengths = sorted(length for _, _, length in g.arcs)
        by_deletion, by_enumeration = link_girths(g)
        ok = (
            len(g.nodes) == 8
            and g.degree_multiset() == (3,) * 8
            and lengths == [THIRD] * 8 + [Fraction(2, 3)] * 4
            and by_deletion == by_enumeration == Fraction(2)
        )
        return _status(ok), {"girth": format_length(by_deletion)}

    checks.append(
        (
            "brady:graph",
            "the reference link is the cubic eight-node graph with girth 2 pi",
            brady_graph,
        )
    )

    # -- embeddings ------------------------------------------------------

    def embed_identity():
        g = brady_link()
        out = find_embeddings(g, g, mode="first")
        ok = out.found and certificates_verified(g, g, out.certificates[:1])
        ok = ok and dict(out.certificates[0].node_images) == {n: n for n in g.nodes}
        return _status(ok), {"explored": out.nodes_explored}

    checks.append(
        (
            "embed:identity-control",
            "the search maps the reference link onto itself by the identity",
            embed_identity,
        )
    )

    def embed_wing():
        src = ctx.wing_link.smooth()
        out = find_embeddings(src, ctx.smoothed, mode="all")
        sample = out.certificates[:: max(1, len(out.certificates) // 12)]
        ok = out.found and certificates_verified(src, ctx.smoothed, sample)
        return _status(ok), {"certificates": len(out.certificates)}

    checks.append(
        (
            "embed:wing-control",
            "the smoothed single-wing link embeds in the smoothed glued link",
            embed_wing,
        )
    )

    def embed_main():
        out = ctx.main_search
        full = find_embeddings(brady_link(), ctx.smoothed, mode="all")
        verified = certificates_verified(brady_link(), ctx.smoothed, out.certificates)
        witness = {
            "certificates_up_to_symmetry": len(out.certificates),
            "certificates_total": len(full.certificates),
            "all_verified": verified,
            "prunes": dict(out.prunes),
            "explored": out.nodes_explored,
            "example": out.certificates[0].to_json_dict(brady_link(), ctx.smoothed)
            if out.certificates
            else None,
        }
        # The claim under test is emptiness; the search refutes it.
        ok = not out.found
        return _status(ok), witness

    checks.append(
        (
            "embed:main",
            "no locally isometric embedding of the reference link into the "
            "smoothed glued link exists",
            embed_main,
        )
    )

    def embed_obstruction():
        out = ctx.main_search
        hits = []

        def walk(node):
            if node.prune and node.prune["reason"] == "distance":
                hits.append(node.prune)
            for child in node.children:
                walk(child)

        walk(out.trace)
        good = [
            p
            for p in hits
            if parse_length(p["source_distance"]) == THIRD
            and parse_length(p["target_distance"]) >= Fraction(2, 3)
        ]
        ok = bool(good)
        return _status(ok), {
            "distance_prunes": len(hits),
            "short-arc-far-images": len(good),
            "example": good[0] if good else None,
        }

    checks.append(
        (
            "embed:distance-obstruction",
            "the trace prunes assignments where a pi/3 arc would need images "
            "at distance 2 pi/3 or more",
            embed_obstruction,
        )
    )

    return checks


def check_identifiers() -> list[str]:
    ctx = _Context(cap=100_000)
    idents = [ident for ident, _, _ in _build_catalogue(ctx)]
    return sorted(idents)


def run_audit(
    only: list[str] | None = None, cap: int = 100_000, convention: str = "left"
) -> AuditReport:
    """Run the catalogue, sorted by check identifier.

    ``only`` restricts to checks whose identifier starts with one of the
    given selectors (an empty list selects nothing); a selector matching
    no check is an error.  ``convention`` picks the conjugation direction
    for the orbit checks; the resolution check always tries both.
    """
    if convention not in ("left", "right"):
        raise ValueError(f"convention must be left or right, got {convention!r}")
    ctx = _Context(cap=cap, convention=convention)
    catalogue = sorted(_build_catalogue(ctx), key=lambda entry: entry[0])
    idents = [ident for ident, _, _ in catalogue]
    if len(set(idents)) != len(idents):
        raise AssertionError("duplicate check identifier in the catalogue")
    if only is not None:
        for selector in only:
            if not any(ident.startswith(selector) for ident in idents):
                raise ValueError(f"selector {selector!r} matches no check")
    results = []
    for ident, claim, thunk in catalogue:
        if only is not None and not any(ident.startswith(s) for s in only):
            continue
        start = time.perf_counter()
        status, witness = thunk()
        results.append(
            CheckResult(
                ident=ident,
                claim=claim,
                status=status,
                witness=witness,
                seconds=round(time.perf_counter() - start, 6),
            )
        )
    meta = {
        "composition": COMPOSITION_CONVENTION,
        "conjugation": f"{convention}: w -> g w g^-1"
        if convention == "left"
        else f"{convention}: w -> g^-1 w g",
        "coset_cap": cap,
        "lengths": "rational multiples of pi, exact arithmetic throughout",
    }
    return AuditReport(tuple(results), meta)
