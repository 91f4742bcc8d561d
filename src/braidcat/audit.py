"""The full catalogue of finite claims, each checked from first
principles at run time.

Every check has a stable identifier, a one-line claim, a status and a
witness dictionary with the numbers behind the verdict.  Statuses:

  * ``pass`` / ``fail``: the claim as stated holds / does not hold;
  * ``resolved:<text>``: the inputs offered competing candidates (or a
    stated value contradicted by computation) and the check pins down
    the variant the mathematics forces; these count as passing;
  * ``inconclusive``: a resource cap was hit, nothing is asserted;
  * ``error``: the check raised; the witness names the exception and its
    message, and the check counts as failed.

Each check is a module-level function ``fn(ctx, *args)`` that returns
(status, witness) and is registered by ``@_check(ident, claim, *args)``;
a family registers one function several times with different
arguments.  The table is built once, at import, in identifier order,
and holds only functions and small constant arguments, so every word
product and normal form is computed when a check runs.

The exit-code convention for command line use: 0 when nothing failed,
1 when any check failed, 2 when nothing failed but something was
inconclusive.
"""

from __future__ import annotations

import time
from collections import Counter, namedtuple
from collections.abc import Callable
from fractions import Fraction

from . import fixtures
from .complexes import X1BAR_SYMMETRY, is_edge_automorphism
from .cosets import (
    DEFAULT_CAP,
    Enumeration,
    OverflowResult,
    Presentation,
    enumerate_cosets,
    verify_table,
)
from .embed import certificates_total, find_embeddings, verify_embedding
from .garside import (
    NormalForm,
    conjugation_orbit,
    difference,
    equals,
    is_central,
    normal_form,
    presentation_differences,
    presentation_equalities,
)
from .metric_graph import MetricGraph, format_length
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
    "presentation_results", "index_runs", "matrix_claims", "strand_claims",
    "certificates_verified",
]

THIRD = Fraction(1, 3)
# The full twist D^2, which generates the centre.
FULL_TWIST = NormalForm(2, ())


class CheckResult(namedtuple("CheckResult", "ident claim status witness seconds")):
    """One check's verdict and witness; ``seconds`` is its wall time."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.status == "pass" or self.status.startswith("resolved:")

    def to_json_dict(self) -> dict:
        return self._asdict()


class AuditReport(namedtuple("AuditReport", "results meta")):
    """The results in identifier order, and the run's settings in ``meta``."""

    __slots__ = ()

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
    """The run's settings and a memo of the results checks share.

    ``ctx(fn, *args)`` returns ``fn(*args)``, computed once per run and
    keyed by ``(fn, args)``.  A call that raises is not kept, so each
    check that asks for it raises again and is reported as ``error``."""

    def __init__(self, cap: int, convention: str = "left"):
        self.cap = cap
        self.convention = convention
        self._memo: dict[tuple, object] = {}

    def __call__(self, fn: Callable, *args):
        key = (fn, args)
        if key not in self._memo:
            self._memo[key] = fn(*args)
        return self._memo[key]

    def graph(self, name: str) -> MetricGraph:
        """A graph fixture, built from the fixtures this memo holds."""
        return self(fixtures.graph_fixture, name, self)


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


# ---------------------------------------------------------------------------
# the catalogue

# ident -> (claim, check function, bound arguments), filled at import by @_check
_CATALOGUE: dict[str, tuple[str, Callable, tuple]] = {}


def _check(ident: str, claim: str, *args):
    """Register the decorated ``fn(ctx, *args)`` as the check ``ident``."""

    def register(fn):
        if ident in _CATALOGUE:
            raise ValueError(f"duplicate check identifier {ident!r}")
        _CATALOGUE[ident] = (claim, fn, args)
        return fn

    return register


# -- results several checks share, through ctx(fn, *args) --------------------


def _orbit_of(g: str, seed: str, convention: str) -> list[Word]:
    """The conjugation orbit of the dictionary word ``seed`` under ``g``."""
    return conjugation_orbit(fixtures.WORDS[g], fixtures.WORDS[seed], convention=convention)


def _fixture_index(name: str, cap: int):
    """Both strategies' runs on the subgroup fixture ``name``."""
    factory, subgroup = fixtures.SUBGROUPS[name]
    return index_runs(factory(), subgroup, ("hlt", "felsch"), cap)


def _main_search(ctx):
    """Every embedding of the reference link into the smoothed glued link up to
    the wing symmetry; embed:main and embed:distance-obstruction share it as
    ``ctx(_main_search, ctx)``, since it takes its graphs from the memo."""
    source = ctx.graph("brady-link")
    target = ctx.graph("x1bar-link-smooth")
    return find_embeddings(
        source, target, mode="all", automorphisms=[fixtures.link_symmetry(target)]
    )


# -- the six-generator presentation -----------------------------------------


def _presentation(ctx, label):
    lhs, rhs = label.split("=")
    nf = ctx(presentation_results, "e", "f")[label]
    return _status(nf.is_identity), {
        "left": lhs,
        "right": rhs,
        "normal_form": str(nf),
    }


for _label, _, _ in presentation_equalities():
    _check(
        f"presentation:{_label}",
        f"the relation {_label} holds for the resolved dictionary",
        _label,
    )(_presentation)


# -- dictionary resolutions -------------------------------------------------


@_check(
    "dictionary:e",
    "of the two conjugates of b by a, only a^-1 b a satisfies the relations",
    "e", "e-candidate", "f-candidate",
)
@_check(
    "dictionary:f",
    "of the two conjugates of b by c, only c^-1 b c satisfies the relations",
    "f", "e", "f-candidate",
)
def _resolve_conjugate(ctx, name, candidate_e, candidate_f):
    """The resolved word for ``name`` satisfies every equality; the
    dictionary with the candidates (candidate_e, candidate_f) does not."""
    W = fixtures.WORDS
    candidate = ctx(presentation_results, candidate_e, candidate_f)
    failures = sorted(k for k, nf in candidate.items() if not nf.is_identity)
    resolved = ctx(presentation_results, "e", "f").values()
    ok = all(nf.is_identity for nf in resolved) and bool(failures)
    witness = {
        "candidate": str(W[f"{name}-candidate"]),
        "candidate_failures": failures,
        "resolved": str(W[name]),
    }
    return (f"resolved:{name}={W[name]}" if ok else "fail"), witness


@_check("dictionary:bhat", "the twisted conjugate y^2 a y^-2 is c^-2 b c^2, not c^-1 b c^2")
def _resolve_bhat(ctx):
    W = fixtures.WORDS
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


@_check("dictionary:c-from-xy", "c is recovered from the products as x^-1 y and not as x y^-1")
def _resolve_c(ctx):
    W = fixtures.WORDS
    good = equals(W["c"], W["x"].inverse() * W["y"])
    rejected = difference(W["x"] * W["y"].inverse(), W["c"])
    witness = {
        "resolved": "c = x^-1 y",
        "rejected": "c = x y^-1",
        "normal_form_difference": str(rejected),
    }
    return ("resolved:c=X y" if good and not rejected.is_identity else "fail"), witness


@_check(
    "convention:conjugation", "w -> g w g^-1 realises the documented orbits; the opposite does not"
)
def _resolve_convention(ctx):
    W = fixtures.WORDS
    left = ctx(_orbit_of, "x", "a", "left")
    ok = (
        len(left) == 4
        and equals(left[1], W["e"])
        and equals(left[2], W["c"])
        and equals(left[3], W["f"])
    )
    right = ctx(_orbit_of, "x", "a", "right")
    right_matches = equals(right[1], W["e"])
    witness = {
        "left_orbit": [str(w) for w in left],
        "right_first_step_is_e": right_matches,
    }
    return ("resolved:left" if ok and not right_matches else "fail"), witness


# -- centre -----------------------------------------------------------------


@_check(
    "center:full-twist", "the fourth power of x and the third power of y are both the full twist"
)
def _center_powers(ctx):
    W = fixtures.WORDS
    nf_x4, nf_y3 = ctx(normal_form, W["x"] ** 4), ctx(normal_form, W["y"] ** 3)
    return _status(nf_x4 == nf_y3 == FULL_TWIST), {
        "nf_x4": str(nf_x4),
        "nf_y3": str(nf_y3),
    }


@_check("center:z-central", "the full twist commutes with all three crossings")
def _center_central(ctx):
    return _status(is_central(fixtures.WORDS["x"] ** 4)), {}


@_check("center:x2-not-central", "the half power x^2 is not central (negative control)")
def _center_x2(ctx):
    x2 = fixtures.WORDS["x"] ** 2
    return _status(not is_central(x2)), {"nf_x2": str(normal_form(x2))}


# -- orbits -----------------------------------------------------------------


@_check(
    "orbit:x-a", "conjugation by x cycles a -> e -> c -> f with period four",
    "x", "a", ("a", "e", "c", "f"),
)
@_check("orbit:x-b", "conjugation by x swaps b and d", "x", "b", ("b", "d"))
@_check(
    "orbit:y-a", "conjugation by y cycles a -> e -> bhat with period three",
    "y", "a", ("a", "e", "bhat"),
)
@_check(
    "orbit:y-c", "conjugation by y cycles c -> f -> d with period three", "y", "c", ("c", "f", "d")
)
def _orbit(ctx, g, seed, expected):
    orbit = ctx(_orbit_of, g, seed, ctx.convention)
    ok = len(orbit) == len(expected) and all(
        equals(w, fixtures.WORDS[name]) for w, name in zip(orbit, expected)
    )
    return _status(ok), {
        "orbit": list(expected),
        "period": len(orbit),
        "convention": ctx.convention,
    }


# -- exact identities -------------------------------------------------------


@_check("identity:a", "a equals x y x^-2 exactly, not merely up to the centre", "a", "x y x^-2")
@_check("identity:b", "b equals x c^-1 a^-1 exactly", "b", "x c^-1 a^-1")
@_check("identity:b-conjugate", "b is the conjugate e^-1 a e", "b", "e^-1 a e")
def _identity(ctx, name, product):
    """``product`` is a word in the one-letter names of the dictionary."""
    W = fixtures.WORDS
    nf = difference(W[name], substitute(parse(product), W))
    return _status(nf.is_identity), {"difference_nf": str(nf)}


@_check("relator:long", "the ten-letter relator in x and y is exactly trivial in the braid group")
def _long_relator(ctx):
    W = fixtures.WORDS
    r = parse(fixtures.G0_RELATORS[-1], ALPHABET_XY)
    nf = normal_form(substitute(r, {"x": W["x"], "y": W["y"]}))
    return _status(nf.is_identity), {"relator": str(r), "normal_form": str(nf)}


@_check("relator:x4", "x^4 is trivial modulo the centre (it is the full twist)", "x", 4)
@_check("relator:y3", "y^3 is trivial modulo the centre (it is the full twist)", "y", 3)
def _relator_central(ctx, name, power):
    nf = ctx(normal_form, fixtures.WORDS[name] ** power)
    return _status(nf == FULL_TWIST), {"normal_form": str(nf)}


# -- wing relations ---------------------------------------------------------


@_check("wing:1", "wing 1 satisfies u v = v w = w u in the braid group", "a", "e", 0)
@_check("wing:2", "wing 2 satisfies u v = v w = w u in the braid group", "e", "bhat", 1)
@_check("wing:3", "wing 3 satisfies u v = v w = w u in the braid group", "bhat", "a", 2)
def _wing(ctx, u_name, v_name, k):
    """Wing k has u, v the named dictionary words and w = y^k b y^-k."""
    W = fixtures.WORDS
    u, v, w = W[u_name], W[v_name], W["y"] ** k * W["b"] * W["y"] ** -k
    # equal braids have equal normal forms
    uv, vw, wu = normal_form(u * v), normal_form(v * w), normal_form(w * u)
    return _status(uv == vw == wu), {"uv_nf": str(uv), "vw_nf": str(vw), "wu_nf": str(wu)}


# -- coset enumerations -----------------------------------------------------


@_check(
    "index:four",
    "the marked subgroup has index four, by both strategies, verified",
    "index-four", 4,
)
@_check("index:whole-xy", "the pair x, y generates everything (index one)", "whole-group-xy", 1)
@_check(
    "index:whole-ax", "the pair x y x^-2, x generates everything (index one)", "whole-group-ax", 1
)
def _index(ctx, name, expected):
    runs = ctx(_fixture_index, name, ctx.cap)
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


@_check(
    "index:matrix-pair",
    "the pair S^2 T, S^3 T generates the whole matrix group: index one, not the stated four",
)
def _matrix_pair_index(ctx):
    status, witness = _index(ctx, "matrix-pair", 1)
    witness["stated"] = 4
    if status == "inconclusive":
        return status, witness
    st = {"S": MAT_S, "T": MAT_T}
    u = evaluate_matrix(parse("S^3 T", ALPHABET_ST), st)
    v = evaluate_matrix(parse("S^2 T", ALPHABET_ST), st)
    quotient_is_s = mat_mul(u, mat_inv(v)) == MAT_S
    witness["quotient_of_generators_is_S"] = quotient_is_s
    return ("resolved:1" if status == "pass" and quotient_is_s else "fail"), witness


# -- representations --------------------------------------------------------


@_check("matrix:relators", "sending x to S and y to -ST kills all three relators")
def _matrix_relators(ctx):
    killed = {r["text"]: r["identity"] for r in ctx(matrix_claims)["relators"]}
    return _status(all(killed.values())), {"relators_killed": killed}


@_check("matrix:minus-t", "the subgroup generator x y x^-2 maps to -T")
def _matrix_minus_t(ctx):
    claims = ctx(matrix_claims)
    return _status(claims["is_minus_t"]), {"image": claims["minus_t"]}


@_check("perm:images", "on strand endpoints x is a four-cycle and y a three-cycle fixing the last")
def _perm_images(ctx):
    claims = ctx(strand_claims)
    ok = all(claims["facts"]["perm:images"].values())
    return _status(ok), {
        "x_image": list(claims["x"]),
        "y_image": list(claims["y"]),
        "composition": COMPOSITION_CONVENTION,
    }


@_check(
    "perm:stabilizer",
    "the images of a and y generate exactly the stabiliser of the last endpoint, of order six",
)
def _perm_stabilizer(ctx):
    claims = ctx(strand_claims)
    ok = all(claims["facts"]["perm:stabilizer"].values())
    return _status(ok), {
        "subgroup_order": len(claims["subgroup"]),
        "group_order": len(claims["group"]),
    }


@_check(
    "perm:coset-match",
    "the coset action of x and y has the same cycle structure as the strand action",
)
def _perm_coset_match(ctx):
    enum, _ = ctx(_fixture_index, "index-four", ctx.cap)["hlt"]
    if not isinstance(enum, Enumeration):
        return "inconclusive", {}
    strand = {g: cycle_type(ctx(strand_claims)[g]) for g in ("x", "y")}
    # the table's images are 1-based
    coset = {g: cycle_type(tuple(i - 1 for i in enum.action[g])) for g in ("x", "y")}
    return _status(strand == coset), {"strand": strand, "coset": coset}


# -- complexes and links ----------------------------------------------------


@_check(
    "complex:wing",
    "one wing: a torus-like complex with four edges, three triangles, and an eight-node link",
)
def _wing_complex(ctx):
    cx = ctx(fixtures.complex_fixture, "ybar1")
    link = ctx.graph("ybar1-link")
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


@_check("complex:glued", "three wings glue to one vertex, nine edges, nine equilateral triangles")
def _glued_complex(ctx):
    cx = ctx(fixtures.complex_fixture, "x1bar")
    ok = (
        len(cx.vertices) == 1
        and len(cx.edges) == 9
        and len(cx.triangles) == 9
        and cx.euler_characteristic() == 1
        and all(angle == THIRD for t in cx.triangles for angle in t.angles)
    )
    return _status(ok), {"euler": cx.euler_characteristic()}


@_check(
    "link:census", "the glued-complex link has 18 direction nodes and 27 corner arcs of length pi/3"
)
def _link_census(ctx):
    link = ctx.graph("x1bar-link")
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


@_check("link:bipartite", "the glued-complex link is bipartite")
def _link_bipartite(ctx):
    return _status(ctx.graph("x1bar-link").is_bipartite()), {}


@_check(
    "link:girth",
    "the shortest loop in the glued-complex link is 2 pi: the flatness condition holds at "
    "the vertex",
)
def _link_girth(ctx):
    link = ctx.graph("x1bar-link")
    by_deletion, by_enumeration = link.girth(), link.girth_exhaustive()
    flat = by_deletion == by_enumeration == Fraction(2)
    return _status(flat), {
        "deletion": format_length(by_deletion),
        "enumeration": format_length(by_enumeration),
    }


@_check("link:wing-girth", "the single-wing link also has girth 2 pi")
def _wing_girth(ctx):
    link = ctx.graph("ybar1-link")
    by_deletion, by_enumeration = link.girth(), link.girth_exhaustive()
    flat = by_deletion == by_enumeration == Fraction(2)
    return _status(flat), {"girth": format_length(by_deletion)}


@_check(
    "link:smooth",
    "suppressing the six degree-two nodes leaves 12 nodes and 21 arcs, and t1+ sits at "
    "distance pi from t2-",
)
def _smoothing(ctx):
    sm = ctx.graph("x1bar-link-smooth")
    lengths = Counter(length for _, _, length in sm.arcs)
    distance = sm.distance("t1+", "t2-")
    ok = (
        len(sm.nodes) == 12
        and len(sm.arcs) == 21
        and lengths == Counter({THIRD: 15, Fraction(2, 3): 6})
        and distance == Fraction(1)
    )
    return _status(ok), {
        "nodes": len(sm.nodes),
        "arcs": len(sm.arcs),
        "d(t1+,t2-)": format_length(distance),
    }


@_check(
    "symmetry:wing-cycle",
    "cycling the wings is an order-three automorphism of the complex and its link, with no "
    "fixed direction",
)
def _symmetry(ctx):
    cx = ctx(fixtures.complex_fixture, "x1bar")
    link = ctx.graph("x1bar-link")
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


@_check("brady:graph", "the reference link is the cubic eight-node graph with girth 2 pi")
def _brady_graph(ctx):
    g = ctx.graph("brady-link")
    lengths = sorted(length for _, _, length in g.arcs)
    by_deletion, by_enumeration = g.girth(), g.girth_exhaustive()
    ok = (
        len(g.nodes) == 8
        and g.degree_multiset() == (3,) * 8
        and lengths == [THIRD] * 8 + [Fraction(2, 3)] * 4
        and by_deletion == by_enumeration == Fraction(2)
    )
    return _status(ok), {"girth": format_length(by_deletion)}


# -- embeddings -------------------------------------------------------------


@_check("embed:identity-control", "the search maps the reference link onto itself by the identity")
def _embed_identity(ctx):
    g = ctx.graph("brady-link")
    out = find_embeddings(g, g, mode="first")
    ok = out.found and certificates_verified(g, g, out.certificates[:1])
    ok = ok and dict(out.certificates[0].node_images) == {n: n for n in g.nodes}
    return _status(ok), {"explored": out.nodes_explored}


@_check("embed:wing-control", "the smoothed single-wing link embeds in the smoothed glued link")
def _embed_wing(ctx):
    src = ctx.graph("ybar1-link-smooth")
    target = ctx.graph("x1bar-link-smooth")
    out = find_embeddings(src, target, mode="all")
    sample = out.certificates[:: max(1, len(out.certificates) // 12)]
    ok = out.found and certificates_verified(src, target, sample)
    return _status(ok), {"certificates": len(out.certificates)}


@_check(
    "embed:main",
    "no locally isometric embedding of the reference link into the smoothed glued link exists",
)
def _embed_main(ctx):
    source = ctx.graph("brady-link")
    target = ctx.graph("x1bar-link-smooth")
    out = ctx(_main_search, ctx)
    verified = certificates_verified(source, target, out.certificates)
    total = certificates_total(source, out.certificates, [fixtures.link_symmetry(target)])
    witness = {
        "certificates_up_to_symmetry": len(out.certificates),
        "certificates_total": total,
        "all_verified": verified,
        "prunes": dict(out.prunes),
        "explored": out.nodes_explored,
        "example": out.certificates[0].to_json_dict(source, target)
        if out.certificates
        else None,
    }
    # The claim under test is emptiness; the search refutes it.
    ok = not out.found
    return _status(ok), witness


@_check(
    "embed:distance-obstruction",
    "the trace prunes assignments where a pi/3 arc would need images at distance 2 pi/3 or "
    "more",
)
def _embed_obstruction(ctx):
    out = ctx(_main_search, ctx)
    far = {key: v for key, v in out.distance_prunes.items() if key[1] is not None}
    good = [v for (s, d), v in far.items() if Fraction(s) == THIRD and Fraction(d) >= 2 * THIRD]
    return _status(bool(good)), {
        "distance_prunes": out.prunes["distance"],
        "short-arc-far-images": sum(count for count, _ in good),
        "example": good[0][1] if good else None,
    }


# the table in identifier order, the order every report lists its checks in
_CATALOGUE = dict(sorted(_CATALOGUE.items()))


def check_identifiers(only: list[str] | None = None) -> list[str]:
    """The identifiers of the checks ``only`` selects, in order.

    Each selector is an identifier or a prefix of one; ``None`` selects
    everything and an empty list nothing.  A selector matching no check
    is an error.
    """
    if only is None:
        return list(_CATALOGUE)
    for selector in only:
        if not any(ident.startswith(selector) for ident in _CATALOGUE):
            raise ValueError(f"selector {selector!r} matches no check")
    return [ident for ident in _CATALOGUE if any(ident.startswith(s) for s in only)]


def run_audit(
    only: list[str] | None = None, cap: int = DEFAULT_CAP, convention: str = "left"
) -> AuditReport:
    """Run the checks ``check_identifiers(only)`` selects, in order.

    ``convention`` picks the conjugation direction for the orbit checks;
    the resolution check always tries both.  A check that raises is
    reported with status ``error`` and the audit goes on.
    """
    if convention not in ("left", "right"):
        raise ValueError(f"convention must be left or right, got {convention!r}")
    ctx = _Context(cap=cap, convention=convention)
    results = []
    for ident in check_identifiers(only):
        claim, check, args = _CATALOGUE[ident]
        start = time.perf_counter()
        try:
            status, witness = check(ctx, *args)
        except Exception as exc:
            status, witness = "error", {"exception": type(exc).__name__, "message": str(exc)}
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
