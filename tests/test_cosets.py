import itertools
import math
import random
import time
import tracemalloc
from collections import deque

import pytest

from braidcat import fixtures
from braidcat.cosets import (
    Enumeration,
    OverflowResult,
    Presentation,
    _rotations_by_first,
    _Table,
    _word_cols,
    enumerate_cosets,
    verify_table,
)
from braidcat.words import ALPHABET_ST, ALPHABET_XY, Alphabet, parse


def g0():
    return Presentation(
        ALPHABET_XY,
        (
            parse("x^4", ALPHABET_XY),
            parse("y^3", ALPHABET_XY),
            parse("x y x^2 Y X Y x^-2 y", ALPHABET_XY),
        ),
    )


def sl2():
    return Presentation(
        ALPHABET_ST,
        (parse("S^4", ALPHABET_ST), parse("S T S T S T S^-2", ALPHABET_ST)),
    )


@pytest.mark.parametrize("strategy", ["hlt", "felsch"])
def test_index_four_subgroup(strategy):
    sub = [parse("x y x^-2", ALPHABET_XY), parse("y", ALPHABET_XY)]
    res = enumerate_cosets(g0(), sub, strategy=strategy)
    assert isinstance(res, Enumeration)
    assert res.count == 4
    assert res.defined < 1000
    assert all(ok for _, ok in verify_table(res, g0(), sub))
    assert sorted(res.action["x"]) == [1, 2, 3, 4]


@pytest.mark.parametrize("strategy", ["hlt", "felsch"])
def test_whole_group_checks(strategy):
    for sub in (
        [parse("x", ALPHABET_XY), parse("y", ALPHABET_XY)],
        [parse("x y x^-2", ALPHABET_XY), parse("x", ALPHABET_XY)],
    ):
        res = enumerate_cosets(g0(), sub, strategy=strategy)
        assert res.count == 1
        assert all(ok for _, ok in verify_table(res, g0(), sub))


@pytest.mark.parametrize("strategy", ["hlt", "felsch"])
def test_matrix_group_pair_generates_everything(strategy):
    # The pair S^2 T, S^3 T generates the whole group: the quotient of
    # one by the other is S, and S together with S^3 T gives T.
    sub = [parse("S^2 T", ALPHABET_ST), parse("S^3 T", ALPHABET_ST)]
    res = enumerate_cosets(sl2(), sub, strategy=strategy)
    assert res.count == 1
    assert all(ok for _, ok in verify_table(res, sl2(), sub))


def test_strategies_agree_on_table():
    sub = [parse("x y x^-2", ALPHABET_XY), parse("y", ALPHABET_XY)]
    hlt = enumerate_cosets(g0(), sub, strategy="hlt")
    felsch = enumerate_cosets(g0(), sub, strategy="felsch")
    assert hlt.count == felsch.count
    # Tables may differ by numbering; compare cycle structures.
    def cycle_type(images):
        seen, sizes = set(), []
        for start in range(1, len(images) + 1):
            if start not in seen:
                k, size = start, 0
                while k not in seen:
                    seen.add(k)
                    size += 1
                    k = images[k - 1]
                sizes.append(size)
        return sorted(sizes)

    for gen in ("x", "y"):
        assert cycle_type(hlt.action[gen]) == cycle_type(felsch.action[gen])


def test_determinism():
    sub = [parse("x y x^-2", ALPHABET_XY), parse("y", ALPHABET_XY)]
    first = enumerate_cosets(g0(), sub)
    second = enumerate_cosets(g0(), sub)
    assert first == second


def test_overflow_is_inconclusive():
    free = Presentation(ALPHABET_XY, ())
    res = enumerate_cosets(free, [], cap=50)
    assert isinstance(res, OverflowResult)
    assert res.defined == 50


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        Presentation(ALPHABET_XY, (parse("a"),))
    with pytest.raises(ValueError):
        enumerate_cosets(g0(), [], strategy="magic")


def test_trivial_presentation():
    pres = Presentation(Alphabet(("x",)), (parse("x", Alphabet(("x",))),))
    res = enumerate_cosets(pres, [])
    assert res.count == 1


@pytest.mark.parametrize("strategy", ["hlt", "felsch"])
def test_coincidence_completed_from_the_inverse_column(strategy):
    # Found by random search.  While the cosets collapse to one, coincidence
    # processing meets an entry tab[mu][col] still empty whose inverse entry
    # tab[nu][col ^ 1] is already set, and merges mu with that entry's coset.
    relators = tuple(parse(r, ALPHABET_XY) for r in ("YYxYXyY", "xyXX", "XYXX"))
    pres = Presentation(ALPHABET_XY, relators)
    res = enumerate_cosets(pres, [], strategy=strategy)
    assert res.count == 1
    assert all(ok for _, ok in verify_table(res, pres, []))


# -- the verifier's power: each check on its own ----------------------------

CHECKS = (
    "columns-bijective",
    "relators-fix-all-cosets",
    "subgroup-fixes-coset-1",
    "action-transitive",
)


def coxeter(n):
    """The Coxeter presentation of the symmetric group S_n."""
    names = "abcdefghij"[: n - 1]
    alphabet = Alphabet(tuple(names))
    relators = []
    for i, x in enumerate(names):
        relators.append(f"{x}^2")
        for j in range(i + 1, len(names)):
            relators.append(f"{x} {names[j]} " * (3 if j == i + 1 else 2))
    return Presentation(alphabet, tuple(parse(r, alphabet) for r in relators))


def index_four():
    sub = [parse("x y x^-2", ALPHABET_XY), parse("y", ALPHABET_XY)]
    return enumerate_cosets(g0(), sub), sub


def with_action(table, **columns):
    action = {**table.action, **{g: tuple(images) for g, images in columns.items()}}
    return table._replace(count=len(next(iter(action.values()))), action=action)


def failed(checks):
    assert [name for name, _ in checks] == list(CHECKS)
    return [name for name, ok in checks if not ok]


def test_verifier_accepts_the_untouched_table():
    table, sub = index_four()
    assert failed(verify_table(table, g0(), sub)) == []


def test_verifier_rejects_a_repeated_image():
    # No inverse column exists, so nothing else can be checked.
    table, sub = index_four()
    x = list(table.action["x"])
    x[0] = x[1]
    assert failed(verify_table(with_action(table, x=x), g0(), sub)) == list(CHECKS)


@pytest.mark.parametrize("bad", [0, 5])
def test_verifier_rejects_an_image_out_of_range(bad):
    table, sub = index_four()
    x = list(table.action["x"])
    x[0] = bad
    assert failed(verify_table(with_action(table, x=x), g0(), sub)) == list(CHECKS)


def test_verifier_rejects_swapped_columns():
    # Swapping a and b keeps every column a bijection and the action
    # transitive, and c still fixes coset 1, but (a c)^2 becomes
    # (b c)^2, which has order three.
    pres, sub = coxeter(4), [parse("c", Alphabet(("a", "b", "c")))]
    table = enumerate_cosets(pres, sub)
    assert table.count == 12
    swapped = with_action(table, a=table.action["b"], b=table.action["a"])
    assert failed(verify_table(swapped, pres, sub)) == ["relators-fix-all-cosets"]


def test_verifier_rejects_a_moved_base_coset():
    # Renumbering cosets 1 and 2 keeps a valid permutation action, but
    # coset 1 is no longer the subgroup, and y moves it.
    table, sub = index_four()
    swap = {1: 2, 2: 1}
    relabel = {}
    for g, images in table.action.items():
        new = [0] * table.count
        for i, image in enumerate(images, 1):
            new[swap.get(i, i) - 1] = swap.get(image, image)
        relabel[g] = new
    moved = with_action(table, **relabel)
    assert failed(verify_table(moved, g0(), sub)) == ["subgroup-fixes-coset-1"]


def test_verifier_rejects_a_disconnected_action():
    # Two disjoint copies of the table: everything holds but transitivity.
    table, sub = index_four()
    n = table.count
    doubled = {g: [*images, *(k + n for k in images)] for g, images in table.action.items()}
    assert failed(verify_table(with_action(table, **doubled), g0(), sub)) == [
        "action-transitive"
    ]


@pytest.mark.parametrize("strategy", ["hlt", "felsch"])
def test_s7_over_the_trivial_subgroup(strategy):
    # Index 5040: the verifier must stay linear in the table size, or
    # this test stalls.
    pres = coxeter(7)
    res = enumerate_cosets(pres, [], strategy=strategy)
    assert isinstance(res, Enumeration)
    assert res.count == 5040
    assert failed(verify_table(res, pres, [])) == []


def test_hlt_keeps_no_deduction_stack():
    # HLT reads no deductions.  Kept for the whole run, they grew to 55,323
    # tuples on this input, and the traced peak to 6.8 MB.
    pres = coxeter(7)
    tracemalloc.start()
    try:
        res = enumerate_cosets(pres, [], strategy="hlt")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.count == 5040
    assert peak < 4_000_000


def test_felsch_builds_a_periodic_relator_up_to_its_period():
    # a^20000 has one distinct rotation; building all 20,000 of them, and
    # those of its inverse, took about 20 s.
    pres = presentation("a b/a^20000/b^2")
    sub = [parse("a", pres.alphabet), parse("b", pres.alphabet)]
    start = time.process_time()
    res = enumerate_cosets(pres, sub, strategy="felsch")
    assert res.count == 1
    assert time.process_time() - start < 2.0


def test_felsch_memory_is_linear_in_relator_length():
    # Felsch once copied and compiled every rotation of a^499 b on its own,
    # which peaked at 12.5 MB under tracemalloc.  Not timed: tracemalloc
    # slows the scan.
    pres = presentation("a b/a^499 b/b^2")
    sub = [parse("a", pres.alphabet), parse("b", pres.alphabet)]
    tracemalloc.start()
    try:
        res = enumerate_cosets(pres, sub, strategy="felsch")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.count == 1
    assert peak < 2_000_000


# -- both strategies against test-only references, and a coset differential --


class _Full(Exception):
    pass


def reference_rotations(presentation):
    """Every distinct rotation of every relator and its inverse, as lists
    of columns grouped by first column, in the order they are first met."""
    names = presentation.alphabet.names
    rotations = [[] for _ in range(2 * len(names))]
    for r in presentation.relators:
        rel = [2 * names.index(name) + (sign < 0) for name, sign in r.letters]
        for base in (rel, [c ^ 1 for c in reversed(rel)]):
            for k in range(len(base)):
                rot = base[k:] + base[:k]
                if rot not in rotations[rot[0]]:
                    rotations[rot[0]].append(rot)
    return rotations


def reference_felsch(presentation, subgroup, cap=100_000):
    """Felsch with the deduction loop of Holt, Eick and O'Brien, *Handbook
    of Computational Group Theory* (2005), section 5.2, written apart from
    :mod:`braidcat.cosets`, whose result types alone it borrows.

    After a deduction (alpha, x) it scans the relator rotations that start
    with x at alpha, then those that start with x^-1 at beta = alpha x,
    and it stops scanning at a coset as soon as that coset is dead.  The
    kernel drops the second orientation, which walks the same relator
    cycles through the same edge; its tables must equal these exactly.
    """
    names = presentation.alphabet.names
    ncols = 2 * len(names)

    def cols(word):
        return [2 * names.index(name) + (sign < 0) for name, sign in word.letters]

    rotations = reference_rotations(presentation)
    rows, parent, stack, made = [[None] * ncols], [0], [], [1]

    def find(k):
        while parent[k] != k:
            k = parent[k]
        return k

    def new_coset(alpha, col):
        if made[0] >= cap:
            raise _Full
        made[0] += 1
        rows.append([None] * ncols)
        parent.append(len(parent))
        rows[alpha][col] = len(rows) - 1
        rows[-1][col ^ 1] = alpha
        stack.append((alpha, col))

    def union(k, l, queue):
        k, l = find(k), find(l)
        if k != l:
            parent[max(k, l)] = min(k, l)
            queue.append(max(k, l))

    def collapse(alpha, beta):
        queue = []
        union(alpha, beta, queue)
        while queue:
            gamma = queue.pop(0)
            for col in range(ncols):
                delta = rows[gamma][col]
                if delta is None:
                    continue
                rows[delta][col ^ 1] = None
                mu, nu = find(gamma), find(delta)
                if rows[mu][col] is not None:
                    union(nu, rows[mu][col], queue)
                elif rows[nu][col ^ 1] is not None:
                    union(mu, rows[nu][col ^ 1], queue)
                else:
                    rows[mu][col], rows[nu][col ^ 1] = nu, mu
                    stack.append((mu, col))

    def trace(alpha, word, fill):
        f, i, b, j = alpha, 0, alpha, len(word) - 1
        while True:
            while i <= j and rows[f][word[i]] is not None:
                f, i = rows[f][word[i]], i + 1
            if i > j:
                break
            while j >= i and rows[b][word[j] ^ 1] is not None:
                b, j = rows[b][word[j] ^ 1], j - 1
            if j < i:
                break
            if j == i:
                rows[f][word[i]], rows[b][word[i] ^ 1] = b, f
                stack.append((f, word[i]))
                return
            if not fill:
                return
            new_coset(f, word[i])
        if f != b:
            collapse(f, b)

    def deduce():
        while stack:
            alpha, col = stack.pop()
            alpha = find(alpha)
            for rot in rotations[col]:
                if parent[alpha] != alpha:
                    break
                trace(alpha, rot, False)
            if parent[alpha] == alpha and rows[alpha][col] is not None:
                beta = find(rows[alpha][col])
                for rot in rotations[col ^ 1]:
                    if parent[beta] != beta:
                        break
                    trace(beta, rot, False)

    try:
        for w in subgroup:
            if len(w):
                trace(0, cols(w), True)
        deduce()
        alpha = 0
        while alpha < len(rows):
            for col in range(ncols):
                if parent[alpha] == alpha and rows[alpha][col] is None:
                    new_coset(alpha, col)
                    deduce()
            alpha += 1
    except _Full:
        return OverflowResult(cap=cap, defined=made[0], strategy="felsch")
    live = [k for k in range(len(rows)) if parent[k] == k]
    number = {k: i for i, k in enumerate(live, 1)}
    action = {
        name: tuple(number[find(rows[k][2 * g])] for k in live) for g, name in enumerate(names)
    }
    return Enumeration(count=len(live), action=action, defined=made[0], strategy="felsch")


class _RowTable:
    """The row table that HLT ran on before the kernel moved onto columns,
    kept as it was: ``tab[k][c]`` is coset k times column c."""

    def __init__(self, n_gens, cap):
        self.ncols = 2 * n_gens
        self.tab = [[None] * self.ncols]
        self.p = [0]
        self.defined = 1
        self.cap = cap
        self.deductions = []

    def rep(self, k):
        root = k
        while self.p[root] != root:
            root = self.p[root]
        while self.p[k] != root:
            self.p[k], k = root, self.p[k]
        return root

    def define(self, alpha, col):
        if self.defined >= self.cap:
            raise _Full
        beta = len(self.tab)
        self.tab.append([None] * self.ncols)
        self.p.append(beta)
        self.defined += 1
        self.tab[alpha][col] = beta
        self.tab[beta][col ^ 1] = alpha
        self.deductions.append((alpha, col))
        return beta

    def _merge(self, k, l, queue):
        k, l = self.rep(k), self.rep(l)
        if k != l:
            mu, nu = min(k, l), max(k, l)
            self.p[nu] = mu
            queue.append(nu)

    def coincidence(self, alpha, beta):
        queue = deque()
        self._merge(alpha, beta, queue)
        while queue:
            gamma = queue.popleft()
            for col in range(self.ncols):
                delta = self.tab[gamma][col]
                if delta is None:
                    continue
                self.tab[delta][col ^ 1] = None
                mu, nu = self.rep(gamma), self.rep(delta)
                if self.tab[mu][col] is not None:
                    self._merge(nu, self.tab[mu][col], queue)
                elif self.tab[nu][col ^ 1] is not None:
                    self._merge(mu, self.tab[nu][col ^ 1], queue)
                else:
                    self.tab[mu][col] = nu
                    self.tab[nu][col ^ 1] = mu
                    self.deductions.append((mu, col))

    def scan(self, alpha, word, fill):
        tab = self.tab
        f, i = alpha, 0
        b, j = alpha, len(word) - 1
        while True:
            while i <= j and (g := tab[f][word[i]]) is not None:
                f = g
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i and (g := tab[b][word[j] ^ 1]) is not None:
                b = g
                j -= 1
            if j < i:
                if f != b:
                    self.coincidence(f, b)
                return
            if j == i:
                tab[f][word[i]] = b
                tab[b][word[i] ^ 1] = f
                self.deductions.append((f, word[i]))
                return
            if not fill:
                return
            self.define(f, word[i])


def reference_hlt(presentation, subgroup, cap=100_000):
    """HLT as the kernel ran it on a row table, before it moved onto
    columns, compiled relators and skipped closed cycles.  Those change
    how each step is looked up, not which steps are taken, so the
    kernel's tables must equal these exactly."""
    names = presentation.alphabet.names

    def cols(word):
        return [2 * names.index(name) + (sign < 0) for name, sign in word.letters]

    table = _RowTable(len(names), cap)
    relators = [cols(r) for r in presentation.relators if len(r)]
    tab, p, scan = table.tab, table.p, table.scan
    try:
        for w in subgroup:
            if len(w):
                scan(0, cols(w), True)
        alpha = 0
        while alpha < len(tab):
            if p[alpha] == alpha:
                for rel in relators:
                    scan(alpha, rel, True)
                    if p[alpha] != alpha:
                        break
                else:  # alpha outlived every scan
                    for col, entry in enumerate(tab[alpha]):
                        if entry is None:
                            table.define(alpha, col)
            alpha += 1
    except _Full:
        return OverflowResult(cap=cap, defined=table.defined, strategy="hlt")
    live = [k for k, parent in enumerate(p) if parent == k]
    number = {k: i for i, k in enumerate(live, 1)}
    action = {
        name: tuple(number[table.rep(tab[k][2 * g])] for k in live)
        for g, name in enumerate(names)
    }
    return Enumeration(count=len(live), action=action, defined=table.defined, strategy="hlt")


def check_strategies(pres, sub, cap=100_000):
    """Neither strategy raises, each equals its reference, every
    completed table verifies, and two completed counts agree."""
    hlt, felsch = (enumerate_cosets(pres, sub, strategy=s, cap=cap) for s in ("hlt", "felsch"))
    assert hlt == reference_hlt(pres, sub, cap=cap)
    assert felsch == reference_felsch(pres, sub, cap=cap)
    done = [table for table in (hlt, felsch) if isinstance(table, Enumeration)]
    for table in done:
        assert failed(verify_table(table, pres, sub)) == []
    assert len({table.count for table in done}) <= 1
    return hlt, felsch


def presentation(text):
    """A presentation in the CLI's group-file form: generators, then relators."""
    gens, *relators = text.split("/")
    alphabet = Alphabet(tuple(gens.split()))
    return Presentation(alphabet, tuple(parse(r, alphabet) for r in relators))


# Found by random search.  A coincidence killed alpha while Felsch was still
# scanning alpha's relators, and the scans went on along its stale row: the
# first two ended in "closed table has an empty entry", the third never closed
# at any cap, and the fourth defined one coset too many.
@pytest.mark.parametrize(
    "group, subgroup, index, defined",
    [
        ("a b/A/A^3/b^4/b a", "A^3", 1, 3),
        ("a b/a B A B/A b a a", "", 2, 3),
        ("a b c/A/b c a A a C", "C b a", 1, 3),
        ("a b/B A B A/b b A B a b", "", 16, 21),
    ],
)
def test_felsch_stops_scanning_a_dead_coset(group, subgroup, index, defined):
    pres = presentation(group)
    sub = [parse(subgroup, pres.alphabet)] if subgroup else []
    hlt, felsch = check_strategies(pres, sub)
    assert (hlt.count, felsch.count, felsch.defined) == (index, index, defined)


def random_presentation(rng):
    names = "abcd"[: rng.randint(1, 4)]
    alphabet = Alphabet(tuple(names))
    letters = names + names.upper()

    def word(longest):
        return parse(" ".join(rng.choices(letters, k=rng.randint(1, longest))), alphabet)

    relators = tuple(word(8) for _ in range(rng.randint(1, 4)))
    return Presentation(alphabet, relators), [word(4) for _ in range(rng.randint(0, 2))]


@pytest.mark.parametrize("seed", range(4))
def test_coset_differential_on_random_presentations(seed):
    # 100 presentations per seed; under the small cap about a third of
    # the runs end inconclusive, which is allowed.
    rng = random.Random(seed)
    for _ in range(100):
        check_strategies(*random_presentation(rng), cap=300)


def parabolics(largest_index):
    """Coxeter S4-S7 over each subgroup made of some of its generators,
    with the index n!/|H| where it is at most ``largest_index``: the
    chosen generators fall into runs of adjacent transpositions, and a
    run of k of them generates a symmetric group of order (k + 1)!."""
    for n in range(4, 8):
        pres = coxeter(n)
        for size in range(n - 1):
            for picked in itertools.combinations(range(n - 1), size):
                runs = itertools.groupby(enumerate(picked), lambda ig: ig[1] - ig[0])
                order = math.prod(math.factorial(len(list(run)) + 1) for _, run in runs)
                index = math.factorial(n) // order
                if index <= largest_index:
                    yield pres, [parse(pres.alphabet.names[g], pres.alphabet) for g in picked], index


def test_felsch_equals_the_reference_on_coxeter_parabolics():
    cases = list(parabolics(120))
    assert len(cases) == 56
    for pres, sub, index in cases:
        hlt, felsch = check_strategies(pres, sub)
        assert hlt.count == felsch.count == index


def test_felsch_equals_the_reference_on_the_fixture_subgroups():
    for build, sub in fixtures.SUBGROUPS.values():
        check_strategies(build(), sub)


def felsch_rotations(pres):
    """The rotations Felsch scans, grouped by first column, each read back
    from its window as a list of columns."""
    table = _Table(len(pres.alphabet.names), cap=1)
    relators = [_word_cols(r, pres.alphabet) for r in pres.relators if len(r)]
    grouped = _rotations_by_first(table, relators)
    return [[list(word[i : j + 1]) for word, _, _, i, j in rots] for rots in grouped]


# Relators that are rotations, inverses or rotated inverses of one another,
# and the fixture presentations.
@pytest.mark.parametrize(
    "case",
    [
        "a b/a b A B/b A B a",
        "a b/a B/b A",
        "a b/a b a b a b/b a b a b a",
        "a b c/a b c/c a b/C B A",
        *fixtures.SUBGROUPS,
    ],
)
def test_felsch_scans_each_distinct_rotation_once(case):
    if case in fixtures.SUBGROUPS:
        pres = fixtures.SUBGROUPS[case][0]()
    else:
        pres = presentation(case)
    assert felsch_rotations(pres) == reference_rotations(pres)
