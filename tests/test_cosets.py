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
    _fold,
    _rotations_by_first,
    _Table,
    _word_cols,
    enumerate_cosets,
    verify_table,
)
from braidcat.words import ALPHABET_ST, ALPHABET_XY, Alphabet, Word, parse


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


@pytest.mark.parametrize("change", ["one image too many", "one image too few"])
def test_verifier_rejects_a_column_of_the_wrong_length(change):
    # with_action would take the count from the changed column, so the
    # count stays 4 here.  One image too many still has the set {1..4}.
    table, sub = index_four()
    x = table.action["x"]
    x = x + x[:1] if change == "one image too many" else x[:-1]
    wrong = table._replace(action={**table.action, "x": x})
    assert failed(verify_table(wrong, g0(), sub)) == list(CHECKS)


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


def reference_columns(presentation):
    """The involution rule, apart from the kernel's: a generator g with a
    relator g g or g^-1 g^-1 reads g^-1 in g's own column.  Returns the
    word's columns, each column's inverse, the columns a row uses, and
    the relators left to scan, without each involution's g g."""
    names = presentation.alphabet.names
    squares = [r for r in presentation.relators if len(r) == 2 and r.letters[0] == r.letters[1]]
    involutions = {r.letters[0][0] for r in squares}

    def cols(word):
        return [
            2 * names.index(name) + (sign < 0 and name not in involutions)
            for name, sign in word.letters
        ]

    def inverse(col):
        return col if names[col // 2] in involutions else col ^ 1

    used = [col for col in range(2 * len(names)) if inverse(col) != col or col % 2 == 0]
    relators = [cols(r) for r in presentation.relators if len(r) and r not in squares]
    return cols, inverse, used, relators


def reference_rotations(presentation):
    """Every distinct rotation of every relator and its inverse, as lists
    of columns grouped by first column, in the order they are first met."""
    _, inverse, _, relators = reference_columns(presentation)
    rotations = [[] for _ in range(2 * len(presentation.alphabet.names))]
    for rel in relators:
        for base in (rel, [inverse(c) for c in reversed(rel)]):
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
    cols, inverse, used, _ = reference_columns(presentation)
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
        rows[-1][inverse(col)] = alpha
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
                rows[delta][inverse(col)] = None
                mu, nu = find(gamma), find(delta)
                if rows[mu][col] is not None:
                    union(nu, rows[mu][col], queue)
                elif rows[nu][inverse(col)] is not None:
                    union(mu, rows[nu][inverse(col)], queue)
                else:
                    rows[mu][col], rows[nu][inverse(col)] = nu, mu
                    stack.append((mu, col))

    def trace(alpha, word, fill):
        f, i, b, j = alpha, 0, alpha, len(word) - 1
        while True:
            while i <= j and rows[f][word[i]] is not None:
                f, i = rows[f][word[i]], i + 1
            if i > j:
                break
            while j >= i and rows[b][inverse(word[j])] is not None:
                b, j = rows[b][inverse(word[j])], j - 1
            if j < i:
                break
            if j == i:
                rows[f][word[i]], rows[b][inverse(word[i])] = b, f
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
                for rot in rotations[inverse(col)]:
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
            for col in used:
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
    kept as it was but for the involution rule: ``tab[k][c]`` is coset k
    times column c, and ``inverse(c)`` is the column of its inverse.  An
    involution's second column is never written, so a walk over the
    columns meets it empty."""

    def __init__(self, n_gens, cap, inverse):
        self.ncols = 2 * n_gens
        self.inverse = inverse
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
        self.tab[beta][self.inverse(col)] = alpha
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
                self.tab[delta][self.inverse(col)] = None
                mu, nu = self.rep(gamma), self.rep(delta)
                if self.tab[mu][col] is not None:
                    self._merge(nu, self.tab[mu][col], queue)
                elif self.tab[nu][self.inverse(col)] is not None:
                    self._merge(mu, self.tab[nu][self.inverse(col)], queue)
                else:
                    self.tab[mu][col] = nu
                    self.tab[nu][self.inverse(col)] = mu
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
            while j >= i and (g := tab[b][self.inverse(word[j])]) is not None:
                b = g
                j -= 1
            if j < i:
                if f != b:
                    self.coincidence(f, b)
                return
            if j == i:
                tab[f][word[i]] = b
                tab[b][self.inverse(word[i])] = f
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
    cols, inverse, used, relators = reference_columns(presentation)
    table = _RowTable(len(names), cap, inverse)
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
                    for col in used:
                        if tab[alpha][col] is None:
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


def reference_verify(enum, presentation, subgroup):
    """The four verifier checks written naively, one coset at a time,
    following both signs of every letter."""
    n = enum.count
    if not all(sorted(images) == list(range(1, n + 1)) for images in enum.action.values()):
        return [(name, False) for name in CHECKS]
    inverse = {
        name: {image: k for k, image in enumerate(images, 1)}
        for name, images in enum.action.items()
    }

    def act(k, name, sign):
        return enum.action[name][k - 1] if sign > 0 else inverse[name][k]

    def trace(k, word):
        for name, sign in word.letters:
            k = act(k, name, sign)
        return k

    relators = all(trace(k, r) == k for r in presentation.relators for k in range(1, n + 1))
    fixed = all(trace(1, w) == 1 for w in subgroup)
    reached, frontier = {1}, deque([1])
    while frontier:
        k = frontier.popleft()
        for name in enum.action:
            for sign in (1, -1):
                if (image := act(k, name, sign)) not in reached:
                    reached.add(image)
                    frontier.append(image)
    return list(zip(CHECKS, (True, relators, fixed, len(reached) == n)))


def with_swapped_images(table, rng):
    """The table with two images of one column swapped: still a bijection."""
    name = rng.choice(sorted(table.action))
    images = list(table.action[name])
    i, j = rng.sample(range(len(images)), 2)
    images[i], images[j] = images[j], images[i]
    return table._replace(action={**table.action, name: tuple(images)})


@pytest.mark.parametrize("seed", range(4))
def test_verifier_equals_the_reference_on_random_presentations(seed):
    # The presentations of test_coset_differential_on_random_presentations;
    # each table is checked as it is and with two images swapped.
    rng, swaps = random.Random(seed), random.Random(1000 + seed)
    verdicts, index_one = set(), 0
    for _ in range(100):
        pres, sub = random_presentation(rng)
        for strategy in ("hlt", "felsch"):
            table = enumerate_cosets(pres, sub, strategy=strategy, cap=300)
            if not isinstance(table, Enumeration):
                continue
            tables = [table]
            if table.count > 1:
                tables.append(with_swapped_images(table, swaps))
            else:
                index_one += 1
            for t in tables:
                checks = verify_table(t, pres, sub)
                assert checks == reference_verify(t, pres, sub)
                verdicts.add(tuple(failed(checks)))
    assert index_one >= 50
    assert {(), ("relators-fix-all-cosets",), ("action-transitive",)} <= verdicts


def test_verifier_equals_the_reference_on_index_one_tables():
    xy, st = ALPHABET_XY, ALPHABET_ST
    cases = [
        (g0(), [parse("x", xy), parse("y", xy)]),
        (g0(), [parse("x y x^-2", xy), parse("x", xy)]),
        (sl2(), [parse("S^2 T", st), parse("S^3 T", st)]),
        (presentation("x/x"), []),
        (presentation("a b/a/b"), [parse("a B a", Alphabet(("a", "b")))]),
    ]
    for pres, sub in cases:
        table = enumerate_cosets(pres, sub)
        assert table.count == 1
        moved = table._replace(action={g: (2,) for g in table.action})
        for t in (table, moved):
            assert verify_table(t, pres, sub) == reference_verify(t, pres, sub)
        assert failed(verify_table(table, pres, sub)) == []


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


def test_involutions_halve_hlt_on_s6():
    # With a and a^-1 in one column, HLT no longer defines a coset for
    # each of them at every coset: it defined 1,606 with a column apiece.
    hlt, felsch = check_strategies(coxeter(6), [])
    assert (hlt.count, hlt.defined, felsch.defined) == (720, 776, 720)


def conjugated_squares(pres):
    """The same group with each relator g g written as h g g h^-1, for h
    the next generator: a form the involution rule does not recognise."""
    names = pres.alphabet.names
    relators = []
    for r in pres.relators:
        if len(r) == 2 and r.letters[0] == r.letters[1]:
            h = Word(((names[(names.index(r.letters[0][0]) + 1) % len(names)], 1),))
            r = h * r * h.inverse()
            assert len(r) == 4
        relators.append(r)
    return pres._replace(relators=tuple(relators))


def check_against_conjugated_squares(pres, sub, cap=100_000):
    """Both strategies, with the involution rule and without it: counts
    agree where both complete, and every completed table verifies."""
    general = conjugated_squares(pres)
    assert _fold(general) == list(range(2 * len(pres.alphabet.names)))
    completed = 0
    for strategy in ("hlt", "felsch"):
        folded, plain = (
            enumerate_cosets(p, sub, strategy=strategy, cap=cap) for p in (pres, general)
        )
        for table, p in ((folded, pres), (plain, general)):
            if isinstance(table, Enumeration):
                assert failed(verify_table(table, p, sub)) == []
        if isinstance(folded, Enumeration) and isinstance(plain, Enumeration):
            assert folded.count == plain.count
            completed += 1
    return completed


def random_involutive_presentation(rng):
    """A random presentation on two to four generators, at least one of
    them an involution by a relator g g or g^-1 g^-1."""
    names = "abcd"[: rng.randint(2, 4)]
    alphabet = Alphabet(tuple(names))
    squares = [f"{g}^2" if rng.random() < 0.5 else f"{g}^-2" for g in names if rng.random() < 0.6]
    letters = names + names.upper()

    def word(longest):
        return parse(" ".join(rng.choices(letters, k=rng.randint(1, longest))), alphabet)

    relators = [parse(r, alphabet) for r in squares or [f"{names[0]}^2"]]
    relators += [word(8) for _ in range(rng.randint(1, 3))]
    rng.shuffle(relators)
    return Presentation(alphabet, tuple(relators)), [word(4) for _ in range(rng.randint(0, 2))]


@pytest.mark.parametrize("seed", range(4))
def test_involutions_agree_with_the_general_path_on_random_presentations(seed):
    rng = random.Random(100 + seed)
    completed = 0
    for _ in range(100):
        pres, sub = random_involutive_presentation(rng)
        check_strategies(pres, sub, cap=300)
        completed += check_against_conjugated_squares(pres, sub, cap=300)
    assert completed >= 100


def test_involutions_agree_with_the_general_path_on_coxeter_parabolics():
    for pres, sub, index in parabolics(120):
        assert check_against_conjugated_squares(pres, sub) == 2


def test_define_grows_each_shared_list_once():
    # b is an involution, a is not: four columns, but three lists.
    pres = presentation("a b/b b/a^3")
    table = _Table(_fold(pres), cap=10)
    assert table.cols[2] is table.cols[3]
    for _ in range(3):
        table.define(0, 0)
    assert [len(col) for col in table.cols] == [4] * 4


def test_felsch_equals_the_reference_on_the_fixture_subgroups():
    for build, sub in fixtures.SUBGROUPS.values():
        check_strategies(build(), sub)


def felsch_rotations(pres):
    """The rotations Felsch scans, grouped by first column, each read back
    from its window as a list of columns."""
    fold = _fold(pres)
    relators = [_word_cols(r, pres.alphabet, fold) for r in pres.relators]
    grouped = _rotations_by_first(_Table(fold, cap=1), [r for r in relators if r != r[:1] * 2])
    return [[list(word[i : j + 1]) for word, _, _, i, j in rots] for rots in grouped]


# Relators that are rotations, inverses or rotated inverses of one another,
# with and without involutions, and the fixture presentations.
@pytest.mark.parametrize(
    "case",
    [
        "a b/a b A B/b A B a",
        "a b/a B/b A",
        "a b/a b a b a b/b a b a b a",
        "a b c/a b c/c a b/C B A",
        "a b/a a/b b/a b a b a b",
        "a b/a a/B B/a B a B a B",
        "a b/A A/a b A B",
        *fixtures.SUBGROUPS,
    ],
)
def test_felsch_scans_each_distinct_rotation_once(case):
    if case in fixtures.SUBGROUPS:
        pres = fixtures.SUBGROUPS[case][0]()
    else:
        pres = presentation(case)
    assert felsch_rotations(pres) == reference_rotations(pres)
