import pytest

from braidcat.cosets import (
    Enumeration,
    OverflowResult,
    Presentation,
    coset_action,
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


def test_coset_action_walks_words():
    sub = [parse("x y x^-2", ALPHABET_XY), parse("y", ALPHABET_XY)]
    res = enumerate_cosets(g0(), sub)
    assert coset_action(res, parse("y", ALPHABET_XY), 1) == 1
    w = parse("x^4", ALPHABET_XY)
    for start in range(1, 5):
        assert coset_action(res, w, start) == start
    assert coset_action(res, parse("X", ALPHABET_XY), coset_action(res, parse("x", ALPHABET_XY), 2)) == 2


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
