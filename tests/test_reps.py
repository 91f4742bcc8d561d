import os
import random

import pytest

from braidcat.reps import (
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
    perm_mul,
    stabilizer_of,
    strand_assignment,
)
from braidcat.words import ALPHABET_ST, ALPHABET_XY, Word, parse

SEED = int(os.environ.get("GGT_SEED", "17"))


def pxy(text):
    return parse(text, ALPHABET_XY)


def test_matrix_primitives():
    assert mat_mul(MAT_S, mat_inv(MAT_S)) == IDENTITY_2X2
    assert mat_mul(MAT_S, MAT_S) == mat_neg(IDENTITY_2X2)
    with pytest.raises(ValueError):
        mat_inv(((2, 0), (0, 1)))


def test_modular_relators_die():
    mod = modular_assignment()
    for text in ("x^4", "y^3", "x y x^2 Y X Y x^-2 y"):
        assert evaluate_matrix(pxy(text), mod) == IDENTITY_2X2


def test_modular_images():
    mod = modular_assignment()
    assert mod["x"] == MAT_S
    assert mod["y"] == mat_neg(mat_mul(MAT_S, MAT_T))
    assert evaluate_matrix(pxy("x y x^-2"), mod) == mat_neg(MAT_T)


def test_pair_quotient_is_s():
    st = {"S": MAT_S, "T": MAT_T}
    u = evaluate_matrix(parse("S^3 T", ALPHABET_ST), st)
    v = evaluate_matrix(parse("S^2 T", ALPHABET_ST), st)
    assert mat_mul(u, mat_inv(v)) == MAT_S


def test_matrix_evaluation_is_homomorphic():
    rng = random.Random(SEED)
    mod = modular_assignment()
    for _ in range(100):
        u = Word.from_letters((rng.choice("xy"), rng.choice((1, -1))) for _ in range(rng.randint(0, 10)))
        v = Word.from_letters((rng.choice("xy"), rng.choice((1, -1))) for _ in range(rng.randint(0, 10)))
        assert evaluate_matrix(u * v, mod) == mat_mul(evaluate_matrix(u, mod), evaluate_matrix(v, mod))


def test_permutation_convention():
    # Right-to-left: q acts first, so (p q)(i) = p(q(i)).
    p, q = (1, 0, 2, 3), (0, 2, 1, 3)
    assert perm_mul(p, q) == (1, 2, 0, 3)
    assert perm_mul(q, p) == (2, 0, 1, 3)
    # an inverse letter acts by the inverse permutation
    assert evaluate_permutation(parse("A"), {"a": (2, 0, 3, 1)}) == (1, 3, 0, 2)


def test_strand_images():
    sa = strand_assignment()
    px = evaluate_permutation(parse("bac"), sa)
    py = evaluate_permutation(parse("bacc"), sa)
    assert cycle_type(px) == (4,)
    assert cycle_type(py) == (1, 3)
    assert py[3] == 3


def test_stabilizer_subgroup():
    sa = strand_assignment()
    py = evaluate_permutation(parse("bacc"), sa)
    group = generated_subgroup([sa["a"], py])
    assert len(group) == 6
    assert group == stabilizer_of(3, generated_subgroup(list(sa.values())))
    assert len(generated_subgroup(list(sa.values()))) == 24


def test_cycle_type():
    assert cycle_type((0, 1, 2, 3)) == (1, 1, 1, 1)
    assert cycle_type((1, 0, 3, 2)) == (2, 2)
