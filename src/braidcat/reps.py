"""Concrete representations used to cross-check the symbolic work.

Two targets: 2 x 2 integer matrices of determinant one, evaluated
exactly (Python integers never overflow, so there is no precision
story to manage), and permutations of the four strand endpoints.

Permutations compose right to left throughout this module: applying
``p q`` to a point means applying q first, so (p q)(i) = p(q(i)).
Reports that print permutation data repeat this convention; it is the
one fixed point every consumer must agree on, since the same one-line
images under the opposite convention describe the inverse action.
"""

from __future__ import annotations

from collections.abc import Mapping

from .words import Word

__all__ = [
    "COMPOSITION_CONVENTION",
    "Matrix",
    "IDENTITY_2X2",
    "MAT_S",
    "MAT_T",
    "mat_mul",
    "mat_inv",
    "mat_neg",
    "evaluate_matrix",
    "modular_assignment",
    "Permutation",
    "perm_mul",
    "evaluate_permutation",
    "strand_assignment",
    "cycle_type",
    "generated_subgroup",
    "stabilizer_of",
]

COMPOSITION_CONVENTION = "right-to-left: (p q)(i) = p(q(i)), q acts first"

Matrix = tuple[tuple[int, int], tuple[int, int]]

IDENTITY_2X2: Matrix = ((1, 0), (0, 1))
MAT_S: Matrix = ((0, 1), (-1, 0))
MAT_T: Matrix = ((1, 0), (1, 1))


def mat_mul(m: Matrix, n: Matrix) -> Matrix:
    return (
        (m[0][0] * n[0][0] + m[0][1] * n[1][0], m[0][0] * n[0][1] + m[0][1] * n[1][1]),
        (m[1][0] * n[0][0] + m[1][1] * n[1][0], m[1][0] * n[0][1] + m[1][1] * n[1][1]),
    )


def mat_det(m: Matrix) -> int:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def mat_inv(m: Matrix) -> Matrix:
    if mat_det(m) != 1:
        raise ValueError(f"matrix {m} does not have determinant one")
    return ((m[1][1], -m[0][1]), (-m[1][0], m[0][0]))


def mat_neg(m: Matrix) -> Matrix:
    return ((-m[0][0], -m[0][1]), (-m[1][0], -m[1][1]))


def evaluate_matrix(word: Word, images: Mapping[str, Matrix]) -> Matrix:
    out = IDENTITY_2X2
    for name, sign in word.letters:
        m = images[name]
        out = mat_mul(out, m if sign > 0 else mat_inv(m))
    return out


def modular_assignment() -> dict[str, Matrix]:
    """x goes to S and y to -ST, the standard torsion generators."""
    return {"x": MAT_S, "y": mat_neg(mat_mul(MAT_S, MAT_T))}


Permutation = tuple[int, ...]


def perm_mul(p: Permutation, q: Permutation) -> Permutation:
    """Right-to-left: q acts first."""
    return tuple(p[q[i]] for i in range(len(p)))


def evaluate_permutation(word: Word, images: Mapping[str, Permutation]) -> Permutation:
    degree = len(next(iter(images.values()))) if images else 0
    out = tuple(range(degree))
    for name, sign in word.letters:
        p = images[name]
        out = perm_mul(out, p if sign > 0 else tuple(sorted(range(len(p)), key=p.__getitem__)))
    return out


def strand_assignment() -> dict[str, Permutation]:
    """The crossings act on strand endpoints as adjacent transpositions."""
    return {"a": (1, 0, 2, 3), "b": (0, 2, 1, 3), "c": (0, 1, 3, 2)}


def cycle_type(p: Permutation) -> tuple[int, ...]:
    seen: set[int] = set()
    sizes = []
    for start in range(len(p)):
        if start not in seen:
            k, size = start, 0
            while k not in seen:
                seen.add(k)
                size += 1
                k = p[k]
            sizes.append(size)
    return tuple(sorted(sizes))


def generated_subgroup(perms: list[Permutation]) -> frozenset[Permutation]:
    degree = len(perms[0])
    identity = tuple(range(degree))
    found = {identity}
    frontier = [identity]
    while frontier:
        g = frontier.pop()
        for p in perms:
            h = perm_mul(p, g)
            if h not in found:
                found.add(h)
                frontier.append(h)
    return frozenset(found)


def stabilizer_of(point: int, group: frozenset[Permutation]) -> frozenset[Permutation]:
    return frozenset(p for p in group if p[point] == point)
