"""Garside normal form in the braid group on four strands.

The group is generated by ``a``, ``b``, ``c`` (the elementary crossings
in order along the strands) subject to a b a = b a b, b c b = c b c and
a c = c a.  Every element has a unique left-greedy normal form

    D^k p_1 p_2 ... p_m

where D is the positive half twist, each p_i is a simple element
(a permutation braid) other than 1 or D, and each adjacent pair is
left weighted: every generator that can start p_{i+1} must end p_i.
Simple elements biject with permutations of the four strands, and all
the factor bookkeeping happens in that finite quotient.

Permutations are stored in one-line notation on {0, 1, 2, 3}, and
``compose(p, q)`` means "p then q", matching left-to-right reading of
braid words.  Under that convention the generators that can start a
simple element are its descents, and those that can end it are the
descents of its inverse.

There are only 24 simple elements, so the sweep (``_normalise``) runs on
their indices into ``SIMPLES``: descents are bit masks, and the product,
left weighting (576 pairs) and conjugation by D (24) are tables built at
import.  The sweep stays quadratic on purpose.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .words import Word, parse, substitute

__all__ = [
    "GENERATOR_NAMES",
    "DELTA",
    "NormalForm",
    "normal_form",
    "difference",
    "equals",
    "is_central",
    "conjugation_orbit",
    "presentation_equalities",
    "presentation_differences",
]

Perm = tuple[int, int, int, int]

IDENTITY: Perm = (0, 1, 2, 3)
# One-line form of the longest element, i.e. the half twist D.
DELTA: Perm = (3, 2, 1, 0)

GENERATOR_NAMES = ("a", "b", "c")
GENERATOR_PERMS: tuple[Perm, ...] = ((1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2))


def compose(p: Perm, q: Perm) -> Perm:
    """p then q: the image of i is q(p(i))."""
    return (q[p[0]], q[p[1]], q[p[2]], q[p[3]])


def invert(p: Perm) -> Perm:
    out = [0, 0, 0, 0]
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)  # type: ignore[return-value]


def starting_set(p: Perm) -> frozenset[int]:
    """Indices i such that the simple element p admits a word starting a_i."""
    return frozenset(i for i in range(3) if p[i] > p[i + 1])


def finishing_set(p: Perm) -> frozenset[int]:
    return starting_set(invert(p))


# Simple elements by index (0 is the identity, 23 is D); _THEN[p][q] is "p then q".
SIMPLES: tuple[Perm, ...] = tuple(itertools.permutations(range(4)))
_INDEX = {p: k for k, p in enumerate(SIMPLES)}
_START = [sum(1 << i for i in starting_set(p)) for p in SIMPLES]
_FINISH = [sum(1 << i for i in finishing_set(p)) for p in SIMPLES]
_THEN = [[_INDEX[compose(p, q)] for q in SIMPLES] for p in SIMPLES]
_ID, _D = _INDEX[IDENTITY], _INDEX[DELTA]
_FLIP = [_THEN[_THEN[_D][p]][_D] for p in range(24)]
_GEN = [_INDEX[s] for s in GENERATOR_PERMS]
_D_GEN_INVERSE = [_THEN[_D][s] for s in _GEN]  # D a_i^-1, a simple element


def _slide(p: int, q: int) -> tuple[int, int]:
    """Slide generators from q's head to p's tail, lowest first; p q is kept."""
    while movable := _START[q] & ~_FINISH[p]:
        s = _GEN[(movable & -movable).bit_length() - 1]
        p, q = _THEN[p][s], _THEN[s][q]
    return p, q


_LEFT_WEIGHT = [[_slide(p, q) for q in range(24)] for p in range(24)]


class NormalForm(namedtuple("NormalForm", "power factors", defaults=(0, ()))):
    """Left-greedy normal form D^power p_1 ... p_m.

    ``power`` is the infimum (the largest k with D^-k w positive) and
    ``factors`` are the simple factors, none equal to 1 or D, each
    adjacent pair left weighted.
    """

    __slots__ = ()

    @property
    def infimum(self) -> int:
        return self.power

    @property
    def supremum(self) -> int:
        return self.power + len(self.factors)

    @property
    def canonical_length(self) -> int:
        return len(self.factors)

    @property
    def is_identity(self) -> bool:
        return self.power == 0 and not self.factors

    def __str__(self) -> str:
        parts = [f"D^{self.power}"]
        for p in self.factors:
            parts.append("[" + " ".join(str(v + 1) for v in p) + "]")
        return " | ".join(parts)


def normal_form(word: Word) -> NormalForm:
    """Compute the left-greedy normal form of a word in a, b, c.

    Letters are folded in one at a time.  A positive letter becomes a
    new final factor; an inverse letter a_i^-1 rewrites the element as
    (D^-1) (flipped factors) (D a_i^-1), using that D a_i^-1 is simple.
    The flip (conjugation by D) is an involution that commutes with left
    weighting and fixes 1 and D, so the factors are kept in the frame
    flipped ``odd`` times, the parity of the inverse letters so far: each
    new factor is appended flipped when ``odd`` is set, and the list is
    flipped once at the end.  After each letter the sweep restores left
    weighting and full twists at the front are absorbed into the power.
    """
    power, odd = 0, False
    factors: list[int] = []
    for name, sign in word.letters:
        i = GENERATOR_NAMES.index(name)
        if sign > 0:
            new = _GEN[i]
        else:
            power, odd, new = power - 1, not odd, _D_GEN_INVERSE[i]
        factors.append(_FLIP[new] if odd else new)
        _normalise(factors)
        while factors and factors[0] == _D:
            power += 1
            del factors[0]
    if odd:
        factors = [_FLIP[p] for p in factors]
    return NormalForm(power, tuple(SIMPLES[p] for p in factors))


def _normalise(factors: list[int]) -> None:
    """Repeated local moves, in place, until every adjacent pair is left
    weighted.

    Factors are indices into ``SIMPLES``, none of them 1: no appended
    factor is 1, a move always lengthens p, and a q that becomes 1 is
    dropped.  Any D produced migrates to the front, because a factor
    equal to D absorbs all of its successor.  Each move is a lookup in
    ``_LEFT_WEIGHT``, but the sweep stays quadratic on purpose: a linear
    one fits so many more jobs into a benchmark run that the harness's
    per-job records, not braidcat, break the peak-memory bound (see
    ROADMAP).
    """
    changed = True
    while changed:
        changed = False
        for i in range(len(factors) - 2, -1, -1):
            p, q = _LEFT_WEIGHT[factors[i]][factors[i + 1]]
            if p != factors[i]:  # a move always lengthens p
                changed = True
                factors[i : i + 2] = (p, q) if q != _ID else (p,)


def difference(w1: Word, w2: Word) -> NormalForm:
    """The normal form of w1 w2^-1, the identity exactly when w1 = w2."""
    return normal_form(w1 * w2.inverse())


def equals(w1: Word, w2: Word) -> bool:
    """Exact equality in the braid group."""
    return difference(w1, w2).is_identity


def is_central(word: Word) -> bool:
    gens = [Word(((name, 1),)) for name in GENERATOR_NAMES]
    return all(equals(word * g, g * word) for g in gens)


def conjugation_orbit(
    g: Word, seed: Word, max_steps: int = 16, convention: str = "left"
) -> list[Word]:
    """Iterate conjugation by g until the seed recurs, returning the orbit.

    ``convention="left"`` applies w -> g w g^-1 and ``"right"`` applies
    w -> g^-1 w g.  The length of the returned list is the period.
    Raises if the orbit does not close within max_steps.
    """
    if convention not in ("left", "right"):
        raise ValueError(f"unknown convention {convention!r}")
    orbit = [seed]
    current = seed
    for _ in range(max_steps):
        if convention == "left":
            current = g * current * g.inverse()
        else:
            current = g.inverse() * current * g
        if equals(current, seed):
            return orbit
        orbit.append(current)
    raise ValueError(f"orbit did not close within {max_steps} steps")


def presentation_equalities() -> tuple[tuple[str, str, str], ...]:
    """The defining equalities of the six-generator presentation on
    a, b, c, d, e, f, as (label, left word, right word) in that alphabet."""
    return (
        ("ba=ae", "b a", "a e"),
        ("ae=eb", "a e", "e b"),
        ("de=ec", "d e", "e c"),
        ("ec=cd", "e c", "c d"),
        ("bc=cf", "b c", "c f"),
        ("cf=fb", "c f", "f b"),
        ("df=fa", "d f", "f a"),
        ("fa=ad", "f a", "a d"),
        ("ca=ac", "c a", "a c"),
        ("ef=fe", "e f", "f e"),
    )


def presentation_differences(e: Word, f: Word, d: Word) -> list[tuple[str, NormalForm]]:
    """Normal forms of the six-generator equalities for given expressions
    of d, e, f as words in a, b, c: one (label, normal form of lhs rhs^-1)
    pair per equality, which holds exactly when that form is the identity.

    The six generators and ten equalities are the Birman-Ko-Lee band
    presentation of the four-strand braid group (Birman-Ko-Lee 1998):
    one generator per chord between four points on a circle, the two
    pairs of disjoint chords commute (ca=ac, ef=fe), and each of the
    four triangles of chords gives two equalities.  Here a, b, c are
    the elementary crossings and d, e, f the supplied words."""
    images = {
        "a": parse("a"),
        "b": parse("b"),
        "c": parse("c"),
        "d": d,
        "e": e,
        "f": f,
    }
    results = []
    for label, lhs, rhs in presentation_equalities():
        left = substitute(parse(lhs), images)
        right = substitute(parse(rhs), images)
        results.append((label, difference(left, right)))
    return results
