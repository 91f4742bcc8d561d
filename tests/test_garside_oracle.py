"""An independent judge of the Garside kernel: the Lawrence-Krammer
representation of the four-strand braid group.

LK sends B4 to 6x6 matrices over Z[q^+-1, t^+-1], on the basis v_{j,k}
with 1 <= j < k <= 4, and it is faithful (Bigelow 2001, *Braid groups
are linear*; Krammer 2002).  So two words are equal in B4 exactly when
their matrices are equal.  The centre is generated by D^2, and
LK(D^2) = q^8 t^2 I, so a word is central exactly when its matrix is
(q^8 t^2)^k I.  The matrices share no code with ``braidcat.garside``,
and they judge what the audit and the CLI call: ``normal_form``,
``equals``, ``difference`` and ``is_central``.

A Laurent polynomial is a dict from (q exponent, t exponent) to a
nonzero integer, and a matrix is a list of six sparse rows, each a dict
from column to polynomial.  No matrix is inverted: since LK(D^2) is a
scalar, LK(a_i^-1) is q^-8 t^-2 times the matrix of the positive word
D (D a_i^-1).
"""

import itertools

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from braidcat import fixtures  # noqa: E402
from braidcat.garside import (  # noqa: E402
    difference,
    equals,
    is_central,
    normal_form,
    presentation_differences,
    presentation_equalities,
)
from braidcat.words import ALPHABET_XY, Word, parse, substitute  # noqa: E402
from garside_words import to_word  # noqa: E402

PAIRS = [(j, k) for j in range(1, 5) for k in range(j + 1, 5)]
BASIS = {pair: n for n, pair in enumerate(PAIRS)}


def poly(*terms):
    """The sum of c q^a t^b over the (c, a, b) in terms."""
    return {(a, b): c for c, a, b in terms}


def add_product(out, f, g):
    """out += f g, keeping no zero coefficient."""
    for (a1, b1), c1 in f.items():
        for (a2, b2), c2 in g.items():
            e = (a1 + a2, b1 + b2)
            c = out.get(e, 0) + c1 * c2
            if c:
                out[e] = c
            else:
                del out[e]


def sigma_image(i, j, k):
    """sigma_i(v_{j,k}) in Bigelow's convention, as a row {column: poly}."""
    one = poly((1, 0, 0))
    if i not in (j - 1, j, k - 1, k):
        return {BASIS[j, k]: one}
    if i == j - 1:
        return {
            BASIS[i, k]: poly((1, 1, 0)),
            BASIS[i, j]: poly((1, 2, 0), (-1, 1, 0)),
            BASIS[j, k]: poly((1, 0, 0), (-1, 1, 0)),
        }
    if i == j != k - 1:
        return {BASIS[j + 1, k]: one}
    if i == k - 1 != j:
        return {
            BASIS[j, i]: poly((1, 1, 0)),
            BASIS[j, k]: poly((1, 0, 0), (-1, 1, 0)),
            BASIS[i, k]: poly((-1, 2, 1), (1, 1, 1)),
        }
    if i == k:
        return {BASIS[j, k + 1]: one}
    return {BASIS[j, k]: poly((-1, 2, 1))}  # i == j == k - 1


def mat_mul(m1, m2):
    out = []
    for row in m1:
        new = {}
        for k, f in row.items():
            for col, g in m2[k].items():
                add_product(new.setdefault(col, {}), f, g)
        out.append({col: f for col, f in new.items() if f})
    return out


def scalar(a, b):
    """q^a t^b I."""
    return [{n: {(a, b): 1}} for n in range(6)]


IDENTITY = scalar(0, 0)
MATRICES = {
    (name, 1): [sigma_image(i, j, k) for j, k in PAIRS] for i, name in zip((1, 2, 3), "abc")
}


def lk(word):
    m = IDENTITY
    for letter in word.letters:
        m = mat_mul(m, MATRICES[letter])
    return m


# D a_i^-1 as a positive word, from the reduced words abcaba, abcbab and
# cbcabc of D, which end in a, b and c.
DELTA = parse("abacba")
DELTA_OVER = {"a": parse("abcab"), "b": parse("abcba"), "c": parse("cbcab")}
for _name, _over in DELTA_OVER.items():
    MATRICES[(_name, -1)] = mat_mul(lk(DELTA * _over), scalar(-8, -2))


def lk_central(word):
    """Whether LK(word) = (q^8 t^2)^k I, that is word = D^2k.  D^2 has
    exponent sum 12, so k is the word's exponent sum over 12."""
    total = sum(sign for _, sign in word.letters)
    return total % 12 == 0 and lk(word) == scalar(8 * total // 12, 2 * total // 12)


def determinant(m):
    """By the Leibniz formula, skipping any permutation that meets a zero."""
    total = {}
    for perm in itertools.permutations(range(6)):
        inversions = sum(1 for x, y in itertools.combinations(perm, 2) if x > y)
        term = {(0, 0): (-1) ** inversions}
        for r, c in enumerate(perm):
            if c not in m[r]:
                break
            product = {}
            add_product(product, term, m[r][c])
            term = product
        else:
            add_product(total, term, {(0, 0): 1})
    return total


def test_lk_is_a_representation():
    for name in "abc":
        up, down = MATRICES[(name, 1)], MATRICES[(name, -1)]
        assert mat_mul(up, down) == IDENTITY == mat_mul(down, up)
        assert determinant(up) == poly((-1, 4, 1))
    assert lk(parse("aba")) == lk(parse("bab"))
    assert lk(parse("bcb")) == lk(parse("cbc"))
    assert lk(parse("ac")) == lk(parse("ca"))
    assert lk(DELTA**2) == scalar(8, 2)
    # It tells apart what the kernel must tell apart.
    assert lk(parse("ab")) != lk(parse("ba"))
    assert lk(DELTA) != lk(parse("abacab"))
    assert not lk_central(DELTA) and lk_central(DELTA**-2)


LETTERS = st.tuples(st.sampled_from("abc"), st.sampled_from((1, -1)))
words = st.lists(LETTERS, max_size=24).map(Word.from_letters)
short_words = st.lists(LETTERS, max_size=6).map(Word.from_letters)
RELATORS = [parse(text) for text in ("abaBAB", "bcbCBC", "acAC", "abacba a ABCABA C")]


@given(words)
@example(parse("A B A B A B"))  # an even number of inverse letters
@example(parse("A B A B A"))  # an odd number
@example(parse("C bac bac bac bac"))  # odd, with D absorbed at the front
def test_normal_form_word_has_the_same_lk_matrix(w):
    assert lk(to_word(normal_form(w))) == lk(w)


@given(words)
def test_normal_form_word_round_trip(w):
    nf = normal_form(w)
    assert normal_form(to_word(nf)) == nf


@given(short_words, short_words, st.sampled_from(RELATORS), st.integers(0, 6), st.booleans())
def test_equality_is_what_lk_says(u, g, relator, cut, equal):
    """v is u with a conjugate of a relator put in (so v = u), or with a
    random short word put in (so v = u only if that word is trivial)."""
    piece = g * relator * g.inverse() if equal else g
    cut = min(cut, len(u))
    v = Word(u.letters[:cut]) * piece * Word(u.letters[cut:])
    same = lk(u) == lk(v)
    assert equals(u, v) == same == difference(u, v).is_identity
    assert same or not equal


@given(short_words, st.sampled_from(["1", "abacba", "abacba^2", "ABACBA^2", "abacba^3", "abA"]))
def test_is_central_is_what_lk_says(g, z):
    """Conjugates of powers of D: central exactly for the even ones."""
    w = g * parse(z) * g.inverse()
    assert is_central(w) == lk_central(w)


def test_the_audit_braid_claims_are_what_lk_says():
    W = fixtures.WORDS
    # center:* and relator:x4, relator:y3
    for word in (W["x"] ** 4, W["y"] ** 3):
        assert lk(word) == scalar(8, 2) and lk_central(word) and is_central(word)
    assert not lk_central(W["x"] ** 2) and not is_central(W["x"] ** 2)
    # relator:long
    long_relator = substitute(parse(fixtures.G0_RELATORS[-1], ALPHABET_XY), W)
    assert lk(long_relator) == IDENTITY and normal_form(long_relator).is_identity
    # identity:*
    for name, product in (("a", "x y x^-2"), ("b", "x c^-1 a^-1"), ("b", "e^-1 a e")):
        assert lk(W[name]) == lk(substitute(parse(product), W))
        assert difference(W[name], substitute(parse(product), W)).is_identity
    # presentation:*, with the resolved dictionary and the rejected candidates
    for e, f in (("e", "f"), ("e-candidate", "f-candidate")):
        images = {"a": W["a"], "b": W["b"], "c": W["c"], "d": W["d"], "e": W[e], "f": W[f]}
        results = dict(presentation_differences(W[e], W[f], W["d"]))
        for label, lhs, rhs in presentation_equalities():
            left, right = (substitute(parse(side), images) for side in (lhs, rhs))
            assert results[label].is_identity == (lk(left) == lk(right)), (e, label)
