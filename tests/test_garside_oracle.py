"""An independent check of Garside normal forms through the Burau
representation of the four-strand braid group.

Each generator acts as a 4x4 matrix over Z[t, t^-1]; a Laurent
polynomial is a dict from exponent to nonzero integer coefficient.  The
matrices share no code with ``braidcat.garside``, so agreement of a word
with the word of its normal form is evidence from outside the kernel.

The oracle is one-sided.  Unequal matrices prove two words unequal, but
equal matrices prove nothing: for four strands the Burau representation
is not known to be faithful.  The faithful Lawrence-Krammer
representation would decide equality both ways.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from braidcat.garside import normal_form  # noqa: E402
from braidcat.words import Word, parse  # noqa: E402
from garside_words import to_word  # noqa: E402

N = 4
ONE = {0: 1}


def poly_add(f, g):
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, 0) + c
        if out[e] == 0:
            del out[e]
    return out


def poly_mul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def mat_mul(m1, m2):
    out = []
    for i in range(N):
        row = []
        for j in range(N):
            entry = {}
            for k in range(N):
                if m1[i][k] and m2[k][j]:
                    entry = poly_add(entry, poly_mul(m1[i][k], m2[k][j]))
            row.append(entry)
        out.append(row)
    return out


def identity():
    return [[ONE if i == j else {} for j in range(N)] for i in range(N)]


def generator(i, sign):
    """sigma_i^sign: the identity with the 2x2 block [[1-t, t], [1, 0]]
    at rows and columns i, i+1, or its inverse [[0, 1], [1/t, 1-1/t]]."""
    m = identity()
    if sign > 0:
        block = (({0: 1, 1: -1}, {1: 1}), (ONE, {}))
    else:
        block = (({}, ONE), ({-1: 1}, {0: 1, -1: -1}))
    for r in range(2):
        for c in range(2):
            m[i + r][i + c] = block[r][c]
    return m


GENERATORS = {(name, sign): generator(i, sign) for i, name in enumerate("abc") for sign in (1, -1)}


def burau(word):
    m = identity()
    for letter in word.letters:
        m = mat_mul(m, GENERATORS[letter])
    return m


def test_burau_is_a_representation():
    for name in "abc":
        up, down = GENERATORS[(name, 1)], GENERATORS[(name, -1)]
        assert mat_mul(up, down) == identity() == mat_mul(down, up)
    assert burau(parse("aba")) == burau(parse("bab"))
    assert burau(parse("bcb")) == burau(parse("cbc"))
    assert burau(parse("ac")) == burau(parse("ca"))
    # The oracle can tell words apart: a b and b a differ.
    assert burau(parse("ab")) != burau(parse("ba"))


words = st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from((1, -1))), max_size=40).map(
    Word.from_letters
)


@given(words)
def test_normal_form_word_has_the_same_burau_matrix(w):
    assert burau(to_word(normal_form(w))) == burau(w)


@given(words)
def test_normal_form_word_round_trip(w):
    nf = normal_form(w)
    assert normal_form(to_word(nf)) == nf
