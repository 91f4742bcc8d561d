import os
import random

import pytest

from braidcat.words import (
    ALPHABET_ABC,
    ALPHABET_ST,
    ALPHABET_XY,
    MAX_LETTERS,
    Alphabet,
    Word,
    parse,
    substitute,
)

SEED = int(os.environ.get("GGT_SEED", "17"))


def random_word(rng, names=("a", "b", "c"), length=12):
    letters = [(rng.choice(names), rng.choice((1, -1))) for _ in range(rng.randint(0, length))]
    return Word.from_letters(letters)


def test_parse_basic():
    w = parse("abA")
    assert w.letters == (("a", 1), ("b", 1), ("a", -1))
    assert parse("a A") == Word()
    assert parse("1") == Word()
    assert parse("x^3 Y", ALPHABET_XY).letters == (("x", 1),) * 3 + (("y", -1),)
    assert parse("x^-2", ALPHABET_XY).letters == (("x", -1), ("x", -1))
    assert parse("x^{-2}", ALPHABET_XY) == parse("x^-2", ALPHABET_XY)


def test_parse_relator_example():
    w = parse("x y x^2 Y X Y x^-2 y", ALPHABET_XY)
    assert w.letters == (
        ("x", 1), ("y", 1), ("x", 1), ("x", 1), ("y", -1),
        ("x", -1), ("y", -1), ("x", -1), ("x", -1), ("y", 1),
    )


def test_parse_uppercase_alphabet():
    w = parse("S T S^-2", ALPHABET_ST)
    assert w.letters == (("S", 1), ("T", 1), ("S", -1), ("S", -1))
    # Case flip is the inverse for uppercase generator names too.
    assert parse("s", ALPHABET_ST).letters == (("S", -1),)
    with pytest.raises(ValueError):
        parse("x", ALPHABET_ST)


def test_parse_rejects_out_of_alphabet():
    with pytest.raises(ValueError):
        parse("x y", ALPHABET_ABC)
    with pytest.raises(ValueError):
        parse("a+b")


@pytest.mark.parametrize("text", ["a^99999999999", "b a^-100000000000", "X^{100000000000} y"])
def test_parse_refuses_a_word_too_long_to_expand(text):
    # The exponents are far beyond memory: expanding one is not an option.
    with pytest.raises(ValueError, match=f"more than {MAX_LETTERS} letters"):
        parse(text)


def test_free_reduction_and_inverse():
    w = parse("abBA")
    assert w.is_identity
    v = parse("abc")
    assert (v * v.inverse()).is_identity
    assert v.inverse() == parse("CBA")


def test_powers():
    v = parse("ab")
    assert v**3 == parse("ababab")
    assert v**0 == Word()
    assert v**-2 == parse("BABA")
    # powers of a word that is not cyclically reduced cancel at the seams
    u = parse("aBA")
    assert u**3 == u * u * u == parse("aBBBA")
    assert u**-2 == u.inverse() * u.inverse()


def test_serialisation_round_trip_known():
    w = parse("x y x^2 Y X Y x^-2 y", ALPHABET_XY)
    assert str(w) == "x y x^2 Y X Y X^2 y"
    assert parse(str(w), ALPHABET_XY) == w
    assert str(Word()) == "1"


def test_substitute_is_a_homomorphism():
    rng = random.Random(SEED)
    images = {"a": parse("xy", ALPHABET_XY), "b": parse("Yx", ALPHABET_XY), "c": parse("x^2", ALPHABET_XY)}
    for _ in range(200):
        u = random_word(rng)
        v = random_word(rng)
        assert substitute(u * v, images) == substitute(u, images) * substitute(v, images)
        assert substitute(u.inverse(), images) == substitute(u, images).inverse()


def test_substitute_missing_generator():
    with pytest.raises(KeyError):
        substitute(parse("ab"), {"a": parse("a")})


def test_round_trip_random():
    rng = random.Random(SEED + 1)
    for _ in range(200):
        w = random_word(rng)
        assert parse(str(w)) == w


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet(("a", "A"))
    with pytest.raises(ValueError):
        Alphabet(("ab",))
    assert "a" in ALPHABET_ABC
    assert ALPHABET_ABC.index("c") == 2
