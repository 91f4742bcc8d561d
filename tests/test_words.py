import os
import random
import re

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

try:
    from hypothesis import example, given
    from hypothesis import strategies as st
except ImportError:  # the differential test skips itself
    given = None

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


@pytest.mark.parametrize(
    "text", ["a^99999999999", "b a^-100000000000", "X^{100000000000} y", "a^600000 b^400000 c"]
)
def test_parse_refuses_a_word_too_long_to_expand(text):
    # The exponents are far beyond memory: expanding one is not an option.
    with pytest.raises(ValueError, match=f"more than {MAX_LETTERS} letters"):
        parse(text)


def test_free_reduction_and_inverse():
    assert parse("abBA") == Word()
    v = parse("abc")
    assert v * v.inverse() == Word()
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


def distinct_letter_objects(*words):
    return len({id(letter) for word in words for letter in word.letters})


def test_words_share_one_tuple_per_letter():
    w = parse("a b c A B C a^5 b^-3 C^{4} " * 40)
    assert len(w) > 500 and distinct_letter_objects(w) <= 6
    # an inverse makes at most one tuple per distinct letter; products,
    # powers and substitutions make none
    inv = w.inverse()
    assert distinct_letter_objects(w, inv) <= 12
    assert distinct_letter_objects(w, inv, w * w, w * inv, inv * w, w**3) <= 12
    assert distinct_letter_objects(w, w**-2) <= 12
    images = {"a": parse("xy", ALPHABET_XY), "b": parse("Yx^3", ALPHABET_XY), "c": parse("1")}
    image = substitute(w, images)
    assert len(image) > 500
    # x, X, y and Y in the images, and again in their inverses
    assert distinct_letter_objects(image, *images.values()) <= 8


_REFERENCE_TOKEN = re.compile(r"\s+|(?P<letter>[A-Za-z])(?:\^\{?(?P<exp>-?\d+)\}?)?|(?P<bad>.)")


def reference_parse(text, alphabet=None):
    """An independent parser for the differential test: one regex match
    and one new tuple per letter, then a free reduction of its own."""
    if text.strip() == "1":
        return Word()
    letters = []
    for match in _REFERENCE_TOKEN.finditer(text):
        if match.group("bad"):
            raise ValueError(f"bad character {match.group('bad')!r} in {text!r}")
        ch = match.group("letter")
        if ch is None:
            continue
        if alphabet is None:
            name, sign = (ch, 1) if ch.islower() else (ch.lower(), -1)
        elif ch in alphabet:
            name, sign = ch, 1
        elif ch.swapcase() in alphabet:
            name, sign = ch.swapcase(), -1
        else:
            raise ValueError(f"letter {ch!r} is not in the alphabet {alphabet.names}")
        exp = int(match.group("exp") or 1)
        if exp < 0:
            sign, exp = -sign, -exp
        if len(letters) + exp > MAX_LETTERS:
            raise ValueError(f"word has more than {MAX_LETTERS} letters")
        letters.extend([(name, sign)] * exp)
    stack = []
    for name, sign in letters:
        if stack and stack[-1] == (name, -sign):
            stack.pop()
        else:
            stack.append((name, sign))
    return Word(tuple(stack))


def outcome(parser, text, alphabet):
    """The parsed word, or the type and message of what the parser raised."""
    try:
        return parser(text, alphabet)
    except Exception as exc:
        return type(exc), str(exc)


if given is None:

    def test_parse_matches_the_reference_parser():
        pytest.skip("needs hypothesis")

else:
    # exponents: none, small in every spelling (a lone brace included),
    # or past MAX_LETTERS, which must be refused before it is expanded
    EXPONENTS = st.one_of(
        st.just(""),
        st.builds(
            str.format,
            st.sampled_from(["^{}", "^-{}", "^{{{}}}", "^{{-{}}}", "^{{{}", "^{}}}"]),
            st.integers(0, 12),
        ),
        st.integers(MAX_LETTERS + 1, 10**12).map("^-{}".format),
        st.integers(MAX_LETTERS + 1, 10**12).map("^{}".format),
    )
    TOKENS = st.one_of(
        st.builds(str.__add__, st.sampled_from("abcABCxyXYSTstdqZ"), EXPONENTS),
        st.sampled_from([" ", "  ", "\t", "\n", "^", "^2", "1", "+", "-", "{", "\u00e9", "\u0663"]),
    )
    TEXTS = st.one_of(
        st.lists(TOKENS, max_size=14).map("".join), st.sampled_from(["1", " 1\n", "11", ""])
    )
    ALPHABETS = st.sampled_from([None, ALPHABET_ABC, ALPHABET_XY, ALPHABET_ST])

    @given(TEXTS, ALPHABETS)
    @example("x^-2", ALPHABET_ABC)  # the letter is named as written
    @example("a + a^99999999999", None)  # the first bad token wins
    @example("a^99999999999 +", None)
    @example("b^{3 A^2} \u0663 c", None)
    @example("s T^-2 S^{0}", ALPHABET_ST)
    @example("x^" + "9" * 5000, ALPHABET_ABC)  # the letter is checked before int() refuses
    @example("a^" + "9" * 5000, ALPHABET_ABC)
    def test_parse_matches_the_reference_parser(text, alphabet):
        got = outcome(parse, text, alphabet)
        assert got == outcome(reference_parse, text, alphabet)
        if isinstance(got, Word):
            assert distinct_letter_objects(got) <= 2 * len(got.names())
