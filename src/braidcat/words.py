"""Words in a finitely generated group, with a tiny concrete syntax.

A word is a freely reduced sequence of letters, each letter a generator
name together with a sign.  The concrete syntax is character based:

    * a lowercase character that names a generator is a positive letter,
      and the corresponding uppercase character is its inverse;
    * alphabets may also declare uppercase generator names (``S``, ``T``),
      in which case the case-flipped character is the inverse;
    * an optional exponent ``^k`` or ``^-k`` applies to the preceding
      letter, and whitespace between tokens is ignored.

So over the alphabet ``a b c`` the string ``"x y x^2 Y X Y x^-2 y"`` is
rejected, while over ``x y`` it parses to a 10-letter word.  Words
multiply by concatenation followed by free reduction, and a finite map
from generator names to words extends to a homomorphism via
:func:`substitute`.  A word shares one ``(name, sign)`` tuple per distinct
letter, and every operation here keeps the tuples it is given, so a word
holds about 8 bytes per letter.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterable, Mapping
from itertools import chain

__all__ = [
    "Alphabet",
    "Letter",
    "Word",
    "parse",
    "substitute",
    "ALPHABET_ABC",
    "ALPHABET_XY",
    "ALPHABET_ST",
]


class Alphabet(namedtuple("Alphabet", "names")):
    """An ordered tuple of single-character generator names."""

    __slots__ = ()

    def __new__(cls, names: tuple[str, ...]) -> Alphabet:
        seen: set[str] = set()
        for name in names:
            if len(name) != 1 or not name.isalpha():
                raise ValueError(f"generator name must be one letter, got {name!r}")
            if name in seen or name.swapcase() in seen:
                raise ValueError(f"ambiguous generator name {name!r}")
            seen.add(name)
        return super().__new__(cls, names)

    # through __new__, so that _replace validates too
    _make = classmethod(lambda cls, values: cls(*values))

    def __contains__(self, name: str) -> bool:
        return name in self.names

    def index(self, name: str) -> int:
        return self.names.index(name)


# (generator name, +1 or -1)
Letter = tuple[str, int]


def _reduce(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    stack: list[Letter] = []
    for letter in letters:
        if stack and stack[-1][0] == letter[0] and stack[-1][1] == -letter[1]:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


class Word(namedtuple("Word", "letters", defaults=((),))):
    """A freely reduced word.  Build with :func:`parse` or from letters."""

    __slots__ = ()
    # namedtuple's _make counts the fields with len(), which a word
    # answers with its number of letters
    _make = classmethod(lambda cls, values: cls(*values))

    @staticmethod
    def from_letters(letters: Iterable[Letter]) -> Word:
        return Word(_reduce(letters))

    def __mul__(self, other: Word) -> Word:
        return Word(_reduce(self.letters + other.letters))

    def __pow__(self, n: int) -> Word:
        if n < 0:
            return self.inverse() ** (-n)
        return Word.from_letters(self.letters * n)

    def inverse(self) -> Word:
        flip = {letter: (letter[0], -letter[1]) for letter in set(self.letters)}
        return Word(tuple(map(flip.__getitem__, reversed(self.letters))))

    def __len__(self) -> int:
        return len(self.letters)

    def names(self) -> frozenset[str]:
        return frozenset(name for name, _ in self.letters)

    def __str__(self) -> str:
        runs: list[tuple[Letter, int]] = []
        for letter in self.letters:
            if runs and runs[-1][0] == letter:
                runs[-1] = (letter, runs[-1][1] + 1)
            else:
                runs.append((letter, 1))
        tokens = []
        for (name, sign), count in runs:
            head = name if sign > 0 else name.swapcase()
            tokens.append(head if count == 1 else f"{head}^{count}")
        return " ".join(tokens) if tokens else "1"

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"


# The most letters a parsed word may spell out before free reduction, far
# above any word the package uses; checked before an exponent is expanded.
MAX_LETTERS = 1_000_000

# Whitespace, then a letter with an optional exponent or else one bad character
_TOKEN = re.compile(r"\s*([A-Za-z](?:\^\{?-?\d+\}?)?|\S)")


def parse(text: str, alphabet: Alphabet | None = None) -> Word:
    """Parse the concrete syntax.  ``"1"`` alone denotes the empty word.

    With no explicit alphabet every lowercase character is taken to name
    a generator; with one, letters must match a declared name up to a
    case flip (the flipped case being the inverse).  A text spelling out
    more than :data:`MAX_LETTERS` letters is rejected, as is the first bad
    token.  One scan finds the tokens, and each distinct character's letter
    and its inverse are made once, so the word holds about 8 B per letter.
    """
    if text.strip() == "1":
        return Word()
    letters: list[Letter] = []
    pairs: dict[str, tuple[Letter, Letter]] = {}  # character -> (letter, inverse)
    runs: dict[str, list[Letter]] = {}  # token -> the letters it spells
    for token in _TOKEN.findall(text):
        if token not in runs:
            ch = token[0]
            if ch not in pairs:
                if not (ch.isascii() and ch.isalpha()):
                    raise ValueError(f"bad character {ch!r} in {text!r}")
                if alphabet is None:
                    name, sign = (ch, 1) if ch.islower() else (ch.lower(), -1)
                elif ch in alphabet:
                    name, sign = ch, 1
                elif ch.swapcase() in alphabet:
                    name, sign = ch.swapcase(), -1
                else:
                    raise ValueError(f"letter {ch!r} is not in the alphabet {alphabet.names}")
                letter, inverse = (name, sign), (name, -sign)
                pairs[ch], pairs[ch.swapcase()] = (letter, inverse), (inverse, letter)
            exp = int(token[1:].strip("^{}") or 1)
            if abs(exp) > MAX_LETTERS:
                raise ValueError(f"word has more than {MAX_LETTERS} letters")
            runs[token] = [pairs[ch][exp < 0]] * abs(exp)
        if len(letters) + len(runs[token]) > MAX_LETTERS:
            raise ValueError(f"word has more than {MAX_LETTERS} letters")
        letters += runs[token]
    return Word(_reduce(letters))


def substitute(word: Word, images: Mapping[str, Word]) -> Word:
    """Apply the homomorphism sending each generator to its image word;
    the images' letters are collected and reduced once."""
    pieces: dict[Letter, tuple[Letter, ...]] = {}
    for name, sign in dict.fromkeys(word.letters):
        if name not in images:
            raise KeyError(f"no image given for generator {name!r}")
        image = images[name] if sign > 0 else images[name].inverse()
        pieces[name, sign] = image.letters
    return Word(_reduce(chain.from_iterable(map(pieces.__getitem__, word.letters))))


ALPHABET_ABC = Alphabet(("a", "b", "c"))
ALPHABET_XY = Alphabet(("x", "y"))
ALPHABET_ST = Alphabet(("S", "T"))
