"""Words for Garside normal forms, for the tests: the Burau oracle and
the normal-form property tests turn a normal form back into a word in
a, b, c and compare it with the word it came from.  Only the tests
read the presentation's normal forms as a pass or a fail for each
equality, so that reading lives here too."""

import itertools

from braidcat.garside import (
    DELTA,
    GENERATOR_NAMES,
    GENERATOR_PERMS,
    IDENTITY,
    compose,
    presentation_differences,
    starting_set,
)
from braidcat.words import Word


def inversions(p):
    """The length of the simple element p: its count of inverted pairs."""
    return sum(1 for i, j in itertools.combinations(range(4), 2) if p[i] > p[j])


def simple_word(p):
    """The lexicographically least reduced positive word for a simple element."""
    letters = []
    while p != IDENTITY:
        i = min(starting_set(p))
        letters.append((GENERATOR_NAMES[i], 1))
        p = compose(GENERATOR_PERMS[i], p)
    return Word(tuple(letters))


def delta_word():
    return simple_word(DELTA)


def to_word(nf):
    """A word for the normal form D^power p_1 ... p_m."""
    out = delta_word() ** nf.power
    for p in nf.factors:
        out = out * simple_word(p)
    return out


def flip_word(word):
    """The image of a word under conjugation by the half twist: a <-> c."""
    swap = {"a": "c", "b": "b", "c": "a"}
    return Word(tuple((swap[name], sign) for name, sign in word.letters))


def check_presentation(e, f, d):
    """One (label, holds) pair per equality of ``presentation_differences``."""
    return [(label, nf.is_identity) for label, nf in presentation_differences(e, f, d)]
