"""The result records are immutable named tuples.

Each record compares and hashes by value, refuses assignment, and the
four records that validate their fields on construction validate them
on ``_replace`` too.  Loading the command line pulls in neither
``dataclasses`` nor ``inspect``.
"""

import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from braidcat.audit import AuditReport, CheckResult
from braidcat.complexes import Side, Triangle, TriComplex, ybar1
from braidcat.cosets import Enumeration, OverflowResult, Presentation
from braidcat.embed import Embedding, SearchOutcome
from braidcat.fixtures import g0_presentation
from braidcat.garside import NormalForm, normal_form
from braidcat.metric_graph import MetricGraph, brady_link
from braidcat.words import ALPHABET_ABC, Alphabet, Word, parse

THIRD = Fraction(1, 3)

# record type -> (a factory building a fresh value, whether the value hashes:
# a record holding a dict or a list does not, as a frozen dataclass did not)
RECORDS = {
    Alphabet: (lambda: Alphabet(("a", "b")), True),
    Word: (lambda: parse("a b A"), True),
    MetricGraph: (brady_link, True),
    Side: (lambda: Side("a", True), True),
    Triangle: (lambda: Triangle((Side("a", True),) * 3, (THIRD,) * 3), True),
    TriComplex: (ybar1, True),
    Presentation: (g0_presentation, True),
    Enumeration: (lambda: Enumeration(1, {"x": (1,)}, 2, "hlt"), False),
    OverflowResult: (lambda: OverflowResult(3, 3, "felsch"), True),
    NormalForm: (lambda: normal_form(parse("a b A")), True),
    Embedding: (lambda: Embedding((("v1", "t1"),), ((0, ((0, 0),)),)), True),
    SearchOutcome: (lambda: SearchOutcome([], Counter(degree=2), 5, {}, None), False),
    CheckResult: (lambda: CheckResult("x:y", "a claim", "pass", {"n": 1}, 0.5), False),
    AuditReport: (lambda: AuditReport((), {"coset_cap": 7}), False),
}


@pytest.mark.parametrize("record", RECORDS, ids=lambda cls: cls.__name__)
def test_record_is_an_immutable_value(record):
    factory, hashable = RECORDS[record]
    value, again = factory(), factory()
    assert type(value) is record
    assert value == again and value is not again
    if hashable:
        assert hash(value) == hash(again)
    else:
        with pytest.raises(TypeError):
            hash(value)
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], again[0])
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value._replace() == value
    assert value._asdict() == dict(zip(value._fields, value))


def test_empty_word_and_identity_normal_form():
    assert len(Word()) == 0
    assert not Word()
    # A word's length counts letters, not fields.
    assert len(parse("a b c")) == 3
    assert NormalForm().is_identity
    assert NormalForm() == normal_form(Word())


@pytest.mark.parametrize(
    "value, change",
    [
        (ALPHABET_ABC, {"names": ("a", "A")}),
        (brady_link(), {"arcs": (("v1", "nowhere", THIRD),)}),
        (ybar1(), {"vertices": ("o", "o")}),
        (g0_presentation(), {"relators": (parse("x y z"),)}),
    ],
    ids=["Alphabet", "MetricGraph", "TriComplex", "Presentation"],
)
def test_replace_validates_like_the_constructor(value, change):
    with pytest.raises(ValueError):
        type(value)(**{**value._asdict(), **change})
    with pytest.raises(ValueError):
        value._replace(**change)


def test_cli_import_leaves_out_dataclasses_and_inspect():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import braidcat.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"
