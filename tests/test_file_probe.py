"""Malformed input files: mutated graph and complex text forms, run
through the commands that read them.  Each must end in an answer (exit
0 or 1) or in exactly one ``error:`` line with exit 2, never in an
exception.

The mutations start from the golden corpus's graph and complex files
and a theta graph, and drop, copy or insert whole lines, or replace a
word with one of the corpus's words or with a malformed one.
"""

import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from test_golden import INPUTS, run  # noqa: E402

GRAPHS = ("cycle.txt", "path.txt", "bad-graph.txt")
COMPLEXES = ("triangle.txt", "fan.txt", "bad-complex.txt")
THETA = "node P\nnode Q\narc P Q 1/1\narc P Q 1/2\narc P Q 3/2\n"
BASES = [INPUTS[name] for name in GRAPHS + COMPLEXES] + [THETA]
LINES = sorted({line for text in BASES for line in text.splitlines()})
MALFORMED = ["", "0/1", "-1/2", "1/0", "2/4", "1", "p/q", "a", "+", "#", "\x0c", "ü"]
WORDS = sorted({word for text in BASES for word in text.split()}) + MALFORMED + [
    "9" * 30 + "/1",
    "1/" + "9" * 30,
]
COMMANDS = [
    "graph girth {f} --both",
    "embed --source {f} --target {f} --mode first",
    "complex cat0 {f} --vertex p",
    "complex link {f} --vertex p --smooth",
]


@st.composite
def text_forms(draw):
    lines = draw(st.sampled_from(BASES)).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["drop", "copy", "insert", "word"]))
        k = draw(st.integers(0, len(lines)))
        if kind == "insert":
            lines.insert(k, draw(st.sampled_from(LINES)))
        elif k < len(lines) and kind == "drop":
            del lines[k]
        elif k < len(lines) and kind == "copy":
            lines.insert(k, lines[k])
        elif k < len(lines):
            words = lines[k].split(" ")
            words[draw(st.integers(0, len(words) - 1))] = draw(st.sampled_from(WORDS))
            lines[k] = " ".join(words)
    return "\n".join(lines) + "\n"


@given(text_forms())
@example(INPUTS["bad-graph.txt"])
@example(INPUTS["bad-complex.txt"])
def test_a_malformed_file_is_answered_or_refused(text):
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "probe.txt").write_text(text)
        for command in COMMANDS:
            code, _, err = run(command.format(f="'{tmp}/probe.txt'"), tmp)
            assert code in (0, 1, 2), command
            if code == 2:
                assert err.startswith("error: ") and err.count("\n") == 1, (command, err)
