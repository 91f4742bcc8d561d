"""The golden corpus: for each command line in ``golden_cli.json``, the
sha256 of its exit code, stdout and stderr, run through ``cli.main``
in-process.

The corpus covers every subcommand, every fixture and the ``error:``
refusals, so "same behaviour" is a test; a failure lists the commands
whose output changed.  Only two things are
normalised: the audit's ``seconds``, which are wall times, and the
scratch directory, spelled ``{tmp}`` in the corpus, which holds the
input files of ``INPUTS`` and any file a command writes.  ``COLUMNS`` is
fixed, since argparse wraps its usage text to the terminal, and each
command's parser is built once: building them takes milliseconds, which
would be a third of the corpus's time.

A change that alters an output on purpose re-records the corpus with
``PYTHONPATH=src python tests/test_golden.py``, which prints each entry
whose hash changed; each such entry is named in the change log.
"""

import contextlib
import functools
import hashlib
import io
import json
import os
import re
import shlex
import sys
import tempfile
from pathlib import Path

import pytest

from braidcat import cli

CORPUS = Path(__file__).with_name("golden_cli.json")
COLUMNS = "80"

INPUTS = {
    "group.txt": "x y\nx^4\ny^3\nx y x^2 Y X Y x^-2 y\n",
    "cyclic.txt": "# Z/3\nx\nx^3\n",
    "empty.txt": "# no generators\n",
    # cosets that collapse while Felsch is still scanning them
    "collapse.txt": "a b\nA\nA^3\nb^4\nb a\n",
    # S4 in its Coxeter presentation: a, b and c are involutions
    "coxeter.txt": "a b c\na^2\nb^2\nc^2\na b a b a b\na c a c\nb c b c b c\n",
    "cycle.txt": "node a\nnode b\narc a b 1000000000/1\narc a b 1/1\n",
    "path.txt": "node a\nnode b\nnode c\narc a b 1/1\n",
    "bad-graph.txt": "node a\narc a b 1/1\n",
    "triangle.txt": (
        "vertex p\nvertex q\nvertex r\nedge a p q\nedge b q r\nedge c p r\n"
        "triangle a+ b+ c- 1/3 1/3 1/3\n"
    ),
    # three triangles around p, whose link is a cycle of three arcs of 4/5
    "fan.txt": "".join(
        ["vertex p\n"]
        + [f"vertex q{i}\n" for i in range(3)]
        + [f"edge s{i} p q{i}\n" for i in range(3)]
        + [f"edge r{i} q{i} q{(i + 1) % 3}\n" for i in range(3)]
        + [f"triangle s{i}+ r{i}+ s{(i + 1) % 3}- 1/10 1/10 4/5\n" for i in range(3)]
    ),
    "bad-complex.txt": "vertex p\nedge a p q\n",
}

_SECONDS = re.compile(r'"seconds": [-+.0-9e]+')


def run(command: str, tmp: str) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one corpus command, normalised."""
    argv = [arg.replace("{tmp}", tmp) for arg in shlex.split(command)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's own refusals
            code = exc.code
    return code, *(
        _SECONDS.sub('"seconds": 0', stream.getvalue().replace(tmp, "{tmp}"))
        for stream in (out, err)
    )


def digest(result: tuple[int, str, str]) -> str:
    return hashlib.sha256(json.dumps(result).encode()).hexdigest()


def write_inputs(directory: Path) -> str:
    for name, text in INPUTS.items():
        (directory / name).write_text(text)
    return str(directory)


CASES = json.loads(CORPUS.read_text())


@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("subcommand", sorted({command.split()[0] for command in CASES}))
def test_golden(subcommand, tmp, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser))
    changed = [
        command
        for command, sha in CASES.items()
        if command.split()[0] == subcommand and digest(run(command, tmp)) != sha
    ]
    assert not changed


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    cli.build_parser = functools.cache(cli.build_parser)
    with tempfile.TemporaryDirectory() as scratch:
        tmp = write_inputs(Path(scratch))
        recorded = {command: digest(run(command, tmp)) for command in CASES}
    for command, sha in recorded.items():
        if sha != CASES[command]:
            print(f"changed: {command}", file=sys.stderr)
    CORPUS.write_text(json.dumps(recorded, indent=1) + "\n")
