"""Properties of the lattice-file and branch-file readers: a shipped file
with a few characters or lines changed is read, or rejected as bad input
(exit 2, one stderr line naming the subcommand), never failed on."""

import contextlib
import io
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabctab.cli import main

#: Bytes to insert or put in place of one: the grammars' own characters,
#: spaces and line breaks, and a few that are not ASCII (0xc3 and 0xa9
#: spell 'é' only together, 0xff is never UTF-8).
BYTES = st.sampled_from(b"0123456789 -+/*^;:#\n\r\ttxy,=rankgmps_\xc3\xa9\xff\x00")


@st.composite
def mutations(draw, text: bytes) -> bytes:
    """text with one to three edits of a line: insert, delete or replace
    a byte in it, drop or duplicate it.  A line, not a byte, is drawn
    first, so that the short data lines are hit as often as comments."""
    for _ in range(draw(st.integers(1, 3))):
        lines = text.splitlines(keepends=True) or [b""]
        k = draw(st.integers(0, len(lines) - 1))
        line = lines[k]
        kind = draw(st.sampled_from(["insert", "delete", "replace", "drop", "duplicate"]))
        if kind in ("drop", "duplicate"):
            lines[k:k + 1] = [] if kind == "drop" else [line] * 2
        else:
            i = draw(st.integers(0, len(line)))
            byte = bytes([draw(BYTES)])
            if kind == "insert":
                lines[k] = line[:i] + byte + line[i:]
            elif i < len(line):
                lines[k] = line[:i] + (b"" if kind == "delete" else byte) + line[i + 1:]
        text = b"".join(lines)
    return text


def shipped(name: str) -> bytes:
    return resources.files("stabctab").joinpath(f"data/{name}").read_bytes()


def run_on(path, text: bytes, argv):
    """Exit code, stdout and stderr of main(argv) with text in the file at path."""
    path.write_bytes(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([str(path) if a == "FILE" else a for a in argv])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def check_outcome(code, out, err, subcommand):
    assert code in (0, 1, 2), err
    if code == 2:
        assert out == ""
        assert err.startswith(f"stabctab {subcommand}: ")
        assert err.count("\n") == 1 and len(err.splitlines()) == 1, err
    else:
        assert err == ""


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("mutants") / "input"


PROPERTY = settings(derandomize=True, database=None, deadline=None)


@settings(PROPERTY, max_examples=300)
@given(text=mutations(shipped("lattices/bielliptic-rank2.lat")))
def test_mutated_lattice_file_decomposes_or_exits_2(scratch, text):
    code, out, err = run_on(scratch, text, ["decompose", "--lattice", "FILE", "--beta", "1,1"])
    check_outcome(code, out, err, "decompose")


@settings(PROPERTY, max_examples=150)
@given(text=mutations(shipped("branches/tacnode.br")))
def test_mutated_branch_file_checks_or_exits_2(scratch, text):
    code, out, err = run_on(scratch, text,
                            ["germ", "--poly", "y^2 - x^4", "--branches", "FILE"])
    check_outcome(code, out, err, "germ")
