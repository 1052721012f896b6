"""Properties of the lattice-file and branch-file readers: a shipped file
with a few characters or lines changed is read, or rejected as bad input
(exit 2, one stderr line naming the subcommand), never failed on."""

import contextlib
import io
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabctab.cli import main

from draws import edit_lines

@st.composite
def mutations(draw, text: bytes) -> bytes:
    """text with one to three edits of a line, those of ``draws.edit_lines``,
    drawn by hypothesis."""
    return edit_lines(text, lambda lo, hi: draw(st.integers(lo, hi)),
                      lambda seq: draw(st.sampled_from(seq)))


def shipped(name: str) -> bytes:
    return resources.files("stabctab").joinpath(f"data/{name}").read_bytes()


def run_on(path, text: bytes, argv):
    """Exit code, stdout and stderr of main(argv) with text in the file at path."""
    path.write_bytes(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(path) if a == "FILE" else a for a in argv])
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


@settings(max_examples=300)
@given(text=mutations(shipped("lattices/bielliptic-rank2.lat")))
def test_mutated_lattice_file_decomposes_or_exits_2(scratch, text):
    code, out, err = run_on(scratch, text, ["decompose", "--lattice", "FILE", "--beta", "1,1"])
    check_outcome(code, out, err, "decompose")


@settings(max_examples=150)
@given(text=mutations(shipped("branches/tacnode.br")))
def test_mutated_branch_file_checks_or_exits_2(scratch, text):
    code, out, err = run_on(scratch, text,
                            ["germ", "--poly", "y^2 - x^4", "--branches", "FILE"])
    check_outcome(code, out, err, "germ")


def test_readme_lattice_example_loads(tmp_path):
    # its '#' comments run to the end of their lines
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    example = readme.split("**Lattice model**", 1)[1].split("```")[1]
    assert "ample_tests 2   # one integer" in example
    code, out, err = run_on(tmp_path / "example.lat", example.encode(),
                            ["decompose", "--lattice", "FILE", "--beta", "2,2"])
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 1 + 7


def test_comment_runs_to_the_end_of_a_branch_line(tmp_path):
    text = b"# the tacnode\nt ; t^2  # upper\nt ; -t^2#lower\n"
    code, out, err = run_on(tmp_path / "tacnode.br", text,
                            ["germ", "--poly", "y^2 - x^4", "--branches", "FILE"])
    assert (code, out, err) == (0, "mu\t3\ntau\t3\ndelta\t2\nr\t2\nmilnor_formula\tOK\n", "")
