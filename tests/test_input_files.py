"""Properties of the lattice-file and branch-file readers: a shipped file
with a few characters or lines changed is read, or rejected as bad input
(exit 2, one stderr line naming the subcommand), never failed on; and
the one whitespace rule of every reader of outside text."""

import random
from importlib import resources
from pathlib import Path

import pytest

from stabctab.poly import parse_polynomial

from draws import edit_lines, run
from test_cli import pinned


@pytest.fixture(autouse=True)
def in_tmp_path(tmp_path, monkeypatch):
    """Each test runs in its own empty directory, where ``run`` writes the files."""
    monkeypatch.chdir(tmp_path)


def shipped(name: str) -> bytes:
    return resources.files("stabctab").joinpath(f"data/{name}").read_bytes()


def check_outcome(code, out, err, subcommand, text):
    """Exit 0 or 1 with stderr empty, or exit 2 with one stderr line that
    names the subcommand and stdout empty; text, the input, is reported
    with a failure."""
    assert code in (0, 1, 2), (text, err)
    if code == 2:
        assert out == "", text
        assert err.startswith(f"stabctab {subcommand}: "), (text, err)
        assert err.count("\n") == 1 and len(err.splitlines()) == 1, (text, err)
    else:
        assert err == "", text


def test_mutated_lattice_file_decomposes_or_exits_2():
    rng = random.Random(48)
    shipped_text = shipped("lattices/bielliptic-rank2.lat")
    for _ in range(300):
        text = edit_lines(shipped_text, rng)
        code, out, err = run(["decompose", "--lattice", "mutant.lat", "--beta", "1,1"],
                             {"mutant.lat": text})
        check_outcome(code, out, err, "decompose", text)


def test_mutated_branch_file_checks_or_exits_2():
    rng = random.Random(49)
    shipped_text = shipped("branches/tacnode.br")
    for _ in range(150):
        text = edit_lines(shipped_text, rng)
        code, out, err = run(["germ", "--poly", "y^2 - x^4", "--branches", "mutant.br"],
                             {"mutant.br": text})
        check_outcome(code, out, err, "germ", text)


def test_readme_lattice_example_loads():
    # its '#' comments run to the end of their lines
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("**Lattice model**", 1)[1].split("```")[1]
    assert "ample_tests 2   # one integer" in example
    code, out, err = run(["decompose", "--lattice", "example.lat", "--beta", "2,2"],
                         {"example.lat": example})
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 1 + 7


def test_a_tab_separates_lattice_words_as_a_space_does():
    # keyword lines included: 'rank\t2' and 'ample_witness\t1 1' read as
    # with a space
    text = shipped("lattices/bielliptic-rank2.lat")
    argv = ["decompose", "--lattice", "model.lat", "--beta", "2,2"]
    spaced = run(argv, {"model.lat": text})
    assert b"rank 2" in text and spaced[0] == 0 and len(spaced[1].splitlines()) == 1 + 7
    assert run(argv, {"model.lat": text.replace(b" ", b"\t")}) == spaced


test_comment_runs_to_the_end_of_a_branch_line = pinned("branch-comments")


def test_whitespace_is_what_str_split_splits_on_in_every_reader():
    # in the term grammar: the six ASCII characters, a line break among
    # them (as in --poly $'x*y\n'), and U+00A0 and U+3000
    for space in " \t\n\r\v\f\u00a0\u3000":
        assert parse_polynomial(f"{space}x{space}*y -{space}3{space}", ("x", "y")) == {
            (1, 1): 1, (0, 0): -3}
    # U+00A0 and U+3000 read as a space in a lattice row, at the edge of a
    # branch-file field, inside a term of a branch file and of --poly
    decompose = ["decompose", "--lattice", "model.lat", "--beta", "2,2"]
    lattice = shipped("lattices/bielliptic-rank2.lat")
    expected = run(decompose, {"model.lat": lattice})
    assert expected[0] == 0 and len(expected[1].splitlines()) == 1 + 7
    assert b"\n0 2\n" in lattice
    tacnode = (0, "mu\t3\ntau\t3\ndelta\t2\nr\t2\nmilnor_formula\tOK\n", "")
    for space in "\u00a0\u3000":
        rows = lattice.replace(b"\n0 2\n", f"\n0{space}2\n".encode())
        assert run(decompose, {"model.lat": rows}) == expected
        branches = f"t{space};{space}t^2{space}\nt ; -t{space}^2\n"
        poly = f"y^2 -{space}x{space}^4"
        assert run(["germ", "--poly", poly, "--branches", "tacnode.br"],
                   {"tacnode.br": branches}) == tacnode
