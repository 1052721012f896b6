"""Command-line surface: documented invocations, exit codes, schema, determinism."""

import hashlib
import json
from importlib import resources

import pytest

from stabctab.cli import main
from stabctab.errors import BadInput


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def run_fresh(*argv, timeout, text=True, preexec_fn=None):
    """The completed process of ``python -m stabctab *argv``, run in a fresh
    interpreter that is killed after timeout seconds (preexec_fn, if given,
    runs in the child before it starts); its output as str, or as bytes when
    text is false."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import stabctab

    src = str(Path(stabctab.__file__).resolve().parent.parent)
    return subprocess.run([sys.executable, "-m", "stabctab", *argv], capture_output=True,
                          text=text, env=dict(os.environ, PYTHONPATH=src), timeout=timeout,
                          preexec_fn=preexec_fn)


def tsv_rows(out):
    return [line.split("\t") for line in out.strip().splitlines()]


def test_stable_betti_enriques(capsys):
    code, out = run(capsys, "stable-betti", "--b1", "0", "--b2", "10", "--max-k", "4")
    assert code == 0
    rows = tsv_rows(out)
    assert rows[0] == ["k", "b_k"]
    assert [r[1] for r in rows[1:]] == ["1", "0", "11", "0", "78"]


def test_stable_betti_k0(capsys):
    code, out = run(capsys, "stable-betti", "--b1", "0", "--b2", "10", "--max-k", "0")
    assert code == 0
    assert tsv_rows(out)[1] == ["0", "1"]


def test_stable_betti_bielliptic(capsys):
    _, out = run(capsys, "stable-betti", "--b1", "2", "--b2", "2", "--max-k", "2")
    assert [r[1] for r in tsv_rows(out)[1:]] == ["1", "2", "4"]


def test_perverse_table(capsys):
    code, record = run_json(
        capsys, "perverse", "--b1", "0", "--b2", "10", "--max-order", "2"
    )
    assert code == 0
    assert record["results"]["table"] == [[0, 0, 1], [0, 2, 1], [1, 1, 9], [2, 0, 1]]


def test_perverse_order_zero(capsys):
    _, record = run_json(capsys, "perverse", "--b1", "2", "--b2", "2", "--max-order", "0")
    assert record["results"]["table"] == [[0, 0, 1]]


def test_perverse_oracle_agrees(capsys):
    code, out = run(
        capsys, "perverse", "--b1", "0", "--b2", "10", "--max-order", "10", "--oracle"
    )
    assert code == 0
    assert "AGREE" in out


def test_perverse_oracle_disagreement_exits_1(capsys, monkeypatch):
    from stabctab import perverse

    monkeypatch.setattr(
        perverse, "first_oracle_mismatch", lambda s, k: ((1, 1), 8, 9)
    )
    code, out = run(capsys, "perverse", "--b1", "0", "--b2", "10",
                    "--max-order", "2", "--oracle")
    assert code == 1
    assert "DISAGREE" in out and "(1,1)" in out


def test_perverse_oracle_builds_each_series_once(capsys, monkeypatch):
    from stabctab import genfunc

    calls = []
    product = genfunc._product

    def counting_product(factors, order, top):
        calls.append((list(factors), order))
        return product(factors, order, top)

    monkeypatch.setattr(genfunc, "_product", counting_product)
    code, _ = run(capsys, "perverse", "--b1", "0", "--b2", "10",
                  "--max-order", "12", "--oracle")
    assert code == 0
    surface = genfunc.ENRIQUES
    assert calls == [(genfunc._perverse_factors(surface, 12), 12),
                     (genfunc._goettsche_factors(surface, 12), 12)]


def test_identity_pass(capsys):
    code, out = run(capsys, "identity", "--b1", "0", "--b2", "10", "--order", "12")
    assert code == 0
    assert tsv_rows(out)[0] == ["status", "PASS"]


def test_identity_order_zero(capsys):
    code, out = run(capsys, "identity", "--b1", "4", "--b2", "6", "--order", "0")
    assert code == 0
    assert "PASS" in out


def test_identity_perturbed_fails(capsys):
    code, out = run(
        capsys, "identity", "--b1", "0", "--b2", "10", "--order", "6", "--perturb"
    )
    assert code == 1
    assert "FAIL" in out and "q^0 t^0" in out


def test_germ_cusp(capsys):
    code, out = run(capsys, "germ", "--poly", "y^2 - x^3")
    assert code == 0
    assert tsv_rows(out) == [["mu", "2"], ["tau", "2"]]


def test_germ_smooth(capsys):
    _, out = run(capsys, "germ", "--poly", "x")
    assert tsv_rows(out)[0] == ["mu", "0"]


def test_germ_with_branches(capsys, tmp_path):
    branch_file = tmp_path / "tacnode.br"
    branch_file.write_text(
        resources.files("stabctab").joinpath("data/branches/tacnode.br").read_text()
    )
    code, record = run_json(
        capsys, "germ", "--poly", "y^2 - x^4", "--branches", str(branch_file)
    )
    assert code == 0
    assert record["results"] == {
        "mu": 3, "tau": 3, "delta": 2, "r": 2, "milnor_formula": "OK",
    }


def test_germ_branches_at_the_conductor_bound(capsys, tmp_path):
    # truncation 6 is the cusp's conductor bound 2*mu + 2: enough precision
    branch_file = tmp_path / "cusp.br"
    branch_file.write_text("truncation: 6\nt^2 ; t^3\n")
    code, out = run(capsys, "germ", "--poly", "y^2 - x^3", "--branches", str(branch_file))
    assert code == 0
    assert tsv_rows(out) == [["mu", "2"], ["tau", "2"], ["delta", "1"], ["r", "1"],
                             ["milnor_formula", "OK"]]


def test_germ_with_branches_computes_mu_once(capsys, tmp_path, monkeypatch):
    # and delta once, by the library's public route, handed that mu
    from stabctab import germ

    calls, milnor, delta, delta_calls = [], germ.milnor, germ.delta, []

    def counting_milnor(g):
        calls.append(g)
        return milnor(g)

    def counting_delta(*args):
        delta_calls.append(args)
        return delta(*args)

    monkeypatch.setattr(germ, "milnor", counting_milnor)
    monkeypatch.setattr(germ, "delta", counting_delta)
    branch_file = tmp_path / "a11.br"
    branch_file.write_text("t ; t^6\nt ; -t^6\n")
    code, record = run_json(capsys, "germ", "--poly", "y^2 - x^12", "--branches",
                            str(branch_file))
    assert code == 0
    assert record["results"]["milnor_formula"] == "OK"
    assert len(calls) == 1
    assert len(delta_calls) == 1


def test_germ_missing_branch_file_is_usage_error(capsys, tmp_path):
    path = tmp_path / "absent.br"
    assert main(["germ", "--poly", "y^2 - x^3", "--branches", str(path)]) == 2
    assert capsys.readouterr() == (
        "", f"stabctab germ: [Errno 2] No such file or directory: '{path}'\n")


def test_germ_milnor_cap_boundary(capsys):
    # A_64 has mu = 64, the largest the maximal-ideal power cap certifies
    code, out = run(capsys, "germ", "--poly", "y^2 - x^65")
    assert code == 0
    assert tsv_rows(out) == [["mu", "64"], ["tau", "64"]]
    assert main(["germ", "--poly", "y^2 - x^66"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "non-isolated" in captured.err and "cap of 64" in captured.err
    # a quotient that stops growing above the cap is refused, not printed
    assert main(["germ", "--poly", "x^6 + y^14"]) == 2
    assert capsys.readouterr() == (
        "", "stabctab germ: quotient dimension 65 exceeds the cap of 64 on mu and tau\n")


BIELLIPTIC_BOUNDS = ("bounds", "--surface", "bielliptic", "--a", "1", "--b", "1",
                     "--gamma", "2", "--d", "3")
ZERO_DENOMINATOR_LATTICE = (
    "rank 2\ngram\n0 2\n2 0\nample_witness 1 1\n"
    "ortho_basis\n1/0 1\n1 -1\nample_tests 2\n"
)


@pytest.mark.parametrize("argv, file_text", [
    (("germ", "--poly", "x^2+1/0*y^3"), None),
    (("germ", "--poly", "y^2 - x^3", "--branches", "FILE"), "t^2 ; 1/0\n"),
    (("decompose", "--lattice", "FILE", "--beta", "1,1"), ZERO_DENOMINATOR_LATTICE),
    (BIELLIPTIC_BOUNDS + ("--lambda", "1/0", "--mu", "1"), None),
    (BIELLIPTIC_BOUNDS + ("--lambda", "1", "--mu", "1/0"), None),
], ids=["poly", "branch-file", "lattice-file", "lambda", "mu"])
def test_zero_denominator_is_usage_error(capsys, tmp_path, argv, file_text):
    path = tmp_path / "input.txt"
    if file_text is not None:
        path.write_text(file_text)
    assert main([str(path) if a == "FILE" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "zero denominator" in captured.err


def test_bounds_enriques_d0(capsys):
    code, record = run_json(
        capsys, "bounds", "--surface", "enriques", "--beta-sq", "10", "--i", "2", "--j", "3"
    )
    assert code == 0
    assert record["results"]["d0"] == 4


def test_bounds_bielliptic(capsys):
    code, record = run_json(
        capsys, "bounds", "--surface", "bielliptic", "--a", "1", "--b", "1",
        "--lambda", "1", "--mu", "1", "--gamma", "2", "--d", "3",
    )
    assert code == 0
    results = record["results"]
    assert results["codim_bound"] == "5"
    assert results["n_bound"] == 8
    assert results["governing_case"] == "1 or 2 (tie)"


def test_bounds_enriques_small(capsys):
    code, record = run_json(
        capsys, "bounds", "--surface", "enriques", "--beta-sq", "2", "--d", "1"
    )
    assert code == 0
    assert record["results"]["codim_bound"] == "1/2"
    assert record["results"]["n_bound"] == 0


def test_bounds_enriques_cases(capsys):
    _, record = run_json(
        capsys, "bounds", "--surface", "enriques", "--beta-sq", "10", "--d", "10"
    )
    assert record["results"]["codim_bound"] == "5"
    assert record["results"]["governing_case"] == "2.1"
    assert ["1.1", "-2+20*sqrt(5)"] in record["results"]["case_bounds"]


@pytest.mark.parametrize("argv, radicand", [
    (("--surface", "enriques", "--beta-sq", "2000000000000000014", "--d", "1"),
     4000000000000000028),
    (("--surface", "enriques", "--beta-sq", "500000000002", "--d", "1"), 1000000000004),
    (("--surface", "bielliptic", "--a", "1", "--b", "1", "--lambda", "1000000000039/3",
      "--mu", "3", "--gamma", "1", "--d", "1"), 2000000000078),
], ids=["enriques-huge", "enriques-above-cap", "bielliptic-lambda"])
def test_bounds_radicand_above_the_cap_exits_2(argv, radicand):
    # a fresh interpreter with a timeout: trial division of these
    # radicands, uncapped, takes seconds to hours
    proc = run_fresh("bounds", *argv, timeout=20)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        f"stabctab bounds: radicand {radicand} exceeds the cap of 1000000000000\n")


def test_exponent_literal_is_rejected_at_once():
    # a fresh interpreter with a timeout: Fraction reads this literal as
    # 10^-10000000, which takes seconds to build
    proc = run_fresh("bounds", "--surface", "bielliptic", "--a", "1", "--b", "1",
                     "--lambda", "1e-10000000", "--mu", "1", "--gamma", "2", "--d", "1",
                     timeout=1)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "stabctab bounds: Invalid literal for Fraction: '1e-10000000'\n"


AXES_RECORD = "mu\t1\ntau\t1\ndelta\t1\nr\t2\nmilnor_formula\tOK\n"


@pytest.mark.parametrize("truncation", ["truncation: 4\n", ""], ids=["truncated", "exact"])
def test_huge_exponent_composes_with_branches_at_once(tmp_path, truncation):
    # a fresh interpreter with a timeout: powers of x(t) built up to the
    # exponent take minutes and gigabytes; each term has a factor whose
    # image is 0, so both compositions are 0, exact or truncated
    path = tmp_path / "axes.br"
    path.write_text(truncation + "t ; 0\n0 ; t\n")
    proc = run_fresh("germ", "--poly", "x*y + x^100000000*y", "--branches", str(path),
                     timeout=1)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, AXES_RECORD, "")


def test_term_with_a_zero_image_builds_no_powers(tmp_path):
    # x^128*y composes to 0 on both branches: no power of x(t) is formed
    path = tmp_path / "axes.br"
    path.write_text(" + ".join(f"t^{k}" for k in range(1, 9)) + " ; 0\n0 ; t\n")
    proc = run_fresh("germ", "--poly", "x*y + x^128*y", "--branches", str(path), timeout=1)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, AXES_RECORD, "")


def test_composition_work_does_not_grow_with_the_terms(tmp_path):
    # 171 terms of t-degree at most 850 each, a product apiece when composed
    # term by term; Horner's rule in y forms one product by a power of y(t)
    # per exponent of y
    path = tmp_path / "branch.br"
    path.write_text("t + t^2 + t^3 + t^4 ; t + t^3 + t^5\n")
    poly = "y^2 - x^3 + " + " + ".join(f"x^{i}*y^{170 - i}" for i in range(171))
    proc = run_fresh("germ", "--poly", poly, "--branches", str(path), timeout=2)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "stabctab germ: branch 0 does not lie on the germ (residual order 2)\n"


def test_composition_work_is_capped_before_it_is_done(tmp_path):
    # below the degree cap: x(t)^1 .. x(t)^1000 of a dense branch, each
    # truncated past t^1024, would take about half a billion term pairs
    from stabctab.germ import MAX_COMPOSITION_WORK

    path = tmp_path / "dense.br"
    path.write_text("truncation: 1024\n" + " + ".join(f"t^{k}" for k in range(1, 1025))
                    + " ; t^3\n")
    proc = run_fresh("germ", "--poly", "y^2 - x^3 + x^1000", "--branches", str(path),
                     timeout=2)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("stabctab germ: branch 0 composes with the germ in up to ")
    assert proc.stderr.endswith(f" term operations, above the cap of {MAX_COMPOSITION_WORK}\n")
    assert proc.stderr.count("\n") == 1


def test_composition_work_counts_no_degree_past_the_cutoff(capsys, tmp_path):
    # the powers of x(t) up to x(t)^300, cut past t^40 as the branch is
    # declared, bound the work at 16,224 operations; a bound whose degrees
    # ran past the cutoff would count 122,979,608 and refuse the branch
    path = tmp_path / "dense.br"
    path.write_text("truncation: 40\n" + " + ".join(f"t^{k}" for k in range(2, 41))
                    + " ; t^3\n")
    code = main(["germ", "--poly", "y^2 - x^3 + x^300", "--branches", str(path)])
    assert (code, capsys.readouterr().err) == (
        2, "stabctab germ: branch 0 does not lie on the germ (residual order 7)\n")


def test_large_coefficients_count_toward_the_work_cap(tmp_path):
    # README's y^32 - x^3 + x^32 on c*t + ... + c*t^32 twice, c of 400
    # digits: as many term operations as with c = 1, each on numbers of up
    # to 13,000 digits; it ran for over a minute before they were counted
    from stabctab.germ import MAX_COMPOSITION_WORK

    image = " + ".join(f"{'9' * 400}*t^{k}" for k in range(1, 33))
    path = tmp_path / "big.br"
    path.write_text(f"{image} ; {image}\n")
    proc = run_fresh("germ", "--poly", "y^32 - x^3 + x^32", "--branches", str(path),
                     timeout=2)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("stabctab germ: branch 0 composes with the germ in up to ")
    assert proc.stderr.endswith(f" term operations, above the cap of {MAX_COMPOSITION_WORK}\n")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("poly, branch_file, err", [
    ("y - x^1025", "t ; t^1025\n",
     "stabctab germ: branch 0 composes with the germ to t-degree 1025, above the cap of 1024\n"),
    ("y - x^1025", "truncation: 2048\nt ; t^1025\n",
     "stabctab germ: branch 0 composes with the germ to t-degree 1025, above the cap of 1024\n"),
    ("y - x^1024", "t ; t^1024\n", ""),
], ids=["above-the-cap", "truncation-above-the-cap", "at-the-cap"])
def test_composed_degree_cap(capsys, tmp_path, poly, branch_file, err):
    path = tmp_path / "branch.br"
    path.write_text(branch_file)
    code = main(["germ", "--poly", poly, "--branches", str(path)])
    assert (code, capsys.readouterr().err) == (2 if err else 0, err)


def run_dense_lattice(path, rank, entry):
    """``decompose`` in a fresh interpreter (2 s timeout) on a lattice file
    with a dense symmetric gram of entry() values and the identity basis."""
    gram = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i, rank):
            gram[i][j] = gram[j][i] = entry()
    path.write_text("\n".join([
        f"rank {rank}", "gram", *(" ".join(map(str, row)) for row in gram),
        "ample_witness " + " ".join(["1"] + ["0"] * (rank - 1)), "ortho_basis",
        *(" ".join("1" if i == j else "0" for j in range(rank)) for i in range(rank)),
        "ample_tests " + " ".join(["1"] * (rank - 1)),
    ]) + "\n")
    return run_fresh("decompose", "--lattice", str(path), "--beta", ",".join(["1"] * rank),
                     timeout=2)


def test_lattice_rank_is_capped_before_the_gram_is_read(tmp_path):
    # a dense symmetric gram of rank 250, under the file-size cap, took
    # seconds of determinant and basis checks before it was rejected
    import random

    rng = random.Random(5)
    proc = run_dense_lattice(tmp_path / "dense.lat", 250, lambda: rng.randint(-999, 999))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "stabctab decompose: lattice rank 250 is above the cap of 32\n"


def test_large_gram_entries_are_checked_at_once(tmp_path):
    # rank 32 with 900-digit entries (925 kB, under the file-size cap): a
    # determinant of the gram took 25-30 s before the basis check failed
    import random

    rng = random.Random(32)
    proc = run_dense_lattice(tmp_path / "digits.lat", 32,
                             lambda: rng.randrange(10**899, 10**900) * rng.choice((-1, 1)))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("stabctab decompose: orthogonal basis must have exactly one "
                           "positive square, first\n")


def test_germ_provenance_names_delta_only_with_branches(capsys, tmp_path):
    code, out = run(capsys, "germ", "--poly", "y^2 - x^3", "--format", "json")
    assert code == 0
    # neither the results nor the provenance mention delta
    assert "delta" not in out
    assert json.loads(out)["provenance"] == "local quotient-algebra dimensions"
    path = tmp_path / "cusp.br"
    path.write_text("t^2 ; t^3\n")
    _, record = run_json(capsys, "germ", "--poly", "y^2 - x^3", "--branches", str(path))
    assert record["provenance"] == ("local quotient-algebra dimensions; delta from the "
                                    "normalization cokernel of the branch parametrizations")


@pytest.mark.parametrize("argv, provenance", [
    (("--surface", "enriques", "--beta-sq", "10", "--d", "3"),
     "five-case codimension bounds for non-integral members of |d*beta| on an "
     "Enriques surface"),
    (("--surface", "enriques", "--beta-sq", "10", "--d", "3", "--generic"),
     "cases 1.1-1.3 of the codimension bounds for non-integral members of |d*beta| "
     "on a generic Enriques surface, which has no rigid curves"),
    (("--surface", "enriques", "--beta-sq", "10", "--i", "3", "--j", "4"),
     "stabilization threshold d0 of an Enriques surface: the max of five explicit terms"),
    (("--surface", "bielliptic", "--a", "1", "--b", "2", "--lambda", "1", "--mu", "1",
      "--gamma", "2", "--d", "3"),
     "three-case codimension bounds in the fiber-class basis of a bielliptic surface"),
], ids=["enriques-d", "enriques-d-generic", "enriques-i-j", "bielliptic"])
def test_bounds_provenance_names_what_ran(capsys, argv, provenance):
    code, record = run_json(capsys, "bounds", *argv)
    assert code == 0
    assert record["provenance"] == provenance


def test_bounds_radicand_at_the_cap_runs(capsys):
    # 2 * beta^2 = 10^12 is the largest radicand taken apart
    code, record = run_json(
        capsys, "bounds", "--surface", "enriques", "--beta-sq", "500000000000", "--d", "1")
    assert code == 0
    assert ["1.1", "999998"] in record["results"]["case_bounds"]


def test_bounds_d0_above_the_radicand_cap(capsys):
    # d0 takes ceilings of square roots by math.isqrt, so the radicand cap
    # of the --d bounds does not apply: 2 * beta^2 here is above it
    code, record = run_json(
        capsys, "bounds", "--surface", "enriques", "--beta-sq", "499999999946",
        "--i", "3", "--j", "4")
    assert code == 0
    assert record["results"] == {"d0": 5}


@pytest.mark.parametrize("argv", [
    ("--surface", "enriques", "--beta-sq", "10", "--d", "3"),
    ("--surface", "enriques", "--beta-sq", "10", "--d", "3", "--generic"),
    ("--surface", "bielliptic", "--a", "1", "--b", "2", "--lambda", "1", "--mu", "3/2",
     "--gamma", "2", "--d", "2"),
], ids=["enriques", "enriques-generic", "bielliptic"])
def test_bounds_takes_each_radicand_apart_once(capsys, monkeypatch, argv):
    from stabctab import surd

    calls = []
    split = surd._squarefree_split
    monkeypatch.setattr(surd, "_squarefree_split", lambda n: calls.append(n) or split(n))
    code, _ = run(capsys, "bounds", *argv)
    assert code == 0
    assert len(calls) == 1, calls


def test_decompose_preset(capsys):
    code, out = run(capsys, "decompose", "--lattice", "bielliptic-rank2", "--beta", "1,1")
    assert code == 0
    assert tsv_rows(out) == [["theta1", "theta2"], ["0,1", "1,0"], ["1,0", "0,1"]]


def test_decompose_seven_pairs(capsys):
    _, record = run_json(
        capsys, "decompose", "--lattice", "bielliptic-rank2", "--beta", "2,2"
    )
    assert record["results"]["count"] == 7


def test_decompose_minimal_empty(capsys):
    code, out = run(capsys, "decompose", "--lattice", "bielliptic-rank2", "--beta", "1,0")
    assert code == 0
    assert tsv_rows(out) == [["theta1", "theta2"]]


#: The test class D1 + D2 = (1/2, 1) has denominator 2, but its pairing
#: form (4, -1) is already integral and reads 1 on beta = (400, 1599),
#: so no theta1 splits beta, however large the enumeration box is.
HALF_TEST_FORM_LATTICE = (
    "rank 2\ngram\n4 2\n2 -2\nample_witness 1 0\n"
    "ortho_basis\n1 0\n-1/2 1\nample_tests 1\n"
)


def test_decompose_small_test_form_value_is_empty(capsys, tmp_path):
    path = tmp_path / "half.lat"
    path.write_text(HALF_TEST_FORM_LATTICE)
    code, out = run(capsys, "decompose", "--lattice", str(path), "--beta", "400,1599")
    assert code == 0
    assert tsv_rows(out) == [["theta1", "theta2"]]


def _lattice(gram="0 2\n2 0", witness="1 1", basis="1 1\n1 -1", tests="2", rank=2):
    return (f"rank {rank}\ngram\n{gram}\nample_witness {witness}\n"
            f"ortho_basis\n{basis}\nample_tests {tests}\n")


#: One lattice file per validation failure of the lattice model, each
#: varying the bielliptic preset, with the stderr line the command line
#: printed when the model checked itself in Fraction arithmetic; then one
#: per keyword given twice, the second gram block the same as the first;
#: then one per fault of the reader itself.
INVALID_LATTICES = {
    "rank": ("rank 0\ngram\nample_witness\northo_basis\nample_tests\n",
             "rank must be at least 1"),
    "gram-shape": (_lattice(gram="0 2 1\n2 0"), "gram matrix has wrong shape"),
    "gram-symmetry": (_lattice(gram="0 2\n1 0"), "gram matrix is not symmetric"),
    "witness-length": (_lattice(witness="1 1 1"), "ample witness has wrong length"),
    "basis-shape": (_lattice(basis="1 1 0\n1 -1"), "orthogonal basis has wrong shape"),
    "tests-length": (_lattice(tests="2 2"),
                     "expected one ample test integer per basis vector past the first"),
    # a degenerate gram fails the basis checks
    "degenerate": (_lattice(gram="1 1\n1 1", basis="1 0\n0 1"),
                   "orthogonal basis must have exactly one positive square, first"),
    "signature": (_lattice(gram="2 0\n0 2", witness="1 0", basis="1 0\n0 1"),
                  "orthogonal basis must have exactly one positive square, first"),
    "orthogonality": (_lattice(gram="2 0\n0 -2", witness="1 0", basis="1 0\n1/2 1"),
                      "basis vectors 1 and 2 are not orthogonal"),
    "witness-square": (_lattice(witness="1 0"),
                       "ample witness must have positive self-intersection"),
    "test-integer": (_lattice(tests="0"), "ample test integers must be positive"),
    "test-square-rational": (
        _lattice(gram="2 0\n0 -8", witness="1 0", basis="1/2 0\n0 1", tests="1"),
        "test class 1*D1 +/- D2 has nonpositive square -15/2"),
    "test-square-zero": (_lattice(tests="1"),
                         "test class 1*D1 +/- D2 has nonpositive square 0"),
    "repeated-rank": (_lattice() + "rank 2\n", "lattice file keyword 'rank' is repeated"),
    "repeated-gram": (_lattice() + "gram\n0 2\n2 0\n", "lattice file keyword 'gram' is repeated"),
    "repeated-witness": (_lattice() + "ample_witness 1 2\n",
                         "lattice file keyword 'ample_witness' is repeated"),
    "repeated-basis": (_lattice() + "ortho_basis\n1 1\n1 -1\n",
                       "lattice file keyword 'ortho_basis' is repeated"),
    "repeated-tests": (_lattice() + "ample_tests 3\n",
                       "lattice file keyword 'ample_tests' is repeated"),
    "end-in-gram": ("rank 2\ngram\n0 2\n", "unexpected end of lattice file"),
    "end-in-basis": ("rank 2\ngram\n0 2\n2 0\nample_witness 1 1\northo_basis\n1 1\n",
                     "unexpected end of lattice file"),
    "gram-before-rank": ("gram\n0 2\n2 0\nrank 2\n", "rank must come before gram"),
    "unknown-keyword": (_lattice() + "foo 1\n", "unknown lattice file keyword 'foo'"),
    "missing-field": (_lattice().replace("ample_tests 2\n", ""),
                      "lattice file is missing a required field"),
    # a bad row is reported before the block is found cut short
    "first-fault": ("rank 3\ngram\n0 x 1\n0 2 1\n",
                    "invalid literal for int() with base 10: 'x'"),
    # a block cut short by a keyword line is reported as short
    "short-gram": (_lattice(gram="0 2"), "gram has 1 of 2 rows before 'ample_witness'"),
    "short-basis": (_lattice(basis="1 1"), "ortho_basis has 1 of 2 rows before 'ample_tests'"),
    # a row's first word ends at a tab as at a space
    "short-gram-tab": (_lattice(gram="0 2").replace("ample_witness ", "ample_witness\t"),
                       "gram has 1 of 2 rows before 'ample_witness'"),
    # a block keyword's line holds the keyword alone
    "text-after-gram": (_lattice().replace("gram\n", "gram 7\n"),
                        "lattice file keyword 'gram' takes its rows on the lines below it"),
    "text-after-basis": (_lattice().replace("ortho_basis\n", "ortho_basis junk\n"),
                         "lattice file keyword 'ortho_basis' takes its rows on the lines "
                         "below it"),
}


@pytest.mark.parametrize("name", sorted(INVALID_LATTICES))
def test_invalid_lattice_file_exits_2_as_pinned(capsys, tmp_path, name):
    text, message = INVALID_LATTICES[name]
    path = tmp_path / "model.lat"
    path.write_text(text)
    assert main(["decompose", "--lattice", str(path), "--beta", "1,1"]) == 2
    assert capsys.readouterr() == ("", f"stabctab decompose: {message}\n")


@pytest.mark.parametrize("lattice, beta, message", [
    ("enriques-u-e8", "1,1,0,0,0,0,0,0,0,0", "decomposition enumeration region is too large"),
    ("bielliptic-rank2", "3000,3000", "decomposition enumeration region is too large"),
    ("bielliptic-rank2", "-1,-1", "class pairs non-positively with the ample witness"),
], ids=["enriques-box-cap", "bielliptic-box-cap", "not-effective"])
def test_decompose_refusals_as_pinned(capsys, lattice, beta, message):
    assert main(["decompose", "--lattice", lattice, "--beta=" + beta]) == 2
    assert capsys.readouterr() == ("", f"stabctab decompose: {message}\n")


#: One call per exit code of a completed record: 0, 1 and 2.
EXIT_CALLS = {
    0: ("stable-betti", "--b1", "0", "--b2", "10", "--max-k", "4"),
    1: ("identity", "--b1", "0", "--b2", "10", "--order", "4", "--perturb"),
    2: ("decompose", "--lattice", "bielliptic-rank2", "--beta", "1,2,3"),
}


@pytest.mark.parametrize("argv", [
    EXIT_CALLS[0], EXIT_CALLS[2], ("stable-betti", "--b1", "0"),
], ids=["success", "bad-input", "usage"])
def test_main_leaves_the_collector_unfrozen(capsys, argv):
    # only the process entry point freezes; in-process callers keep a
    # normal collector
    import gc

    before = gc.get_freeze_count()
    main(list(argv))
    assert gc.get_freeze_count() == before


#: The square of its test class, 2 - N^3 for N of 4,300 nines, has more
#: digits than Python turns into a string.
SQUARE_TOO_LONG_LATTICE = _lattice(gram=f"2 0\n0 -{'9' * 4300}", witness="1 0",
                                   basis=f"1 0\n0 {'9' * 4300}", tests="1")

#: Rejected calls, each with the text of its FILE (None when it names
#: none); each exits 2 in a fresh interpreter within 5 s, and its message is
#: pinned in-process by another test of this module or of test_parser.py.
FRESH_REJECTIONS = {
    "stable-betti-missing-required": (("stable-betti", "--b1", "0"), None),
    "beta-underscore": (("decompose", "--lattice", "bielliptic-rank2", "--beta=1_0,1"), None),
    "test-square-too-long-to-print": (("decompose", "--lattice", "FILE", "--beta=2,0"),
                                      SQUARE_TOO_LONG_LATTICE),
    "trailing-truncation": (("germ", "--poly", "y^2 - x^3", "--branches", "FILE"),
                            "t^2 ; t^3\ntruncation: 12\n"),
    "b2-too-large-to-print": (("stable-betti", "--b1", "0", "--b2", "9" * 1000), None),
    "bielliptic-generic": (BIELLIPTIC_BOUNDS + ("--lambda", "1", "--mu", "1", "--generic"), None),
    "mu-above-the-cap": (("germ", "--poly", "x^6 + y^14"), None),
    "short-gram": (("decompose", "--lattice", "FILE", "--beta", "1,1"), _lattice(gram="0 2")),
}


@pytest.mark.parametrize("name", [*sorted(EXIT_CALLS), *FRESH_REJECTIONS])
def test_entry_point_prints_what_main_prints(capsysbinary, tmp_path, name):
    if name in EXIT_CALLS:
        code, argv, file_text = name, EXIT_CALLS[name], None
    else:
        code, (argv, file_text) = 2, FRESH_REJECTIONS[name]
    path = tmp_path / "input.txt"
    if file_text is not None:
        path.write_text(file_text)
    argv = [str(path) if a == "FILE" else a for a in argv]
    assert main(argv) == code
    captured = capsysbinary.readouterr()
    if code == 2:
        # a rejection writes nothing on stdout and one line on stderr
        assert (captured.out, captured.err.count(b"\n")) == (b"", 1)
    proc = run_fresh(*argv, timeout=5, text=False)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)


@pytest.mark.parametrize("argv, first_line", [
    # the record (about 250 kB) outgrows the pipe, so the reader, which
    # takes one line and closes its end, is gone before the last write
    (("decompose", "--lattice", "bielliptic-rank2", "--beta=100,100"), b"theta1\ttheta2\n"),
    # the reader is gone before the first write: the record fails at the
    # final flush (at its first write when unbuffered), which must not be
    # tried again at exit
    (("stable-betti", "--b1", "0", "--b2", "10", "--max-k", "4"), None),
    # so does help, which the parser writes
    (("--help",), None),
    (("perverse", "--help"), None),
], ids=["mid-record", "before-record", "help", "subcommand-help"])
def test_closed_stdout_exits_141_quietly(argv, first_line):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import stabctab

    src = str(Path(stabctab.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
        # leaving the with block closes both pipes and reaps the child
        with subprocess.Popen([sys.executable, "-m", "stabctab", *argv], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE,
                              env={**env, "PYTHONPATH": src, **unbuffered}) as proc:
            try:
                if first_line is not None:
                    assert proc.stdout.readline() == first_line
                proc.stdout.close()
                err = proc.stderr.read()
                assert proc.wait(timeout=60) == 141, unbuffered
            finally:
                proc.kill()
        assert err == b"", unbuffered


def test_json_records_validate_against_schema(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(
        resources.files("stabctab").joinpath("data/output.schema.json").read_text()
    )
    invocations = [
        ("stable-betti", "--b1", "0", "--b2", "10", "--max-k", "3"),
        ("perverse", "--b1", "2", "--b2", "2", "--max-order", "4"),
        ("identity", "--b1", "0", "--b2", "1", "--order", "4"),
        ("germ", "--poly", "x*y"),
        ("bounds", "--surface", "enriques", "--beta-sq", "10", "--d", "10"),
        ("decompose", "--lattice", "bielliptic-rank2", "--beta", "2,2"),
    ]
    for argv in invocations:
        _, record = run_json(capsys, *argv)
        jsonschema.validate(record, schema)


def test_byte_determinism(capsys):
    argv = ("perverse", "--b1", "0", "--b2", "10", "--max-order", "6", "--format", "json")
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)
    assert first == second
    argv = ("bounds", "--surface", "enriques", "--beta-sq", "10", "--d", "10")
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)
    assert first == second


#: One small call of each subcommand, for the handler contract below.
SMALL_CALLS = {
    "stable-betti": ("--b1", "0", "--b2", "10", "--max-k", "3"),
    "perverse": ("--b1", "2", "--b2", "2", "--max-order", "4", "--oracle"),
    "identity": ("--b1", "0", "--b2", "1", "--order", "4"),
    "germ": ("--poly", "x*y"),
    "bounds": ("--surface", "enriques", "--beta-sq", "10", "--d", "3"),
    "decompose": ("--lattice", "bielliptic-rank2", "--beta", "2,2"),
}


def rendered(value):
    """value as main writes it to JSON: a Fraction or a QuadSurd as its str,
    a tuple as a list."""
    from fractions import Fraction

    from stabctab.surd import QuadSurd

    if isinstance(value, (Fraction, QuadSurd)):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [rendered(v) for v in value]
    if isinstance(value, dict):
        return {k: rendered(v) for k, v in value.items()}
    return value


@pytest.mark.parametrize("name", sorted(SMALL_CALLS))
def test_handlers_return_the_record_and_write_nothing(capsys, name):
    from fractions import Fraction
    from importlib import import_module

    from stabctab.cli import COMMANDS, build_parser
    from stabctab.surd import QuadSurd

    assert set(SMALL_CALLS) == set(COMMANDS)
    args = build_parser().parse_args([name, *SMALL_CALLS[name]])
    handler = getattr(import_module(f"stabctab.{COMMANDS[name][1]}"),
                      "cmd_" + name.replace("-", "_"))
    result = handler(args)
    assert capsys.readouterr().out == ""
    status, record, rows = result
    # rows may be any iterable, a generator among them: read it once
    rows = list(rows)
    assert status == 0
    assert sorted(record) == ["parameters", "provenance", "results"]
    assert rows and all(isinstance(row, tuple) for row in rows)
    if name == "bounds":
        # the record holds the library's exact values, not their text
        results = record["results"]
        assert isinstance(results["codim_bound"], Fraction)
        assert any(isinstance(v, QuadSurd) for _, v in results["case_bounds"])
    # main alone renders: it adds the command and writes the record with
    # each exact value as its str, or each row with a cell as its str, a
    # tuple cell as its items joined by ',' and a list cell as JSON
    assert run_json(capsys, name, *SMALL_CALLS[name]) == (
        0, rendered({"command": name, **record}))
    tsv = "".join(
        "\t".join(json.dumps(rendered(c)) if isinstance(c, list)
                  else ",".join(map(str, c)) if isinstance(c, tuple) else str(c) for c in row)
        + "\n" for row in rows
    )
    assert run(capsys, name, *SMALL_CALLS[name]) == (0, tsv)


def test_value_json_cannot_write_exits_3(capsys, monkeypatch):
    from stabctab import germ

    # only a Fraction or a QuadSurd is written by its str
    record = {"parameters": {}, "results": {"mu": object()}, "provenance": ""}
    monkeypatch.setattr(germ, "cmd_germ", lambda args: (0, record, []))
    assert main(["germ", "--poly", "x*y", "--format", "json"]) == 3
    assert capsys.readouterr() == ("", "stabctab: internal error: TypeError: "
                                       "Object of type object is not JSON serializable\n")


@pytest.mark.parametrize("argv", [
    ("decompose", "--lattice", "FILE", "--beta", "1,1"),
    ("germ", "--poly", "y^2 - x^3", "--branches", "FILE"),
], ids=["lattice-file", "branch-file"])
def test_file_longer_than_the_cap_exits_2(capsys, tmp_path, argv):
    # a comment line one character longer than the cap of 2^20
    path = tmp_path / "long.txt"
    path.write_text("#" * (2**20 + 1))
    assert main([str(path) if a == "FILE" else a for a in argv]) == 2
    assert capsys.readouterr() == (
        "", f"stabctab {argv[0]}: {path}: file longer than 1048576 characters\n")
    # a file that never ends, read in a fresh interpreter whose address space
    # is capped, is read no further than the cap
    import resource

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (10**9, 10**9))

    proc = run_fresh(*("/dev/zero" if a == "FILE" else a for a in argv), timeout=5,
                     preexec_fn=cap_address_space)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        f"stabctab {argv[0]}: /dev/zero: file longer than 1048576 characters\n")


def test_internal_failure_exits_3(capsys, monkeypatch):
    from stabctab import genfunc

    # an L that is no integer series' log-derivative trips the kernel's guard
    monkeypatch.setattr(
        genfunc, "_log_derivative", lambda factors, order: [{}, {}, {0: 1}] + [{}] * (order - 2)
    )
    assert main(["stable-betti", "--b1", "0", "--b2", "10", "--max-k", "4"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("stabctab: internal error: ") and err.count("\n") == 1


def _raise(exc_type):
    def stray(*args, **kwargs):
        raise exc_type("stray")
    return stray


def _broken_table(surface, order):
    from stabctab.genfunc import PerverseTable

    # a base-row entry of 2 breaks a PerverseTable invariant
    return PerverseTable(order, {(0, 1): 2})


@pytest.mark.parametrize("module, name, stray, argv, exc_type", [
    ("genfunc", "_log_derivative", _raise(ValueError),
     ("stable-betti", "--b1", "0", "--b2", "10", "--max-k", "4"), "ValueError"),
    ("genfunc", "stable_perverse_table", _broken_table,
     ("perverse", "--b1", "0", "--b2", "10", "--max-order", "4"), "ValueError"),
    ("germ", "milnor", _raise(ZeroDivisionError),
     ("germ", "--poly", "y^2 - x^3"), "ZeroDivisionError"),
    ("nslattice", "decompose", _raise(TypeError),
     ("decompose", "--lattice", "bielliptic-rank2", "--beta", "2,2"), "TypeError"),
    ("codim", "enriques_d0", _raise(ValueError),
     ("bounds", "--surface", "enriques", "--beta-sq", "10", "--i", "2", "--j", "3"),
     "ValueError"),
    # a data file the package ships is not input: without it the package
    # is broken, whatever the call
    ("_record", "DATA_DIR", "no-such-data-directory",
     ("decompose", "--lattice", "bielliptic-rank2", "--beta", "2,2"), "FileNotFoundError"),
    # nor is one that does not parse: its parser's BadInput exits 3, not 2
    ("nslattice", "parse_lattice", _raise(BadInput),
     ("decompose", "--lattice", "bielliptic-rank2", "--beta", "2,2"),
     "ValueError: shipped file data/lattices/bielliptic-rank2.lat"),
], ids=["genfunc-value", "perverse-table", "germ-zero-division", "nslattice-type",
        "codim-value", "missing-data-file", "malformed-data-file"])
def test_stray_exception_exits_3(capsys, monkeypatch, module, name, stray, argv, exc_type):
    from importlib import import_module

    monkeypatch.setattr(import_module(f"stabctab.{module}"), name, stray)
    assert main(list(argv)) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"stabctab: internal error: {exc_type}: ")
    assert captured.err.count("\n") == 1


TACNODE = ("germ", "--poly", "y^2 - x^4", "--branches", "FILE")


def _int_error(text):
    """The message of the ValueError that int(text) raises."""
    try:
        int(text)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("argv, file_bytes, err", [
    (TACNODE, b"truncation: x\nt ; t^2\nt ; -t^2\n",
     "stabctab germ: invalid literal for int() with base 10: ' x'\n"),
    (TACNODE, b"# no branches\n", "stabctab germ: a germ has at least one branch\n"),
    (TACNODE, b"t ; t^2\n\xff ; -t^2\n",
     "stabctab germ: 'utf-8' codec can't decode byte 0xff in position 8: "
     "invalid start byte\n"),
    (("bounds", "--surface", "enriques", "--beta-sq", "10", "--d", "0"), None,
     "stabctab bounds: d must be a positive integer\n"),
    (("bounds", "--surface", "enriques", "--beta-sq", "9", "--d", "1"), None,
     "stabctab bounds: beta^2 must be a positive even integer for an ample class\n"),
    (("perverse", "--b1", "1", "--b2", "10"), None,
     "stabctab perverse: b1 must be a nonnegative even integer, got 1\n"),
    (BIELLIPTIC_BOUNDS + ("--lambda", "0.5", "--mu", "1"), None,
     "stabctab bounds: Invalid literal for Fraction: '0.5'\n"),
    (("decompose", "--lattice", "FILE", "--beta", "1,1"),
     ZERO_DENOMINATOR_LATTICE.replace("1/0", "1e-9").encode(),
     "stabctab decompose: Invalid literal for Fraction: '1e-9'\n"),
    # a bounds flag that the call would not read
    (BIELLIPTIC_BOUNDS + ("--lambda", "1", "--mu", "1", "--generic"), None,
     "stabctab bounds: --generic applies to --surface enriques --d only\n"),
    (BIELLIPTIC_BOUNDS + ("--lambda", "1", "--mu", "1", "--beta-sq", "10"), None,
     "stabctab bounds: --beta-sq applies to --surface enriques only\n"),
    (("bounds", "--surface", "enriques", "--beta-sq", "10", "--d", "3", "--a", "3"), None,
     "stabctab bounds: --a applies to --surface bielliptic only\n"),
    (("bounds", "--surface", "enriques", "--beta-sq", "10", "--i", "2", "--j", "3",
      "--generic"), None,
     "stabctab bounds: --generic applies to --surface enriques --d only\n"),
    # the rejections of bounds, a branch file and a lattice file, each once
    (("bounds", "--surface", "enriques", "--beta-sq", "10", "--i", "2"), None,
     "stabctab bounds: --i and --j go together\n"),
    (("bounds", "--surface", "enriques", "--d", "2"), None,
     "stabctab bounds: enriques needs --beta-sq\n"),
    (BIELLIPTIC_BOUNDS[:-2] + ("--lambda", "1", "--mu", "1", "--i", "1", "--j", "1"), None,
     "stabctab bounds: the d0 threshold is defined for enriques only\n"),
    (("bounds", "--surface", "enriques", "--beta-sq", "10", "--i", "-1", "--j", "0"), None,
     "stabctab bounds: i and j must be nonnegative\n"),
    (BIELLIPTIC_BOUNDS + ("--lambda", "0", "--mu", "1"), None,
     "stabctab bounds: lambda and mu must be positive\n"),
    (BIELLIPTIC_BOUNDS + ("--lambda", "1", "--mu", "1", "--gamma", "0"), None,
     "stabctab bounds: gamma must be a positive integer\n"),
    (BIELLIPTIC_BOUNDS + ("--lambda", "1", "--mu", "1", "--d", "0"), None,
     "stabctab bounds: d must be a positive integer\n"),
    (BIELLIPTIC_BOUNDS + ("--lambda", "1" * 4400, "--mu", "1"), None,
     f"stabctab bounds: {_int_error('1' * 4400)}\n"),
    (TACNODE, b"truncation: 0\nt ; t^2\nt ; -t^2\n",
     "stabctab germ: declared truncation must be positive\n"),
    (("decompose", "--lattice", "FILE", "--beta", "1,1"), b"ortho_basis\n1 0\n0 1\nrank 2\n",
     "stabctab decompose: rank must come before ortho_basis\n"),
    # an integer is an optional sign and ASCII digits, wherever it is read
    (("decompose", "--lattice", "bielliptic-rank2", "--beta", "1_0,1"), None,
     "stabctab decompose: invalid literal for int() with base 10: '1_0'\n"),
    (("decompose", "--lattice", "bielliptic-rank2", "--beta", "\u0661,1"), None,
     "stabctab decompose: invalid literal for int() with base 10: '\u0661'\n"),
    (BIELLIPTIC_BOUNDS + ("--lambda", "\u0661/\u0662", "--mu", "1"), None,
     "stabctab bounds: Invalid literal for Fraction: '\u0661/\u0662'\n"),
    (("germ", "--poly", "x^\u0661 + y^2"), None,
     "stabctab germ: cannot parse term 'x^\u0661'\n"),
    (TACNODE, b"truncation: 1_0\nt ; t^2\nt ; -t^2\n",
     "stabctab germ: invalid literal for int() with base 10: ' 1_0'\n"),
    (("decompose", "--lattice", "FILE", "--beta", "1,1"),
     ZERO_DENOMINATOR_LATTICE.replace("1/0", "1").replace("ample_tests 2",
                                                          "ample_tests \u0662").encode(),
     "stabctab decompose: invalid literal for int() with base 10: '\u0662'\n"),
    (("bounds", "--surface", "enriques", "--beta-sq", "10"), None,
     "stabctab bounds: give exactly one of --d or --i/--j\n"),
    (("bounds", "--surface", "bielliptic", "--a", "1", "--d", "2"), None,
     "stabctab bounds: bielliptic needs --a --b --lambda --mu --gamma\n"),
    (("decompose", "--lattice", "FILE", "--beta=2,0"), SQUARE_TOO_LONG_LATTICE.encode(),
     "stabctab decompose: test class 1*D1 +/- D2 has nonpositive square too long to print\n"),
    (("decompose", "--lattice", "bielliptic-rank2", "--beta", "1,2,3"), None,
     "stabctab decompose: beta has 3 coordinates, lattice has rank 2\n"),
    # truncation: is read on a branch file's first line only: a second or
    # trailing one is a line that is not a pair
    (("germ", "--poly", "y^2 - x^3", "--branches", "FILE"),
     b"truncation: 8\nt^2 ; t^3\ntruncation: 12\n",
     "stabctab germ: branch line 'truncation: 12' is not 'x(t) ; y(t)'\n"),
    (("germ", "--poly", "y^2 - x^3", "--branches", "FILE"), b"t^2 ; t^3\ntruncation: 12\n",
     "stabctab germ: branch line 'truncation: 12' is not 'x(t) ; y(t)'\n"),
    *(((name, "--b1", "0", "--b2", "10", flag, "-1"), None,
       f"stabctab {name}: truncation order must be nonnegative\n")
      for name, flag in (("identity", "--order"), ("perverse", "--max-order"),
                         ("stable-betti", "--max-k"))),
    (("germ", "--poly", "y^2 - z^3"), None, "stabctab germ: unknown factor 'z^3' in term 'z^3'\n"),
    # an empty path names no file, as for --lattice: it is not a call
    # without --branches
    (("germ", "--poly", "y^2 - x^3", "--branches", ""), None,
     "stabctab germ: [Errno 2] No such file or directory: ''\n"),
    # an integer of a file with more digits than Python reads
    (("decompose", "--lattice", "FILE", "--beta", "1,1"), b"rank " + b"9" * 5000 + b"\n",
     f"stabctab decompose: {_int_error('9' * 5000)}\n"),
    (TACNODE, b"truncation: " + b"9" * 5000 + b"\nt ; t^2\nt ; -t^2\n",
     f"stabctab germ: {_int_error(' ' + '9' * 5000)}\n"),
], ids=["truncation-literal", "no-branches", "not-utf-8", "bounds-d-zero", "odd-beta-sq",
        "odd-b1", "decimal-lambda", "exponent-in-lattice-file", "bielliptic-generic",
        "bielliptic-beta-sq", "enriques-a", "enriques-ij-generic", "i-without-j",
        "enriques-without-beta-sq", "bielliptic-d0", "negative-i", "zero-lambda",
        "zero-gamma", "bielliptic-d-zero", "lambda-too-long-for-int", "zero-truncation",
        "ortho-basis-before-rank", "beta-underscore", "beta-arabic-indic", "lambda-arabic-indic",
        "exponent-arabic-indic", "truncation-underscore", "ample-tests-arabic-indic",
        "no-mode", "bielliptic-missing-flags", "test-square-too-long-to-print",
        "beta-wrong-length", "second-truncation", "trailing-truncation", "negative-order",
        "negative-max-order", "negative-max-k", "poly-unknown-variable", "empty-branch-path",
        "rank-too-long-for-int", "truncation-too-long-for-int"])
def test_rejected_input_names_its_subcommand(capsys, tmp_path, argv, file_bytes, err):
    path = tmp_path / "input.txt"
    if file_bytes is not None:
        path.write_bytes(file_bytes)
    assert main([str(path) if a == "FILE" else a for a in argv]) == 2
    assert capsys.readouterr() == ("", err)


#: sha256 of stdout, recorded with the factor-by-factor product expansion
#: that preceded the integer kernel (the germ entry: with the two-class
#: polynomial layer, its JSON re-pinned once its provenance stopped naming
#: a delta that a call without branches does not compute; the decompose
#: and bounds entries: with the Fraction-valued positivity tests and the
#: surd helper functions; the JSON of the two Enriques bounds entries
#: re-pinned once each mode's provenance named what it computes); the
#: records must not change by a byte.
PINNED_STDOUT_SHA256 = [
    (("perverse", "--b1", "2", "--b2", "2", "--max-order", "14", "--oracle"),
     "3a72ff2833be4af01ef88b5b99dec3b7b5da64bbd5160157176b86f978ee11f3",
     "ea17aa80d117a41de3fda5083586b9c78555c0294780304f53a68ffe0bca0c34"),
    (("perverse", "--b1", "0", "--b2", "10", "--max-order", "12"),
     "aaab53a3c10918457520b28279283b30361b4a27aa13c9ad9ecb704e5522ceae",
     "8edf845ec177e55a6d86e1c0046e90aa08498100287d85da599947b4df78e685"),
    (("identity", "--b1", "4", "--b2", "6", "--order", "12"),
     "b029a1c4892cf91382326dcc6013292d384646627694849c8635038a18c72a39",
     "c07aa6ad1eac8876d43aefb8c855dd1156b5fd3aa64241f2af0493d9ee9c4258"),
    (("stable-betti", "--b1", "0", "--b2", "10", "--max-k", "30"),
     "b70d7eb52157dffce53daffcae5990506de7968e116b5c1c8a439e022c14ff41",
     "6049c0b8491521542e2827233fd5acab3d8192f11c3541ce741120861797c61c"),
    (("stable-betti", "--b1", "4", "--b2", "11", "--max-k", "40"),
     "50c639c01a5745f05db811bfc633bc79bbb540d28acf2e8b460a9672cf8b6fb5",
     "cb4a305ea43d6e97c4d6a3f484286b6b288d6b5ee88090876009444687d41942"),
    (("germ", "--poly", "x^3*y - x*y^3"),
     "d4f7a817ea494a60e4b3432450e625839bca0fa2c78b14075f7c950ed01e4699",
     "28bbd880f74744b19d1eea3c6f032d9cfd9f0da4d1eed7cc28aebce53aef09ff"),
    (("decompose", "--lattice", "bielliptic-rank2", "--beta", "12,12"),
     "646ab6e8a3ba6f9f27aae9a1d9c55c30fa8d71f6d269c3fb1dacee41cd643ec1",
     "f175a350cb858394e2c5cfd64257fd32cfd6d74bc56bc202cb072316e45c492b"),
    (("bounds", "--surface", "bielliptic", "--a", "1", "--b", "2", "--lambda", "1",
      "--mu", "1", "--gamma", "2", "--d", "3"),
     "727c69d91adf42cd3dbe897f8062d26aa3201780daccedf6af21e438ac3b7490",
     "6106ee441f9110ca50f2e2dee7181677317686be42caaa51baef2b7fdd772796"),
    (("bounds", "--surface", "enriques", "--beta-sq", "10", "--d", "10"),
     "0c389be4f5aad60872bbd3c7fdcafeb3632d0b526da66b2aa511ba3e8c098c0f",
     "8306bb3426a840caf4970532eff919e1206132e93cc9b61fb89e403b9db3da36"),
    (("bounds", "--surface", "enriques", "--beta-sq", "6", "--i", "3", "--j", "4"),
     "0a9f0603789fb88e05a4a309adb75a9d11e570bb6a1451751b71660121f4aa5c",
     "43e0a27f9ca06302b759c9a2cace0400d8c31184fba6fe6ee4c7b6e1c7fa320d"),
    # these two with the lattice model checked in Fraction arithmetic and
    # the last gram coordinate scanned point by point
    (("decompose", "--lattice", "rank3.lat", "--beta=10,2,-5"),
     "6008b09f0cf11bf343d77049897a552e0d927af1dac79d1e9aef82c98b875c82",
     "82bfa18282e8bf7120ae28a2953051b96a3e34178daf786f7031b06dd43465bc"),
    (("decompose", "--lattice", "enriques-u-e8", "--beta", "1,2,0,1,-1,0,0,0,0,0"),
     "aa574b29b0e7ea1dca1a471c4554d38350410f07cd9a09402971db7ffbcacf97",
     "692b9c48e63b35e381eda6190bacc3ff7cdab600a115b2c29db9584b875ca4e4"),
]


#: A rank-3 lattice whose D2, D3 come from Gram-Schmidt, so its basis is
#: rational; the pinned record reads it as ``rank3.lat`` from the working
#: directory, so that the JSON record holds no temporary path.
RANK3_RATIONAL_LATTICE = (
    "rank 3\ngram\n-2 -2 1\n-2 -1 -3\n1 -3 -3\nample_witness -1 1 0\n"
    "ortho_basis\n-1 1 0\n1 0 0\n-7/2 4 1\nample_tests 2 5\n"
)


def test_pinned_stdout_digests(capsys, tmp_path, monkeypatch):
    (tmp_path / "rank3.lat").write_text(RANK3_RATIONAL_LATTICE)
    monkeypatch.chdir(tmp_path)
    for argv, tsv_sha, json_sha in PINNED_STDOUT_SHA256:
        for fmt, want in (("tsv", tsv_sha), ("json", json_sha)):
            code, out = run(capsys, *argv, "--format", fmt)
            assert code == 0, (argv, fmt)
            assert hashlib.sha256(out.encode()).hexdigest() == want, (argv, fmt)


#: TSV sha256 of the tacnode germ with its shipped branch file, recorded
#: with the two-class polynomial layer; the JSON record is not pinned
#: because it holds the branch-file path.
PINNED_TACNODE_TSV_SHA256 = (
    "a020e730b37fb7c81eafe10a0e3007ecd0d49f5968e964e70191307eb674decf"
)


def test_pinned_germ_branches_digest(capsys):
    path = resources.files("stabctab").joinpath("data/branches/tacnode.br")
    with resources.as_file(path) as branch_file:
        code, out = run(capsys, "germ", "--poly", "y^2 - x^4", "--branches", str(branch_file))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_TACNODE_TSV_SHA256


#: sha256 of the hidden --perturb negative control's stdout (exit 1),
#: recorded before the identity moved to integer rows; its first
#: difference keeps the old record format, "lhs"/"rhs" as JSON strings.
PINNED_PERTURB_SHA256 = (
    ("identity", "--b1", "0", "--b2", "10", "--order", "6", "--perturb"),
    "d5c639b44928cbe2999e55127a4324d0371db43706aeb57c431cbe39c51c9a4a",
    "0b753eccd359b82bb1ed16ca532b4f5086e8ba7671b704243cf821753370b7b0",
)


def test_pinned_perturb_digests(capsys):
    argv, tsv_sha, json_sha = PINNED_PERTURB_SHA256
    for fmt, want in (("tsv", tsv_sha), ("json", json_sha)):
        code, out = run(capsys, *argv, "--format", fmt)
        assert code == 1, fmt
        assert hashlib.sha256(out.encode()).hexdigest() == want, fmt


def test_inconsistent_tower_exits_3(capsys, monkeypatch):
    from stabctab import perverse

    # a tower whose base row holds 2, which no surface produces
    monkeypatch.setattr(perverse, "build_tower",
                        lambda s, k: perverse.RelHilbBettiTower(s, k, {(0, 0): 2}))
    assert main(["perverse", "--b1", "0", "--b2", "10", "--max-order", "2", "--oracle"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("stabctab: internal error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, last_row", [
    (("perverse", "--b1", "0", "--b2", "1", "--max-order", "64"), ["64", "0", "1"]),
    (("identity", "--b1", "0", "--b2", "1", "--order", "64"), ["status", "PASS"]),
    (("stable-betti", "--b1", "0", "--b2", "1", "--max-k", "384"), ["384", "2396527873254065426956"]),
], ids=["perverse", "identity", "stable-betti"])
def test_order_flags_at_their_cap_run(capsys, argv, last_row):
    code, out = run(capsys, *argv)
    assert code == 0
    assert tsv_rows(out)[-1] == last_row


SURFACE_CAP, BOUNDS_CAP = str(10**12), str(10**600)


@pytest.mark.parametrize("argv", [
    ("stable-betti", "--b1", "0", "--b2", "9" * 1000),
    ("perverse", "--b1", "0", "--b2", "9" * 1000),
    ("bounds", "--surface", "enriques", "--beta-sq", "10", "--d", "9" * 4000),
    ("bounds", "--surface", "bielliptic", "--a", "1", "--b", "1", "--lambda", "7" * 3000,
     "--mu", "1/" + "7" * 3000, "--gamma", "2", "--d", "1"),
    ("bounds", "--surface", "enriques", "--beta-sq", "8" * 4300, "--d", "1"),
], ids=["stable-betti-b2", "perverse-b2", "enriques-d", "bielliptic-lambda-mu",
        "enriques-beta-sq"])
def test_integers_too_large_to_print_exit_2(capsys, argv):
    # Python prints no int of more than 4,300 digits: these values, or a
    # value built from them, once exited 3 when the record was written
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "internal error" not in captured.err


@pytest.mark.parametrize("argv", [
    ("stable-betti", "--b1", SURFACE_CAP, "--b2", SURFACE_CAP, "--max-k", "384"),
    ("perverse", "--b1", SURFACE_CAP, "--b2", SURFACE_CAP, "--max-order", "64"),
    ("identity", "--b1", SURFACE_CAP, "--b2", SURFACE_CAP, "--order", "64", "--perturb"),
    ("bounds", "--surface", "enriques", "--beta-sq", "10", "--d", BOUNDS_CAP),
    ("bounds", "--surface", "enriques", "--beta-sq", BOUNDS_CAP, "--i", BOUNDS_CAP,
     "--j", BOUNDS_CAP),
    ("bounds", "--surface", "bielliptic", "--a", BOUNDS_CAP, "--b", BOUNDS_CAP,
     "--lambda", "1/" + BOUNDS_CAP, "--mu", "1/" + BOUNDS_CAP, "--gamma", "2",
     "--d", BOUNDS_CAP),
], ids=["stable-betti", "perverse", "identity", "enriques-d", "enriques-d0", "bielliptic"])
def test_records_at_the_integer_caps_print(capsys, argv):
    from stabctab import codim
    from stabctab.cli import COMMANDS

    assert COMMANDS["bounds"][2]["--d"]["cap"] == codim.MAX_ARGUMENT == int(BOUNDS_CAP)
    for fmt in ("tsv", "json"):
        code, out = run(capsys, *argv, "--format", fmt)
        assert code == (1 if "--perturb" in argv else 0)
        assert out
