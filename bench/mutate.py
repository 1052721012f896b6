"""Mutation table: one-line faults, each with the tests expected to catch it.

Usage: ``python bench/mutate.py``, from anywhere.  Each row of ``ROWS``
names a file of the checkout, an old text that must occur in it exactly
once, the new text, and the tests expected to kill the mutant.  For each row the script copies the
checkout, without ``.git`` and caches, to a temporary directory, applies
the row there, runs the named tests with ``python -m pytest -q -x`` on
the copy's ``src``, and prints the row, ``killed`` or ``survived`` and
the time.  Before the rows it runs every named test once on an unmutated
copy, so that a test failing for another reason is not read as a kill.

A row may carry a written reason, for a mutant that no check is meant to
see; the script exits 1 if the unmutated tests fail, if a row's old text
does not occur exactly once, if pytest ends in anything but a pass or a
test failure, or if a row without a reason survives.  Stdlib only and
offline, outside tier-1, like ``bench/sweep.py``; the checkout itself is
never written.

Result (CPython 3.11.7, 2-vCPU Xeon, 75 s in all): the unmutated tests
pass, and each of the 79 rows is killed; none carries a reason.  Every
named test is a tier-1 test, so each row also fails the whole tier-1
suite, and a tier-1 test checks that pytest collects each name in
``KILLERS``, row ids included.  A named test that draws random inputs
draws them from a ``random.Random`` seeded in the test, by
``tests/draws.py`` or a helper of its module, so a row is killed by the
same examples on every run and every install.  CHANGES.md records when each row was added and
why.

Two rows are killed only by a restatement: ``d0-drops-i-plus-1`` and
``d0-second-root-plus-4`` fail no test but
``test_enriques_d0_equals_the_sqrt_rational_route``, which recomputes
d0's five terms.  The hypotheses behind those two terms are not checked
on their own; the abstract alone does not state them.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

D0_SURDS = "tests/test_nslattice.py::test_enriques_d0_equals_the_sqrt_rational_route"
KERNEL = "tests/test_genfunc.py::test_kernel_matches_product_oracle_and_partition_dp"
SYMMETRY = "tests/test_genfunc.py::test_perverse_series_is_symmetric_once_b1_is_cleared"
STABILIZATION = "tests/test_acceptance.py::test_acceptance_2_stabilization_identity"
WHITESPACE = ("tests/test_input_files.py::"
              "test_whitespace_is_what_str_split_splits_on_in_every_reader")
EXACT = "tests/test_package.py::test_every_entry_refuses_a_number_that_is_not_exact"
BOX_CAP = "tests/test_nslattice.py::test_enumeration_cap_lies_between_two_boxes"
GENFUNC, POLY = "src/stabctab/genfunc.py", "src/stabctab/poly.py"
SERIES, SURD = "src/stabctab/series.py", "src/stabctab/surd.py"

#: (name, file, old text, new text, killing tests, reason or None).
ROWS = [
    ("d0-drops-i-plus-1", "src/stabctab/codim.py",
     "        i + 1,\n", "        i,\n", [D0_SURDS], None),
    ("d0-second-root-plus-4", "src/stabctab/codim.py",
     "_ceil_sqrt(2 * i + 2 * j + 6, beta_sq)", "_ceil_sqrt(2 * i + 2 * j + 4, beta_sq)",
     [D0_SURDS], None),
    ("d0-ceil-half-rounds-down", "src/stabctab/codim.py",
     "(i + j + 3) // 2", "(i + j + 2) // 2",
     ["tests/test_nslattice.py::test_enriques_d0_dominates_stable_hypotheses"], None),
    ("n-floor-minus-1", "src/stabctab/codim.py",
     "max(2 * math.ceil(codim_bound) - 2, -2)", "max(2 * math.ceil(codim_bound) - 2, -1)",
     ["tests/test_nslattice.py::test_n_lower_bound"], None),
    ("ceil-sqrt-rounds-down", "src/stabctab/codim.py",
     "return math.isqrt(m - 1) + 1 if m else 0", "return math.isqrt(m) if m else 0",
     ["tests/test_nslattice.py::test_ceil_sqrt_equals_the_sqrt_rational_route"], None),
    ("rank-cap-33", "src/stabctab/nslattice.py",
     "MAX_RANK = 32", "MAX_RANK = 33",
     ["tests/test_cli.py::test_lattice_rank_is_capped_before_the_gram_is_read"], None),
    ("enumeration-cap-x10", "src/stabctab/nslattice.py",
     "ENUMERATION_CAP = 5_000_000", "ENUMERATION_CAP = 50_000_000", [BOX_CAP], None),
    ("elimination-cap-x2", "src/stabctab/germ.py",
     "MAX_ELIMINATION_WORK = 1_600_000", "MAX_ELIMINATION_WORK = 3_200_000",
     ["tests/test_germ.py::test_elimination_cap_lies_between_two_ordinary_points"], None),
    ("multiplier-bits-dropped", "src/stabctab/germ.py",
     "(weight(p.bit_length()) + weight(c.bit_length())) * size", "2 * size",
     ["tests/test_germ.py::test_large_coefficients_weigh_on_the_elimination_cap"], None),
    # branch i taken at t = s*u keeps the rank; its images scaled by s do not
    ("branch-scaled-not-reparametrized", "src/stabctab/germ.py",
     "c.numerator * s**k[0] // c.denominator", "c.numerator * s // c.denominator",
     ["tests/test_germ.py::test_beyond_corpus_germs"], None),
    ("table-order-abs-j", "src/stabctab/genfunc.py",
     "return key[0] + key[1], key", "return key[0] + abs(key[1]), key",
     ["tests/test_genfunc.py::test_first_difference_orders_by_total_degree"], None),
    ("oracle-g-factor-sign", "tests/product_oracle.py",
     "((2 * m, m), -1, -b2)", "((2 * m, m), 1, -b2)", [KERNEL], None),
    ("oracle-h-factor-sign", "tests/product_oracle.py",
     "((m, m), -1, -b2)", "((m, m), 1, -b2)", [KERNEL], None),
    ("oracle-one-minus-qt-sign", "tests/product_oracle.py",
     "factors = [((1, 1), -1, 1)]", "factors = [((1, 1), 1, 1)]", [KERNEL], None),
    ("oracle-stable-betti-factor-sign", "tests/product_oracle.py",
     "((2 * m, 0), -1, -(b2 + 1))", "((2 * m, 0), 1, -(b2 + 1))", [KERNEL], None),
    # each changes the power of one factor of H whose q <-> t mirror is
    # another factor; the first spares (1 + q)^b1, which has no mirror.
    # The stable Betti series reads H's factors, so each also changes it
    ("h-factor-qm-tm-1-power", "src/stabctab/genfunc.py",
     "(1, m, 2 * m - 1, b1)", "(1, m, 2 * m - 1, b1 + (m > 1))", [SYMMETRY], None),
    ("h-factor-qm+1-tm-1-power", "src/stabctab/genfunc.py",
     "(-1, m + 1, 2 * m, -1)", "(-1, m + 1, 2 * m, -2)", [SYMMETRY], None),
    ("h-factor-qm-1-tm+1-power", "src/stabctab/genfunc.py",
     "(-1, m - 1, 2 * m, -1)", "(-1, m - 1, 2 * m, -2)", [SYMMETRY], None),
    ("poly-mul-keeps-the-cutoff-degree", "src/stabctab/poly.py",
     "deg < room", "deg <= room",
     ["tests/test_poly.py::test_product_matches_the_pairwise_product"], None),
    ("poly-default-exponent-0", "src/stabctab/poly.py",
     'power or "1"', 'power or "0"',
     ["tests/test_poly.py::test_rendered_poly_parses_back_equal"], None),
    ("decompose-form-test-admits-0", "src/stabctab/nslattice.py",
     "not 0 < s < fb", "not 0 <= s < fb",
     ["tests/test_nslattice.py::test_random_lattice_enumeration_oracle"], None),
    ("parser-first-repeat-wins", "src/stabctab/cli.py",
     "values[flag] = value", "values.setdefault(flag, value)",
     ["tests/test_cli.py::test_rejected_input_names_its_subcommand[zero-gamma]"], None),
    # the two seeded property tests of test_literals.py kill this row too;
    # the named cases kill it without a draw
    ("is-integer-without-plus", "src/stabctab/_record.py",
     '("+", "-")', '("-",)',
     ["tests/test_literals.py::test_the_readers_agree_with_the_old_grammar_on_the_named_cases"],
     None),
    ("span-ignores-the-cutoff", "src/stabctab/poly.py",
     "hi = min(self.hi + other.hi, cutoff - 1)", "hi = self.hi + other.hi",
     ["tests/test_cli.py::test_composition_work_counts_no_degree_past_the_cutoff"], None),
    # H(q, q) without H's (1 - qt) factor: G's rows and the product
    # reference, each independent of H's factor list, both see it
    ("stable-betti-drops-one-minus-qt", "src/stabctab/genfunc.py",
     "in _perverse_factors(surface, order)]", "in _perverse_factors(surface, order)[1:]]",
     [STABILIZATION, KERNEL], None),
    # an empty branch path read as no --branches: the call drops delta
    # and exits 0 instead of 2
    ("germ-empty-branch-path-is-no-flag", "src/stabctab/germ.py",
     "if args.branches is not None:", "if args.branches:",
     ["tests/test_cli.py::test_rejected_input_names_its_subcommand[empty-branch-path]"], None),
    # each restores an older whitespace rule of a reader: a lattice line
    # split at a space only, a polynomial that drops the six ASCII
    # whitespace characters only
    ("lattice-keyword-at-space-only", "src/stabctab/nslattice.py",
     "        word = line.split(maxsplit=1)[0]\n        rest = line[len(word) + 1:]\n",
     '        word, _, rest = line.partition(" ")\n',
     ["tests/test_input_files.py::test_a_tab_separates_lattice_words_as_a_space_does"],
     None),
    ("lattice-row-word-at-space-only", "src/stabctab/nslattice.py",
     "first = row.split(maxsplit=1)[0]", 'first = row.partition(" ")[0]',
     ["tests/test_cli.py::test_invalid_lattice_file_exits_2_as_pinned[short-gram-tab]"], None),
    ("poly-drops-ascii-whitespace-only", "src/stabctab/poly.py",
     's = "".join(s.split()).replace("\\u2212", "-")',
     's = s.translate({0x2212: "-", **dict.fromkeys(map(ord, " \\t\\n\\r\\v\\f"))})',
     [WHITESPACE], None),
    ("conductor-bound-minus-1", "src/stabctab/germ.py",
     "t_trunc = 2 * mu + 2", "t_trunc = 2 * mu + 1",
     [f"{EXACT}[delta-truncation-below-conductor]"], None),
    # an empty branch set admitted: the germ call reads delta 0 and r 0,
    # and exits 1 on Milnor's formula instead of 2
    ("branch-set-may-be-empty", "src/stabctab/germ.py",
     '        if not branches:\n            raise BadInput("a germ has at least one branch")\n',
     "", ["tests/test_cli.py::test_rejected_input_names_its_subcommand[no-branches]"], None),
    ("parser-echoes-a-too-long-integer", "src/stabctab/cli.py",
     'f"has more digits than Python reads; its cap is {spec[\'cap\']}"',
     'f"needs an integer, got {value!r}"',
     ["tests/test_parser.py::test_usage_errors_exit_2_with_one_line[integer-too-long-to-read]"],
     None),
    # the one integer rule takes a bool: PerverseTable stores an entry True
    ("is-int-takes-bool", "src/stabctab/_record.py",
     "return type(v) is int", "return isinstance(v, int)",
     [f"{EXACT}[PerverseTable-entries]"], None),
    # a float in the basis then fails as an AttributeError, a bool is kept
    ("lattice-basis-unchecked", "src/stabctab/nslattice.py",
     "ample_tests)))\n                and all(map(is_rational, itertools.chain(*ortho_basis)))):",
     "ample_tests)))):", [f"{EXACT}[LatticeModel-ortho_basis]"], None),
    # each drops a check of a count: range(), + or < reads it first, or a bool computes
    ("g-factors-before-the-check", GENFUNC, 'z."""\n    _check_sizes(order)', 'z."""',
     [f"{EXACT}[goettsche_series-order]"], None),
    ("h-factors-before-the-check", GENFUNC, 'q-exponent.\n    """\n    _check_sizes(order)',
     'q-exponent.\n    """', [f"{EXACT}[stable_perverse_table-order]"], None),
    ("hilb-betti-unchecked", GENFUNC, "if not (is_int(n) and is_int(k)):", "if False:",
     [f"{EXACT}[hilb_betti-k]"], None),
    ("lattice-rank-unchecked", "src/stabctab/nslattice.py", "if not is_int(rank):", "if False:",
     [f"{EXACT}[LatticeModel-rank]"], None),
    ("delta-mu-unchecked", "src/stabctab/germ.py", "elif not is_int(mu):", "elif False:",
     [f"{EXACT}[delta-mu]"], None),
    ("delta-takes-a-negative-mu", "src/stabctab/germ.py", "elif mu < 0:", "elif False:",
     [f"{EXACT}[delta-mu-negative]"], None),
    ("bielliptic-dim-ls-d-unchecked", "src/stabctab/codim.py", "_check_d(d)\n    return", "return",
     [f"{EXACT}[bielliptic_dim_ls-d]"], None),
    ("poly-mul-cutoff-unchecked", POLY, 'once."""\n        if not is_int(cutoff):',
     'once."""\n        if False:', [f"{EXACT}[Poly-mul-cutoff]"], None),
    ("substitute-work-cutoff-unchecked", POLY, 'images."""\n        if not is_int(cutoff):',
     'images."""\n        if False:', [f"{EXACT}[Poly-substitute_work-cutoff]"], None),
    ("poly-powers-n-unchecked", POLY, "if not is_int(n):", "if False:",
     [f"{EXACT}[Poly-powers-n]"], None),
    # each drops a check that a tower, a table or a table of powers makes of
    # its count: a float or a bool is kept, a negative count gives an empty result
    ("tower-unchecked", "src/stabctab/perverse.py",
     'raise TypeError("the order, the keys and the values of a tower must be integers")',
     "pass", [f"{EXACT}[RelHilbBettiTower-values]"], None),
    ("tower-takes-a-negative-order", "src/stabctab/perverse.py", "if order < 0:", "if False:",
     [f"{EXACT}[RelHilbBettiTower-order-negative]"], None),
    ("table-takes-a-negative-order", GENFUNC,
     'must be integers")\n        if order < 0:', 'must be integers")\n        if False:',
     [f"{EXACT}[PerverseTable-order-negative]"], None),
    ("powers-take-a-negative-n", POLY, "if n < 0:", "if False:",
     [f"{EXACT}[Poly-powers-n-negative]"], None),
    # each restores an older check of a table's or a tower's keys: a key
    # that is not a pair fails in the unpacking, with Python's message, and
    # the tower keeps a key off its grid that solve_perverse never reads
    ("table-key-shape-unchecked", GENFUNC, "all(map(is_int_pair, entries or {}))",
     "all(is_int(i) and is_int(j) for i, j in entries or {})",
     [f"{EXACT}[PerverseTable-key-shape]"], None),
    ("tower-key-shape-unchecked", "src/stabctab/perverse.py",
     "is_int_pair(key) and is_int(b)\n                                      for key, b in",
     "is_int(ell) and is_int(m) and is_int(b)\n"
     "                                      for (ell, m), b in",
     [f"{EXACT}[RelHilbBettiTower-key-shape]"], None),
    ("tower-keeps-keys-off-its-grid", "src/stabctab/perverse.py",
     "if not (0 <= ell <= order and 0 <= m <= order):", "if False:",
     [f"{EXACT}[RelHilbBettiTower-key-range]"], None),
    # decompose reads only beta's first coordinate: (2, True) would pass
    ("beta-checks-one-coordinate", "src/stabctab/nslattice.py",
     "for c in beta:", "for c in beta[:1]:", [f"{EXACT}[decompose-beta-second]"], None),
    # hilb_betti pads each row of G to z-degree k again, past the 4n of its last term
    ("hilb-betti-builds-to-k", GENFUNC, "[n][k] if k <= 4 * n else 0", "[n][k]",
     ["tests/test_genfunc.py::test_library_builds_to_the_degree_it_reads"], None),
    # a scalar product takes any operand: a bool or a str scales a Poly, or
    # fails with Python's own message
    ("scale-unchecked", POLY, 'def scale(self, c) -> "Poly":\n        if not is_rational(c):',
     'def scale(self, c) -> "Poly":\n        if False:', [f"{EXACT}[Poly-scale]"], None),
    ("series-mul-declines-a-non-series", "src/stabctab/series.py", "else self.scale(other)",
     "else NotImplemented", [f"{EXACT}[TruncatedBiSeries-mul]"], None),
    # a class pairing 0 with the witness, (1, -1) or (0, 0), prints an empty record
    ("witness-pairing-0-admitted", "src/stabctab/nslattice.py",
     "model._witness_row, beta)) <= 0:", "model._witness_row, beta)) < 0:",
     [f"{EXACT}[decompose-not-effective]"], None),
    # each moves the box cap by a point: a box of exactly the cap is refused,
    # or each coordinate's range counts two values short
    ("enumeration-cap-refuses-equality", "src/stabctab/nslattice.py",
     "if total > ENUMERATION_CAP:", "if total >= ENUMERATION_CAP:", [BOX_CAP], None),
    ("box-volume-minus-1", "src/stabctab/nslattice.py",
     "total *= hi_i - lo_i + 1", "total *= hi_i - lo_i - 1", [BOX_CAP], None),
    ("pivot-weighs-its-smallest-entry", "src/stabctab/germ.py",
     "size = weight(max(map(int.bit_length", "size = weight(min(map(int.bit_length",
     ["tests/test_germ.py::test_a_pivot_row_weighs_as_its_largest_entry"], None),
    # each lets a surd's scalar be any int or Fraction again: a bool is read as 1
    ("surd-add-takes-a-bool", SURD,
     "if is_rational(other):\n            return _surd(self.rat + Fraction(other)",
     "if isinstance(other, (int, Fraction)):\n            return _surd(self.rat + Fraction(other)",
     [f"{EXACT}[QuadSurd-add]"], None),
    ("surd-sub-takes-a-bool", SURD, "if is_rational(other):\n            return self + (-",
     "if isinstance(other, (int, Fraction)):\n            return self + (-",
     [f"{EXACT}[QuadSurd-sub]"], None),
    ("surd-mul-takes-a-bool", SURD, "if is_rational(other):\n            c = Fraction(other)",
     "if isinstance(other, (int, Fraction)):\n            c = Fraction(other)",
     [f"{EXACT}[QuadSurd-mul]"], None),
    ("surd-order-takes-a-bool", SURD,
     "if is_rational(other):\n            a, b = self.rat - other",
     "if isinstance(other, (int, Fraction)):\n            a, b = self.rat - other",
     [f"{EXACT}[QuadSurd-lt]"], None),
    # each lets a sum, difference or product take a value of another ring:
    # a series, an int or a Poly in other variables
    ("poly-add-takes-any-operand", POLY,
     "if not self._same_ring(other):\n            return NotImplemented\n        out = dict",
     "out = dict", [f"{EXACT}[Poly-add]"], None),
    ("poly-sub-takes-any-operand", POLY,
     "other.scale(-1) if self._same_ring(other) else NotImplemented", "other.scale(-1)",
     [f"{EXACT}[Poly-sub]"], None),
    ("poly-mul-takes-any-ring", POLY,
     'if not self._same_ring(other):\n            raise TypeError(f"mul needs',
     'if False:\n            raise TypeError(f"mul needs', [f"{EXACT}[Poly-mul]"], None),
    ("same-ring-ignores-nvars", POLY,
     "other.__class__ is self.__class__ and other.nvars == self.nvars",
     "other.__class__ is self.__class__", [f"{EXACT}[Poly-mul]"], None),
    ("series-ring-is-any-poly", SERIES, "if not super()._same_ring(other):",
     "if not isinstance(other, Poly):", [f"{EXACT}[TruncatedBiSeries-add]"], None),
    # each drops the check of an index or a vector: a bool, a float or a
    # vector of the wrong length reads a value
    ("derivative-index-unchecked", POLY, 'if not is_int(i):\n            raise TypeError("i must',
     'if False:\n            raise TypeError("i must', [f"{EXACT}[Poly-derivative]"], None),
    ("derivative-index-range-unchecked", POLY, "if not 0 <= i < self.nvars:", "if False:",
     [f"{EXACT}[Poly-derivative-range]"], None),
    ("coeff-unchecked", SERIES, "if not (is_int(a) and is_int(b)):", "if False:",
     [f"{EXACT}[TruncatedBiSeries-coeff]"], None),
    ("entry-unchecked", GENFUNC, "if not (is_int(i) and is_int(j)):", "if False:",
     [f"{EXACT}[PerverseTable-entry]"], None),
    ("tower-value-unchecked", "src/stabctab/perverse.py", "if not (is_int(ell) and is_int(m)):",
     "if False:", [f"{EXACT}[RelHilbBettiTower-value]"], None),
    ("ip-coordinates-unchecked", "src/stabctab/nslattice.py", "if not all(map(is_rational, w)):", "if False:",
     [f"{EXACT}[LatticeModel-ip]"], None),
    ("ip-length-unchecked", "src/stabctab/nslattice.py", "if len(w) != self.rank:", "if False:",
     [f"{EXACT}[LatticeModel-ip-length]"], None),
    # each drops a statement that only these checks run
    ("series-takes-a-negative-order", SERIES, "if order < 0:", "if False:",
     [f"{EXACT}[TruncatedBiSeries-order-negative]"], None),
    ("substitute-takes-any-number-of-images", POLY, "if len(images) != self.nvars:", "if False:",
     [f"{EXACT}[Poly-substitute-images]"], None),
    ("betti-takes-a-negative-count", GENFUNC, "    if c < 0:\n        raise InternalIdentity",
     "    if False:\n        raise InternalIdentity",
     ["tests/test_genfunc.py::test_a_negative_betti_number_is_an_internal_failure"], None),
    ("surd-times-0-is-a-surd", SURD, "if c == 0:", "if False:",
     ["tests/test_nslattice.py::test_surd_arithmetic"], None),
]

#: Every test that ROWS names, once; a tier-1 test checks that the suite
#: collects each of them.
KILLERS = sorted({test for row in ROWS for test in row[4]})


def copy_checkout(dest: Path) -> Path:
    """A copy of the checkout at dest/checkout, without .git and caches."""
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache")
    return Path(shutil.copytree(ROOT, dest / "checkout", ignore=ignore))


def pytest(checkout: Path, tests) -> int:
    """The exit status of the named tests, run with -x on the copy's src."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=checkout, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def run_row(path, old, new, tests) -> str:
    """'killed', 'survived', or what went wrong instead."""
    with tempfile.TemporaryDirectory() as tmp:
        checkout = copy_checkout(Path(tmp))
        target = checkout / path
        text = target.read_text(encoding="utf-8")
        if text.count(old) != 1:
            return f"old text occurs {text.count(old)} times in {path}"
        target.write_text(text.replace(old, new), encoding="utf-8")
        status = pytest(checkout, tests)
    return {0: "survived", 1: "killed"}.get(status, f"pytest exit {status}")


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        status = pytest(copy_checkout(Path(tmp)), KILLERS)
    print(f"{'unmutated':34} {'passed' if status == 0 else f'pytest exit {status}':10} "
          f"{time.perf_counter() - start:6.1f} s")
    failed = status != 0
    for name, path, old, new, tests, reason in ROWS:
        start = time.perf_counter()
        outcome = run_row(path, old, new, tests)
        print(f"{name:34} {outcome:10} {time.perf_counter() - start:6.1f} s"
              + (f"  ({reason})" if reason and outcome == "survived" else ""))
        failed |= outcome != "killed" and not (outcome == "survived" and reason)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
