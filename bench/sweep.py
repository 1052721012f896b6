"""Equivalence sweeps: fixed grids of calls, each hashed to one digest.

Usage: ``PYTHONPATH=src python bench/sweep.py GRID [GRID ...]``, GRID one of
``tables``, ``germ``, ``random-germ``, ``decompose``, ``bounds``,
``usage``, ``mutants`` and ``parse``.  Each call runs
``stabctab.cli.main`` in-process, on whichever ``stabctab`` is first on
the path, and takes the exit status it returns; for each grid the script
prints the grid, its call count and one sha256 over the (argv, exit
code, stdout, stderr) of its calls in order.  A call that exits 3 is a
fault of the package, never a record to pin: after the digests, the
script names the first such call with its stderr and exits 1.  A
refactor that claims unchanged records runs the grids at the parent and
at the change (point PYTHONPATH at each checkout's ``src``) and gives
both digests.  Every call is fixed; the random draws are seeded, and
the random lattices, the file edits, the grammar's alphabet and the
m-fold points come from ``tests/draws.py``, as in the tests.

* ``tables``: ``perverse --oracle``, ``identity`` and ``identity --perturb``
  at orders 0..20, then ``stable-betti --max-k 0..48``, each at
  b1 in {0, 2, 4}, b2 in 1..22, as TSV and as JSON.
* ``germ``: the shipped ADE corpus, then A_k = y^2 - x^(k+1) for k in 1..39,
  each without and with its branch file, as TSV and as JSON.  Branch files
  are written to a temporary working directory and named relative to it,
  since a JSON record holds the path it was given.
* ``random-germ``: sixty quasi-homogeneous germs drawn from
  ``random.Random(12)``: weights wx, wy in 1..4 and a degree d, lcm(wx,
  wy) times 2..6; x^(d/wx) and y^(d/wy), and each other monomial of
  weighted degree d with probability 1/2, coefficients in -3..3 (one
  germ is not isolated, sixteen have mu above the cap), without branches;
  then the ordinary m-fold points, the products of y - i*x for i = 1..m,
  for m in 2..9, each with its lines ``t ; i*t`` as branches, and the
  curved ones, the products of y - i*x - x^2 - i*x^3, for m in 2..4, each
  with its branches ``t ; i*t + t^2 + i*t^3`` (``draws.ordinary_point``
  and ``draws.curved_point``, as in the tests).  Each as TSV and as JSON;
  the branch files are written to the working directory, as for ``germ``.
* ``decompose``: ``bielliptic-rank2`` at every beta in -1..12 x -1..12, at
  (40,40), (60,25) and (200,200) (a JSON record of 79,801 pairs, written
  in several batches), and at a box too large, a beta of the wrong length
  and three that are not integers; ``enriques-u-e8`` at four named classes
  and twenty drawn from ``random.Random(10)``; a file that does not
  exist; then twelve rank-2 and eight
  rank-3 lattice files drawn from ``random.Random(2)`` and
  ``random.Random(3)``, each at six classes that pair positively with its
  ample witness and one that may not (``draws.gram_schmidt_lattice``).
  Each as TSV and as JSON; the files are written to the working
  directory, as for ``germ``.
* ``bounds``: ``--surface enriques --d`` (with and without ``--generic``)
  and ``--i --j`` over even beta^2 in 2..20, and ``--surface bielliptic
  --d`` over a grid of a, b, lambda, mu, gamma and d, then every rejection
  of the subcommand's handler and of the bounds it calls, each as TSV and
  as JSON.
* ``usage``: the parser's help and usage errors.  Top level: ``-h``,
  ``--help``, no argument, an unknown subcommand, ``-h`` before one, and a
  flag first.  For each subcommand, a call that runs (``RUNS``), then:
  ``-h`` and ``--help`` first, after that call, and after an unknown flag
  and after a stray argument; that call without each required flag in
  turn, with an unknown flag, a stray argument and ``--format=xml``; each
  flag of ``stabctab.cli.COMMANDS`` added at the end without its value;
  each integer flag with ``ten``, ``1_0`` and its cap plus one; each
  choice flag with ``none``; each switch with ``=x``.  Then, appended,
  that call of each subcommand with each of its string flags given an
  empty value (``--poly``, ``--branches``, ``--lambda``, ``--mu``,
  ``--lattice`` and ``--beta``).
* ``mutants``: 20,000 mutants of each of three shipped files, each read by
  one call: ``bielliptic-rank2.lat`` by ``decompose --beta 1,1``,
  ``enriques-u-e8.lat`` by ``decompose --beta 1,2,0,1,-1,0,0,0,0,0`` and
  ``tacnode.br`` by ``germ --poly "y^2 - x^4" --branches``, drawn from
  ``random.Random(30)``, ``(31)`` and ``(32)``.  A mutant has one to three
  edits of a line, by ``draws.edit_lines``: insert, delete or replace a
  byte of ``draws.BYTES``, or drop or duplicate the line.  Each is
  written to the working directory as ``mutant.lat`` or ``mutant.br`` and
  read once, as TSV.  Through the branch files the grid also fuzzes the
  term grammar.
* ``parse``: 200,000 strings of length 0..24 over ``draws.GRAMMAR``, drawn
  from ``random.Random(11)``, each read by ``parse_polynomial(s, ("x",
  "y"))`` with no command line; the digest covers each string with its
  sorted terms, or with its error's class and message.

Digests (CPython 3.11; about 25 s for ``tables``, ``germ``, ``decompose``
and ``bounds`` together, 21 s for ``random-germ``, under 1 s for
``usage``, 32 s for ``mutants`` and 4 s for ``parse``, on a 2-vCPU
Xeon).  CHANGES.md records each revision at which a digest moved, and
which calls moved it:

    tables       14784 calls  d420e71be84b291f47970e1b928ca5b5b56350599e4b68ed8c1ea02068ae0299
    germ           184 calls  c54044cd94f491e838ea9cd97dc7e72af82056efcb863114dced40b0568174c4
    random-germ    142 calls  6b22ff76628ac63b8647eb187c1cb76fa0c67fb536d076fc46a53d851d3e81ab
    decompose      738 calls  6d6e604f215eea0088c714cdef7f891741ed9570e6ba0a7c010c75882800f543
    bounds        1448 calls  d291e022c5cdf5ee997cc7131fb71ee9c143639fb8657b09cd5df23b65a50a2d
    usage          181 calls  7888a8e7370f49a5e6c2a90e9e819ed582d6b5f536d6b8a4f01721ed2a3b0614
    mutants      60000 calls  b0ecc71e0b050af4f7076430645fb1b2a72bf20ba7754da4b7bbb8df1145e666
    parse       200000 calls  34a7d6f18cd0adcac5b292f343620b411c1bb633254c961bd2e2741071dad875
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import operator
import os
import random
import shlex
import sys
import tempfile
from importlib import resources

from stabctab.cli import COMMANDS, main
from stabctab.poly import parse_polynomial

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))
from draws import (  # noqa: E402
    GRAMMAR, curved_point, edit_lines, gram_schmidt_lattice, ordinary_point)

FORMATS = ("tsv", "json")
SURFACES = [(b1, b2) for b1 in (0, 2, 4) for b2 in range(1, 23)]


def tables_calls():
    for b1, b2 in SURFACES:
        surface = ("--b1", str(b1), "--b2", str(b2))
        for order in range(21):
            for call in (("perverse", *surface, "--max-order", str(order), "--oracle"),
                         ("identity", *surface, "--order", str(order)),
                         ("identity", *surface, "--order", str(order), "--perturb")):
                for fmt in FORMATS:
                    yield (*call, "--format", fmt)
    for b1, b2 in SURFACES:
        for max_k in range(49):
            for fmt in FORMATS:
                yield ("stable-betti", "--b1", str(b1), "--b2", str(b2), "--max-k", str(max_k),
                       "--format", fmt)


def a_k_branches(k):
    """The branches of y^2 - x^(k+1): two smooth ones when k is odd, one cusp
    otherwise."""
    if k % 2:
        return [("t", f"t^{(k + 1) // 2}"), ("t", f"-t^{(k + 1) // 2}")]
    return [("t^2", f"t^{k + 1}")]


def germ_calls():
    """Calls on (name, poly, branches) germs; the caller's working directory
    receives the branch files."""
    corpus = resources.files("stabctab").joinpath("data/ade_corpus.jsonl").read_text()
    germs = [(r["name"], r["poly"], r["branches"])
             for r in map(json.loads, (line for line in corpus.splitlines()
                                       if line and not line.startswith("#")))]
    germs += [(f"A_{k}", f"y^2 - x^{k + 1}", a_k_branches(k)) for k in range(1, 40)]
    for name, poly, branches in germs:
        path = f"{name}.br"
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{x} ; {y}\n" for x, y in branches)
        for extra in ((), ("--branches", path)):
            for fmt in FORMATS:
                yield ("germ", "--poly", poly, *extra, "--format", fmt)


def poly_text(terms):
    """The text of {(a, b): integer coefficient of x^a*y^b}, in the grammar
    of ``--poly``."""
    text = ""
    for (a, b), c in sorted(terms.items()):
        if c:
            factors = [v if e == 1 else f"{v}^{e}" for v, e in (("x", a), ("y", b)) if e]
            if abs(c) != 1 or not factors:
                factors.insert(0, str(abs(c)))
            text += (" - " if c < 0 else " + ") + "*".join(factors)
    return text[3:] if text.startswith(" + ") else "-" + text[3:]


def random_germ_calls():
    """Calls on drawn quasi-homogeneous germs and on m-fold points; the
    caller's working directory receives the branch files."""
    rng = random.Random(12)
    for _ in range(60):
        wx, wy = rng.randint(1, 4), rng.randint(1, 4)
        d = math.lcm(wx, wy) * rng.randint(2, 6)
        terms = {(a, (d - a * wx) // wy): rng.randint(-3, 3) for a in range(1, d // wx)
                 if (d - a * wx) % wy == 0 and rng.random() < 0.5}
        terms[(d // wx, 0)] = rng.choice((1, 2, 3))
        terms[(0, d // wy)] = rng.choice((-3, -2, -1, 1, 2, 3))
        for fmt in FORMATS:
            yield ("germ", "--poly", poly_text(terms), "--format", fmt)
    points = [(f"ordinary{m}", *ordinary_point(m)) for m in range(2, 10)]
    points += [(f"curved{m}", *curved_point(m)) for m in range(2, 5)]
    for name, terms, branches in points:
        path = f"{name}.br"
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{x} ; {y}\n" for x, y in branches)
        for fmt in FORMATS:
            yield ("germ", "--poly", poly_text(terms), "--branches", path, "--format", fmt)


def run(argv):
    """main(argv)'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def sweep(calls, read=run):
    """The number of calls, the sha256 over each call with what read gives
    for it (by default its (argv, code, stdout, stderr)), and the first
    command line that exited 3, a fault of the package, with its stderr;
    None when no call did or the items are not command lines."""
    digest = hashlib.sha256()
    count = 0
    fault = None
    for argv in calls:
        result = read(argv)
        digest.update(json.dumps([argv, *result]).encode() + b"\n")
        count += 1
        if fault is None and read is run and result[0] == 3:
            fault = argv, result[2]
    return count, digest.hexdigest(), fault


def random_lattice(rng, rank):
    """A lattice file of the given rank, drawn by ``draws.gram_schmidt_lattice``,
    and the pairing of its ample witness with each unit vector, or None
    when the draw fails."""
    drawn = gram_schmidt_lattice(rng, rank)
    if drawn is None:
        return None
    gram, d1, basis, tests = drawn
    text = "\n".join([f"rank {rank}", "gram", *(" ".join(map(str, row)) for row in gram),
                      "ample_witness " + " ".join(map(str, d1)), "ortho_basis",
                      *(" ".join(map(str, v)) for v in basis),
                      "ample_tests " + " ".join(map(str, tests))]) + "\n"
    return text, [sum(d1[i] * gram[i][j] for i in range(rank)) for j in range(rank)]


def decompose_calls():
    """Calls of decompose; the caller's working directory receives the
    lattice files."""
    classes = [("bielliptic-rank2", f"{a},{b}") for a in range(-1, 13) for b in range(-1, 13)]
    classes += [("bielliptic-rank2", beta) for beta in
                ("40,40", "60,25", "200,200", "3000,3000", "1,2,3", "1_0,1", "1,x", "")]
    e8 = random.Random(10)
    classes += [("enriques-u-e8", ",".join(map(str, beta))) for beta in [
        (1, 0, 0, 0, 0, 0, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0, 0, 0, 0, 0),
        (1, 2, 0, 1, -1, 0, 0, 0, 0, 0), (2, 1, 0, 0, 0, 0, 0, 0, 0, 0),
        *(tuple(e8.randint(-1, 2) for _ in range(10)) for _ in range(20))]]
    classes.append(("no-such-file.lat", "1,1"))
    for rank, seed, models in ((2, 2, 12), (3, 3, 8)):
        rng = random.Random(seed)
        for k in range(models):
            drawn = None
            while drawn is None:
                drawn = random_lattice(rng, rank)
            text, witness = drawn
            path = f"rank{rank}-{k}.lat"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            # six classes that pair positively with the witness, and one
            # drawn from the same box that may not
            betas = (tuple(rng.randint(-4, 6) for _ in range(rank)) for _ in itertools.count())
            positive = (beta for beta in betas if sum(map(operator.mul, beta, witness)) > 0)
            for beta in [*itertools.islice(positive, 6), next(betas)]:
                classes.append((path, ",".join(map(str, beta))))
    for lattice, beta in classes:
        for fmt in FORMATS:
            yield ("decompose", "--lattice", lattice, "--beta=" + beta, "--format", fmt)


BIELLIPTIC = ("bounds", "--surface", "bielliptic")


def bounds_calls():
    """Calls of bounds: each mode over a grid of its flags, then each
    rejection of the subcommand."""
    calls = []
    for beta_sq in range(2, 22, 2):
        for d in range(1, 7):
            for generic in ((), ("--generic",)):
                calls.append(("bounds", "--surface", "enriques", "--beta-sq", str(beta_sq),
                              "--d", str(d), *generic))
        for i in range(5):
            for j in range(5):
                calls.append(("bounds", "--surface", "enriques", "--beta-sq", str(beta_sq),
                              "--i", str(i), "--j", str(j)))
    for a, b in itertools.product((1, 2, 3), repeat=2):
        for lam, mu in itertools.product(("1", "1/2", "3/2"), ("1", "2/3")):
            for gamma in ("1", "2"):
                for d in ("1", "2", "3"):
                    calls.append((*BIELLIPTIC, "--a", str(a), "--b", str(b), "--lambda", lam,
                                  "--mu", mu, "--gamma", gamma, "--d", d))
    enriques = ("bounds", "--surface", "enriques", "--beta-sq", "10")
    full = (*BIELLIPTIC, "--a", "1", "--b", "1", "--lambda", "1", "--mu", "1", "--gamma", "2")
    calls += [
        enriques, (*enriques, "--d", "2", "--i", "1", "--j", "1"), (*enriques, "--i", "2"),
        (*enriques, "--j", "2"), ("bounds", "--surface", "enriques", "--d", "2"),
        *((*enriques, "--d", "2", flag, "1") for flag in ("--a", "--b", "--lambda", "--mu",
                                                           "--gamma")),
        (*enriques, "--i", "1", "--j", "1", "--generic"), (*full[:-2], "--d", "2"),
        (*full, "--i", "1", "--j", "1"), (*full, "--d", "2", "--beta-sq", "10"),
        (*full, "--d", "2", "--generic"), (*enriques, "--d", "0"), (*enriques, "--d", "-3"),
        ("bounds", "--surface", "enriques", "--beta-sq", "9", "--d", "1"),
        ("bounds", "--surface", "enriques", "--beta-sq", "0", "--d", "1"),
        (*enriques, "--i", "-1", "--j", "0"),
        ("bounds", "--surface", "enriques", "--beta-sq", "500000000002", "--d", "1"),
        *((*BIELLIPTIC, "--a", "1", "--b", "1", "--lambda", lam, "--mu", mu, "--gamma", gamma,
           "--d", d) for lam, mu, gamma, d in (
               ("0", "1", "2", "1"), ("1", "-1", "2", "1"), ("1/0", "1", "2", "1"),
               ("0.5", "1", "2", "1"), ("1e3", "1", "2", "1"), ("1", "1", "0", "1"),
               ("1", "1", "2", "0"), ("1000000000039/3", "3", "1", "1"))),
        (*BIELLIPTIC, "--a", "0", "--b", "1", "--lambda", "1", "--mu", "1", "--gamma", "2",
         "--d", "1"),
    ]
    for call in calls:
        for fmt in FORMATS:
            yield (*call, "--format", fmt)


#: A call of each subcommand that runs, as (flag, value) pairs (None for a
#: switch); the usage grid varies one flag of it at a time.
RUNS = {
    "stable-betti": [("--b1", "0"), ("--b2", "1"), ("--max-k", "2")],
    "perverse": [("--b1", "0"), ("--b2", "1"), ("--max-order", "2"), ("--oracle", None)],
    "identity": [("--b1", "0"), ("--b2", "1"), ("--order", "2")],
    "germ": [("--poly", "x*y")],
    "bounds": [("--surface", "enriques"), ("--beta-sq", "10"), ("--d", "2")],
    "decompose": [("--lattice", "bielliptic-rank2"), ("--beta", "2,2")],
}


def usage_calls():
    """Calls of the parser's help and of each of its usage errors, the
    flags and their caps and choices read from ``stabctab.cli.COMMANDS``."""
    def call(name, pairs):
        return (name, *(token for pair in pairs for token in pair if token is not None))

    yield from (("-h",), ("--help",), (), ("frob",), ("-h", "frob"), ("--b1", "0"))
    for name, pairs in RUNS.items():
        base = call(name, pairs)
        yield base
        for help_flag in ("-h", "--help"):
            yield from ((name, help_flag), (*base, help_flag), (name, "--frob", help_flag),
                        (name, "stray", help_flag))
        for left_out, _ in pairs:
            if COMMANDS[name][2][left_out].get("required"):
                yield call(name, [pair for pair in pairs if pair[0] != left_out])
        yield from ((*base, "--frob", "1"), (*base, "stray"), (*base, "--format=xml"))
        for flag, spec in COMMANDS[name][2].items():
            if spec.get("switch"):
                yield (*base, f"{flag}=x")
                continue
            yield (*base, flag)
            if spec.get("type") is int:
                for value in ("ten", "1_0", str(spec["cap"] + 1)):
                    yield (*base, flag, value)
            if "choices" in spec:
                yield (*base, flag, "none")
    # appended, so that the calls above keep their digest: an empty value
    # is a value, never a flag left out
    for name, pairs in RUNS.items():
        for flag, spec in COMMANDS[name][2].items():
            if not {"type", "switch", "choices"} & spec.keys():
                yield (*call(name, pairs), flag, "")


#: Mutants of each shipped file, as many as make the grid take about 30 s.
MUTANTS_PER_FILE = 20000

#: For each shipped file: the seed of its mutants and the call that reads
#: one (FILE stands for its path).
MUTANTS = {
    "lattices/bielliptic-rank2.lat": (30, ("decompose", "--lattice", "FILE", "--beta", "1,1")),
    "lattices/enriques-u-e8.lat":
        (31, ("decompose", "--lattice", "FILE", "--beta", "1,2,0,1,-1,0,0,0,0,0")),
    "branches/tacnode.br": (32, ("germ", "--poly", "y^2 - x^4", "--branches", "FILE")),
}


def mutants_calls():
    """Calls on seeded mutants of the shipped lattice and branch files; the
    caller's working directory receives the mutants."""
    for name, (seed, argv) in MUTANTS.items():
        rng = random.Random(seed)
        shipped = resources.files("stabctab").joinpath(f"data/{name}").read_bytes()
        path = "mutant" + os.path.splitext(name)[1]
        for _ in range(MUTANTS_PER_FILE):
            with open(path, "wb") as fh:
                fh.write(edit_lines(shipped, rng.randint, rng.choice))
            yield tuple(path if token == "FILE" else token for token in argv)


def parse_texts():
    """Strings of length 0..24 over ``draws.GRAMMAR``, from ``random.Random(11)``."""
    rng = random.Random(11)
    for _ in range(200_000):
        yield "".join(rng.choice(GRAMMAR) for _ in range(rng.randint(0, 24)))


def read_polynomial(text):
    """parse_polynomial(text, ("x", "y"))'s sorted terms, or its error's class
    and message."""
    try:
        terms = parse_polynomial(text, ("x", "y"))
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return [sorted((key, str(c)) for key, c in terms.items())]


GRIDS = {"tables": tables_calls, "germ": germ_calls, "random-germ": random_germ_calls,
         "decompose": decompose_calls, "bounds": bounds_calls, "usage": usage_calls,
         "mutants": mutants_calls, "parse": parse_texts}

#: How a grid's items are read when they are not command lines.
READERS = {"parse": read_polynomial}


def cli(argv):
    if not argv or any(name not in GRIDS for name in argv):
        sys.stderr.write(f"usage: sweep.py GRID [GRID ...], GRID in {', '.join(GRIDS)}\n")
        return 2
    home = os.getcwd()
    faults = []
    for name in argv:
        with tempfile.TemporaryDirectory() as scratch:
            os.chdir(scratch)
            try:
                count, digest, fault = sweep(GRIDS[name](), READERS.get(name, run))
            finally:
                os.chdir(home)
        print(f"{name}\t{count}\t{digest}", flush=True)
        if fault:
            faults.append(fault)
    if faults:
        call, stderr = faults[0]
        sys.stderr.write(f"sweep.py: {shlex.join(call)} exited 3: {stderr.strip()}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(cli(sys.argv[1:]))
