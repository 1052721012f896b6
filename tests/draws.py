"""Seeded draws of the tests and of ``bench/sweep.py``, the suite's one
source of random inputs: random lattices, edited input files, text over
an alphabet (the polynomial grammar's among them), and the two families
of m-fold points.  Each draw takes a ``random.Random`` that its caller
seeds, so a test or a grid draws the same inputs on every run and every
install; where a test and a grid draw the same kind of input, both call
the same function here, and so they write a lattice file, with
``lattice_text``, and they start from the same call of each subcommand,
``RUNS``.  The command line's two runners live here too: ``run``,
in-process, which both use, and ``run_fresh``, in a fresh interpreter
whose environment, ``fresh_env``, puts the imported package on its path;
each first writes the files a call reads to the working directory.
Stdlib and stabctab only, like the sweep."""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import stabctab
from stabctab.cli import main


def write_files(files):
    """Write each {name: text or bytes} of files to the working directory."""
    for name, data in files.items():
        Path(name).write_bytes(data if isinstance(data, bytes) else data.encode())


def run(argv, files={}):
    """(exit code, stdout, stderr) of ``stabctab.cli.main(argv)``, run in-process,
    with files, {name: text or bytes}, written to the working directory first."""
    write_files(files)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def fresh_env() -> dict:
    """os.environ with PYTHONPATH at the imported stabctab, for a fresh interpreter."""
    return dict(os.environ, PYTHONPATH=str(Path(stabctab.__file__).resolve().parent.parent))


def run_fresh(*argv, timeout, text=True, preexec_fn=None, options=("-m", "stabctab"),
              files={}):
    """The completed process of ``python *options *argv``, ``python -m stabctab *argv`` by
    default, in a fresh interpreter with ``fresh_env``, killed after timeout seconds;
    files are written to the working directory first, as ``run`` writes them,
    preexec_fn runs in the child first, and the output is bytes if text is false."""
    write_files(files)
    return subprocess.run([sys.executable, *options, *argv], capture_output=True, text=text,
                          env=fresh_env(), timeout=timeout, preexec_fn=preexec_fn)


#: A call of each subcommand that runs, as (flag, value) pairs, the value
#: None for a switch: the handler contract and the argv property start
#: from it, and ``bench/sweep.py``'s usage grid varies one flag at a time.
RUNS = {
    "stable-betti": [("--b1", "0"), ("--b2", "1"), ("--max-k", "2")],
    "perverse": [("--b1", "0"), ("--b2", "1"), ("--max-order", "2"), ("--oracle", None)],
    "identity": [("--b1", "0"), ("--b2", "1"), ("--order", "2")],
    "germ": [("--poly", "x*y")],
    "bounds": [("--surface", "enriques"), ("--beta-sq", "10"), ("--d", "2")],
    "decompose": [("--lattice", "bielliptic-rank2"), ("--beta", "2,2")],
}


def command(name, pairs=None) -> list:
    """The argv of subcommand name with (flag, value) pairs, ``RUNS[name]`` by default."""
    pairs = RUNS[name] if pairs is None else pairs
    return [name, *(token for pair in pairs for token in pair if token is not None)]


def lattice_text(gram, witness, basis, tests) -> str:
    """The text of a lattice file with these fields, each number as its str."""
    return "\n".join([f"rank {len(gram)}", "gram", *(" ".join(map(str, row)) for row in gram),
                      "ample_witness " + " ".join(map(str, witness)), "ortho_basis",
                      *(" ".join(map(str, v)) for v in basis),
                      "ample_tests " + " ".join(map(str, tests))]) + "\n"


def gram_schmidt_lattice(rng, rank):
    """(gram, D1, ortho basis, test integers) of a drawn lattice, or None: a
    symmetric gram of entries in -4..4, D1 its first small vector of
    positive square, D2, ... from Gram-Schmidt on the unit vectors, each
    test integer the least that makes its test class ample."""
    gram = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i, rank):
            gram[i][j] = gram[j][i] = rng.randint(-4, 4)

    def ip(u, v):
        return sum(u[i] * gram[i][j] * v[j] for i in range(rank) for j in range(rank))

    small = sorted(itertools.product(range(-2, 3), repeat=rank),
                   key=lambda v: (sum(map(abs, v)), v))
    d1 = next((v for v in small if ip(v, v) > 0), None)
    if d1 is None:
        return None
    basis = [tuple(map(Fraction, d1))]
    for k in range(rank):
        v = tuple(Fraction(int(i == k)) for i in range(rank))
        for w in basis:
            scale = ip(v, w) / ip(w, w)
            v = tuple(x - scale * y for x, y in zip(v, w))
        if any(v) and len(basis) < rank:
            if ip(v, v) >= 0:
                return None
            basis.append(v)
    if len(basis) != rank:
        return None
    tests = [next(n for n in itertools.count(1) if n * n * ip(d1, d1) + ip(v, v) > 0)
             for v in basis[1:]]
    return tuple(map(tuple, gram)), d1, tuple(basis), tuple(tests)


#: The characters of fuzzed polynomial text: the grammar's own, the
#: variables z and t, a Unicode minus, a space and a tab.
GRAMMAR = "xyzt0123456789/^*+- −\t"


def text(rng, alphabet, max_size: int) -> str:
    """A string over alphabet of length 0..max_size: the length is drawn
    first, then each character."""
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_size)))


def grammar_text(rng) -> str:
    """A string of length 0..24 over ``GRAMMAR``."""
    return text(rng, GRAMMAR, 24)


#: Bytes an edit inserts or puts in place of one: the grammars' own
#: characters, spaces and line breaks, and a few that are not ASCII (0xc3
#: and 0xa9 spell 'é' only together, 0xff is never UTF-8).
BYTES = b"0123456789 -+/*^;:#\n\r\ttxy,=rankgmps_\xc3\xa9\xff\x00"


def edit_lines(data: bytes, rng) -> bytes:
    """data with one to three edits of a line: insert, delete or replace a
    byte of ``BYTES`` in it, drop or duplicate it.  A line, not a byte, is
    drawn first, so that the short data lines are hit as often as
    comments."""
    for _ in range(rng.randint(1, 3)):
        lines = data.splitlines(keepends=True) or [b""]
        k = rng.randint(0, len(lines) - 1)
        line = lines[k]
        kind = rng.choice(("insert", "delete", "replace", "drop", "duplicate"))
        if kind in ("drop", "duplicate"):
            lines[k:k + 1] = [] if kind == "drop" else [line] * 2
        else:
            i = rng.randint(0, len(line))
            byte = bytes([rng.choice(BYTES)])
            if kind == "insert":
                lines[k] = line[:i] + byte + line[i:]
            elif i < len(line):
                lines[k] = line[:i] + (b"" if kind == "delete" else byte) + line[i + 1:]
        data = b"".join(lines)
    return data


def product(factors):
    """The product of polynomials in x, y, each {(a, b): integer coefficient}."""
    out = {(0, 0): 1}
    for factor in factors:
        acc = {}
        for (a1, b1), c1 in out.items():
            for (a2, b2), c2 in factor.items():
                acc[(a1 + a2, b1 + b2)] = acc.get((a1 + a2, b1 + b2), 0) + c1 * c2
        out = acc
    return out


def ordinary_point(m, c=1):
    """The ordinary m-fold point, the product of the lines y = i*c*x for
    i = 1..m, as {(a, b): integer coefficient of x^a*y^b}, with its lines
    ``t ; i*c*t`` as branches."""
    return (product({(0, 1): 1, (1, 0): -i * c} for i in range(1, m + 1)),
            [("t", f"{i * c}*t") for i in range(1, m + 1)])


def curved_point(m):
    """The curved m-fold point, the product of y - i*x - x^2 - i*x^3 for
    i = 1..m, as ``ordinary_point`` gives it, with its m exact branches
    ``t ; i*t + t^2 + i*t^3``."""
    return (product({(0, 1): 1, (1, 0): -i, (2, 0): -1, (3, 0): -i} for i in range(1, m + 1)),
            [("t", f"{i}*t + t^2 + {i}*t^3") for i in range(1, m + 1)])
