"""Seeded draws of the tests and of ``bench/sweep.py``: random lattices,
edited input files and the polynomial grammar's alphabet.  Stdlib only,
like the sweep; each caller keeps its own seed and draw order."""

from __future__ import annotations

import itertools
from fractions import Fraction


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

#: Bytes an edit inserts or puts in place of one: the grammars' own
#: characters, spaces and line breaks, and a few that are not ASCII (0xc3
#: and 0xa9 spell 'é' only together, 0xff is never UTF-8).
BYTES = b"0123456789 -+/*^;:#\n\r\ttxy,=rankgmps_\xc3\xa9\xff\x00"


def edit_lines(text: bytes, integer, choice) -> bytes:
    """text with one to three edits of a line: insert, delete or replace a
    byte of ``BYTES`` in it, drop or duplicate it.  The draws are
    integer(lo, hi) and choice(seq), as ``random.Random``'s randint and
    choice.  A line, not a byte, is drawn first, so that the short data
    lines are hit as often as comments."""
    for _ in range(integer(1, 3)):
        lines = text.splitlines(keepends=True) or [b""]
        k = integer(0, len(lines) - 1)
        line = lines[k]
        kind = choice(("insert", "delete", "replace", "drop", "duplicate"))
        if kind in ("drop", "duplicate"):
            lines[k:k + 1] = [] if kind == "drop" else [line] * 2
        else:
            i = integer(0, len(line))
            byte = bytes([choice(BYTES)])
            if kind == "insert":
                lines[k] = line[:i] + byte + line[i:]
            elif i < len(line):
                lines[k] = line[:i] + (b"" if kind == "delete" else byte) + line[i + 1:]
        text = b"".join(lines)
    return text
