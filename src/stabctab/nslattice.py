r"""Numerical lattice computations for divisor classes on surfaces.

:func:`decompose` enumerates all candidate splittings beta = theta1 +
theta2 of an integral divisor class into classes that pass the
necessary positivity tests of the model (positive pairing against the
distinguished ample class and against every declared ample test class).
The enumeration region is derived exactly from those inequalities in the
orthogonal coordinates of the model, so the returned list is provably
complete.  All of it runs in integers: the model scales its orthogonal
basis by the lcm L of its denominators and keeps the integer rows
L*D_k.gram, from which it checks itself and reads the test forms.  The
bounding box (at most ENUMERATION_CAP points) is scanned over its first
rank - 1 coordinates only; the last coordinate is solved from the forms'
inequalities as one integer interval per prefix.  ``ip`` and
``test_classes`` stay in Fraction arithmetic, as an independent route
for checks.  No floating point.

The ``decompose`` subcommand's handler, :func:`cmd_decompose`, lives
here.  The codimension bounds, the threshold d0, the linear-system
helpers and the ``bounds`` handler live in :mod:`stabctab.codim`, so
that ``decompose`` does not load them; the public names of the first
three stay importable from here (module ``__getattr__``).
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from ._record import HashableRecord, content_lines, parse_int, parse_rational, read_data, read_text
from .errors import BadInput

Vector = tuple[Fraction, ...]

#: Integer coordinate vector of a divisor class in the gram basis.
DivisorClass = tuple[int, ...]

#: Safety cap on the number of integer points in the box decompose() scans.
ENUMERATION_CAP = 5_000_000

#: Cap on the rank of a lattice model.  Its checks take O(rank^3) integer
#: operations (the rows L*D_k.gram and the pairwise orthogonality): below
#: the file-size cap, a dense gram of rank 250 with three-digit entries
#: took 29 s to be rejected and a diagonal one of rank 400 7.4 s (2-vCPU
#: Xeon, CPython 3.11).  The presets have rank 2 and 10; a larger rank is
#: BadInput, in a file as soon as its ``rank`` line is read.
MAX_RANK = 32


def _check_rank(rank: int) -> None:
    if rank > MAX_RANK:
        raise BadInput(f"lattice rank {rank} is above the cap of {MAX_RANK}")


def _dot(gram, u, v) -> Fraction:
    return sum(
        Fraction(u[i]) * gram[i][j] * Fraction(v[j])
        for i in range(len(u))
        for j in range(len(v))
    )


def _times_gram(gram, v) -> tuple[int, ...]:
    """The integer row v.gram of an integer vector v."""
    return tuple(sum(map(operator.mul, v, column)) for column in zip(*gram))


class LatticeModel(HashableRecord):
    """Intersection lattice with a distinguished ample class and test data.

    gram is the intersection form on an integral basis; ample_witness an
    integer vector H with H.H > 0; ortho_basis rational vectors D_1,
    ..., D_rho with D_1 ample and D_i.D_j = 0 for i != j; ample_tests
    the integers n_l (one per l >= 2) for which both n_l D_1 + D_l and
    n_l D_1 - D_l are declared ample.  Signature (1, rho-1) on the
    orthogonal basis is checked at load; a model that fails a check
    raises BadInput.  A degenerate gram always fails one: rho pairwise
    orthogonal vectors with nonzero squares form a basis B with B.gram.B^T
    diagonal and nonsingular, so det(gram) != 0.

    The model checks itself in integers: with L the least common
    multiple of all denominators of the basis, E_k = L*D_k is integral,
    and so is the row R_k = E_k.gram, computed once here.  Then
    L^2 D_i.D_j = R_i.E_j, and every square, orthogonality and
    test-class square is decided by its sign.  L, the rows R and the
    bounding-box weights of :func:`decompose` are kept with the model
    but are not fields: == and repr see the five fields only.
    """

    def __init__(self, rank: int, gram: tuple[tuple[int, ...], ...],
                 ample_witness: tuple[int, ...], ortho_basis: tuple[Vector, ...],
                 ample_tests: tuple[int, ...]):
        rho = rank
        if rho < 1:
            raise BadInput("rank must be at least 1")
        _check_rank(rho)
        if len(gram) != rho or any(len(r) != rho for r in gram):
            raise BadInput("gram matrix has wrong shape")
        for i in range(rho):
            for j in range(rho):
                if gram[i][j] != gram[j][i]:
                    raise BadInput("gram matrix is not symmetric")
        if len(ample_witness) != rho:
            raise BadInput("ample witness has wrong length")
        if len(ortho_basis) != rho or any(len(v) != rho for v in ortho_basis):
            raise BadInput("orthogonal basis has wrong shape")
        if len(ample_tests) != max(rho - 1, 0):
            raise BadInput("expected one ample test integer per basis vector past the first")
        scale = math.lcm(*(x.denominator for v in ortho_basis for x in v))
        scaled = [tuple(x.numerator * (scale // x.denominator) for x in v) for v in ortho_basis]
        rows = [_times_gram(gram, e) for e in scaled]
        # squares[k] = L^2 D_k^2: the signs are those of the squares
        squares = [sum(map(operator.mul, r, e)) for r, e in zip(rows, scaled)]
        positives = sum(1 for s in squares if s > 0)
        if squares[0] <= 0 or positives != 1 or any(s >= 0 for s in squares[1:]):
            raise BadInput("orthogonal basis must have exactly one positive square, first")
        for i in range(rho):
            for j in range(i + 1, rho):
                if sum(map(operator.mul, rows[i], scaled[j])) != 0:
                    raise BadInput(f"basis vectors {i + 1} and {j + 1} are not orthogonal")
        witness_row = _times_gram(gram, ample_witness)
        if sum(map(operator.mul, witness_row, ample_witness)) <= 0:
            raise BadInput("ample witness must have positive self-intersection")
        for ell, n in enumerate(ample_tests, start=2):
            if n < 1:
                raise BadInput("ample test integers must be positive")
            a_sq = n * n * squares[0] + squares[ell - 1]
            if a_sq <= 0:
                try:
                    square = str(Fraction(a_sq, scale * scale))
                except ValueError:  # more digits than Python turns into a string
                    square = "too long to print"
                raise BadInput(f"test class {n}*D1 +/- D{ell} has nonpositive square {square}")
        super().__init__(rank=rank, gram=gram, ample_witness=ample_witness,
                         ortho_basis=ortho_basis, ample_tests=ample_tests,
                         _scale=scale, _rows=rows, _witness_row=witness_row,
                         _box=_box_weights(scaled, squares, ample_tests))

    def ip(self, u, v) -> Fraction:
        """Intersection pairing of two coordinate vectors."""
        return _dot(self.gram, u, v)

    def test_classes(self) -> list[Vector]:
        """D1 plus both n_l D_1 +/- D_l for every l; all declared ample."""
        d = self.ortho_basis
        out = [tuple(map(Fraction, d[0]))]
        for ell, n in enumerate(self.ample_tests, start=2):
            plus = tuple(n * x + y for x, y in zip(d[0], d[ell - 1]))
            minus = tuple(n * x - y for x, y in zip(d[0], d[ell - 1]))
            out.extend([plus, minus])
        return out

    def test_forms(self) -> list[tuple[int, ...]]:
        """The integer form f_T of each test class T, in the order of
        :meth:`test_classes`: the least positive integer multiple of T.gram.

        With r_T = L*(T.gram), read off the integer rows R (R_1 for D_1,
        n_l R_1 +/- R_l for n_l D_1 +/- D_l), f_T = r_T / gcd(L, r_T).
        """
        first, *rest = self._rows
        rows = [first]
        for n, row in zip(self.ample_tests, rest):
            rows.append(tuple(n * x + y for x, y in zip(first, row)))
            rows.append(tuple(n * x - y for x, y in zip(first, row)))
        forms = []
        for row in rows:
            g = math.gcd(self._scale, *row)
            forms.append(tuple(x // g for x in row))
        return forms


def _box_weights(scaled, squares, ample_tests):
    """(Q, lows, highs) with the gram-coordinate box of decompose() for a
    class beta equal to [ceil(p*lows[i]/Q), floor(p*highs[i]/Q)], where
    p = R_1.beta > 0.

    In orthogonal coordinates theta1 lies in 0 < x_1 < a_1 and |x_l| <
    m_l = n_l a_1 D_1^2 / (-D_l^2), with a_1 = beta.D_1 / D_1^2 = p*L/s_1
    for s_k = L^2 D_k^2.  Pushed through the basis, gram coordinate i
    spans p*(min(0, E_1[i])/s_1 - sum_l n_l |E_l[i]| / (-s_l)) up to the
    same with max and +; Q clears the denominators s_1 and -s_l.
    """
    first, *rest = scaled
    q = math.lcm(squares[0], *(-s for s in squares[1:]))
    per_l = [(n * q // -s, e) for n, s, e in zip(ample_tests, squares[1:], rest)]
    lows, highs = [], []
    for i, x in enumerate(first):
        spread = sum(w * abs(e[i]) for w, e in per_l)
        lows.append(min(0, x) * (q // squares[0]) - spread)
        highs.append(max(0, x) * (q // squares[0]) + spread)
    return q, lows, highs


def decompose(model: LatticeModel, beta) -> list[tuple[DivisorClass, DivisorClass]]:
    """All integer pairs (theta1, theta2) with theta1 + theta2 = beta passing
    every positivity test on both sides, in lexicographic order of theta1.

    Positivity means strictly positive pairing with D_1 and with every
    declared ample test class T.  Each T is read as the integer linear
    form f_T of :meth:`LatticeModel.test_forms`, the least positive
    multiple of T.gram, and theta1 is accepted exactly when 0 < f_T(theta1)
    < f_T(beta) for every T.  The enumeration box comes from the same
    inequalities expressed in orthogonal coordinates: 0 < x_1 < a_1 and
    |x_l| < n_l x_1 D_1^2 / (-D_l^2) <= n_l a_1 D_1^2 / (-D_l^2); it is
    refused when it holds more than ENUMERATION_CAP points.  The first
    rank - 1 gram coordinates run through the box; for each such prefix,
    every form's inequality bounds the last coordinate to an integer
    interval, and the intersection of these intervals with the box is
    emitted whole.

    Raises BadInput when beta is not of the model's rank or pairs non-
    positively with the ample witness, or when the box is refused.
    """
    if len(beta) != model.rank:
        raise BadInput(f"beta has {len(beta)} coordinates, lattice has rank {model.rank}")
    beta = tuple(int(c) for c in beta)
    if sum(map(operator.mul, model._witness_row, beta)) <= 0:
        raise BadInput("class pairs non-positively with the ample witness")
    forms = model.test_forms()
    f_beta = [sum(map(operator.mul, f, beta)) for f in forms]
    # f_T(theta1) must be an integer strictly between 0 and f_T(beta)
    if min(f_beta) < 2:
        return []
    # p > 0 is a multiple of f_D1(beta), and low <= 0 <= high: no range is empty
    p = sum(map(operator.mul, model._rows[0], beta))
    q, lows, highs = model._box
    ranges = []
    total = 1
    for low, high in zip(lows, highs):
        lo_i = -(-p * low // q)
        hi_i = p * high // q
        total *= hi_i - lo_i + 1
        if total > ENUMERATION_CAP:
            raise BadInput("decomposition enumeration region is too large")
        ranges.append(range(lo_i, hi_i + 1))

    *heads, last = ranges
    tests = [(f, fb, f[-1]) for f, fb in zip(forms, f_beta)]
    beta_last = beta[-1]
    out = []
    for head in itertools.product(*heads):
        lo, hi = last.start, last.stop - 1
        for f, fb, c in tests:
            s = sum(map(operator.mul, f, head))
            # 0 < s + c*x < fb for the last coordinate x
            if c > 0:
                lo = max(lo, -s // c + 1)
                hi = min(hi, (fb - s - 1) // c)
            elif c < 0:
                lo = max(lo, (s - fb) // -c + 1)
                hi = min(hi, (s - 1) // -c)
            elif not 0 < s < fb:
                break
            if lo > hi:
                break
        else:
            rest = tuple(b - t for b, t in zip(beta, head))
            out.extend((head + (x,), rest + (beta_last - x,)) for x in range(lo, hi + 1))
    return out


# --- lattice files ------------------------------------------------------------

PRESET_LATTICES = ("bielliptic-rank2", "enriques-u-e8")

#: The keywords of a lattice file, the names of the LatticeModel arguments.
_KEYWORDS = ("rank", "gram", "ample_witness", "ortho_basis", "ample_tests")


def parse_lattice(text: str) -> LatticeModel:
    """Parse the lattice file format.

    Line-oriented plain text; '#' starts a comment that runs to the end of
    the line, and whitespace (``str.split``'s, a tab as a space) separates
    the words of a line, a keyword's among them.  Keywords:

    * ``rank N``, with N at most MAX_RANK
    * ``gram`` alone on its line, followed by N lines of N integers
    * ``ample_witness`` plus N integers on the same line
    * ``ortho_basis`` alone on its line, followed by N lines of N rationals
      (``p/q`` or integers)
    * ``ample_tests`` plus N-1 integers on the same line

    Each keyword is the name of the :class:`LatticeModel` argument it
    gives.  Malformed text, a block cut short by a keyword line, a
    repeated keyword, and a model that fails its checks raise BadInput.
    """
    lines = iter(content_lines(text))
    fields = {}
    for line in lines:
        word = line.split(maxsplit=1)[0]
        rest = line[len(word) + 1:]
        if word in fields:
            raise BadInput(f"lattice file keyword {word!r} is repeated")
        if word == "rank":
            fields[word] = parse_int(rest)
            _check_rank(fields[word])
        elif word in ("gram", "ortho_basis"):
            if rest:
                raise BadInput(f"lattice file keyword {word!r} takes its rows on the "
                               f"lines below it")
            if "rank" not in fields:
                raise BadInput(f"rank must come before {word}")
            parse = parse_int if word == "gram" else parse_rational
            rows = []
            for _ in range(fields["rank"]):
                row = next(lines, None)
                if row is None:
                    raise BadInput("unexpected end of lattice file")
                first = row.split(maxsplit=1)[0]
                if first in _KEYWORDS:
                    raise BadInput(f"{word} has {len(rows)} of {fields['rank']} rows "
                                   f"before {first!r}")
                rows.append(tuple(map(parse, row.split())))
            fields[word] = tuple(rows)
        elif word in ("ample_witness", "ample_tests"):
            fields[word] = tuple(map(parse_int, rest.split()))
        else:
            raise BadInput(f"unknown lattice file keyword {word!r}")
    if len(fields) < len(_KEYWORDS):
        raise BadInput("lattice file is missing a required field")
    return LatticeModel(**fields)


def load_lattice(source: str) -> LatticeModel:
    """Load a lattice from a preset name (read by :func:`stabctab._record.read_data`:
    one that does not parse is a ValueError, a fault of the package) or a
    file path (read by :func:`stabctab._record.read_text`: BadInput)."""
    if source in PRESET_LATTICES:
        return read_data(f"lattices/{source}.lat", parse_lattice)
    return parse_lattice(read_text(source))


# --- the decompose subcommand -------------------------------------------------


def cmd_decompose(args) -> tuple:
    model = load_lattice(args.lattice)
    beta = tuple(map(parse_int, args.beta.split(",")))
    pairs = decompose(model, beta)
    rows = itertools.chain([("theta1", "theta2")], pairs)
    record = {
        "parameters": {"lattice": args.lattice, "beta": args.beta},
        "results": {"count": len(pairs), "pairs": pairs},
        "provenance": "candidate splittings passing every declared "
                      "ample-positivity test, enumerated from exact bounds "
                      "in orthogonal coordinates",
    }
    return 0, record, rows


def __getattr__(name: str):
    """The public names of :mod:`stabctab.codim`, which callers, the
    acceptance suite among them, import from here."""
    from . import codim

    if name in codim.__all__:
        return getattr(codim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
