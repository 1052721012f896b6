r"""Numerical lattice computations for divisor classes on surfaces.

Three groups of operations:

* :func:`decompose` enumerates all candidate splittings beta = theta1 +
  theta2 of an integral divisor class into classes that pass the
  necessary positivity tests of the model (positive pairing against the
  distinguished ample class and against every declared ample test
  class).  The enumeration region is derived exactly from those
  inequalities in the orthogonal coordinates of the model, so the
  returned list is provably complete.

* codimension lower bounds for the locus of non-integral curves in the
  linear system of d*beta on Enriques and bielliptic surfaces, as the
  minimum of explicit per-case bounds, together with the stabilization
  threshold d0(beta^2, i, j) on Enriques surfaces and the translation
  N = 2*ceil(codim) - 2.

* small exact helpers: linear-system dimensions on an Enriques surface,
  chi of a bielliptic divisor class, arithmetic genus when the
  canonical class is numerically trivial.

Square roots are kept exact (:mod:`stabctab.surd`); no floating point.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .errors import (
    BasisDenominatorError,
    HodgeIndexViolation,
    InvalidSelfIntersection,
    NotEffectiveCandidate,
)
from .surd import parse_rational, sqrt_rational

Vector = tuple[Fraction, ...]

#: Integer coordinate vector of a divisor class in the gram basis.
DivisorClass = tuple[int, ...]

#: Safety cap on the number of integer points decompose() will scan.
ENUMERATION_CAP = 5_000_000


def _dot(gram, u, v) -> Fraction:
    return sum(
        Fraction(u[i]) * gram[i][j] * Fraction(v[j])
        for i in range(len(u))
        for j in range(len(v))
    )


def _det(mat) -> Fraction:
    mat = [list(map(Fraction, row)) for row in mat]
    n = len(mat)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if mat[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det *= mat[col][col]
        inv = Fraction(1) / mat[col][col]
        for r in range(col + 1, n):
            f = mat[r][col] * inv
            if f:
                for c in range(col, n):
                    mat[r][c] -= f * mat[col][c]
    return det


@dataclass(frozen=True)
class LatticeModel:
    """Intersection lattice with a distinguished ample class and test data.

    gram is the intersection form on an integral basis; ample_witness an
    integer vector H with H.H > 0; ortho_basis rational vectors D_1,
    ..., D_rho with D_1 ample and D_i.D_j = 0 for i != j; ample_tests
    the integers n_l (one per l >= 2) for which both n_l D_1 + D_l and
    n_l D_1 - D_l are declared ample.  Signature (1, rho-1) on the
    orthogonal basis is checked at load.
    """

    rank: int
    gram: tuple[tuple[int, ...], ...]
    ample_witness: tuple[int, ...]
    ortho_basis: tuple[Vector, ...]
    ample_tests: tuple[int, ...]

    def __post_init__(self):
        rho = self.rank
        if rho < 1:
            raise ValueError("rank must be at least 1")
        if len(self.gram) != rho or any(len(r) != rho for r in self.gram):
            raise ValueError("gram matrix has wrong shape")
        for i in range(rho):
            for j in range(rho):
                if self.gram[i][j] != self.gram[j][i]:
                    raise ValueError("gram matrix is not symmetric")
        if len(self.ample_witness) != rho:
            raise ValueError("ample witness has wrong length")
        if len(self.ortho_basis) != rho or any(len(v) != rho for v in self.ortho_basis):
            raise ValueError("orthogonal basis has wrong shape")
        if len(self.ample_tests) != max(rho - 1, 0):
            raise ValueError("expected one ample test integer per basis vector past the first")
        if _det(self.gram) == 0:
            raise BasisDenominatorError(
                "gram matrix is degenerate; no rational basis can diagonalize it"
            )
        d = self.ortho_basis
        squares = [_dot(self.gram, v, v) for v in d]
        positives = sum(1 for s in squares if s > 0)
        if squares[0] <= 0 or positives != 1 or any(s >= 0 for s in squares[1:]):
            raise HodgeIndexViolation(
                "orthogonal basis must have exactly one positive square, first"
            )
        for i in range(rho):
            for j in range(i + 1, rho):
                if _dot(self.gram, d[i], d[j]) != 0:
                    raise ValueError(f"basis vectors {i + 1} and {j + 1} are not orthogonal")
        if _dot(self.gram, self.ample_witness, self.ample_witness) <= 0:
            raise ValueError("ample witness must have positive self-intersection")
        for ell, n in enumerate(self.ample_tests, start=2):
            if n < 1:
                raise ValueError("ample test integers must be positive")
            a_sq = n * n * squares[0] + squares[ell - 1]
            if a_sq <= 0:
                raise ValueError(
                    f"test class {n}*D1 +/- D{ell} has nonpositive square {a_sq}"
                )

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


def decompose(model: LatticeModel, beta) -> list[tuple[DivisorClass, DivisorClass]]:
    """All integer pairs (theta1, theta2) with theta1 + theta2 = beta passing
    every positivity test on both sides, in lexicographic order of theta1.

    Positivity means strictly positive pairing with D_1 and with every
    declared ample test class T.  Each T is read as the integer linear
    form f_T = c_T (T . gram), c_T > 0 the least integer that clears its
    denominators, and theta1 is accepted exactly when 0 < f_T(theta1) <
    f_T(beta) for every T.  The enumeration box comes from the same
    inequalities expressed in orthogonal coordinates: 0 < x_1 < a_1 and
    |x_l| < n_l x_1 D_1^2 / (-D_l^2) <= n_l a_1 D_1^2 / (-D_l^2).

    Raises NotEffectiveCandidate when beta pairs non-positively with the
    ample witness.
    """
    beta = tuple(int(c) for c in beta)
    if model.ip(beta, model.ample_witness) <= 0:
        raise NotEffectiveCandidate(
            "class pairs non-positively with the ample witness"
        )
    forms = []
    for t in model.test_classes():
        row = [sum(map(operator.mul, t, gram_row)) for gram_row in model.gram]
        scale = math.lcm(*(x.denominator for x in row))
        forms.append([int(x * scale) for x in row])
    f_beta = [sum(map(operator.mul, f, beta)) for f in forms]
    # f_T(theta1) must be an integer strictly between 0 and f_T(beta)
    if min(f_beta) < 2:
        return []
    d = model.ortho_basis
    d1_sq = model.ip(d[0], d[0])
    a1 = model.ip(beta, d[0]) / d1_sq
    # interval for each orthogonal coordinate of theta1
    intervals: list[tuple[Fraction, Fraction]] = [(Fraction(0), a1)]
    for ell, n in enumerate(model.ample_tests, start=2):
        neg_sq = -model.ip(d[ell - 1], d[ell - 1])
        m = n * a1 * d1_sq / neg_sq
        intervals.append((-m, m))
    # push the orthogonal box through the basis to bound gram coordinates
    lo = [Fraction(0)] * model.rank
    hi = [Fraction(0)] * model.rank
    for (l, h), dvec in zip(intervals, d):
        for i, c in enumerate(dvec):
            cand = sorted((l * c, h * c))
            lo[i] += cand[0]
            hi[i] += cand[1]
    ranges = []
    total = 1
    for i in range(model.rank):
        lo_i = math.ceil(lo[i])
        hi_i = math.floor(hi[i])
        if lo_i > hi_i:
            return []
        total *= hi_i - lo_i + 1
        if total > ENUMERATION_CAP:
            raise ValueError("decomposition enumeration region is too large")
        ranges.append(range(lo_i, hi_i + 1))

    out = []
    for theta1 in itertools.product(*ranges):
        if all(0 < sum(map(operator.mul, f, theta1)) < fb for f, fb in zip(forms, f_beta)):
            out.append((theta1, tuple(b - t for b, t in zip(beta, theta1))))
    return out


# --- Enriques-side formulas ---------------------------------------------------


def enriques_dim_ls(dsq: int, k: int | None = None, with_ks: bool = False) -> int:
    """Dimension of the linear system of a nonzero nef effective divisor
    on an Enriques surface.

    For dsq > 0 (necessarily even) the dimension is dsq/2.  For dsq = 0
    the divisor is k times a primitive isotropic class, possibly shifted
    by the canonical class: pass k and with_ks and get floor(k/2) or
    floor((k-1)/2) respectively.
    """
    if dsq < 0:
        raise InvalidSelfIntersection("a nef divisor has nonnegative self-intersection")
    if dsq > 0:
        if dsq % 2:
            raise InvalidSelfIntersection(
                f"odd self-intersection {dsq} is impossible in an even lattice"
            )
        return dsq // 2
    if k is None or k < 1:
        raise ValueError("the square-zero case needs the multiple k >= 1")
    return (k - 1) // 2 if with_ks else k // 2


def arithmetic_genus(beta_sq: int) -> int:
    """Arithmetic genus beta^2/2 + 1 (numerically trivial canonical class)."""
    if beta_sq % 2:
        raise InvalidSelfIntersection(
            f"odd self-intersection {beta_sq} is impossible in an even lattice"
        )
    return beta_sq // 2 + 1


def _check_enriques_args(beta_sq: int, d: int) -> None:
    if beta_sq < 2 or beta_sq % 2:
        raise InvalidSelfIntersection(
            "beta^2 must be a positive even integer for an ample class"
        )
    if d < 1:
        raise ValueError("d must be a positive integer")


def enriques_codim_terms(beta_sq: int, d: int, generic: bool = False):
    """The per-case lower bounds, labelled, as exact values.

    Cases 1.1-1.3 split both summands by the signs of their squares;
    cases 2.1-2.2 cover a summand supported on rigid components.  On a
    generic Enriques surface there are no rigid curves, so generic=True
    drops cases 2.1-2.2; the stabilization threshold enriques_d0 is
    calibrated against that restricted minimum.
    """
    _check_enriques_args(beta_sq, d)
    half = Fraction(1, 2)
    terms = [
        ("1.1", d * sqrt_rational(2 * beta_sq) - 2),
        ("1.2", d - half),
        ("1.3", Fraction(d * d * beta_sq - 2, 4)),
    ]
    if not generic:
        terms += [("2.1", Fraction(d, 2)), ("2.2", d - half)]
    return terms


def enriques_codim_bound(beta_sq: int, d: int, generic: bool = False):
    """Exact lower bound for the codimension of non-integral members of
    the linear system of d*beta, beta^2 = beta_sq, on an Enriques surface.

    The bound is the minimum of the per-case bounds over cases that give
    positive (non-vacuous) values: a case bound <= 0 carries no
    information since every nonempty case has positive codimension, and
    whenever a displayed case value drops to 0 the geometry of that case
    forces its codimension above the minimum of the remaining cases.
    """
    terms = enriques_codim_terms(beta_sq, d, generic)
    return min(v for _, v in terms if v > 0)


def governing_cases(terms, bound) -> list[str]:
    """Labels of the case terms that attain the bound, in order."""
    labels = []
    for label, v in terms:
        if v == bound and label not in labels:
            labels.append(label)
    return labels


def n_lower_bound(codim_bound) -> int:
    """N = 2*ceil(codim) - 2, floored at -2 (vacuous below that)."""
    return max(2 * math.ceil(codim_bound) - 2, -2)


def enriques_d0(beta_sq: int, i: int, j: int) -> int:
    """Stabilization threshold d0(beta^2, i, j) on an Enriques surface.

    The maximum of five exact terms; past this multiple, the codimension
    bound N dominates i + j and the dimension condition 2 dim >= 3i + j
    holds, so the stable table applies at the entry (i, j).
    """
    if beta_sq < 2 or beta_sq % 2:
        raise InvalidSelfIntersection(
            "beta^2 must be a positive even integer for an ample class"
        )
    if i < 0 or j < 0:
        raise ValueError("i and j must be nonnegative")
    terms = [
        2,
        i + 1,
        math.ceil(Fraction(i + j + 2, 2)),
        # (i + j + 6) / (2 sqrt(2 beta^2))
        math.ceil(sqrt_rational(Fraction((i + j + 6) ** 2, 8 * beta_sq))),
        math.ceil(sqrt_rational(Fraction(2 * i + 2 * j + 6, beta_sq))),
    ]
    return max(terms)


# --- bielliptic-side formulas -------------------------------------------------


@dataclass(frozen=True)
class BiellipticParams:
    """Numerical data of an ample class a*lambda*A + b*mu*B on a bielliptic
    surface with A^2 = B^2 = 0 and A.B = gamma.

    lambda and mu are the rational scales making lambda*A, mu*B an
    integral basis; their values depend on the surface type and are
    caller input.  chi of the class is a*b*lambda*mu*gamma and must be
    an integer.
    """

    a: int
    b: int
    lam: Fraction
    mu: Fraction
    gamma: int

    def __post_init__(self):
        object.__setattr__(self, "lam", Fraction(self.lam))
        object.__setattr__(self, "mu", Fraction(self.mu))
        if self.a < 1 or self.b < 1:
            raise ValueError("a and b must be positive integers")
        if self.lam <= 0 or self.mu <= 0:
            raise ValueError("lambda and mu must be positive")
        if self.gamma < 1:
            raise ValueError("gamma must be a positive integer")
        chi = self.a * self.b * self.lam * self.mu * self.gamma
        if chi.denominator != 1:
            raise ValueError(f"chi = {chi} must be an integer")

    def beta_sq(self) -> Fraction:
        return 2 * self.a * self.b * self.lam * self.mu * self.gamma


def bielliptic_chi(s, t, gamma: int) -> Fraction:
    """chi of a divisor class s*A + t*B on a bielliptic surface: s*t*gamma."""
    return Fraction(s) * Fraction(t) * gamma


def bielliptic_dim_ls(params: BiellipticParams, d: int) -> Fraction:
    """dim of the linear system of d*beta: chi - 1 = d^2 a b lambda mu gamma - 1."""
    return bielliptic_chi(d * params.a * params.lam, d * params.b * params.mu, params.gamma) - 1


def _mixed_case_bound(da_side: Fraction, coeff: Fraction, top: int):
    """min over k in [1, max(1, top)] of k*coeff*(da_side - 1) + 1."""
    lo, hi = 1, max(1, top)
    vals = [k * coeff * (da_side - 1) + 1 for k in (lo, hi)]
    return min(vals)


def bielliptic_codim_terms(params: BiellipticParams, d: int):
    """The three per-case lower bounds, labelled, as exact values.

    Case 1: both summands pair positively with both fibrations; the
    bound is d*sqrt(beta^2) - 1.  Case 2 (mixed): one coordinate of one
    summand vanishes while the opposite one does not; the raw bound
    k*mu*gamma*(d*a*lambda - 1) + 1 is minimized over the admissible
    range of the nonzero coordinate (and symmetrically with the roles of
    the two fibrations swapped).  Case 2 (pure): the summands are
    numerically multiples of the two fibers; the bound is
    d^2 a b lambda mu gamma - d b mu gamma - d a lambda gamma.
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    a, b, lam, mu, gamma = params.a, params.b, params.lam, params.mu, params.gamma
    case1 = d * sqrt_rational(params.beta_sq()) - 1
    mixed = min(
        _mixed_case_bound(d * a * lam, mu * gamma, d * b - 1),
        _mixed_case_bound(d * b * mu, lam * gamma, d * a - 1),
    )
    pure = d * d * a * b * lam * mu * gamma - d * b * mu * gamma - d * a * lam * gamma
    return [("1", case1), ("2", mixed), ("2", pure)]


def bielliptic_codim_bound(params: BiellipticParams, d: int):
    """Exact lower bound for the codimension of non-integral members of
    the linear system of d*beta on a bielliptic surface.

    The minimum of the three case bounds, reported as-is even when
    vacuous (nonpositive).
    """
    return min(v for _, v in bielliptic_codim_terms(params, d))


# --- lattice files ------------------------------------------------------------

PRESET_LATTICES = ("bielliptic-rank2", "enriques-u-e8")


def parse_lattice(text: str) -> LatticeModel:
    """Parse the lattice file format.

    Line-oriented plain text; '#' starts a comment.  Keywords:

    * ``rank N``
    * ``gram`` followed by N lines of N integers
    * ``ample_witness`` plus N integers on the same line
    * ``ortho_basis`` followed by N lines of N rationals (``p/q`` or integers)
    * ``ample_tests`` plus N-1 integers on the same line
    """
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    pos = 0

    def next_line() -> str:
        nonlocal pos
        if pos >= len(lines):
            raise ValueError("unexpected end of lattice file")
        ln = lines[pos]
        pos += 1
        return ln

    rank = None
    gram = witness = basis = tests = None
    while pos < len(lines):
        ln = next_line()
        word, _, rest = ln.partition(" ")
        if word == "rank":
            rank = int(rest)
        elif word == "gram":
            if rank is None:
                raise ValueError("rank must come before gram")
            gram = tuple(
                tuple(int(x) for x in next_line().split()) for _ in range(rank)
            )
        elif word == "ample_witness":
            witness = tuple(int(x) for x in rest.split())
        elif word == "ortho_basis":
            if rank is None:
                raise ValueError("rank must come before ortho_basis")
            basis = tuple(
                tuple(parse_rational(x) for x in next_line().split()) for _ in range(rank)
            )
        elif word == "ample_tests":
            tests = tuple(int(x) for x in rest.split())
        else:
            raise ValueError(f"unknown lattice file keyword {word!r}")
    if rank is None or gram is None or witness is None or basis is None or tests is None:
        raise ValueError("lattice file is missing a required field")
    return LatticeModel(rank, gram, witness, basis, tests)


def load_lattice(source: str) -> LatticeModel:
    """Load a lattice from a preset name or a file path."""
    if source in PRESET_LATTICES:
        text = (
            resources.files("stabctab")
            .joinpath(f"data/lattices/{source}.lat")
            .read_text()
        )
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    return parse_lattice(text)
