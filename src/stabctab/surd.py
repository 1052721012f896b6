"""Exact values of the form a + b*sqrt(n) with rational a, b.

The codimension bounds contain square roots of rational numbers; they
are kept symbolic and decided exactly by integer arithmetic, with no
floating point anywhere.  Every order is the sign of a difference
a + b*sqrt(n), found by squaring; floor is closed form through
math.isqrt, and ceil is floor + 1, since the value is never an integer.
QuadSurd speaks Python's numeric protocol: <, <=, > and >= against an
int, a Fraction or a surd with the same radicand (any other operand is
a TypeError), math.floor and math.ceil, min and max over mixed lists
with int and Fraction (whose comparisons reflect to it), and str.  It
adds and subtracts rationals and multiplies by them, and has no unary
minus: write -1 * x.

The square root of p/q (in lowest terms) is taken apart by trial division
of p*q, so its cost grows as sqrt(p*q); MAX_RADICAND caps p*q, and a
larger one raises RadicandTooLarge before any division.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._record import HashableRecord, Record
from .errors import RadicandTooLarge

#: Largest radicand (numerator times denominator of the rational under the
#: root) that is taken apart: trial division then ends within 5 * 10^5
#: odd divisors.
MAX_RADICAND = 10**12


def _squarefree_split(n: int) -> tuple[int, int]:
    """n = s^2 * m with m squarefree; returns (s, m)."""
    if n <= 0:
        raise ValueError("expected a positive integer under the square root")
    if n > MAX_RADICAND:
        raise RadicandTooLarge(f"radicand {n} exceeds the cap of {MAX_RADICAND}")
    s, m, d = 1, n, 2
    while d * d <= m:
        while m % (d * d) == 0:
            m //= d * d
            s *= d
        # once the factors 4 are gone, d*d divides m for no even d
        d += 1 if d == 2 else 2
    return s, m


def sqrt_rational(r) -> "Fraction | QuadSurd":
    """Exact square root of a nonnegative rational.

    Returns a Fraction when r is a perfect square of a rational, else a
    QuadSurd with squarefree radicand.
    """
    r = Fraction(r)
    if r < 0:
        raise ValueError("negative radicand")
    if r == 0:
        return Fraction(0)
    # sqrt(p/q) = sqrt(p*q)/q
    s, m = _squarefree_split(r.numerator * r.denominator)
    if m == 1:
        return Fraction(s, r.denominator)
    return _surd(Fraction(0), Fraction(s, r.denominator), m)


class QuadSurd(HashableRecord):
    """The exact real number rat + coef*sqrt(radicand), radicand squarefree >= 2."""

    def __init__(self, rat: Fraction, coef: Fraction, radicand: int):
        if radicand < 2:
            raise ValueError("radicand must be >= 2 (use Fraction otherwise)")
        s, m = _squarefree_split(radicand)
        if s != 1:
            raise ValueError("radicand must be squarefree")
        if coef == 0:
            raise ValueError("coefficient zero: use a plain Fraction")
        super().__init__(rat=rat, coef=coef, radicand=radicand)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return _surd(self.rat + Fraction(other), self.coef, self.radicand)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return self + (-Fraction(other))
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return Fraction(0)
            return _surd(self.rat * c, self.coef * c, self.radicand)
        return NotImplemented

    __rmul__ = __mul__

    def _sign_of_difference(self, other) -> int:
        """The sign of self - other = a + b*sqrt(n), decided by squaring;
        other is an int, a Fraction or a surd with the same radicand."""
        if isinstance(other, (int, Fraction)):
            a, b = self.rat - other, self.coef
        elif isinstance(other, QuadSurd) and other.radicand == self.radicand:
            a, b = self.rat - other.rat, self.coef - other.coef
        else:
            raise TypeError(f"cannot compare {self} with {other!r}")
        sign_a, sign_b = (a > 0) - (a < 0), (b > 0) - (b < 0)
        if sign_a * sign_b >= 0:
            return sign_a or sign_b
        # opposite signs: the larger square wins, and a^2 = b^2*n would
        # make sqrt(n) rational
        return sign_a if a * a > b * b * self.radicand else sign_b

    def __lt__(self, other):
        return self._sign_of_difference(other) < 0

    def __le__(self, other):
        return self._sign_of_difference(other) <= 0

    def __gt__(self, other):
        return self._sign_of_difference(other) > 0

    def __ge__(self, other):
        return self._sign_of_difference(other) >= 0

    def __floor__(self) -> int:
        # self = (A + W*sqrt(n)) / C with integers A, W and C > 0, and
        # floor(self) = floor((A + floor(W*sqrt(n))) / C); W*sqrt(n) is
        # irrational, so its floor is isqrt(W^2*n), or -isqrt(W^2*n) - 1
        # for W < 0
        rat, coef = self.rat, self.coef
        w = coef.numerator * rat.denominator
        root = math.isqrt(w * w * self.radicand)
        if w < 0:
            root = -root - 1
        return (rat.numerator * coef.denominator + root) // (rat.denominator * coef.denominator)

    def __ceil__(self) -> int:
        # never an integer
        return math.floor(self) + 1

    def __str__(self) -> str:
        return f"{self.rat}+{self.coef}*sqrt({self.radicand})"

    __repr__ = __str__


def _surd(rat: Fraction, coef: Fraction, radicand: int) -> QuadSurd:
    """QuadSurd(rat, coef, radicand) for a radicand known to be squarefree
    and a nonzero coef, without taking the radicand apart again."""
    value = object.__new__(QuadSurd)
    Record.__init__(value, rat=rat, coef=coef, radicand=radicand)
    return value

