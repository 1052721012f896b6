"""Exact values of the form a + b*sqrt(n) with rational a, b.

The codimension bounds contain square roots of rational numbers; they
are kept symbolic and compared, floored and ceiled exactly by integer
arithmetic (math.isqrt plus sign analysis by squaring).  No floating
point is involved anywhere.  QuadSurd speaks Python's numeric protocol:
math.floor and math.ceil, min and max over mixed lists with int and
Fraction (whose comparisons reflect to it), and str.

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

    def _cmp_rational(self, q: Fraction) -> int:
        """Sign of self - q, decided by squaring."""
        lhs = self.coef  # coef*sqrt(n) vs q - rat
        rhs = q - self.rat
        if lhs > 0 and rhs <= 0:
            return 1
        if lhs < 0 and rhs >= 0:
            return -1
        # both sides share a sign; square (reversing for negatives)
        l2 = lhs * lhs * self.radicand
        r2 = rhs * rhs
        if l2 == r2:
            return 0
        bigger = 1 if l2 > r2 else -1
        return bigger if lhs > 0 else -bigger

    def _coerce_cmp(self, other) -> int:
        if isinstance(other, (int, Fraction)):
            return self._cmp_rational(Fraction(other))
        if isinstance(other, QuadSurd):
            if other.radicand == self.radicand:
                diff_coef = self.coef - other.coef
                diff_rat = self.rat - other.rat
                if diff_coef == 0:
                    return (diff_rat > 0) - (diff_rat < 0)
                return _surd(diff_rat, diff_coef, self.radicand)._cmp_rational(Fraction(0))
            raise TypeError("cannot compare surds with different radicands")
        raise TypeError(f"cannot compare QuadSurd with {type(other).__name__}")

    def __lt__(self, other):
        return self._coerce_cmp(other) < 0

    def __le__(self, other):
        return self._coerce_cmp(other) <= 0

    def __gt__(self, other):
        return self._coerce_cmp(other) > 0

    def __ge__(self, other):
        return self._coerce_cmp(other) >= 0

    def __floor__(self) -> int:
        # floor((A + sqrt(B)) / C) with integer A, B and C > 0
        rat, coef, n = self.rat, self.coef, self.radicand
        c_den = rat.denominator * coef.denominator
        a_int = rat.numerator * coef.denominator
        w = coef.numerator * rat.denominator  # self = (a_int + w*sqrt(n)) / c_den
        if w >= 0:
            root = math.isqrt(w * w * n)  # floor of w*sqrt(n)
            guess = (a_int + root) // c_den
        else:
            root = math.isqrt(w * w * n)
            # -w*sqrt(n) has floor -root-1 (w*w*n is never a perfect
            # square times... the radicand is squarefree >= 2, so
            # w*sqrt(n) is irrational and floor(-x) = -floor(x)-1)
            guess = (a_int - root - 1) // c_den
        while self._cmp_rational(Fraction(guess + 1)) >= 0:
            guess += 1
        while self._cmp_rational(Fraction(guess)) < 0:
            guess -= 1
        return guess

    def __ceil__(self) -> int:
        return -math.floor(-self)

    def __neg__(self):
        return _surd(-self.rat, -self.coef, self.radicand)

    def __str__(self) -> str:
        return f"{self.rat}+{self.coef}*sqrt({self.radicand})"

    __repr__ = __str__


def _surd(rat: Fraction, coef: Fraction, radicand: int) -> QuadSurd:
    """QuadSurd(rat, coef, radicand) for a radicand known to be squarefree
    and a nonzero coef, without taking the radicand apart again."""
    value = object.__new__(QuadSurd)
    Record.__init__(value, rat=rat, coef=coef, radicand=radicand)
    return value

