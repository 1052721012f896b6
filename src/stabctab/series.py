r"""Exact truncated bivariate series arithmetic.

``TruncatedBiSeries`` holds a power series in (q, t) with exact
rational coefficients (``fractions.Fraction``; no floating point
anywhere), kept modulo total degree a + b > K.  Both exponents are
nonnegative, so total degree is additive, truncation is a genuine ring
quotient, and all ring laws hold exactly.

The infinite products G, H and the stable-Betti series are not expanded
here: :mod:`stabctab.genfunc` computes them with an integer
Euler-transform kernel on dense ``int`` rows, and checks the
change-of-variables identity in its cleared-denominator form
H(zw, z)(1 - z^2) = (1 - w)(1 - z^2 w) G(z, w) on those rows directly,
with no series of this class involved.  This class is the exact series
ring that ``stable_perverse_series`` returns H in, with sums, products,
inverses and truncated coefficient access.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Tuple

from .errors import NotInvertible, OrderMismatch, OutOfOrder

Key = Tuple[int, int]
Rational = Fraction | int


def _as_fraction(c: Rational) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficient must be rational, got {type(c).__name__}")


class TruncatedBiSeries:
    """Bivariate power series in (q, t) modulo total degree > order.

    Values are immutable after construction; every operation returns a
    new series.  Two series are equal iff their orders and canonical
    term maps are equal.
    """

    __slots__ = ("order", "terms")

    def __init__(self, order: int, terms: dict[Key, Rational] | None = None):
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        canon: dict[Key, Fraction] = {}
        for (a, b), c in (terms or {}).items():
            if a < 0 or b < 0:
                raise ValueError(f"negative exponent in key ({a}, {b})")
            if a + b > order:
                continue
            c = _as_fraction(c)
            if c:
                canon[(a, b)] = c
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "terms", canon)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("TruncatedBiSeries is immutable")

    # --- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "TruncatedBiSeries":
        return cls(order, {})

    @classmethod
    def one(cls, order: int) -> "TruncatedBiSeries":
        return cls(order, {(0, 0): 1})

    # --- inspection -----------------------------------------------------

    def items(self) -> Iterator[tuple[Key, Fraction]]:
        return iter(sorted(self.terms.items()))

    def coeff(self, a: int, b: int) -> Fraction:
        """Coefficient of q^a t^b; raises OutOfOrder beyond the truncation."""
        if a + b > self.order:
            raise OutOfOrder(
                f"coefficient of q^{a} t^{b} lies beyond order {self.order}"
            )
        return self.terms.get((a, b), Fraction(0))

    def constant_term(self) -> Fraction:
        return self.terms.get((0, 0), Fraction(0))

    def min_total_degree(self) -> int | None:
        """Smallest total degree with a nonzero coefficient (None if zero)."""
        if not self.terms:
            return None
        return min(a + b for a, b in self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedBiSeries):
            return NotImplemented
        return self.order == other.order and self.terms == other.terms

    def __hash__(self):
        return hash((self.order, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return f"<0 + O(deg>{self.order})>"
        bits = []
        for (a, b), c in sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0])):
            mon = []
            if a:
                mon.append(f"q^{a}" if a != 1 else "q")
            if b:
                mon.append(f"t^{b}" if b != 1 else "t")
            body = "*".join(mon) if mon else "1"
            bits.append(f"{c}*{body}" if mon else f"{c}")
        shown = " + ".join(bits[:8]) + (" + ..." if len(bits) > 8 else "")
        return f"<{shown} + O(deg>{self.order})>"

    # --- ring operations ------------------------------------------------

    def _check_order(self, other: "TruncatedBiSeries") -> None:
        if self.order != other.order:
            raise OrderMismatch(f"orders differ: {self.order} != {other.order}")

    def __add__(self, other: "TruncatedBiSeries") -> "TruncatedBiSeries":
        if not isinstance(other, TruncatedBiSeries):
            return NotImplemented
        self._check_order(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + c
        return TruncatedBiSeries(self.order, out)

    def __neg__(self) -> "TruncatedBiSeries":
        return TruncatedBiSeries(self.order, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "TruncatedBiSeries") -> "TruncatedBiSeries":
        if not isinstance(other, TruncatedBiSeries):
            return NotImplemented
        return self + (-other)

    def scale(self, c: Rational) -> "TruncatedBiSeries":
        c = _as_fraction(c)
        return TruncatedBiSeries(self.order, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, TruncatedBiSeries):
            return NotImplemented
        self._check_order(other)
        order = self.order
        out: dict[Key, Fraction] = {}
        left, right = self.terms, other.terms
        if len(left) > len(right):
            left, right = right, left
        for (a1, b1), c1 in left.items():
            room = order - a1 - b1
            for (a2, b2), c2 in right.items():
                if a2 + b2 > room:
                    continue
                k = (a1 + a2, b1 + b2)
                out[k] = out.get(k, Fraction(0)) + c1 * c2
        return TruncatedBiSeries(order, out)

    __rmul__ = __mul__

    def inverse(self) -> "TruncatedBiSeries":
        """Two-sided inverse modulo the truncation order.

        Uses the geometric series: with f = c0 (1 + u) and u without
        constant term, 1/f = (1/c0) * sum_j (-u)^j, and u^j dies beyond
        j = order because total degree is additive.
        """
        c0 = self.constant_term()
        if c0 == 0:
            raise NotInvertible("series has zero constant term")
        u = self.scale(Fraction(1) / c0) - TruncatedBiSeries.one(self.order)
        acc = TruncatedBiSeries.one(self.order)
        for _ in range(self.order):
            acc = TruncatedBiSeries.one(self.order) - u * acc
        return acc.scale(Fraction(1) / c0)
