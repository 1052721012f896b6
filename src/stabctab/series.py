r"""Exact truncated bivariate series arithmetic.

``TruncatedBiSeries`` holds a power series in (q, t) with exact
rational coefficients (``fractions.Fraction``; no floating point
anywhere), kept modulo total degree a + b > K.  It is a two-variable
:class:`~stabctab.poly.Poly` with an ``order`` field, so it shares that
class's sums, products, validation and operand rule (a sum, difference
or product takes a series alone, of the same order, else OrderMismatch;
a product also takes an ``is_rational`` scalar; any other operand, a
Poly among them, is a TypeError), and like every Record it is
immutable, picklable and copyable.  Both exponents are nonnegative, so
total degree is additive, truncation is a genuine ring quotient, and
all ring laws hold exactly.

The infinite products G, H and the stable-Betti series are not expanded
here: :mod:`stabctab.genfunc` computes them with an integer
Euler-transform kernel on dense ``int`` rows, and checks the
change-of-variables identity in its cleared-denominator form
H(zw, z)(1 - z^2) = (1 - w)(1 - z^2 w) G(z, w) on those rows directly,
with no series of this class involved.  This class is the exact series
ring that ``stable_perverse_series`` returns H in, with sums, products,
inverses and truncated coefficient access at int exponents
(``_record.is_int``).
"""

from fractions import Fraction

from ._record import Record, is_int
from .errors import NotInvertible, OrderMismatch, OutOfOrder
from .poly import Poly, _checked_terms

Key = tuple[int, int]


class TruncatedBiSeries(Poly):
    """Bivariate power series in (q, t) modulo total degree > order.

    The order is an int (else a TypeError); terms beyond it are dropped
    when built, after the keys and coefficients are checked.  Every
    operation returns a new series; two are equal iff their orders and
    term maps are, and a series never equals a Poly.
    """

    def __init__(self, order: int, terms: dict[Key, Fraction | int] | None = None):
        if not is_int(order):
            raise TypeError("order must be an integer")
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        terms = _checked_terms(2, terms or {})
        Record.__init__(self, nvars=2, order=order,
                        terms={k: c for k, c in terms.items() if k[0] + k[1] <= order})

    def _like(self, terms: dict) -> "TruncatedBiSeries":
        return TruncatedBiSeries(self.order, terms)

    def __repr__(self) -> str:
        return f"TruncatedBiSeries({self.order}, {self.terms!r})"

    @classmethod
    def zero(cls, order: int) -> "TruncatedBiSeries":
        return cls(order, {})

    @classmethod
    def one(cls, order: int) -> "TruncatedBiSeries":
        return cls(order, {(0, 0): 1})

    def coeff(self, a: int, b: int) -> Fraction:
        """Coefficient of q^a t^b, for ints a and b; raises OutOfOrder beyond
        the truncation, and is 0 at a negative exponent."""
        if not (is_int(a) and is_int(b)):
            raise TypeError("a and b must be integers")
        if a + b > self.order:
            raise OutOfOrder(
                f"coefficient of q^{a} t^{b} lies beyond order {self.order}"
            )
        return self.terms.get((a, b), Fraction(0))

    constant_term = Poly.constant

    def _same_ring(self, other) -> bool:
        """Whether other is a series, as ``Poly._same_ring`` decides;
        OrderMismatch if of another order."""
        if not super()._same_ring(other):
            return False
        if self.order != other.order:
            raise OrderMismatch(f"orders differ: {self.order} != {other.order}")
        return True

    def __mul__(self, other):
        """The product with a series of this order, else with a rational."""
        return self.mul(other, self.order + 1) if self._same_ring(other) else self.scale(other)

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
        one = TruncatedBiSeries.one(self.order)
        u = self.scale(1 / c0) - one
        acc = one
        for _ in range(self.order):
            acc = one - u * acc
        return acc.scale(1 / c0)
