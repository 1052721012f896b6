r"""Exact truncated bivariate series arithmetic.

Two kinds of truncated series live here, both with exact rational
coefficients (``fractions.Fraction``; no floating point anywhere):

``TruncatedBiSeries``
    Series in (q, t).  The t-exponent may be negative, but every stored
    key (a, b) satisfies the Laurent bound b >= -a.  Terms are kept up
    to total degree a + |b| <= K.

    In the power-series regime (all t-exponents >= 0) the total degree
    is additive, truncation is a genuine ring quotient, and all ring
    laws hold exactly.  With negative t-exponents present, total degree
    can drop under multiplication (q t^-1 times t^2), so only the
    q-degree is a grading: each single product is the exact truncation
    of the exact product of its two operands, but chains of products
    are order-of-association sensitive near the truncation boundary.
    Consumers that mix signs (the change-of-variables identity) run at
    an inflated working order, using that the weight a + b/2 is
    additive, at least 1/2 per key, and at least a quarter of the total
    degree: working order 4K captures every contribution to keys of
    total degree <= K.

``ZWSeries``
    Ordinary power series in (z, w), truncated by w-degree <= K.  The
    generating series for point-counting invariants of surfaces live
    here; their z-degree is bounded by 4 times the w-degree, which makes
    the substitution z = t, w = q/t land inside the Laurent bound above.

The infinite products G, H and the stable-Betti series are not expanded
here: :mod:`stabctab.genfunc` computes them with an integer
Euler-transform kernel and hands the coefficients to these classes.  The
classes carry the ring operations the change-of-variables identity needs
(sums, products, inverses) and truncated coefficient access.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Tuple

from .errors import (
    LaurentBoundViolated,
    NotInvertible,
    OrderMismatch,
    OutOfOrder,
)

Key = Tuple[int, int]
Rational = Fraction | int


def _as_fraction(c: Rational) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficient must be rational, got {type(c).__name__}")


class TruncatedBiSeries:
    """Bivariate Laurent-bounded series in (q, t) modulo total degree > order.

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
            if a < 0:
                raise ValueError(f"negative q-exponent in key ({a}, {b})")
            if b < -a:
                raise LaurentBoundViolated(
                    f"term q^{a} t^{b} has t-exponent below -{a}"
                )
            if a + abs(b) > order:
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

    @classmethod
    def monomial(cls, order: int, a: int, b: int, c: Rational = 1) -> "TruncatedBiSeries":
        """The single term c * q^a t^b, truncated to the given order."""
        return cls(order, {(a, b): c})

    # --- inspection -----------------------------------------------------

    def items(self) -> Iterator[tuple[Key, Fraction]]:
        return iter(sorted(self.terms.items()))

    def coeff(self, a: int, b: int) -> Fraction:
        """Coefficient of q^a t^b; raises OutOfOrder beyond the truncation."""
        if a + abs(b) > self.order:
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
        return min(a + abs(b) for a, b in self.terms)

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
        for (a, b), c in sorted(self.terms.items(), key=lambda kv: (kv[0][0] + abs(kv[0][1]), kv[0])):
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
        # q-degrees are nonnegative and add exactly, so they can prune;
        # total degree cannot (t-cancellation may lower it), hence the
        # exact per-key check.
        for (a1, b1), c1 in left.items():
            room = order - a1
            for (a2, b2), c2 in right.items():
                if a2 > room:
                    continue
                a, b = a1 + a2, b1 + b2
                if a + abs(b) > order:
                    continue
                k = (a, b)
                out[k] = out.get(k, Fraction(0)) + c1 * c2
        return TruncatedBiSeries(order, out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "TruncatedBiSeries":
        if e < 0:
            return self.inverse() ** (-e)
        acc = TruncatedBiSeries.one(self.order)
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base if e > 1 else base
            e >>= 1
        return acc

    def truncate(self, order: int) -> "TruncatedBiSeries":
        """Re-truncate to a smaller (or equal) order."""
        if order > self.order:
            raise OrderMismatch(
                f"cannot extend order {self.order} to {order}: missing content"
            )
        return TruncatedBiSeries(order, self.terms)

    def inverse(self) -> "TruncatedBiSeries":
        """Two-sided inverse modulo the truncation order.

        Uses the geometric series: with f = c0 (1 + u) and u without
        constant term, 1/f = (1/c0) * sum_j (-u)^j, and u^j dies beyond
        j = order because total degree is additive for t-exponents >= 0.

        Restricted to the power-series regime: a series with negative
        t-exponents in its nonconstant part has no order-K inverse g
        with f*g = 1 under this truncation (beyond-order keys of the
        exact inverse can pair with f's Laurent keys back into range),
        so such input raises NotInvertible.
        """
        c0 = self.constant_term()
        if c0 == 0:
            raise NotInvertible("series has zero constant term")
        if any(b < 0 for (a, b) in self.terms):
            raise NotInvertible(
                "series with negative t-exponents have no exact truncated inverse"
            )
        u = self.scale(Fraction(1) / c0) - TruncatedBiSeries.one(self.order)
        acc = TruncatedBiSeries.one(self.order)
        for _ in range(self.order):
            acc = TruncatedBiSeries.one(self.order) - u * acc
        return acc.scale(Fraction(1) / c0)


class ZWSeries:
    """Power series in (z, w) truncated by w-degree <= order.

    The w-grading is multiplicative, so products of series known modulo
    w^(order+1) are again exact modulo w^(order+1); the z-degree needs no
    cap of its own.
    """

    __slots__ = ("order", "terms")

    def __init__(self, order: int, terms: dict[Key, Rational] | None = None):
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        canon: dict[Key, Fraction] = {}
        for (i, n), c in (terms or {}).items():
            if i < 0 or n < 0:
                raise ValueError(f"negative exponent in key ({i}, {n})")
            if n > order:
                continue
            c = _as_fraction(c)
            if c:
                canon[(i, n)] = c
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "terms", canon)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("ZWSeries is immutable")

    @classmethod
    def zero(cls, order: int) -> "ZWSeries":
        return cls(order, {})

    @classmethod
    def one(cls, order: int) -> "ZWSeries":
        return cls(order, {(0, 0): 1})

    @classmethod
    def monomial(cls, order: int, i: int, n: int, c: Rational = 1) -> "ZWSeries":
        return cls(order, {(i, n): c})

    def items(self) -> Iterator[tuple[Key, Fraction]]:
        return iter(sorted(self.terms.items()))

    def coeff(self, i: int, n: int) -> Fraction:
        """Coefficient of z^i w^n; raises OutOfOrder for n beyond the order."""
        if n > self.order:
            raise OutOfOrder(f"coefficient of w^{n} lies beyond order {self.order}")
        return self.terms.get((i, n), Fraction(0))

    def constant_term(self) -> Fraction:
        return self.terms.get((0, 0), Fraction(0))

    def min_w_degree(self) -> int | None:
        if not self.terms:
            return None
        return min(n for _, n in self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ZWSeries):
            return NotImplemented
        return self.order == other.order and self.terms == other.terms

    def __hash__(self):
        return hash((self.order, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"<ZWSeries order={self.order} nterms={len(self.terms)}>"

    def _check_order(self, other: "ZWSeries") -> None:
        if self.order != other.order:
            raise OrderMismatch(f"orders differ: {self.order} != {other.order}")

    def __add__(self, other: "ZWSeries") -> "ZWSeries":
        if not isinstance(other, ZWSeries):
            return NotImplemented
        self._check_order(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + c
        return ZWSeries(self.order, out)

    def __neg__(self) -> "ZWSeries":
        return ZWSeries(self.order, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "ZWSeries") -> "ZWSeries":
        if not isinstance(other, ZWSeries):
            return NotImplemented
        return self + (-other)

    def scale(self, c: Rational) -> "ZWSeries":
        c = _as_fraction(c)
        return ZWSeries(self.order, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, ZWSeries):
            return NotImplemented
        self._check_order(other)
        order = self.order
        out: dict[Key, Fraction] = {}
        left, right = self.terms, other.terms
        if len(left) > len(right):
            left, right = right, left
        for (i1, n1), c1 in left.items():
            room = order - n1
            for (i2, n2), c2 in right.items():
                if n2 > room:
                    continue
                k = (i1 + i2, n1 + n2)
                out[k] = out.get(k, Fraction(0)) + c1 * c2
        return ZWSeries(order, out)

    __rmul__ = __mul__

    def inverse(self) -> "ZWSeries":
        c0 = self.constant_term()
        if c0 == 0:
            raise NotInvertible("series has zero constant term")
        u = self.scale(Fraction(1) / c0) - ZWSeries.one(self.order)
        # w-degree-0 content never dies under w-truncation, so the
        # geometric recursion cannot terminate for it
        if any(n == 0 for _, n in u.terms):
            raise NotInvertible("nonconstant w-degree-0 part cannot be inverted "
                                "within a w-truncation")
        acc = ZWSeries.one(self.order)
        for _ in range(self.order):
            acc = ZWSeries.one(self.order) - u * acc
        return acc.scale(Fraction(1) / c0)


def substitute_z_t__w_q_over_t(g: ZWSeries, order: int) -> TruncatedBiSeries:
    """Apply z = t, w = q/t, sending z^i w^n to q^n t^(i-n).

    The source must be exact to w-degree >= order: any source term
    contributes to total degree n + |i-n| >= n in (q, t), so w-degrees
    beyond the target order cannot reach it.

    Raises LaurentBoundViolated if an image term were to fall below the
    t-exponent bound for its q-degree (impossible for i >= 0, kept as a
    structural guard).
    """
    if g.order < order:
        raise OrderMismatch(
            f"source order {g.order} is too small for target order {order}"
        )
    out: dict[Key, Fraction] = {}
    for (i, n), c in g.terms.items():
        a, b = n, i - n
        if b < -a:
            raise LaurentBoundViolated(
                f"image term q^{a} t^{b} violates the Laurent bound"
            )
        if a + abs(b) > order:
            continue
        out[(a, b)] = out.get((a, b), Fraction(0)) + c
    return TruncatedBiSeries(order, out)
