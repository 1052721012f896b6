"""Reference expansion of the infinite products, one binomial factor at a time.

This is the straightforward route the library's integer Euler-transform
kernel is checked against: every factor (1 + sign * M)^e is expanded by
the generalized binomial theorem, and the factors are multiplied in
order of their least degree until that degree exceeds the truncation
order.  H and the stable Betti series are products of
``TruncatedBiSeries`` (one ``Fraction`` series product per factor); G is
a product of small integer dicts truncated by w-degree.  It is slow and
exists only for tests.
"""

from __future__ import annotations

import math
from typing import Iterable

from stabctab.errors import OrderMismatch
from stabctab.genfunc import SurfaceTopology
from stabctab.series import Key, TruncatedBiSeries


class BadFactorBound(ValueError):
    """A product factor violates its declared minimal degree."""


def _generalized_binomial(e: int, j: int) -> int:
    """C(e, j) for integer e of either sign and j >= 0."""
    if j < 0:
        return 0
    if e >= 0:
        return math.comb(e, j)
    return (-1) ** j * math.comb(-e + j - 1, j)


def binomial_factor(order: int, key: Key, sign: int, exponent: int) -> TruncatedBiSeries:
    """Expansion of (1 + sign * M)^exponent for the monomial M = q^a t^b.

    ``sign`` is +1 or -1 and ``exponent`` any integer, so every
    (1 - M)^(-e) factor of an infinite product is covered.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    deg = key[0] + key[1]
    if deg <= 0:
        raise ValueError("factor monomial must have positive degree")
    terms: dict[Key, int] = {}
    j = 0
    while j * deg <= order:
        c = _generalized_binomial(exponent, j) * (sign ** j)
        if c:
            terms[(key[0] * j, key[1] * j)] = c
        j += 1
    return TruncatedBiSeries(order, terms)


def truncated_product(factors: Iterable[tuple[TruncatedBiSeries, int]], order: int):
    """Product of a (possibly infinite) factor stream, truncated at order.

    Each factor is a (series, min_degree) pair: the series must be
    1 + (terms of total degree >= min_degree), and the min_degree values
    must be nondecreasing, so that the stream can be cut off once
    min_degree > order.  Raises BadFactorBound if a factor's content
    violates its declared minimal degree, and OrderMismatch if a factor
    was built at a different order.
    """
    acc = TruncatedBiSeries.one(order)
    for f, min_deg in factors:
        if min_deg > order:
            break
        if not isinstance(f, TruncatedBiSeries):
            raise TypeError("factor is not a TruncatedBiSeries")
        if f.order != order:
            raise OrderMismatch(f"factor order {f.order} != product order {order}")
        if f.constant_term() != 1:
            raise BadFactorBound("factor does not have constant term 1")
        lowest = (f - TruncatedBiSeries.one(order)).min_total_degree()
        if lowest is not None and lowest < min_deg:
            raise BadFactorBound(
                f"factor has content in degree {lowest} < declared bound {min_deg}"
            )
        acc = acc * f
    return acc


def _sorted_product(order: int, factors) -> TruncatedBiSeries:
    """Product of (key, sign, exponent, bound) factors, in order of bound."""
    stream = sorted(
        ((binomial_factor(order, key, sign, e), bound)
         for key, sign, e, bound in factors if e),
        key=lambda pair: pair[1],
    )
    return truncated_product(stream, order)


def goettsche_oracle(surface: SurfaceTopology, order: int) -> dict[Key, int]:
    """G(z, w) truncated at w-degree <= order, as {(i, n): coefficient of
    z^i w^n} with zeros omitted."""
    b1, b2 = surface.b1, surface.b2
    acc = {(0, 0): 1}
    for m in range(1, order + 1):
        for zdeg, sign, e in ((2 * m - 1, 1, b1), (2 * m + 1, 1, b1),
                              (2 * m - 2, -1, -1), (2 * m, -1, -b2),
                              (2 * m + 2, -1, -1)):
            factor = {
                (zdeg * j, m * j): _generalized_binomial(e, j) * sign ** j
                for j in range(order // m + 1)
            }
            product: dict[Key, int] = {}
            for (i1, n1), c1 in acc.items():
                for (i2, n2), c2 in factor.items():
                    if n1 + n2 <= order:
                        key = (i1 + i2, n1 + n2)
                        product[key] = product.get(key, 0) + c1 * c2
            acc = {key: c for key, c in product.items() if c}
    return acc


def perverse_oracle(surface: SurfaceTopology, order: int) -> TruncatedBiSeries:
    """H(q, t) truncated at total degree <= order, (1 - qt) included."""
    b1, b2 = surface.b1, surface.b2
    factors = []
    for m in range(1, order + 1):
        factors += [
            ((m, m - 1), 1, b1, 2 * m - 1),
            ((m, m + 1), 1, b1, 2 * m + 1),
            ((m + 1, m - 1), -1, -1, 2 * m),
            ((m, m), -1, -b2, 2 * m),
            ((m - 1, m + 1), -1, -1, 2 * m),
        ]
    prod = _sorted_product(order, factors)
    return TruncatedBiSeries(order, {(0, 0): 1, (1, 1): -1}) * prod


def stable_betti_oracle(surface: SurfaceTopology, order: int) -> list[int]:
    """Coefficients of q^0..q^order of the stable Betti product."""
    b1, b2 = surface.b1, surface.b2
    factors = []
    for m in range(1, order + 1):
        factors += [
            ((2 * m - 1, 0), 1, b1, 2 * m - 1),
            ((2 * m + 1, 0), 1, b1, 2 * m + 1),
            ((2 * m, 0), -1, -(b2 + 1), 2 * m),
            ((2 * m + 2, 0), -1, -1, 2 * m + 2),
        ]
    prod = _sorted_product(order, factors)
    return [prod.coeff(k, 0) for k in range(order + 1)]
