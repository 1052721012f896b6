"""Truncated series arithmetic: pinned examples, error contract, ring laws.

The truncated_product tests exercise the test-side reference expansion in
product_oracle.py, against which the library's product kernel is checked.
"""

import itertools
import random
from fractions import Fraction

import pytest

from stabctab.errors import NotInvertible, OrderMismatch, OutOfOrder
from stabctab.series import TruncatedBiSeries as T

from product_oracle import BadFactorBound, binomial_factor, truncated_product


def q(order, k, c=1):
    return T(order, {(k, 0): c})


def test_add_cancellation():
    assert T(4, {(0, 0): 1, (1, 0): 1}) + T(4, {(0, 0): 1, (1, 0): -1}) == T(4, {(0, 0): 2})


def test_add_disjoint_supports():
    qt = T(6, {(1, 1): 1})
    t3 = T(6, {(0, 3): 1})
    assert qt + t3 == T(6, {(1, 1): 1, (0, 3): 1})


def test_add_identity():
    f = T(5, {(0, 0): 3, (2, 1): 5})
    assert f + T.zero(5) == f


def test_add_order_mismatch():
    with pytest.raises(OrderMismatch):
        T.one(3) + T.one(4)


def test_mul_difference_of_squares():
    assert (T.one(4) + q(4, 1)) * (T.one(4) - q(4, 1)) == T(4, {(0, 0): 1, (2, 0): -1})
    # a series times an int or a Fraction, on either side, scales it
    f = T.one(4) + q(4, 1)
    assert 2 * f == f * Fraction(2) == f + f
    assert Fraction(1, 2) * f == T(4, {(0, 0): Fraction(1, 2), (1, 0): Fraction(1, 2)})


def test_mul_geometric_telescope():
    order = 10
    geometric = T(order, {(k, k): 1 for k in range(order + 1)})
    one_minus_qt = T(order, {(0, 0): 1, (1, 1): -1})
    assert one_minus_qt * geometric == T.one(order)


def test_mul_keeps_low_degree_cancellation_terms():
    # (1 - q)(1 - t + q) = 1 - t + q*t - q^2: the degree-1 q terms cancel,
    # and q*t and q^2, products of degree-1 keys landing exactly on the
    # truncation boundary, are kept
    prod = T(2, {(0, 0): 1, (1, 0): -1}) * T(2, {(0, 0): 1, (0, 1): -1, (1, 0): 1})
    assert prod == T(2, {(0, 0): 1, (0, 1): -1, (2, 0): -1, (1, 1): 1})


def test_inverse_geometric():
    inv = T(6, {(0, 0): 1, (2, 0): -1}).inverse()
    assert inv == T(6, {(0, 0): 1, (2, 0): 1, (4, 0): 1, (6, 0): 1})


def test_inverse_constant():
    assert T(3, {(0, 0): 2}).inverse() == T(3, {(0, 0): Fraction(1, 2)})


def test_inverse_round_trip_qt():
    f = T(12, {(0, 0): 1, (1, 1): -1})
    assert f.inverse() * f == T.one(12)


def test_inverse_zero_constant_term():
    with pytest.raises(NotInvertible):
        T(4, {(1, 0): 1}).inverse()


def test_inverse_rejects_laurent_content():
    # the constructor refuses Laurent content, so inverse() never sees it
    with pytest.raises(ValueError):
        T(4, {(0, 0): 1, (1, -1): 1})


def test_mul_association_sensitivity_documented():
    """With both exponents nonnegative, total degree is additive, so chained
    products associate exactly, also for keys on the truncation boundary;
    operands with negative t-exponents, which would break this, cannot be
    built."""
    f = T(4, {(0, 0): 1, (1, 0): 1})
    g = T(4, {(0, 0): 2, (1, 1): -1})
    h = T(4, {(0, 0): 1, (0, 2): 3})
    assert (f * g) * h == f * (g * h)
    assert ((f * g) * h).coeff(1, 3) == -3
    with pytest.raises(ValueError):
        T(4, {(2, -2): 1})


def count_partitions_even_parts(n):
    """Brute-force oracle: partitions of n into even parts."""
    parts = [p for p in range(2, n + 1, 2)]
    count = 0

    def rec(remaining, max_part):
        nonlocal count
        if remaining == 0:
            count += 1
            return
        for p in parts:
            if p <= min(remaining, max_part):
                rec(remaining - p, p)

    rec(n, n)
    return count


def even_part_factors(order):
    for m in itertools.count(1):
        if 2 * m > order:
            return
        yield binomial_factor(order, (2 * m, 0), -1, -1), 2 * m


def test_truncated_product_partitions():
    f = truncated_product(even_part_factors(8), 8)
    assert count_partitions_even_parts(4) == 2
    assert f.coeff(4, 0) == 2
    for n in range(0, 9, 2):
        assert f.coeff(n, 0) == count_partitions_even_parts(n)


def test_truncated_product_empty():
    assert truncated_product(iter(()), 5) == T.one(5)


def test_truncated_product_cutoff():
    def odd_factors(order):
        for m in itertools.count(1):
            if 2 * m - 1 > order:
                return
            yield binomial_factor(order, (2 * m - 1, 0), 1, 1), 2 * m - 1

    assert truncated_product(odd_factors(1), 1) == T(1, {(0, 0): 1, (1, 0): 1})


def test_truncated_product_bad_bound():
    bad = [(T(6, {(0, 0): 1, (1, 0): 1}), 3)]  # content in degree 1 < 3
    with pytest.raises(BadFactorBound):
        truncated_product(iter(bad), 6)


def test_truncated_product_rejects_negative_t_content():
    # a factor with negative t-exponents cannot even be built
    with pytest.raises(ValueError):
        truncated_product(iter([(T(6, {(0, 0): 1, (1, -1): 1}), 1)]), 6)


def test_truncated_product_order_invariance():
    rng = random.Random(7)
    factors = []
    for m in range(1, 6):
        terms = {(0, 0): 1, (m, 0): rng.randint(1, 4), (m, 1): rng.randint(-3, 3)}
        factors.append((T(8, terms), m))
    base = truncated_product(iter(factors), 8)
    for perm in itertools.permutations(range(5)):
        assert truncated_product((factors[i] for i in perm), 8) == base


def test_coeff_examples():
    assert T(4, {(0, 0): 1, (1, 1): -1}).coeff(1, 1) == -1
    assert T(6, {(0, 0): 1, (2, 0): -1}).inverse().coeff(0, 0) == 1


def test_coeff_out_of_order():
    with pytest.raises(OutOfOrder):
        T.one(4).coeff(3, 2)


def test_laurent_bound_rejected_on_construction():
    for key in ((1, -1), (1, -2), (0, -1), (-1, 2)):
        with pytest.raises(ValueError):
            T(6, {key: 1})
    rng = random.Random(31)
    rejected = 0
    for _ in range(50):
        try:
            f = rand_series(rng, 6, laurent=True)
        except ValueError:
            rejected += 1
        else:
            assert all(b >= 0 for _, b in f.terms)
    assert rejected


def rand_series(rng, order, laurent=False):
    """Random series with up to 8 rational terms of total degree <= order;
    laurent=True also draws t-exponents down to -a, which are rejected."""
    terms = {}
    for _ in range(rng.randint(0, 8)):
        a = rng.randint(0, order)
        lo = -a if laurent else 0
        b = rng.randint(lo, order - a)
        num = rng.randint(-10, 10)
        den = rng.randint(1, 10)
        terms[(a, b)] = Fraction(num, den)
    return T(order, terms)


def test_ring_laws_random():
    # total degree is a genuine grading and truncation is a ring quotient
    rng = random.Random(2024)
    for _ in range(100):
        order = rng.randint(1, 8)
        f, g, h = (rand_series(rng, order, laurent=False) for _ in range(3))
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def test_inverse_round_trip_random():
    rng = random.Random(99)
    checked = 0
    while checked < 100:
        f = rand_series(rng, rng.randint(1, 8), laurent=False)
        c0 = rng.randint(1, 10) * rng.choice((1, -1))
        f = f + T(f.order, {(0, 0): Fraction(c0, rng.randint(1, 10)) - f.constant_term()})
        inv = f.inverse()
        assert f * inv == T.one(f.order)
        assert inv * f == T.one(f.order)
        checked += 1


def test_everything_is_exact_rational():
    rng = random.Random(5)
    f = rand_series(rng, 6, laurent=False)
    g = rand_series(rng, 6, laurent=False)
    inv_input = rand_series(rng, 6, laurent=False)
    inv_input = inv_input + T.one(6) - T(6, {(0, 0): inv_input.constant_term()})
    for series in (f + g, f * g, inv_input.inverse()):
        for c in series.terms.values():
            assert isinstance(c, Fraction)
