"""Truncated series arithmetic: pinned examples, error contract, ring laws."""

import random
from fractions import Fraction

from stabctab.series import TruncatedBiSeries as T

from test_package import refused


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


def test_mul_association_sensitivity_documented():
    """With both exponents nonnegative, total degree is additive, so chained
    products associate exactly, also for keys on the truncation boundary;
    operands with negative t-exponents, which would break this, cannot be
    built (test_laurent_bound_rejected_on_construction)."""
    f = T(4, {(0, 0): 1, (1, 0): 1})
    g = T(4, {(0, 0): 2, (1, 1): -1})
    h = T(4, {(0, 0): 1, (0, 2): 3})
    assert (f * g) * h == f * (g * h)
    assert ((f * g) * h).coeff(1, 3) == -3


def test_coeff_examples():
    assert T(4, {(0, 0): 1, (1, 1): -1}).coeff(1, 1) == -1
    assert T(6, {(0, 0): 1, (2, 0): -1}).inverse().coeff(0, 0) == 1


def test_laurent_bound_rejected_on_construction():
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


# node ids of tests whose checks are now rows of test_package.REFUSALS
test_add_order_mismatch = refused("TruncatedBiSeries-add-order-mismatch")
test_inverse_zero_constant_term = refused("TruncatedBiSeries-inverse")
test_coeff_out_of_order = refused("TruncatedBiSeries-coeff-beyond-order")
