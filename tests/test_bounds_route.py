"""A second route for ``bounds``: the bielliptic case-1 term against the
splittings that ``decompose`` enumerates.

On a bielliptic surface with A^2 = B^2 = 0 and A.B = gamma, a complete
linear system has dim|D| = chi(D) - 1 = D^2/2 - 1.  For a splitting
d*beta = theta1 + theta2 whose summands have every coordinate positive
(both pair positively with both fibrations), the locus C1 + C2 has
dimension at most dim|theta1| + dim|theta2|, so its codimension in
|d*beta| is at least

    (d*beta)^2/2 - theta1^2/2 - theta2^2/2 + 1 = theta1.theta2 + 1.

The case-1 term d*sqrt(beta^2) - 1 of ``bielliptic_codim_terms`` is a
lower bound for exactly that codimension, so it must not exceed the
minimum of theta1.theta2 + 1 over those splittings.  The model is the
preset ``bielliptic-rank2``: lambda = mu = 1, gamma = 2, beta = (a, b).
The bound is a ``QuadSurd`` or a ``Fraction``; both sides are compared
exactly, never subtracted.
"""

import random

import pytest

from stabctab.codim import BiellipticParams, bielliptic_codim_terms
from stabctab.nslattice import decompose, load_lattice

MODEL = load_lattice("bielliptic-rank2")


def splittings(a: int, b: int, d: int):
    """All pairs of d*beta, and theta1.theta2 over the pairs whose every
    coordinate is positive."""
    pairs = decompose(MODEL, (d * a, d * b))
    return pairs, [MODEL.ip(t1, t2) for t1, t2 in pairs if min(t1 + t2) > 0]


def case_1_term(a: int, b: int, d: int):
    (label, term), *_ = bielliptic_codim_terms(BiellipticParams(a, b, 1, 1, 2), d)
    assert label == "1"
    return term


@pytest.mark.parametrize("a, b, d, count, least", [
    (1, 1, 3, 16, 8),
    (1, 2, 2, 15, 8),
    (2, 3, 2, 45, 16),
])
def test_roadmap_rows(a, b, d, count, least):
    pairs, products = splittings(a, b, d)
    assert len(pairs) == count
    assert min(products) == least
    assert least + 1 >= case_1_term(a, b, d)


def test_case_1_term_bounds_every_positive_splitting():
    grid = [(a, b, d) for a in range(1, 9) for b in range(1, 9) for d in range(1, 5)]
    checked = 0
    for a, b, d in random.Random(2025).sample(grid, 150):
        _, products = splittings(a, b, d)
        if products:
            checked += 1
            assert min(products) + 1 >= case_1_term(a, b, d), (a, b, d)
    assert checked >= 100
