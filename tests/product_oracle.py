"""Reference expansion of the infinite products, one binomial factor at a time.

This is the straightforward route the library's integer Euler-transform
kernel is checked against: G, H and the stable Betti series are each a
finite product of factors (1 + sign * M)^e for monomials M, and
``binomial_product`` expands every factor by the generalized binomial
theorem and multiplies it into a dict of integer coefficients.  It keeps
only the keys inside the truncation; every exponent is nonnegative, so a
key it drops never multiplies back into it.  It uses nothing of the
package but ``SurfaceTopology``, is slow and exists only for tests.
"""

import math

from stabctab.genfunc import SurfaceTopology

Key = tuple[int, int]


def _generalized_binomial(e: int, j: int) -> int:
    """C(e, j) for integer e of either sign and j >= 0."""
    if e >= 0:
        return math.comb(e, j)
    return (-1) ** j * math.comb(-e + j - 1, j)


def binomial_product(factors, weight: Key, order: int) -> dict[Key, int]:
    """The product of (1 + sign * x^key)^e over the (key, sign, e) in factors,
    cut at weighted degree weight[0] * a + weight[1] * b <= order, as
    {(a, b): coefficient} with zeros omitted.  Every key has positive
    weighted degree."""
    def degree(key):
        return weight[0] * key[0] + weight[1] * key[1]

    acc = {(0, 0): 1}
    for (a, b), sign, e in factors:
        powers = {(a * j, b * j): _generalized_binomial(e, j) * sign ** j
                  for j in range(order // degree((a, b)) + 1)}
        product: dict[Key, int] = {}
        for (a1, b1), c1 in acc.items():
            for (a2, b2), c2 in powers.items():
                key = (a1 + a2, b1 + b2)
                if degree(key) <= order:
                    product[key] = product.get(key, 0) + c1 * c2
        acc = {key: c for key, c in product.items() if c}
    return acc


def goettsche_oracle(surface: SurfaceTopology, order: int) -> dict[Key, int]:
    """G(z, w) truncated at w-degree <= order, as {(i, n): coefficient of
    z^i w^n} with zeros omitted."""
    b1, b2 = surface.b1, surface.b2
    factors = []
    for m in range(1, order + 1):
        factors += [((2 * m - 1, m), 1, b1), ((2 * m + 1, m), 1, b1),
                    ((2 * m - 2, m), -1, -1), ((2 * m, m), -1, -b2),
                    ((2 * m + 2, m), -1, -1)]
    return binomial_product(factors, (0, 1), order)


def perverse_oracle(surface: SurfaceTopology, order: int) -> dict[Key, int]:
    """H(q, t) truncated at total degree <= order, (1 - qt) included, as
    {(a, b): coefficient of q^a t^b} with zeros omitted."""
    b1, b2 = surface.b1, surface.b2
    factors = [((1, 1), -1, 1)]
    for m in range(1, order + 1):
        factors += [((m, m - 1), 1, b1), ((m, m + 1), 1, b1),
                    ((m + 1, m - 1), -1, -1), ((m, m), -1, -b2),
                    ((m - 1, m + 1), -1, -1)]
    return binomial_product(factors, (1, 1), order)


def stable_betti_oracle(surface: SurfaceTopology, order: int) -> list[int]:
    """Coefficients of q^0..q^order of the stable Betti product, written out
    on its own: the package reads it from H's factors at t = q."""
    b1, b2 = surface.b1, surface.b2
    factors = []
    for m in range(1, order + 1):
        factors += [((2 * m - 1, 0), 1, b1), ((2 * m + 1, 0), 1, b1),
                    ((2 * m, 0), -1, -(b2 + 1)), ((2 * m + 2, 0), -1, -1)]
    prod = binomial_product(factors, (1, 0), order)
    return [prod.get((k, 0), 0) for k in range(order + 1)]
