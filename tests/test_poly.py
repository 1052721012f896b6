"""The polynomial grammar and the sparse Poly class, as properties over
seeded draws."""

import random
from fractions import Fraction

from stabctab.poly import Poly, parse_polynomial

from draws import grammar_text
from test_package import refused


def test_any_grammar_text_parses_or_is_a_value_error():
    rng = random.Random(40)
    for _ in range(300):
        text = grammar_text(rng)
        for variables in (("x", "y"), ("t",)):
            try:
                parsed = parse_polynomial(text, variables)
            except ValueError:
                continue
            assert all(len(k) == len(variables) and min(k) >= 0 for k in parsed), text
            assert all(type(c) is Fraction and c for c in parsed.values()), text


def render(poly: Poly, variables, style) -> str:
    """Write poly in the input grammar; style picks optional spellings."""
    if not poly:
        return "0"
    star, space, minus = style
    out = []
    for key, c in sorted(poly.terms.items()):
        factors = [str(abs(c))] + [
            f"{v}^{e}" if e > 1 else v for v, e in zip(variables, key) if e
        ]
        sign = minus if c < 0 else "+"
        out.append(f"{space}{sign}{space}" + ("*" if star else "").join(factors))
    return "".join(out)


#: The two rings of the draws, by their variables.
RINGS = (("t",), ("x", "y"))

#: The numerators of drawn coefficients, -50..50 without 0.
NUMERATORS = [n for n in range(-50, 51) if n]


def sparse_poly(rng, variables) -> Poly:
    """A Poly in variables of at most 6 terms (fewer when a key repeats),
    exponents 0..9 and coefficients n/d with n in +-1..50, d in 1..12."""
    return Poly(len(variables), {
        tuple(rng.randint(0, 9) for _ in variables):
            Fraction(rng.choice(NUMERATORS), rng.randint(1, 12))
        for _ in range(rng.randint(0, 6))})


def test_rendered_poly_parses_back_equal():
    rng = random.Random(41)
    for _ in range(100):
        variables = rng.choice(RINGS)
        poly = sparse_poly(rng, variables)
        style = (rng.random() < 0.5, rng.choice(["", " ", "\t"]), rng.choice(["-", "−"]))
        text = render(poly, variables, style)
        assert Poly.parse(text, variables) == poly, text


def test_substitution_skips_the_powers_that_vanish():
    # t^(10^5) truncates to 0 at cutoff 5, and so does every power of 0;
    # the terms past either are 0 and skipped
    t, zero = Poly(1, {(1,): 1}), Poly(1)
    f = Poly(2, {(1, 1): 2, (10**5, 1): 1, (10**5, 0): 3, (0, 2): -1})
    assert f.substitute((t, t), 5) == Poly(1, {(2,): 1})
    assert f.substitute((t, zero), 5) == zero
    assert f.substitute((zero, t), 5) == Poly(1, {(2,): -1})


#: A cutoff above every degree below: a product of two ``sparse_polys``
#: has degree at most 2 * 18, a composition with them at most 18 * 18.
ABOVE_EVERY_DEGREE = 18 * 18 + 1


def naive_mul(f: Poly, g: Poly, cutoff) -> dict:
    """The product's terms below the cutoff, pair by pair in Fraction
    arithmetic."""
    out: dict = {}
    for k1, c1 in f.terms.items():
        for k2, c2 in g.terms.items():
            k = tuple(a + b for a, b in zip(k1, k2))
            if sum(k) < cutoff:
                out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def test_product_matches_the_pairwise_product():
    # both factors in one ring, so that every draw is checked
    rng = random.Random(42)
    for _ in range(100):
        variables = rng.choice(RINGS)
        f, g = sparse_poly(rng, variables), sparse_poly(rng, variables)
        cutoff = rng.choice([ABOVE_EVERY_DEGREE, 3, 9])
        assert f.mul(g, cutoff).terms == naive_mul(f, g, cutoff), (f, g, cutoff)


def test_substitution_matches_term_by_term():
    # Horner's rule in the last variable forms the same sum as composing
    # each term on its own; the images share one ring, so that every draw
    # is checked
    rng = random.Random(43)
    for _ in range(40):
        f = sparse_poly(rng, rng.choice(RINGS))
        ring = rng.choice(RINGS)
        images = [sparse_poly(rng, ring) for _ in range(f.nvars)]
        cutoff = rng.choice([ABOVE_EVERY_DEGREE, 4, 12])
        images = [Poly(img.nvars, {k: c for k, c in img.terms.items() if sum(k)})
                  for img in images]
        want = Poly(len(ring))
        for key, c in f.terms.items():
            term = Poly(len(ring), {(0,) * len(ring): c})
            for img, e in zip(images, key):
                for _ in range(e):
                    term = Poly(term.nvars, naive_mul(term, img, cutoff))
            want = want + term
        assert f.substitute(tuple(images), cutoff) == want, (f, images, cutoff)


# node ids of tests whose checks are now rows of test_package.REFUSALS
test_powers_refuses_a_negative_n = refused("Poly-powers-n-negative")
