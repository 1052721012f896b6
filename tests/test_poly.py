"""The polynomial grammar and the sparse Poly class, as properties."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from stabctab.poly import Poly, parse_polynomial

from draws import GRAMMAR

GRAMMAR_TEXT = st.text(alphabet=GRAMMAR, max_size=24)


@settings(max_examples=300)
@given(GRAMMAR_TEXT)
def test_any_grammar_text_parses_or_is_a_value_error(text):
    for variables in (("x", "y"), ("t",)):
        try:
            parsed = parse_polynomial(text, variables)
        except ValueError:
            continue
        assert all(len(k) == len(variables) and min(k) >= 0 for k in parsed)
        assert all(type(c) is Fraction and c for c in parsed.values())


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


@st.composite
def sparse_polys(draw):
    variables = draw(st.sampled_from([("t",), ("x", "y")]))
    coefficients = st.builds(
        Fraction, st.integers(-50, 50), st.integers(1, 12)
    ).filter(bool)
    keys = st.tuples(*[st.integers(0, 9)] * len(variables))
    terms = draw(st.dictionaries(keys, coefficients, max_size=6))
    return Poly(len(variables), terms), variables


@settings(max_examples=100)
@given(sparse_polys(), st.tuples(st.booleans(), st.sampled_from(["", " ", "\t"]),
                                 st.sampled_from(["-", "−"])))
def test_rendered_poly_parses_back_equal(poly_and_variables, style):
    poly, variables = poly_and_variables
    assert Poly.parse(render(poly, variables, style), variables) == poly


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


@settings(max_examples=100)
@given(sparse_polys(), sparse_polys(), st.sampled_from([ABOVE_EVERY_DEGREE, 3, 9]))
def test_product_matches_the_pairwise_product(left, right, cutoff):
    (f, _), (g, _) = left, right
    if f.nvars == g.nvars:
        assert f.mul(g, cutoff).terms == naive_mul(f, g, cutoff)


@settings(max_examples=40)
@given(sparse_polys(), st.lists(sparse_polys(), min_size=2, max_size=2),
       st.sampled_from([ABOVE_EVERY_DEGREE, 4, 12]))
def test_substitution_matches_term_by_term(poly_and_variables, images, cutoff):
    # Horner's rule in the last variable forms the same sum as composing
    # each term on its own
    f, _ = poly_and_variables
    images = [img for img, _ in images]
    if len({img.nvars for img in images}) != 1:
        return
    images = [Poly(img.nvars, {k: c for k, c in img.terms.items() if sum(k)})
              for img in images][:f.nvars]
    want = Poly(images[0].nvars)
    for key, c in f.terms.items():
        term = Poly(images[0].nvars, {(0,) * images[0].nvars: c})
        for img, e in zip(images, key):
            for _ in range(e):
                term = Poly(term.nvars, naive_mul(term, img, cutoff))
        want = want + term
    assert f.substitute(tuple(images), cutoff) == want
