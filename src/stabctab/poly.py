"""Sparse exact polynomials in any number of variables, plus the term grammar.

One class, ``Poly``, serves the branch parametrizations in t, the
germs in (x, y) and, as its subclass ``series.TruncatedBiSeries``, the
power series in (q, t): its terms map exponent tuples, one entry per
variable, to nonzero ``Fraction`` coefficients; an ``int`` coefficient
is converted, and any other (a float) is a TypeError.  A Poly is an
immutable ``_record.Record``.  Every product is truncated: its
``cutoff`` keeps the terms of total degree below it; in one variable
that is the exponent itself.  Beside the products, ``weight`` and
``Poly.substitute_work`` give ``germ``'s work caps their cost model.

The accepted input grammar is deliberately small: a polynomial is a
'+'/'-' separated list of terms, each term ``c*x^a*y^b`` where the
rational coefficient ``c`` ("p/q" with q >= 1, or an integer) and either
variable part may be omitted.  Whitespace, what ``str.split`` splits
on, is ignored, as in every reader of outside input; '*' between
factors is optional, exponents are nonnegative integers, every integer
is ASCII digits, and the Unicode minus sign is accepted alongside '-'.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import add

from ._record import Record, parse_int, parse_rational
from .errors import BadInput

#: A factor of a term: a coefficient p/q or digits, or a variable v or v^n.
_FACTOR = re.compile(r"([0-9]+/[0-9]+|[0-9]+|[a-zA-Z](?:\^[0-9]+)?)")

#: A term: its run of signs, odd in '-' for a negative term, and its body.
_TERM = re.compile(r"([+-]*)([^+-]+)")


def _split_terms(s: str) -> list[tuple[int, str]]:
    # whitespace is dropped and the Unicode minus read as '-'
    s = "".join(s.split()).replace("\u2212", "-")
    if not s:
        raise BadInput("empty polynomial string")
    if s[-1] in "+-":
        raise BadInput(f"dangling sign in polynomial {s!r}")
    return [(-1 if signs.count("-") % 2 else 1, body) for signs, body in _TERM.findall(s)]


def parse_polynomial(s: str, variables: tuple[str, ...]) -> dict[tuple[int, ...], Fraction]:
    """Parse the grammar above into an exponent-tuple -> coefficient map.

    Raises BadInput (a ValueError) for anything outside the grammar, a
    zero denominator, or a variable not in ``variables``.
    """
    out: dict[tuple[int, ...], Fraction] = {}
    for sign, body in _split_terms(s):
        pieces: list[str] = []
        for chunk in body.split("*"):
            if not chunk:
                raise BadInput(f"empty factor in term {body!r}")
            found = _FACTOR.findall(chunk)
            if "".join(found) != chunk:
                raise BadInput(f"cannot parse term {body!r}")
            pieces.extend(found)
        coef = Fraction(sign)
        expo = [0] * len(variables)
        seen_coef = False
        for piece in pieces:
            if piece[0].isdigit():
                if seen_coef:
                    raise BadInput(f"two coefficients in term {body!r}")
                coef *= parse_rational(piece)
                seen_coef = True
                continue
            name, _, power = piece.partition("^")
            if name not in variables:
                raise BadInput(f"unknown factor {piece!r} in term {body!r}")
            expo[variables.index(name)] += parse_int(power or "1")
        key = tuple(expo)
        out[key] = out.get(key, Fraction(0)) + coef
    return {k: c for k, c in out.items() if c}


def _checked_terms(nvars: int, terms: dict) -> dict[tuple[int, ...], Fraction]:
    """terms without its zero coefficients, each kept as a Fraction.

    A key that is not ``nvars`` nonnegative exponents is a ValueError, and
    a coefficient that is not an int or a Fraction (a float, say) is a
    TypeError.
    """
    out = {}
    for k, c in terms.items():
        if len(k) != nvars or min(k) < 0:
            raise ValueError(f"exponent keys must be {nvars} nonnegative integers, got {k}")
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"coefficient must be rational, got {type(c).__name__}")
        if c:
            out[k] = c if isinstance(c, Fraction) else Fraction(c)
    return out


class Poly(Record):
    """Polynomial in ``nvars`` variables with exact rational coefficients.

    ``terms`` maps exponent tuples of length ``nvars`` to nonzero
    Fractions.  The number of variables is stored, not read off the
    keys, so the zero polynomial still knows its ring.  A Poly is an
    immutable Record that hashes by its terms; sums, multiples and
    products are built by ``_like``, which a subclass overrides to keep
    its own ring.
    """

    def __init__(self, nvars: int, terms: dict[tuple[int, ...], Fraction] | None = None):
        super().__init__(nvars=nvars, terms=_checked_terms(nvars, terms or {}))

    def _like(self, terms: dict) -> "Poly":
        """A value of this ring with these terms."""
        return Poly(self.nvars, terms)

    @classmethod
    def parse(cls, s: str, variables: tuple[str, ...]) -> "Poly":
        return cls(len(variables), parse_polynomial(s, variables))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        return f"Poly({self.nvars}, {self.terms!r})"

    def constant(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def low_degree(self) -> int | None:
        """Smallest total degree of a term (None for 0)."""
        return min((sum(k) for k in self.terms), default=None)

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + c
        return self._like(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + other.scale(-1)

    def scale(self, c) -> "Poly":
        return self._like({k: c * v for k, v in self.terms.items()})

    def _numerators(self) -> tuple[int, dict[tuple[int, ...], int]]:
        """(d, terms times d), d the least common denominator: integers."""
        d = math.lcm(*(c.denominator for c in self.terms.values()))
        return d, {k: c.numerator * (d // c.denominator) for k, c in self.terms.items()}

    def mul(self, other: "Poly", cutoff: int) -> "Poly":
        """Product, keeping terms of total degree < cutoff.

        The pairs are multiplied as integers, over the least common
        denominator of each side, and each sum is divided back once.
        """
        (d1, left), (d2, right) = self._numerators(), other._numerators()
        right = [(k, sum(k), c) for k, c in right.items()]
        out: dict[tuple[int, ...], int] = {}
        for k1, c1 in left.items():
            room = cutoff - sum(k1)
            for k2, deg, c2 in right:
                if deg >= room:
                    continue
                k = tuple(map(add, k1, k2))
                out[k] = out.get(k, 0) + c1 * c2
        return self._like({k: Fraction(c, d1 * d2) for k, c in out.items() if c})

    def derivative(self, i: int) -> "Poly":
        """Partial derivative in the i-th variable."""
        return Poly(self.nvars, {
            k[:i] + (k[i] - 1,) + k[i + 1:]: k[i] * c
            for k, c in self.terms.items() if k[i]
        })

    def powers(self, n: int, cutoff: int) -> list["Poly"]:
        """[1, self, ..., self^n], each truncated at total degree cutoff, ended
        before its first power that is 0, since every higher one is 0 as well."""
        out = [self._like({(0,) * self.nvars: 1})]
        for _ in range(n):
            power = out[-1].mul(self, cutoff)
            if not power:
                break
            out.append(power)
        return out

    def substitute(self, images: tuple["Poly", ...], cutoff: int) -> "Poly":
        """self(images[0], ..., images[nvars - 1]), truncated at total degree cutoff.

        The images share one ring, whose number of variables the result takes.
        It is formed by Horner's rule in the last variable y: the terms with
        one exponent of y are summed as products of the other images' powers,
        and the sum so far is multiplied by one power of y's image per such
        exponent, so the products formed do not grow with the number of
        terms.  The tables of powers come from ``powers``, so a term or a
        power of y past the end of a table is 0.  An image without
        constant term reaches 0 by the power cutoff, so the cost
        follows the cutoff and not the exponents of self.  Constants and
        zeros come from the images' ``_like``, so ``substitute_work`` runs this on spans.
        """
        if len(images) != self.nvars:
            raise ValueError(f"need {self.nvars} images, got {len(images)}")
        *heads, last = images
        tables = [img.powers(max((k[i] for k in self.terms), default=0), cutoff)
                  for i, img in enumerate(heads)]
        groups: dict[int, Poly] = {}
        for key, c in self.terms.items():
            if any(e >= len(table) for e, table in zip(key, tables)):
                continue
            term = last._like({(0,) * last.nvars: c})
            for table, e in zip(tables, key):
                term = term.mul(table[e], cutoff)
            groups[key[-1]] = groups[key[-1]] + term if key[-1] in groups else term
        exps = sorted(groups, reverse=True)
        gaps = [e - below for e, below in zip(exps, exps[1:] + [0])]
        ypows = last.powers(max(gaps, default=0), cutoff)
        acc = last._like({})
        for e, gap in zip(exps, gaps):
            acc = acc + groups[e]
            acc = acc.mul(ypows[gap], cutoff) if gap < len(ypows) else last._like({})
        return acc

    def substitute_work(self, images: tuple["Poly", ...], cutoff: int) -> int:
        """An upper bound, found before any is done, on the term operations of
        ``self.substitute(images, cutoff)``, images in one variable: a product
        p*q counts its |p|*|q| term pairs and the terms it builds, a sum p + q
        its |p| + |q| terms, each weighted weight(a) * weight(b) for bounds a, b
        on the bits of each side's integer numerators and common denominator.
        It is ``substitute`` run on the spans of the images."""
        zero = _Span([0], 0, -1, 0, 0, 0)
        self.substitute(tuple(zero._like(img.terms) for img in images), cutoff)
        return zero.work[0]


def weight(bits: int) -> int:
    """How much one operation on numbers of ``bits`` bits counts in a work
    cap: 1, plus 1 per full 1,024 bits."""
    return 1 + bits // 1024


class _Span:
    """A polynomial in t as ``Poly.substitute_work`` sees it: at most n
    terms, of t-degrees lo..hi, whose integer numerators over one common
    denominator (as ``Poly.mul`` forms them) have at most num bits and that
    denominator at most den bits.  Each product and sum of spans adds its
    weighted operations to work[0], shared by the spans of one run."""

    nvars = 1
    powers = Poly.powers

    def __init__(self, work: list[int], lo: int, hi: int, n: int, num: int, den: int):
        self.work, self.lo, self.hi = work, lo, hi
        self.n, self.num, self.den = max(min(n, hi - lo + 1), 0), num, den

    def _like(self, terms: dict) -> "_Span":
        d, nums = Poly(1, terms)._numerators()
        return _Span(self.work, min((e for (e,) in nums), default=0),
                     max((e for (e,) in nums), default=-1), len(nums),
                     max((abs(c).bit_length() for c in nums.values()), default=0),
                     (d - 1).bit_length())

    def __bool__(self) -> bool:
        return self.n > 0

    def _count(self, other: "_Span", terms: int) -> None:
        self.work[0] += terms * weight(self.num + self.den) * weight(other.num + other.den)

    def __add__(self, other: "_Span") -> "_Span":
        self._count(other, self.n + other.n)
        if not (self and other):
            return self if self else other
        # p/d1 + q/d2 = (p*d2 + q*d1)/(d1*d2), at worst
        return _Span(self.work, min(self.lo, other.lo), max(self.hi, other.hi),
                     self.n + other.n, max(self.num + other.den, other.num + self.den) + 1,
                     self.den + other.den)

    def mul(self, other: "_Span", cutoff: int) -> "_Span":
        hi = min(self.hi + other.hi, cutoff - 1)
        # each coefficient sums at most min(|p|, |q|) products
        out = _Span(self.work, self.lo + other.lo, hi, self.n * other.n,
                    self.num + other.num + min(self.n, other.n).bit_length(),
                    self.den + other.den)
        # every pair is multiplied, and every term of the product built
        self._count(other, self.n * other.n + out.n)
        return out
