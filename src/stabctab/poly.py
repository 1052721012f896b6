"""Sparse exact polynomials in one or two variables, plus the term grammar.

The accepted input grammar is deliberately small: a polynomial is a
'+'/'-' separated list of terms, each term ``c*x^a*y^b`` where the
rational coefficient ``c`` ("p/q" or an integer) and either variable
part may be omitted.  Whitespace is ignored, '*' between factors is
optional, exponents are nonnegative integers, and the Unicode minus
sign is accepted alongside '-'.
"""

from __future__ import annotations

import re
from fractions import Fraction

_FACTOR = re.compile(r"(\d+/\d+|\d+|[a-zA-Z](?:\^\d+)?)")
_COEF = re.compile(r"^\d+(/\d+)?$")
_VAR = re.compile(r"^([a-zA-Z])(?:\^(\d+))?$")


def _split_terms(s: str) -> list[tuple[int, str]]:
    s = s.replace("\u2212", "-").replace(" ", "").replace("\t", "")
    if not s:
        raise ValueError("empty polynomial string")
    terms: list[tuple[int, str]] = []
    sign, buf = 1, ""
    for ch in s:
        if ch in "+-":
            if buf:
                terms.append((sign, buf))
                sign, buf = 1, ""
            if ch == "-":
                sign = -sign
        else:
            buf += ch
    if not buf:
        raise ValueError(f"dangling sign in polynomial {s!r}")
    terms.append((sign, buf))
    return terms


def parse_polynomial(s: str, variables: tuple[str, ...]) -> dict[tuple[int, ...], Fraction]:
    """Parse the grammar above into an exponent-tuple -> coefficient map.

    Raises ValueError for anything outside the grammar or a variable not
    in ``variables``.
    """
    out: dict[tuple[int, ...], Fraction] = {}
    for sign, body in _split_terms(s):
        pieces: list[str] = []
        for chunk in body.split("*"):
            if not chunk:
                raise ValueError(f"empty factor in term {body!r}")
            found = _FACTOR.findall(chunk)
            if "".join(found) != chunk:
                raise ValueError(f"cannot parse term {body!r}")
            pieces.extend(found)
        coef = Fraction(sign)
        expo = [0] * len(variables)
        seen_coef = False
        for piece in pieces:
            if _COEF.match(piece):
                if seen_coef:
                    raise ValueError(f"two coefficients in term {body!r}")
                coef *= Fraction(piece)
                seen_coef = True
                continue
            m = _VAR.match(piece)
            if not m or m.group(1) not in variables:
                raise ValueError(f"unknown factor {piece!r} in term {body!r}")
            expo[variables.index(m.group(1))] += int(m.group(2) or 1)
        key = tuple(expo)
        out[key] = out.get(key, Fraction(0)) + coef
    return {k: c for k, c in out.items() if c}


class Poly1:
    """Univariate polynomial in t with exact rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, Fraction] | None = None):
        self.terms = {k: Fraction(c) for k, c in (terms or {}).items() if c}
        if any(k < 0 for k in self.terms):
            raise ValueError("negative exponent in Poly1")

    @classmethod
    def parse(cls, s: str, var: str = "t") -> "Poly1":
        return cls({k[0]: c for k, c in parse_polynomial(s, (var,)).items()})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly1) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"Poly1({self.terms!r})"

    def at_zero(self) -> Fraction:
        return self.terms.get(0, Fraction(0))

    def order(self) -> int | None:
        """Smallest exponent with nonzero coefficient (None for 0)."""
        return min(self.terms) if self.terms else None

    def __add__(self, other: "Poly1") -> "Poly1":
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + c
        return Poly1(out)

    def __sub__(self, other: "Poly1") -> "Poly1":
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, Fraction(0)) - c
        return Poly1(out)

    def scale(self, c) -> "Poly1":
        c = Fraction(c)
        return Poly1({k: c * v for k, v in self.terms.items()})

    def mul_trunc(self, other: "Poly1", cutoff: int | None) -> "Poly1":
        """Product, keeping exponents < cutoff (no cutoff if None)."""
        out: dict[int, Fraction] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = k1 + k2
                if cutoff is not None and k >= cutoff:
                    continue
                out[k] = out.get(k, Fraction(0)) + c1 * c2
        return Poly1(out)


class Poly2:
    """Bivariate polynomial in (x, y) with exact rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], Fraction] | None = None):
        self.terms = {k: Fraction(c) for k, c in (terms or {}).items() if c}
        if any(a < 0 or b < 0 for a, b in self.terms):
            raise ValueError("negative exponent in Poly2")

    @classmethod
    def parse(cls, s: str) -> "Poly2":
        return cls(parse_polynomial(s, ("x", "y")))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly2) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"Poly2({self.terms!r})"

    def at_origin(self) -> Fraction:
        return self.terms.get((0, 0), Fraction(0))

    def min_degree(self) -> int | None:
        return min((a + b for a, b in self.terms), default=None)

    def __add__(self, other: "Poly2") -> "Poly2":
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + c
        return Poly2(out)

    def __sub__(self, other: "Poly2") -> "Poly2":
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, Fraction(0)) - c
        return Poly2(out)

    def __mul__(self, other: "Poly2") -> "Poly2":
        out: dict[tuple[int, int], Fraction] = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                k = (a1 + a2, b1 + b2)
                out[k] = out.get(k, Fraction(0)) + c1 * c2
        return Poly2(out)

    def scale(self, c) -> "Poly2":
        c = Fraction(c)
        return Poly2({k: c * v for k, v in self.terms.items()})

    def dx(self) -> "Poly2":
        return Poly2({(a - 1, b): a * c for (a, b), c in self.terms.items() if a})

    def dy(self) -> "Poly2":
        return Poly2({(a, b - 1): b * c for (a, b), c in self.terms.items() if b})

    def compose_branch(self, xt: Poly1, yt: Poly1, cutoff: int | None) -> Poly1:
        """Evaluate at x = xt(t), y = yt(t), keeping t-exponents < cutoff."""
        xpows: list[Poly1] = [Poly1({0: Fraction(1)})]
        ypows: list[Poly1] = [Poly1({0: Fraction(1)})]
        max_a = max((a for a, _ in self.terms), default=0)
        max_b = max((b for _, b in self.terms), default=0)
        for _ in range(max_a):
            xpows.append(xpows[-1].mul_trunc(xt, cutoff))
        for _ in range(max_b):
            ypows.append(ypows[-1].mul_trunc(yt, cutoff))
        acc = Poly1()
        for (a, b), c in self.terms.items():
            acc = acc + xpows[a].mul_trunc(ypows[b], cutoff).scale(c)
        return acc

    def substitute_linear(self, m00, m01, m10, m11) -> "Poly2":
        """Precompose with the linear map (x, y) -> (m00 x + m01 y, m10 x + m11 y)."""
        u = Poly2({(1, 0): Fraction(m00), (0, 1): Fraction(m01)})
        v = Poly2({(1, 0): Fraction(m10), (0, 1): Fraction(m11)})
        max_a = max((a for a, _ in self.terms), default=0)
        max_b = max((b for _, b in self.terms), default=0)
        upows = [Poly2({(0, 0): Fraction(1)})]
        vpows = [Poly2({(0, 0): Fraction(1)})]
        for _ in range(max_a):
            upows.append(upows[-1] * u)
        for _ in range(max_b):
            vpows.append(vpows[-1] * v)
        acc = Poly2()
        for (a, b), c in self.terms.items():
            acc = acc + (upows[a] * vpows[b]).scale(c)
        return acc
