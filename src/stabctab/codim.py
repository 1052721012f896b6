r"""Codimension bounds for non-integral curves on Enriques and bielliptic
surfaces.

:mod:`stabctab.nslattice` re-exports their public names, which callers,
the acceptance suite among them, import from there; kept apart,
``decompose`` does not load them and ``bounds`` no lattice model.  The
``bounds`` subcommand's handler, :func:`cmd_bounds`, lives here, with
the formulas it reads.  Two groups of operations:

* codimension lower bounds for the locus of non-integral curves in the
  linear system of d*beta on Enriques and bielliptic surfaces, as the
  minimum of explicit per-case bounds, together with the stabilization
  threshold d0(beta^2, i, j) on Enriques surfaces and the translation
  N = 2*ceil(codim) - 2.

* small exact helpers: linear-system dimensions on an Enriques surface
  and chi of a bielliptic divisor class.

Square roots are kept exact (:mod:`stabctab.surd`, imported only by
the two case-term functions that take them); no floating point.  A
radicand above ``surd.MAX_RADICAND`` (10^12), such as 2*beta^2 for
beta^2 above 5 * 10^11, raises BadInput instead of running a
trial division of unbounded length.  The threshold d0 needs only
ceilings of square roots, which ``math.isqrt`` gives at any size, and
is pure ``int``: ``fractions`` too is imported only by the functions
that build a Fraction.  An argument outside a formula's domain raises
BadInput.
"""

from __future__ import annotations

import math

from ._record import MAX_ARGUMENT, HashableRecord, parse_rational
from .errors import BadInput

__all__ = [
    "BiellipticParams",
    "bielliptic_chi",
    "bielliptic_codim_bound",
    "bielliptic_codim_terms",
    "bielliptic_dim_ls",
    "bielliptic_minimum",
    "enriques_codim_bound",
    "enriques_codim_terms",
    "enriques_d0",
    "enriques_dim_ls",
    "enriques_minimum",
    "governing_cases",
    "n_lower_bound",
]


# --- Enriques-side formulas ---------------------------------------------------


def enriques_dim_ls(dsq: int) -> int:
    """Dimension dsq/2 of the linear system of a nef effective divisor of
    square dsq > 0 (necessarily even) on an Enriques surface."""
    if dsq <= 0:
        raise BadInput("the linear-system dimension needs a positive self-intersection")
    if dsq % 2:
        raise BadInput(f"odd self-intersection {dsq} is impossible in an even lattice")
    return dsq // 2


def _check_beta_sq(beta_sq: int) -> None:
    if beta_sq < 2 or beta_sq % 2:
        raise BadInput("beta^2 must be a positive even integer for an ample class")


def enriques_codim_terms(beta_sq: int, d: int, generic: bool):
    """The per-case lower bounds, labelled, as exact values.

    Cases 1.1-1.3 split both summands by the signs of their squares;
    cases 2.1-2.2 cover a summand supported on rigid components.  On a
    generic Enriques surface there are no rigid curves, so generic=True
    drops cases 2.1-2.2; the stabilization threshold enriques_d0 is
    calibrated against that restricted minimum.
    """
    from fractions import Fraction

    from .surd import sqrt_rational

    _check_beta_sq(beta_sq)
    if d < 1:
        raise BadInput("d must be a positive integer")
    half = Fraction(1, 2)
    terms = [
        ("1.1", d * sqrt_rational(2 * beta_sq) - 2),
        ("1.2", d - half),
        ("1.3", Fraction(d * d * beta_sq - 2, 4)),
    ]
    if not generic:
        terms += [("2.1", Fraction(d, 2)), ("2.2", d - half)]
    return terms


def enriques_codim_bound(beta_sq: int, d: int, generic: bool = False):
    """Exact lower bound for the codimension of non-integral members of
    the linear system of d*beta, beta^2 = beta_sq, on an Enriques surface.

    The bound is :func:`enriques_minimum` of :func:`enriques_codim_terms`.
    """
    return enriques_minimum(enriques_codim_terms(beta_sq, d, generic))


def enriques_minimum(terms):
    """The Enriques bound from its case terms: the minimum over cases that
    give positive (non-vacuous) values.

    A case bound <= 0 carries no information since every nonempty case
    has positive codimension, and whenever a displayed case value drops
    to 0 the geometry of that case forces its codimension above the
    minimum of the remaining cases.
    """
    return min(v for _, v in terms if v > 0)


def governing_cases(terms, bound) -> list[str]:
    """Labels of the case terms that attain the bound, in order."""
    labels = []
    for label, v in terms:
        if v == bound and label not in labels:
            labels.append(label)
    return labels


def n_lower_bound(codim_bound) -> int:
    """N = 2*ceil(codim) - 2, floored at -2 (vacuous below that)."""
    return max(2 * math.ceil(codim_bound) - 2, -2)


def enriques_d0(beta_sq: int, i: int, j: int) -> int:
    """Stabilization threshold d0(beta^2, i, j) on an Enriques surface.

    The maximum of five exact terms; past this multiple, the codimension
    bound N dominates i + j and the dimension condition 2 dim >= 3i + j
    holds, so the stable table applies at the entry (i, j).
    """
    _check_beta_sq(beta_sq)
    if i < 0 or j < 0:
        raise BadInput("i and j must be nonnegative")
    terms = [
        2,
        i + 1,
        (i + j + 3) // 2,  # ceil((i + j + 2) / 2)
        # (i + j + 6) / (2 sqrt(2 beta^2))
        _ceil_sqrt((i + j + 6) ** 2, 8 * beta_sq),
        _ceil_sqrt(2 * i + 2 * j + 6, beta_sq),
    ]
    return max(terms)


def _ceil_sqrt(p: int, q: int) -> int:
    """ceil(sqrt(p/q)) for p >= 0 and q > 0: the least n with n^2 >= p/q,
    that is with n^2 >= ceil(p/q), since n^2 is an integer."""
    m = -(-p // q)
    return math.isqrt(m - 1) + 1 if m else 0


# --- bielliptic-side formulas -------------------------------------------------


class BiellipticParams(HashableRecord):
    """Numerical data of an ample class a*lambda*A + b*mu*B on a bielliptic
    surface with A^2 = B^2 = 0 and A.B = gamma.

    lambda and mu are the rational scales making lambda*A, mu*B an
    integral basis; their values depend on the surface type and are
    caller input, each with numerator and denominator at most MAX_ARGUMENT.
    chi of the class is a*b*lambda*mu*gamma and must be an integer.
    """

    def __init__(self, a: int, b: int, lam: Fraction, mu: Fraction, gamma: int):
        from fractions import Fraction

        lam, mu = Fraction(lam), Fraction(mu)
        if a < 1 or b < 1:
            raise BadInput("a and b must be positive integers")
        if lam <= 0 or mu <= 0:
            raise BadInput("lambda and mu must be positive")
        if max(lam.numerator, lam.denominator, mu.numerator, mu.denominator) > MAX_ARGUMENT:
            raise BadInput("lambda and mu must have numerator and denominator at most "
                           f"{MAX_ARGUMENT}")
        if gamma < 1:
            raise BadInput("gamma must be a positive integer")
        chi = a * b * lam * mu * gamma
        if chi.denominator != 1:
            raise BadInput(f"chi = {chi} must be an integer")
        super().__init__(a=a, b=b, lam=lam, mu=mu, gamma=gamma)

    def beta_sq(self) -> Fraction:
        return 2 * self.a * self.b * self.lam * self.mu * self.gamma


def bielliptic_chi(s, t, gamma: int) -> Fraction:
    """chi of a divisor class s*A + t*B on a bielliptic surface: s*t*gamma."""
    from fractions import Fraction

    return Fraction(s) * Fraction(t) * gamma


def bielliptic_dim_ls(params: BiellipticParams, d: int) -> Fraction:
    """dim of the linear system of d*beta: chi - 1 = d^2 a b lambda mu gamma - 1."""
    return bielliptic_chi(d * params.a * params.lam, d * params.b * params.mu, params.gamma) - 1


def _mixed_case_bound(da_side: Fraction, coeff: Fraction, top: int):
    """min over k in [1, max(1, top)] of k*coeff*(da_side - 1) + 1."""
    lo, hi = 1, max(1, top)
    vals = [k * coeff * (da_side - 1) + 1 for k in (lo, hi)]
    return min(vals)


def bielliptic_codim_terms(params: BiellipticParams, d: int):
    """The three per-case lower bounds, labelled, as exact values.

    Case 1: both summands pair positively with both fibrations; the
    bound is d*sqrt(beta^2) - 1.  Case 2 (mixed): one coordinate of one
    summand vanishes while the opposite one does not; the raw bound
    k*mu*gamma*(d*a*lambda - 1) + 1 is minimized over the admissible
    range of the nonzero coordinate (and symmetrically with the roles of
    the two fibrations swapped).  Case 2 (pure): the summands are
    numerically multiples of the two fibers; the bound is
    d^2 a b lambda mu gamma - d b mu gamma - d a lambda gamma.
    """
    from .surd import sqrt_rational

    if d < 1:
        raise BadInput("d must be a positive integer")
    a, b, lam, mu, gamma = params.a, params.b, params.lam, params.mu, params.gamma
    case1 = d * sqrt_rational(params.beta_sq()) - 1
    mixed = min(
        _mixed_case_bound(d * a * lam, mu * gamma, d * b - 1),
        _mixed_case_bound(d * b * mu, lam * gamma, d * a - 1),
    )
    pure = d * d * a * b * lam * mu * gamma - d * b * mu * gamma - d * a * lam * gamma
    return [("1", case1), ("2", mixed), ("2", pure)]


def bielliptic_codim_bound(params: BiellipticParams, d: int):
    """Exact lower bound for the codimension of non-integral members of
    the linear system of d*beta on a bielliptic surface.

    The bound is :func:`bielliptic_minimum` of
    :func:`bielliptic_codim_terms`.
    """
    return bielliptic_minimum(bielliptic_codim_terms(params, d))


def bielliptic_minimum(terms):
    """The bielliptic bound from its case terms: the minimum of the three,
    reported as-is even when vacuous (nonpositive)."""
    return min(v for _, v in terms)


# --- the bounds subcommand ----------------------------------------------------


def _reject(scope: str, *given) -> None:
    """BadInput naming the first of the (flag, value) pairs whose value is
    set: the flag is read by the calls of scope only, and not ignored."""
    for flag, value in given:
        if value is not None:
            raise BadInput(f"{flag} applies to {scope} only")


def cmd_bounds(args) -> tuple:
    want_d = args.d is not None
    want_ij = args.i is not None or args.j is not None
    if want_d == want_ij:
        raise BadInput("give exactly one of --d or --i/--j")
    if want_ij and (args.i is None or args.j is None):
        raise BadInput("--i and --j go together")

    params: dict = {"surface": args.surface}
    results: dict = {}
    if args.surface == "enriques":
        if args.beta_sq is None:
            raise BadInput("enriques needs --beta-sq")
        _reject("--surface bielliptic", ("--a", args.a), ("--b", args.b),
                ("--lambda", args.lam), ("--mu", args.mu), ("--gamma", args.gamma))
        params["beta_sq"] = args.beta_sq
        if want_d:
            params["d"] = args.d
            params["generic"] = args.generic
            terms = enriques_codim_terms(args.beta_sq, args.d, args.generic)
            bound = enriques_minimum(terms)
            provenance = (
                "cases 1.1-1.3 of the codimension bounds for non-integral members of "
                "|d*beta| on a generic Enriques surface, which has no rigid curves"
                if args.generic else
                "five-case codimension bounds for non-integral members of |d*beta| "
                "on an Enriques surface"
            )
        else:
            _reject("--surface enriques --d", ("--generic", args.generic or None))
            params["i"], params["j"] = args.i, args.j
            results["d0"] = enriques_d0(args.beta_sq, args.i, args.j)
            provenance = ("stabilization threshold d0 of an Enriques surface: "
                          "the max of five explicit terms")
    else:
        missing = [f for f in ("a", "b", "lam", "mu", "gamma") if getattr(args, f) is None]
        if missing:
            raise BadInput("bielliptic needs --a --b --lambda --mu --gamma")
        if not want_d:
            raise BadInput("the d0 threshold is defined for enriques only")
        _reject("--surface enriques", ("--beta-sq", args.beta_sq))
        _reject("--surface enriques --d", ("--generic", args.generic or None))
        bp = BiellipticParams(
            args.a, args.b, parse_rational(args.lam), parse_rational(args.mu), args.gamma
        )
        params.update(
            {"a": args.a, "b": args.b, "lambda": args.lam, "mu": args.mu,
             "gamma": args.gamma, "d": args.d}
        )
        terms = bielliptic_codim_terms(bp, args.d)
        bound = bielliptic_minimum(terms)
        provenance = (
            "three-case codimension bounds in the fiber-class basis of a "
            "bielliptic surface"
        )
    if want_d:
        results["codim_bound"] = bound
        results["n_bound"] = n_lower_bound(bound)
        labels = governing_cases(terms, bound)
        results["governing_case"] = " or ".join(labels) + (" (tie)" if labels[1:] else "")
        results["case_bounds"] = terms
    if args.surface == "bielliptic":
        results["dim_ls"] = bielliptic_dim_ls(bp, args.d)
    record = {"parameters": params, "results": results, "provenance": provenance}
    return 0, record, results.items()
