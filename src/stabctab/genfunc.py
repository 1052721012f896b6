r"""Generating functions for stable Betti and perverse Hodge numbers.

Every table here is read off two infinite products attached to a surface
with first Betti number b1 and second Betti number b2:

* the point-counting series G(z, w) whose z^i w^n coefficient is the
  i-th Betti number of the n-point Hilbert scheme of the surface,

      G(z,w) = prod_{m>=1} (1+z^(2m-1)w^m)^b1 (1+z^(2m+1)w^m)^b1
               / [(1-z^(2m-2)w^m) (1-z^(2m)w^m)^b2 (1-z^(2m+2)w^m)],

* the stable perverse series

      H(q,t) = (1-qt) prod_{m>=1} (1+q^m t^(m-1))^b1 (1+q^m t^(m+1))^b1
               / [(1-q^(m+1)t^(m-1)) (1-q^m t^m)^b2 (1-q^(m-1)t^(m+1))],

  whose q^i t^j coefficient is the stable perverse Hodge number n^{i,j}.

The stable Betti numbers are the coefficients of H(q,q), expanded from
H's own factors with t = q.  The two series are linked by the change of
variables z = t, w = q/t:

      H(q,t)/(1-qt) = G(t, q/t) * (1 - q/t) / (1 - t^2).

That identity is the main internal cross-check
(:func:`check_remark_identity`).  It is checked with denominators
cleared and q = zw, t = z substituted:

      H(zw, z) * (1 - z^2) = (1 - w) * (1 - z^2 w) * G(z, w)

modulo z^(K+1) and w^(K+1).  Every exponent is nonnegative, so this
truncation is an honest ring quotient: each side is one kernel product
at order K, its cleared denominators being extra factors, and the check
compares their integer coefficients, with no inverse and no rational
arithmetic.  A mismatch is reported at the key q^n t^(i-n) that z^i w^n
came from, with the integer coefficients of the two sides there.

Both products (Goettsche, Math. Ann. 286, 1990) are expanded by one
integer kernel.  Each is a product of factors (1 + sign * x^a * s^g)^e
with integer e, graded by a variable s (w for G; total degree for H,
carrying x = q with t-exponent equal to the degree minus a, the (1-qt)
prefactor being one more factor; H(q,q) is H's factor list with every a
set to 0, graded by q with no x).  The logarithmic derivative s F'/F of
such a product F is the series L with

      L_n = sum_{j*g = n} e * g * (-1)^(j+1) * sign^j * x^(a*j),

summed over the factors, and F is recovered by the Euler-transform
(Newton-identity) recurrence

      n * F_n = sum_{k=1..n} L_k * F_(n-k),      F_0 = 1,

run on dense lists of Python ints.  Every division by n is checked to be
exact; a remainder raises InternalIdentityFailure, since it would mean the
factors do not multiply to an integer series.

The handlers of the table subcommands, ``stable-betti``, ``perverse``
and ``identity``, live at the end of this module.
"""

from __future__ import annotations

from ._record import HashableRecord, Record
from .errors import BadInput, InternalIdentityFailure


class SurfaceTopology(HashableRecord):
    """Topological input of the generating functions.

    b1 and b2 are the first and second Betti numbers of the surface; chi_o,
    the holomorphic Euler characteristic, is a field of the value that no
    formula reads (acceptance criterion 1 passes it positionally).  b1 must
    be even (the surface is compact Kaehler), or BadInput.  Hashable.
    """

    def __init__(self, b1: int, b2: int, chi_o: int):
        if b1 < 0 or b1 % 2 != 0:
            raise BadInput(f"b1 must be a nonnegative even integer, got {b1}")
        if b2 < 1:
            raise BadInput(f"b2 must be a positive integer, got {b2}")
        super().__init__(b1=b1, b2=b2, chi_o=chi_o)


#: An Enriques surface: b1 = 0, b2 = 10, chi(O) = 1.
ENRIQUES = SurfaceTopology(0, 10, 1)

#: A bielliptic surface: b1 = 2, b2 = 2, chi(O) = 0.
BIELLIPTIC = SurfaceTopology(2, 2, 0)


class PerverseTable(Record):
    """Finite table (i, j) -> n^{i,j} of perverse Hodge numbers, i+j <= order.

    Entries are nonnegative integers; zero entries are not stored.  The
    i = 0 row always lies in {0, 1}.
    """

    def __init__(self, order: int, entries: dict[tuple[int, int], int] | None = None):
        clean: dict[tuple[int, int], int] = {}
        for (i, j), v in (entries or {}).items():
            if i < 0 or j < 0 or i + j > order:
                raise ValueError(f"entry ({i}, {j}) outside the table range")
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"entry ({i}, {j}) = {v!r} is not a nonnegative integer")
            if i == 0 and v > 1:
                raise ValueError(f"base-row entry (0, {j}) = {v} exceeds 1")
            if v:
                clean[(i, j)] = v
        super().__init__(order=order, entries=clean)

    def entry(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)


# A factor (1 + sign * x^a * s^g)^e of an infinite product is the tuple
# (sign, a, g, e): s is the grading variable, x the carried one.
Factor = tuple[int, int, int, int]


def _log_derivative(factors, order: int) -> list[dict[int, int]]:
    """Coefficients L_1..L_order of s d/ds log of the product of the factors.

    L_n is a polynomial in x, stored as {x-exponent: integer coefficient}:
    the sum over factors and j >= 1 with j*g = n of
    e * g * (-1)^(j+1) * sign^j * x^(a*j).  L_0 is the empty polynomial.
    """
    terms: list[dict[int, int]] = [{} for _ in range(order + 1)]
    for sign, a, g, e in factors:
        for j in range(1, order // g + 1):
            poly = terms[j * g]
            poly[a * j] = poly.get(a * j, 0) + e * g * (-1) ** (j + 1) * sign ** j
    return [{i: c for i, c in poly.items() if c} for poly in terms]


def _euler_transform(log_derivative: list[dict[int, int]], order: int,
                     top: int) -> list[list[int]]:
    """Coefficients F_0..F_order of the series F with F_0 = 1 and log-derivative L,
    each up to x-degree top.

    F_n is a dense list of integers indexed by x-exponent, computed by
    n * F_n = sum_{k=1..n} L_k * F_(n-k) and cut at x^top: every
    x-exponent is nonnegative, so the cut rows are the full rows up to
    x^top.  Every division by n is checked: a remainder means L is not the
    log-derivative of an integer series, and raises InternalIdentityFailure.
    """
    rows: list[list[int]] = [[1]]
    for n in range(1, order + 1):
        width = min(top + 1, max(
            (max(log_derivative[k]) + len(rows[n - k])
             for k in range(1, n + 1) if log_derivative[k]),
            default=1,
        ))
        acc = [0] * width
        for k in range(1, n + 1):
            prev = rows[n - k]
            for shift, c in log_derivative[k].items():
                if shift < width:
                    for i, f in enumerate(prev[:width - shift], shift):
                        acc[i] += c * f
        row = []
        for i, c in enumerate(acc):
            quotient, remainder = divmod(c, n)
            if remainder:
                raise InternalIdentityFailure(
                    f"coefficient of x^{i} s^{n} in the product is {c}/{n}, "
                    f"not an integer"
                )
            row.append(quotient)
        rows.append(row)
    return rows


def _product(factors, order: int, top: int) -> list[list[int]]:
    """The product of the factors modulo s^(order+1) and x^(top+1), as rows
    F_n[x-exponent]: top is the highest x-degree the caller reads.  Every
    table is built here, so this is where a negative order is refused."""
    if order < 0:
        raise BadInput("truncation order must be nonnegative")
    return _euler_transform(_log_derivative(factors, order), order, top)


def _goettsche_factors(surface: SurfaceTopology, order: int) -> list[Factor]:
    """Factors of G graded by w, carrying z."""
    b1, b2 = surface.b1, surface.b2
    return [
        factor
        for m in range(1, order + 1)
        for factor in (
            (1, 2 * m - 1, m, b1),
            (1, 2 * m + 1, m, b1),
            (-1, 2 * m - 2, m, -1),
            (-1, 2 * m, m, -b2),
            (-1, 2 * m + 2, m, -1),
        )
    ]


def goettsche_series(surface: SurfaceTopology, order: int) -> dict[tuple[int, int], int]:
    """The point-counting series G(z, w) truncated at w-degree <= order.

    Returned as {(i, n): coefficient of z^i w^n}, zeros omitted.  The
    coefficient is the i-th Betti number of the Hilbert scheme of n
    points; it vanishes unless 0 <= i <= 4n.
    """
    rows = _goettsche_rows(surface, order, 4 * order)
    return {(i, n): c for n, row in enumerate(rows) for i, c in enumerate(row) if c}


def _goettsche_rows(surface: SurfaceTopology, order: int, top: int) -> list[list[int]]:
    """G's rows G_n[z-exponent] for w-degree n <= order, padded with zeros to
    z-degree top; each entry is a Betti number, checked by :func:`_as_betti`."""
    return [
        [_as_betti(c, f"b_{i} of the {n}-point Hilbert scheme") for i, c in enumerate(row)]
        + [0] * (top + 1 - len(row))
        for n, row in enumerate(_product(_goettsche_factors(surface, order), order, top))
    ]


def _as_betti(c: int, what: str) -> int:
    if c < 0:
        raise InternalIdentityFailure(f"{what} = {c} is not a nonnegative integer")
    return c


def hilb_betti(surface: SurfaceTopology, n: int, k: int) -> int:
    """k-th Betti number of the n-point Hilbert scheme of the surface.

    Returns 0 for k > 4n (outside the cohomological range; not an error):
    G_n has z-degree at most 4n, so its row holds no such term.
    """
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")
    return _goettsche_rows(surface, n, k)[n][k]


def _stable_betti_series(surface: SurfaceTopology, order: int) -> list[int]:
    """Coefficients of q^0..q^order of H(q, q): H's factors, graded by total
    degree, with the carried exponent of each set to 0 (t = q)."""
    factors = [(sign, 0, g, e) for sign, _, g, e in _perverse_factors(surface, order)]
    return [row[0] for row in _product(factors, order, 0)]


def stable_betti_numbers(surface: SurfaceTopology, max_k: int) -> list[int]:
    """Stable Betti numbers b_0..b_max_k, read from one product series."""
    series = _stable_betti_series(surface, max_k)
    return [
        _as_betti(series[k], f"stable Betti number b_{k}") for k in range(max_k + 1)
    ]


def stable_betti(surface: SurfaceTopology, k: int) -> int:
    """Coefficient of q^k in the stable Betti product series."""
    return stable_betti_numbers(surface, k)[k]


def _perverse_factors(surface: SurfaceTopology, order: int) -> list[Factor]:
    """Factors of H graded by total degree, carrying q; (1 - qt) included.

    The t-exponent of a key is its total degree minus its q-exponent.
    """
    b1, b2 = surface.b1, surface.b2
    return [(-1, 1, 2, 1)] + [
        factor
        for m in range(1, order + 1)
        for factor in (
            (1, m, 2 * m - 1, b1),
            (1, m, 2 * m + 1, b1),
            (-1, m + 1, 2 * m, -1),
            (-1, m, 2 * m, -b2),
            (-1, m - 1, 2 * m, -1),
        )
    ]


def _perverse_coefficients(surface: SurfaceTopology, order: int) -> dict[tuple[int, int], int]:
    """{(i, j): coefficient of q^i t^j in H(q, t)} for i + j <= order."""
    rows = _product(_perverse_factors(surface, order), order, order)
    return {(a, n - a): c for n, row in enumerate(rows) for a, c in enumerate(row)}


def stable_perverse_series(surface: SurfaceTopology, order: int):
    """The series H(q, t) of stable perverse Hodge numbers, truncated, as a
    :class:`~stabctab.series.TruncatedBiSeries`."""
    from .series import TruncatedBiSeries

    return TruncatedBiSeries(order, _perverse_coefficients(surface, order))


def stable_perverse_table(surface: SurfaceTopology, order: int) -> PerverseTable:
    """Tabulate the q^i t^j coefficients of H(q, t) for i + j <= order.

    Raises InternalIdentityFailure if any coefficient is negative; the
    coefficients are dimensions, so a failure here is a bug, never bad
    input.
    """
    return PerverseTable(order, {
        (i, j): _as_betti(c, f"table entry ({i}, {j})")
        for (i, j), c in _perverse_coefficients(surface, order).items()
    })


def _table_order(key: tuple[int, int]) -> tuple:
    """Sort key of a table key (i, j): by total degree i + j, then by key."""
    return key[0] + key[1], key


def _first_difference(left: dict, right: dict):
    """(key, left value, right value) at the first key, in :func:`_table_order`,
    where two coefficient maps differ, a missing key read as 0; None if
    they agree."""
    key = min((k for k in left.keys() | right.keys() if left.get(k, 0) != right.get(k, 0)),
              key=_table_order, default=None)
    return None if key is None else (key, left.get(key, 0), right.get(key, 0))


def remark_identity_mismatch(
    surface: SurfaceTopology, order: int, perturb: bool = False
):
    """First differing coefficient of the change-of-variables identity.

    Compares the two sides of H(zw, z)(1 - z^2) = (1 - w)(1 - z^2 w) G(z, w)
    at every z^i w^n with 0 <= i, n <= order.  Each side is one kernel
    product: (1 - t^2) H, graded by total degree, holds the z^i w^n
    coefficient at row i, index n, and (1 - w)(1 - z^2 w) G, graded by w,
    at row n, index i.  Returns None if the sides agree, else
    ((n, i - n), lhs, rhs): the key q^n t^(i-n) of the first difference in
    order of total degree, which is the z-degree i, and the integer
    coefficients of the two sides there.  With perturb=True the left side
    is deliberately shifted by +1 in its constant term (negative-control
    hook).
    """
    lhs_rows = _product(_perverse_factors(surface, order) + [(-1, 0, 2, 1)], order, order)
    rhs_rows = _product(_goettsche_factors(surface, order) + [(-1, 0, 1, 1), (-1, 2, 1, 1)],
                        order, order)
    lhs = {(n, i - n): c for i, row in enumerate(lhs_rows) for n, c in enumerate(row)}
    rhs = {(n, i - n): c for n, row in enumerate(rhs_rows) for i, c in enumerate(row)}
    if perturb:
        lhs[(0, 0)] = lhs.get((0, 0), 0) + 1
    return _first_difference(lhs, rhs)


def check_remark_identity(surface: SurfaceTopology, order: int) -> bool:
    """True iff the change-of-variables identity holds to the given order."""
    return remark_identity_mismatch(surface, order) is None


# --- the table subcommands: stable-betti, perverse and identity ---------------


def _surface(args):
    return SurfaceTopology(args.b1, args.b2, 0)


def cmd_stable_betti(args) -> tuple:
    values = list(enumerate(stable_betti_numbers(_surface(args), args.max_k)))
    record = {
        "parameters": {"b1": args.b1, "b2": args.b2, "max_k": args.max_k},
        "results": values,
        "provenance": "stable Betti numbers: coefficients of the infinite "
                      "product in q attached to (b1, b2)",
    }
    return 0, record, [("k", "b_k"), *values]


def cmd_perverse(args) -> tuple:
    surface = _surface(args)
    table = stable_perverse_table(surface, args.max_order)
    rows = [(i, j, table.entry(i, j)) for i, j in sorted(table.entries, key=_table_order)]
    results: dict = {"table": rows}
    tsv = [("i", "j", "n"), *rows]
    status = 0
    if args.oracle:
        from . import perverse

        mismatch = perverse.first_oracle_mismatch(surface, table)
        if mismatch is None:
            results["oracle"] = "AGREE"
            tsv.append(("oracle", "AGREE", ""))
        else:
            (i, j), recursed, extracted = mismatch
            results["oracle"] = "DISAGREE"
            results["first_difference"] = {
                "i": i, "j": j, "recursion": recursed, "series": extracted,
            }
            tsv.append(("oracle", "DISAGREE", f"({i},{j}) {recursed}!={extracted}"))
            status = 1
    record = {
        "parameters": {"b1": args.b1, "b2": args.b2, "max_order": args.max_order,
                       "oracle": args.oracle},
        "results": results,
        "provenance": "stable perverse numbers: coefficients of the product "
                      "series H(q, t)" + (
                          "; cross-checked against the Betti-tower recursion"
                          if args.oracle else ""
                      ),
    }
    return status, record, tsv


def cmd_identity(args) -> tuple:
    mismatch = remark_identity_mismatch(_surface(args), args.order, perturb=args.perturb)
    results: dict = {"status": "PASS" if mismatch is None else "FAIL"}
    tsv = [("status", results["status"])]
    status = 0
    if mismatch is not None:
        (a, b), lhs, rhs = mismatch
        results["first_difference"] = {
            "q": a, "t": b, "lhs": str(lhs), "rhs": str(rhs),
        }
        tsv.append(("first_difference", f"q^{a} t^{b}: {lhs} != {rhs}"))
        status = 1
    record = {
        "parameters": {"b1": args.b1, "b2": args.b2, "order": args.order,
                       "perturb": args.perturb},
        "results": results,
        "provenance": "change of variables z = t, w = q/t linking the "
                      "point-counting series to H(q, t)/(1 - qt)",
    }
    return status, record, tsv
