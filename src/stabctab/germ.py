r"""Plane-curve singularity invariants at the origin.

For a polynomial germ f vanishing at the origin of the (x, y) plane:

* the Milnor number mu = dim C[[x,y]] / (f_x, f_y),
* the Tjurina number tau = dim C[[x,y]] / (f, f_x, f_y),
* the delta invariant delta = dim (normalization / local ring), computed
  from explicit branch parametrizations,
* the branch count r,

which satisfy Milnor's formula mu = 2*delta - r + 1 for reduced germs
with an isolated singularity; the germ subcommand checks it.

The quotient dimensions are obtained by exact linear algebra: the
dimension d_N of the quotient modulo the ideal plus the N-th power of
the maximal ideal is the corank of a monomial-basis matrix, and once
d_N = d_{N+1} the Nakayama lemma forces m^N into the ideal, so d_N is
the true local dimension.  No standard bases, no floating point.

Branch parametrizations are supplied (by the caller or the shipped
corpus), never computed: Newton-Puiseux expansion is out of scope.  The
weight of an operation in both work caps (``poly.weight``) and the bound
of a composition (``Poly.substitute_work``) live in :mod:`stabctab.poly`.
The ``germ`` subcommand's handler, :func:`cmd_germ`, lives at the end.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction

from ._record import HashableRecord, Record, content_lines, parse_int, read_data, read_text
from .errors import BadInput
from .poly import Poly, weight

#: Cap on mu and tau, and on the power of the maximal ideal at which their
#: quotients must stop growing: an ideal of colength d contains m^d, so
#: any d up to the cap is reached by then.  A quotient still growing there,
#: or one that stops above the cap, is BadInput.
MAX_IDEAL_POWER = 64

#: Cap on the t-degree to which a branch is composed with the germ: the
#: degree of f(x(t), y(t)) over the terms of f without a positive exponent
#: on an image that is 0 (the others compose to 0 and are dropped), or the
#: declared truncation when that is lower.  The composition, by Horner's
#: rule in y (``Poly.substitute``), forms the powers of x(t) and y(t) and
#: one product per exponent of y, so its time grows with the square of
#: this degree or faster, but not with the number of terms of f; a larger
#: degree is BadInput.
MAX_COMPOSED_DEGREE = 1024

#: Cap on the weighted term operations of composing a germ with one
#: branch, as ``Poly.substitute_work`` counts and bounds them, beside the
#: products it models, before any is done.  Below the degree cap a dense
#: branch can still ask for billions, and so can large coefficients: on
#: the README's branch c*t + ... + c*t^32 of y^32 - x^3 + x^32, c of 100
#: digits needs 7.8 million; a larger bound than the cap is BadInput.  At
#: 0.7 to 1.7 million operations a second (2-vCPU Xeon, CPython 3.11), a
#: composition at the cap takes at most about 3 s, whatever the size of
#: the coefficients.
MAX_COMPOSITION_WORK = 2_000_000

#: Cap on the updates of one elimination (``_pivot_columns``, for mu, tau
#: and delta): subtracting a pivot row of n entries counts n - 1, each
#: weighted ``poly.weight(a) * poly.weight(b)``, a and b the bits (numerator
#: and denominator) of the multiplier and of the row's largest entry.  The
#: 9-fold point y^9 - ... - 362880*x^9 with its lines as branches needs
#: 298,242 for delta, and mu and tau below their cap at most 70,000;
#: the curved 5-fold point needs 717,024, and larger ones ran for minutes.
#: At about 7 us an update (2-vCPU Xeon, CPython 3.11) the cap is ~3 s.
MAX_ELIMINATION_WORK = 400_000


class CurveGerm(HashableRecord):
    """A bivariate polynomial germ vanishing at the origin."""

    def __init__(self, poly: Poly):
        if not poly:
            raise BadInput("zero polynomial does not define a curve germ")
        if poly.constant() != 0:
            raise BadInput("germ must vanish at the origin")
        super().__init__(poly=poly)

    @classmethod
    def from_string(cls, s: str) -> "CurveGerm":
        return cls(Poly.parse(s, ("x", "y")))


class BranchSet(HashableRecord):
    """Branch parametrizations (x_i(t), y_i(t)) of a germ.

    declared_truncation is the t-exponent up to which the
    parametrizations are exact; None means they are exact polynomial
    parametrizations (the composed polynomial must vanish identically).
    """

    def __init__(self, branches: tuple[tuple[Poly, Poly], ...],
                 declared_truncation: int | None = None):
        for xt, yt in branches:
            if xt.constant() != 0 or yt.constant() != 0:
                raise BadInput("branch must pass through the origin")
            if not xt and not yt:
                raise BadInput("branch must not be identically zero")
        if len(set(branches)) != len(branches):
            raise BadInput("duplicate branch parametrization")
        if declared_truncation is not None and declared_truncation < 1:
            raise BadInput("declared truncation must be positive")
        if not branches:
            raise BadInput("a germ has at least one branch")
        super().__init__(branches=branches, declared_truncation=declared_truncation)

    @classmethod
    def from_strings(cls, pairs, declared_truncation: int | None = None) -> "BranchSet":
        return cls(
            tuple((Poly.parse(xs, ("t",)), Poly.parse(ys, ("t",))) for xs, ys in pairs),
            declared_truncation,
        )


# --- exact linear algebra ----------------------------------------------------


def _pivot_columns(rows: Iterable[dict[int, Fraction]], invariant: str) -> list[int]:
    """The pivot columns of a sparse row list, by elimination on leading
    columns, each lead the row's lowest column; their number is the rank
    over Q.  BadInput, naming the invariant the rows are for, once the
    updates, counted and weighted as MAX_ELIMINATION_WORK says, pass that
    cap."""
    # each pivot row is kept without its lead, which is 1, and with the
    # weight of its largest entry
    pivots: dict[int, tuple[dict[int, Fraction], int]] = {}
    updates = 0
    for row in rows:
        work = dict(row)
        while work:
            lead = min(work)
            c = work.pop(lead)
            pivot = pivots.get(lead)
            if pivot is None:
                tail = {k: v / c for k, v in work.items()}
                pivots[lead] = tail, weight(max(map(_bits, tail.values()), default=0))
                break
            tail, size = pivot
            updates += len(tail) * weight(_bits(c)) * size
            if updates > MAX_ELIMINATION_WORK:
                raise BadInput(f"elimination for {invariant} exceeds the cap of "
                               f"{MAX_ELIMINATION_WORK} weighted coefficient updates")
            for k, v in tail.items():
                nv = work.pop(k, 0) - c * v
                if nv:
                    work[k] = nv
    return list(pivots)


def _bits(c: Fraction) -> int:
    return c.numerator.bit_length() + c.denominator.bit_length()


def _monomial_index(cutoff: int) -> dict[tuple[int, int], int]:
    idx: dict[tuple[int, int], int] = {}
    for d in range(cutoff):
        for a in range(d, -1, -1):
            idx[(a, d - a)] = len(idx)
    return idx


def _quotient_dims(gens: list[Poly], cutoff: int, invariant: str) -> tuple[int, int]:
    """dim of C[x,y] / (ideal(gens) + m^N), supported at the origin, at
    N = cutoff - 1 and at N = cutoff, from one elimination.

    No generator is 0, and a monomial shift sends distinct terms to
    distinct monomials, so each row is the shifted generator, truncated.
    The rows at N = cutoff - 1 are these truncated below degree N; as the
    columns are ordered by degree and each lead is a row's lowest column,
    their rank is the number of pivots below degree N.
    """
    idx = _monomial_index(cutoff)
    rows: list[dict[int, Fraction]] = []
    for g in gens:
        low = g.low_degree()
        for ma, mb in idx:
            if ma + mb + low < cutoff:
                rows.append({idx[(ga + ma, gb + mb)]: c for (ga, gb), c in g.terms.items()
                             if ga + gb + ma + mb < cutoff})
    pivots = _pivot_columns(rows, invariant)
    below = (cutoff - 1) * cutoff // 2  # the monomials of degree < cutoff - 1
    return below - sum(1 for c in pivots if c < below), len(idx) - len(pivots)


def _stable_local_dim(gens: list[Poly], invariant: str) -> int:
    gens = [g for g in gens if g]
    cutoff = 2
    while cutoff <= MAX_IDEAL_POWER:
        d_here, d_next = _quotient_dims(gens, cutoff + 1, invariant)
        if d_here == d_next:
            if d_here > MAX_IDEAL_POWER:
                raise BadInput(f"quotient dimension {d_here} exceeds the cap of "
                               f"{MAX_IDEAL_POWER} on mu and tau")
            return d_here
        cutoff *= 2
    raise BadInput(
        f"quotient dimension still growing at maximal-ideal power {MAX_IDEAL_POWER}: "
        "the singularity is non-isolated or its mu/tau exceeds the cap of "
        f"{MAX_IDEAL_POWER}"
    )


# --- the invariants ----------------------------------------------------------


def milnor(germ: CurveGerm) -> int:
    """Milnor number mu; 0 at a smooth point, BadInput if the Jacobian
    quotient is infinite-dimensional or mu exceeds MAX_IDEAL_POWER."""
    return _stable_local_dim([germ.poly.derivative(0), germ.poly.derivative(1)], "mu")


def tjurina(germ: CurveGerm) -> int:
    """Tjurina number tau = dim of the quotient by (f, f_x, f_y)."""
    return _stable_local_dim([germ.poly, germ.poly.derivative(0), germ.poly.derivative(1)],
                             "tau")


def branch_count(branches: BranchSet) -> int:
    """Number of branches, at least one."""
    return len(branches.branches)


def _validate_branches(germ: CurveGerm, branches: BranchSet, t_trunc: int) -> None:
    t0 = branches.declared_truncation
    if t0 is not None and t0 < t_trunc:
        raise BadInput(f"declared truncation {t0} is below the conductor bound {t_trunc}")
    for k, (xt, yt) in enumerate(branches.branches):
        # a term with a positive exponent on an image that is 0 composes to 0
        f = Poly(2, {key: c for key, c in germ.poly.terms.items()
                     if all(img or not e for e, img in zip(key, (xt, yt)))})
        dx, dy = (max((e for (e,) in p.terms), default=0) for p in (xt, yt))
        degree = max((i * dx + j * dy for i, j in f.terms), default=0)
        if t0 is not None:
            degree = min(degree, t0)
        if degree > MAX_COMPOSED_DEGREE:
            raise BadInput(f"branch {k} composes with the germ to t-degree "
                           f"{degree}, above the cap of {MAX_COMPOSED_DEGREE}")
        work = f.substitute_work((xt, yt), degree + 1)
        if work > MAX_COMPOSITION_WORK:
            raise BadInput(f"branch {k} composes with the germ in up to {work} term "
                           f"operations, above the cap of {MAX_COMPOSITION_WORK}")
        composed = f.substitute((xt, yt), degree + 1)
        if composed:
            raise BadInput(
                f"branch {k} does not lie on the germ "
                f"(residual order {composed.low_degree()})"
            )


def _monomial_images(branches, t_trunc: int):
    """The nonzero rows of the images of x^a*y^b, a + b <= T, truncated at
    t-degree T, branch i's t^k at column i*T + k, one by one, so that an
    elimination stopped at its cap builds no more.  The image of x^a*y^b
    is that of x^a*y^(b-1) times y(t), and neither x(t) nor y(t) has a
    constant term, so once a row is 0 so is every later row of its a."""
    x_images = [Poly(1, {(0,): 1})] * len(branches)
    for a in range(t_trunc + 1):
        images = x_images
        for _ in range(t_trunc + 1 - a):
            row = {i * t_trunc + k: c
                   for i, image in enumerate(images) for (k,), c in image.terms.items()}
            if not row:
                break
            yield row
            images = [image.mul(yt, t_trunc) for image, (_, yt) in zip(images, branches)]
        x_images = [image.mul(xt, t_trunc) for image, (xt, _) in zip(x_images, branches)]


def delta(germ: CurveGerm, branches: BranchSet, mu: int | None = None) -> int:
    """Delta invariant: codimension of the germ's ring in its normalization.

    The branch images of all monomials are truncated at the conductor
    bound T = 2*mu + 2 and the cokernel dimension is read off as
    r*T - rank, in one round.  At that T the value is exact: every
    branch conductor exponent is at most 2*delta and delta <= mu.  mu is
    milnor(germ), computed here unless the caller passes it.

    Raises BadInput when a parametrization does not satisfy the germ equation
    to the declared precision, when that precision is below the conductor
    bound, when the elimination exceeds MAX_ELIMINATION_WORK, and on a
    cokernel dimension above mu, which only inconsistent branch data gives.
    """
    if mu is None:
        mu = milnor(germ)
    t_trunc = 2 * mu + 2
    _validate_branches(germ, branches, t_trunc)
    rank = len(_pivot_columns(_monomial_images(branches.branches, t_trunc), "delta"))
    cand = branch_count(branches) * t_trunc - rank
    # cand > mu means the branch data is bad, e.g. a reparametrized
    # duplicate, and no larger T can mend it
    if cand > mu:
        raise BadInput(
            f"cokernel dimension {cand} at t-degree {t_trunc} exceeds "
            f"mu = {mu} past the conductor bound; the branch data is inconsistent"
        )
    return cand


# --- corpus ------------------------------------------------------------------


class CorpusRecord(Record):
    """One germ of the shipped corpus with its branches and expected invariants."""

    def __init__(self, name: str, germ: CurveGerm, branches: BranchSet,
                 expected: dict[str, int]):
        super().__init__(name=name, germ=germ, branches=branches, expected=expected)


def load_corpus() -> list[CorpusRecord]:
    """The shipped ADE corpus, ``data/ade_corpus.jsonl``: one JSON object
    per line with the fields ``name``, ``poly`` (a polynomial in x, y),
    ``branches`` ([x(t), y(t)] pairs) and ``expected`` (mu, tau, delta,
    r); a blank line or one that starts with '#' is skipped.  The corpus
    is shipped data, not input: one that does not parse is a fault of the
    package, never BadInput.
    """
    import json

    def parse(text):
        records = []
        for line in text.splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                obj = json.loads(line)
                records.append(CorpusRecord(
                    name=obj["name"], germ=CurveGerm.from_string(obj["poly"]),
                    branches=BranchSet.from_strings(obj["branches"]), expected=obj["expected"]))
        return records

    return read_data("ade_corpus.jsonl", parse)


def parse_branch_file(text: str) -> BranchSet:
    """Parse a branch file: one ``x(t) ; y(t)`` pair per line.

    '#' starts a comment that runs to the end of the line, and blank lines
    are skipped.  The first line may be ``truncation: N``, declaring the
    precision of inexact parametrizations; every later line is a pair, so
    a second ``truncation:`` line is BadInput, as is any other malformed
    text.
    """
    lines = content_lines(text)
    truncation: int | None = None
    if lines and lines[0].lower().startswith("truncation:"):
        truncation = parse_int(lines.pop(0).split(":", 1)[1])
    pairs: list[list[str]] = []
    for line in lines:
        if ";" not in line:
            raise BadInput(f"branch line {line!r} is not 'x(t) ; y(t)'")
        pairs.append(line.split(";", 1))
    return BranchSet.from_strings(pairs, truncation)


# --- the germ subcommand ------------------------------------------------------


def cmd_germ(args) -> tuple:
    g = CurveGerm.from_string(args.poly)
    results: dict = {"mu": milnor(g), "tau": tjurina(g)}
    status = 0
    provenance = "local quotient-algebra dimensions"
    if args.branches is not None:
        provenance += "; delta from the normalization cokernel of the branch parametrizations"
        branches = parse_branch_file(read_text(args.branches))
        results["delta"] = delta(g, branches, results["mu"])
        results["r"] = branch_count(branches)
        ok = results["mu"] == 2 * results["delta"] - results["r"] + 1
        results["milnor_formula"] = "OK" if ok else "FAIL"
        if not ok:
            status = 1
    record = {
        "parameters": {"poly": args.poly, "branches": args.branches or ""},
        "results": results,
        "provenance": provenance,
    }
    return status, record, results.items()
