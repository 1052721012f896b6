r"""Plane-curve singularity invariants at the origin.

For a polynomial germ f vanishing at the origin of the (x, y) plane:

* the Milnor number mu = dim C[[x,y]] / (f_x, f_y),
* the Tjurina number tau = dim C[[x,y]] / (f, f_x, f_y),
* the delta invariant delta = dim (normalization / local ring), computed
  from explicit branch parametrizations,
* the branch count r,

together with the cross-check mu = 2*delta - r + 1 for reduced germs
with an isolated singularity.

The quotient dimensions are obtained by exact linear algebra: the
dimension d_N of the quotient modulo the ideal plus the N-th power of
the maximal ideal is the corank of a monomial-basis matrix, and once
d_N = d_{N+1} the Nakayama lemma forces m^N into the ideal, so d_N is
the true local dimension.  No standard bases, no floating point.

Branch parametrizations are supplied (by the caller or the shipped
corpus), never computed: Newton-Puiseux expansion is out of scope.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import HashableRecord, Record, content_lines, parse_int, read_data, read_text
from .errors import BadInput
from .poly import Poly

#: Hard cap on the power of the maximal ideal used for mu/tau stabilization;
#: m^mu lies in an ideal of colength mu, so it caps mu and tau at 64.
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

#: Cap on the term operations of composing a germ with one branch, as
#: ``_composition_work`` bounds them before any is done: a product p*q
#: counts its |p|*|q| term pairs and the terms it builds, a sum p + q its
#: |p| + |q| terms, and each such operation on coefficients of a and b
#: bits counts (1 + a // 1024) * (1 + b // 1024) times, a and b being
#: bounds on the bits of each side's integer numerators and common
#: denominator.  Below the degree cap a dense branch can still ask for
#: billions, and so can large coefficients: on the README's branch
#: c*t + ... + c*t^32 of y^32 - x^3 + x^32, c of 100 digits needs 7.8
#: million; a larger bound than the cap is BadInput.  At 0.7 to 1.7
#: million operations a second (2-vCPU Xeon, CPython 3.11), a composition
#: at the cap takes at most about 3 s, whatever the size of the
#: coefficients.
MAX_COMPOSITION_WORK = 2_000_000


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
        super().__init__(branches=branches, declared_truncation=declared_truncation)

    @classmethod
    def from_strings(cls, pairs, declared_truncation: int | None = None) -> "BranchSet":
        return cls(
            tuple((Poly.parse(xs, ("t",)), Poly.parse(ys, ("t",))) for xs, ys in pairs),
            declared_truncation,
        )


# --- exact linear algebra ----------------------------------------------------


def _sparse_rank(rows: list[dict[int, Fraction]]) -> int:
    """Rank over Q of a sparse row list, by elimination on leading columns."""
    pivots: dict[int, dict[int, Fraction]] = {}
    rank = 0
    for row in rows:
        work = dict(row)
        while work:
            lead = min(work)
            piv = pivots.get(lead)
            if piv is None:
                c = work[lead]
                pivots[lead] = {k: v / c for k, v in work.items()}
                rank += 1
                break
            c = work.pop(lead)
            for k, v in piv.items():
                if k == lead:
                    continue
                nv = work.get(k, Fraction(0)) - c * v
                if nv:
                    work[k] = nv
                elif k in work:
                    del work[k]
    return rank


def _monomial_index(cutoff: int) -> dict[tuple[int, int], int]:
    idx: dict[tuple[int, int], int] = {}
    for d in range(cutoff):
        for a in range(d, -1, -1):
            idx[(a, d - a)] = len(idx)
    return idx


def _quotient_dim(gens: list[Poly], cutoff: int) -> int:
    """dim of C[x,y] / (ideal(gens) + m^cutoff), supported at the origin.

    No generator is 0, and a monomial shift sends distinct terms to
    distinct monomials, so each row is the shifted generator, truncated.
    """
    idx = _monomial_index(cutoff)
    rows: list[dict[int, Fraction]] = []
    for g in gens:
        low = g.low_degree()
        for ma, mb in idx:
            if ma + mb + low < cutoff:
                rows.append({idx[(ga + ma, gb + mb)]: c for (ga, gb), c in g.terms.items()
                             if ga + gb + ma + mb < cutoff})
    return len(idx) - _sparse_rank(rows)


def _stable_local_dim(gens: list[Poly]) -> int:
    gens = [g for g in gens if g]
    cutoff = 2
    while cutoff <= MAX_IDEAL_POWER:
        d_here = _quotient_dim(gens, cutoff)
        d_next = _quotient_dim(gens, cutoff + 1)
        if d_here == d_next:
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
    return _stable_local_dim([germ.poly.derivative(0), germ.poly.derivative(1)])


def tjurina(germ: CurveGerm) -> int:
    """Tjurina number tau = dim of the quotient by (f, f_x, f_y)."""
    return _stable_local_dim([germ.poly, germ.poly.derivative(0), germ.poly.derivative(1)])


def branch_count(branches: BranchSet) -> int:
    """Number of branches; raises BadInput when there are none."""
    if not branches.branches:
        raise BadInput("a germ has at least one branch")
    return len(branches.branches)


class _Span:
    """A polynomial in t as ``_composition_work`` sees it: at most n terms,
    of t-degrees lo..hi, whose integer numerators over one common
    denominator (as ``Poly.mul`` forms them) have at most num bits and that
    denominator at most den bits.  ``Poly.substitute`` runs on spans as on
    polynomials, and each product and sum adds its operations, weighted as
    MAX_COMPOSITION_WORK says, to the count work[0] that the spans of one
    run share."""

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
        size = (1 + (self.num + self.den) // 1024) * (1 + (other.num + other.den) // 1024)
        self.work[0] += terms * size

    def __add__(self, other: "_Span") -> "_Span":
        self._count(other, self.n + other.n)
        if not (self and other):
            return self if self else other
        # p/d1 + q/d2 = (p*d2 + q*d1)/(d1*d2), at worst
        return _Span(self.work, min(self.lo, other.lo), max(self.hi, other.hi),
                     self.n + other.n, max(self.num + other.den, other.num + self.den) + 1,
                     self.den + other.den)

    def mul(self, other: "_Span", cutoff: int | None = None) -> "_Span":
        hi = self.hi + other.hi if cutoff is None else min(self.hi + other.hi, cutoff - 1)
        # each coefficient sums at most min(|p|, |q|) products
        out = _Span(self.work, self.lo + other.lo, hi, self.n * other.n,
                    self.num + other.num + min(self.n, other.n).bit_length(),
                    self.den + other.den)
        # every pair is multiplied, and every term of the product built
        self._count(other, self.n * other.n + out.n)
        return out


def _composition_work(f: Poly, xt: Poly, yt: Poly, top: int) -> int:
    """An upper bound on the term operations of ``f.substitute((xt, yt),
    cutoff)`` that keeps no t-degree above top, weighted as
    MAX_COMPOSITION_WORK says: substitute itself, run on the spans of the
    images.  A span bounds every size its polynomial can reach, so each
    count is at least the true one."""
    work = [0]
    zero = _Span(work, 0, -1, 0, 0, 0)
    f.substitute((zero._like(xt.terms), zero._like(yt.terms)), top + 1)
    return work[0]


def _validate_branches(germ: CurveGerm, branches: BranchSet, mu: int) -> None:
    t0 = branches.declared_truncation
    if t0 is not None and t0 < 2 * mu + 2:
        raise BadInput(f"declared truncation {t0} is below the conductor bound {2 * mu + 2}")
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
        work = _composition_work(f, xt, yt, degree)
        if work > MAX_COMPOSITION_WORK:
            raise BadInput(f"branch {k} composes with the germ in up to {work} term "
                           f"operations, above the cap of {MAX_COMPOSITION_WORK}")
        composed = f.substitute((xt, yt), None if t0 is None else t0 + 1)
        if composed:
            raise BadInput(
                f"branch {k} does not lie on the germ "
                f"(residual order {composed.low_degree()})"
            )


def _delta_candidate(germ_branches, r: int, t_trunc: int) -> int:
    """r*T minus the rank of all monomial images truncated at t-degree T."""
    rows: list[dict[int, Fraction]] = []
    for a in range(t_trunc + 1):
        for b in range(t_trunc + 1 - a):
            row: dict[int, Fraction] = {}
            for i, (xpows, ypows) in enumerate(germ_branches):
                # a table ends before its first power that is 0
                if a < len(xpows) and b < len(ypows):
                    for (k,), c in xpows[a].mul(ypows[b], t_trunc).terms.items():
                        row[i * t_trunc + k] = c
            if row:
                rows.append(row)
    return r * t_trunc - _sparse_rank(rows)


def delta(germ: CurveGerm, branches: BranchSet) -> int:
    """Delta invariant: codimension of the germ's ring in its normalization.

    The branch images of all monomials are truncated at the conductor
    bound T = 2*mu + 2 and the cokernel dimension is read off as
    r*T - rank, in one round.  At that T the value is exact: every
    branch conductor exponent is at most 2*delta and delta <= mu.

    Raises BadInput when no branches are supplied, when a
    parametrization does not satisfy the germ equation to the declared
    precision, when that precision is below the conductor bound, and on
    a cokernel dimension above mu, which only inconsistent branch data
    gives.
    """
    return _delta(germ, branches, None)


def _delta(germ: CurveGerm, branches: BranchSet, mu: int | None) -> int:
    """delta, given mu = milnor(germ) when the caller has it already."""
    r = branch_count(branches)
    if mu is None:
        mu = milnor(germ)
    _validate_branches(germ, branches, mu)
    t_trunc = 2 * mu + 2
    pows = [
        (xt.powers(t_trunc, t_trunc), yt.powers(t_trunc, t_trunc))
        for xt, yt in branches.branches
    ]
    cand = _delta_candidate(pows, r, t_trunc)
    # cand > mu means the branch data is bad, e.g. a reparametrized
    # duplicate, and no larger T can mend it
    if cand > mu:
        raise BadInput(
            f"cokernel dimension {cand} at t-degree {t_trunc} exceeds "
            f"mu = {mu} past the conductor bound; the branch data is inconsistent"
        )
    return cand


def milnor_formula_check(germ: CurveGerm, branches: BranchSet) -> bool:
    """True iff mu = 2*delta - r + 1 for this germ and branch data."""
    mu = milnor(germ)
    return mu == 2 * _delta(germ, branches, mu) - branch_count(branches) + 1


# --- corpus ------------------------------------------------------------------


class CorpusRecord(Record):
    """One germ of a corpus with its branches and expected invariants."""

    def __init__(self, name: str, germ: CurveGerm, branches: BranchSet,
                 expected: dict[str, int]):
        super().__init__(name=name, germ=germ, branches=branches, expected=expected)


def load_corpus(path=None) -> list[CorpusRecord]:
    """Load a germ corpus (JSON Lines; the shipped ADE corpus by default).

    Each record is an object with fields ``name`` (string), ``poly``
    (polynomial in x, y), ``branches`` (list of [x(t), y(t)] pairs) and
    ``expected`` (object with fields mu, tau, delta, r, each a JSON
    integer: not a float, a bool or a string).  A file that cannot be read
    or is not UTF-8, and a record that is not such an object, is BadInput;
    the message of a malformed record names its line.
    """
    import json

    text = read_data("ade_corpus.jsonl") if path is None else read_text(path)
    records = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            obj = json.loads(line)
            expected = obj["expected"]
            for key, value in expected.items():
                if type(value) is not int:  # a float, a bool or a string
                    raise BadInput(f"expected {key} must be an integer, got {json.dumps(value)}")
            records.append(
                CorpusRecord(
                    name=obj["name"],
                    germ=CurveGerm.from_string(obj["poly"]),
                    branches=BranchSet.from_strings(obj["branches"]),
                    expected=expected,
                )
            )
        except BadInput as exc:
            raise BadInput(f"corpus line {lineno}: {exc}") from None
        except (ValueError, LookupError, TypeError, AttributeError) as exc:
            # a line that is not JSON, a missing field, a field of the wrong shape
            raise BadInput(f"corpus line {lineno}: {type(exc).__name__}: {exc}") from None
    return records


def parse_branch_file(text: str) -> BranchSet:
    """Parse a branch file: one ``x(t) ; y(t)`` pair per line.

    '#' starts a comment that runs to the end of the line, and blank lines
    are skipped.  An optional leading line ``truncation: N`` declares the
    precision of inexact parametrizations; a second one is BadInput, as
    is any other malformed text.
    """
    truncation: int | None = None
    pairs: list[tuple[str, str]] = []
    for line in content_lines(text):
        if line.lower().startswith("truncation:"):
            if truncation is not None:
                raise BadInput("branch file keyword 'truncation' is repeated")
            truncation = parse_int(line.split(":", 1)[1])
            continue
        if ";" not in line:
            raise BadInput(f"branch line {line!r} is not 'x(t) ; y(t)'")
        xs, ys = line.split(";", 1)
        pairs.append((xs.strip(), ys.strip()))
    return BranchSet.from_strings(pairs, truncation)
