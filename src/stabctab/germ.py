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

from ._record import HashableRecord, Record, parse_int, read_text
from .errors import (
    BadInput,
    EmptyBranchSet,
    InvalidBranch,
    NonIsolatedSingularity,
    TruncationTooSmall,
)
from .poly import Poly

#: Hard cap on the power of the maximal ideal used for mu/tau stabilization;
#: m^mu lies in an ideal of colength mu, so it caps mu and tau at 64.
MAX_IDEAL_POWER = 64


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
    """dim of C[x,y] / (ideal(gens) + m^cutoff), supported at the origin."""
    idx = _monomial_index(cutoff)
    rows: list[dict[int, Fraction]] = []
    for g in gens:
        low = g.low_degree()
        if low is None:
            continue
        for (ma, mb), col in list(idx.items()):
            if ma + mb + low >= cutoff:
                continue
            row: dict[int, Fraction] = {}
            for (ga, gb), c in g.terms.items():
                a, b = ga + ma, gb + mb
                if a + b < cutoff:
                    row[idx[(a, b)]] = row.get(idx[(a, b)], Fraction(0)) + c
            row = {k: v for k, v in row.items() if v}
            if row:
                rows.append(row)
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
    raise NonIsolatedSingularity(
        f"quotient dimension still growing at maximal-ideal power {MAX_IDEAL_POWER}: "
        "the singularity is non-isolated or its mu/tau exceeds the cap of "
        f"{MAX_IDEAL_POWER}"
    )


# --- the invariants ----------------------------------------------------------


def milnor(germ: CurveGerm) -> int:
    """Milnor number mu; 0 at a smooth point, NonIsolatedSingularity if the
    Jacobian quotient is infinite-dimensional or mu exceeds MAX_IDEAL_POWER."""
    return _stable_local_dim([germ.poly.derivative(0), germ.poly.derivative(1)])


def tjurina(germ: CurveGerm) -> int:
    """Tjurina number tau = dim of the quotient by (f, f_x, f_y)."""
    return _stable_local_dim([germ.poly, germ.poly.derivative(0), germ.poly.derivative(1)])


def branch_count(branches: BranchSet) -> int:
    """Number of branches; raises EmptyBranchSet when there are none."""
    if not branches.branches:
        raise EmptyBranchSet("a germ has at least one branch")
    return len(branches.branches)


def _validate_branches(germ: CurveGerm, branches: BranchSet, mu: int) -> None:
    t0 = branches.declared_truncation
    if t0 is not None and t0 < 2 * mu + 2:
        raise TruncationTooSmall(
            f"declared truncation {t0} is below the conductor bound {2 * mu + 2}"
        )
    for k, (xt, yt) in enumerate(branches.branches):
        composed = germ.poly.substitute((xt, yt), None if t0 is None else t0 + 1)
        if composed:
            raise InvalidBranch(
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
                img = xpows[a].mul(ypows[b], t_trunc)
                for (k,), c in img.terms.items():
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

    Raises
    ------
    InvalidBranch
        A parametrization does not satisfy the germ equation to the
        declared precision.
    TruncationTooSmall
        Declared precision below the conductor bound, or a cokernel
        dimension above mu, which only inconsistent branch data gives.
    EmptyBranchSet
        No branches supplied.
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
        raise TruncationTooSmall(
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
    ``expected`` (object with integer fields mu, tau, delta, r).  A
    file that cannot be read or is not UTF-8 is BadInput.
    """
    import json

    if path is None:
        from importlib import resources

        text = (
            resources.files("stabctab").joinpath("data/ade_corpus.jsonl").read_text()
        )
    else:
        text = read_text(path)
    records = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        obj = json.loads(line)
        records.append(
            CorpusRecord(
                name=obj["name"],
                germ=CurveGerm.from_string(obj["poly"]),
                branches=BranchSet.from_strings(obj["branches"]),
                expected={k: int(v) for k, v in obj["expected"].items()},
            )
        )
    return records


def parse_branch_file(text: str) -> BranchSet:
    """Parse a branch file: one ``x(t) ; y(t)`` pair per line.

    Blank lines and lines starting with '#' are skipped.  An optional
    leading line ``truncation: N`` declares the precision of inexact
    parametrizations.  Malformed text raises BadInput.
    """
    truncation: int | None = None
    pairs: list[tuple[str, str]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.lower().startswith("truncation:"):
            truncation = parse_int(line.split(":", 1)[1])
            continue
        if ";" not in line:
            raise BadInput(f"branch line {line!r} is not 'x(t) ; y(t)'")
        xs, ys = line.split(";", 1)
        pairs.append((xs.strip(), ys.strip()))
    return BranchSet.from_strings(pairs, truncation)
