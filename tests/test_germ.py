"""Singularity invariants: pinned small germs, the ADE corpus, properties."""

import random
from fractions import Fraction

import pytest

from stabctab import _record
from stabctab.errors import BadInput
from stabctab.germ import (
    BranchSet,
    CurveGerm,
    branch_count,
    delta,
    load_corpus,
    milnor,
    parse_branch_file,
    tjurina,
)
from stabctab.poly import Poly

from draws import curved_point, ordinary_point


def germ(s):
    return CurveGerm.from_string(s)


def branches(pairs, t0=None):
    return BranchSet.from_strings(pairs, t0)


NODE = germ("x*y")
CUSP = germ("y^2 - x^3")

NODE_BRANCHES = branches([("t", "0"), ("0", "t")])
CUSP_BRANCHES = branches([("t^2", "t^3")])
TACNODE_BRANCHES = branches([("t", "t^2"), ("t", "-t^2")])


def test_milnor_smooth_point():
    assert milnor(germ("x")) == 0
    assert milnor(germ("y - x^2")) == 0


def test_non_isolated():
    with pytest.raises(BadInput, match="still growing at maximal-ideal power 64"):
        milnor(germ("x^2"))
    with pytest.raises(BadInput, match="still growing at maximal-ideal power 64"):
        milnor(germ("x^2 + 2*x*y + y^2"))


def point(drawn):
    """The germ and the branches of an m-fold point of ``draws``."""
    terms, lines = drawn
    return CurveGerm(Poly(2, terms)), branches(lines)


@pytest.mark.parametrize("g, mu", [
    (germ("x^6 + y^14"), 65),
    (germ("x^33 + y^33"), 1024),
    (point(ordinary_point(14))[0], 169),
], ids=["x^6+y^14", "x^33+y^33", "14-fold-point"])
def test_quotient_that_stops_above_the_cap_is_bad_input(g, mu):
    # each quotient stops growing below m^64, at a dimension above the cap
    message = f"^quotient dimension {mu} exceeds the cap of 64 on mu and tau$"
    with pytest.raises(BadInput, match=message):
        milnor(g)
    with pytest.raises(BadInput, match=message):
        tjurina(g)


def test_elimination_work_is_capped(monkeypatch):
    # delta of the curved 4-fold point eliminates in 54,537 weighted
    # updates; the 7-fold point, far below the caps on mu and on the
    # composition, ran for minutes before the elimination had a cap
    from stabctab import germ as germ_mod

    g, bset = point(curved_point(4))
    mu = milnor(g)
    monkeypatch.setattr(germ_mod, "MAX_ELIMINATION_WORK", 54_537)
    assert delta(g, bset, mu) == 6
    monkeypatch.setattr(germ_mod, "MAX_ELIMINATION_WORK", 54_536)
    with pytest.raises(BadInput, match="^elimination for delta exceeds the cap of 54536 "
                                       "weighted coefficient updates$"):
        delta(g, bset, mu)
    # the message names the invariant whose elimination met the cap
    monkeypatch.setattr(germ_mod, "MAX_ELIMINATION_WORK", 0)
    for invariant, compute in (("mu", milnor), ("tau", tjurina)):
        with pytest.raises(BadInput, match=f"^elimination for {invariant} exceeds the cap "):
            compute(g)


def test_elimination_cap_lies_between_two_ordinary_points():
    # delta of the ordinary 6-fold point (mu = 25) with lines y = i*c*x
    # counts 307,779 weighted updates at c = 10^300 + 1 and 508,141 at
    # c = 10^500 + 1: the cap of 400,000 takes the first and refuses the
    # second, where a cap twice as large would take both
    assert delta(*point(ordinary_point(6, 10**300 + 1)), 25) == 15
    with pytest.raises(BadInput, match="^elimination for delta exceeds the cap of "
                                       "400000 weighted coefficient updates$"):
        delta(*point(ordinary_point(6, 10**500 + 1)), 25)


def test_large_coefficients_weigh_on_the_elimination_cap(monkeypatch):
    # the multipliers 2^2000 and 1/2^2000 each have 2,002 bits, numerator
    # and denominator together, so each of the two updates one makes
    # weighs 1 + 2002 // 1024 = 2
    from stabctab import germ as germ_mod

    one = Fraction(1)
    for multiplier in (Fraction(2**2000), Fraction(1, 2**2000)):
        rows = [{0: one, 1: one, 2: one}, {0: multiplier, 1: one}]
        monkeypatch.setattr(germ_mod, "MAX_ELIMINATION_WORK", 4)
        assert germ_mod._pivot_columns(rows, "mu") == [0, 1]
        monkeypatch.setattr(germ_mod, "MAX_ELIMINATION_WORK", 3)
        with pytest.raises(BadInput, match="^elimination for mu exceeds the cap of 3 "):
            germ_mod._pivot_columns(rows, "mu")


def test_branch_count():
    assert branch_count(NODE_BRANCHES) == 2
    assert branch_count(CUSP_BRANCHES) == 1
    assert branch_count(TACNODE_BRANCHES) == 2
    # a branch set has at least one branch
    with pytest.raises(BadInput, match="a germ has at least one branch"):
        BranchSet(())


def test_invalid_branch():
    with pytest.raises(BadInput, match=r"branch 0 does not lie on the germ"):
        delta(NODE, branches([("t", "t")]))


def test_branch_set_validation():
    with pytest.raises(ValueError):
        BranchSet.from_strings([("t", "1 + t")])  # misses the origin
    with pytest.raises(ValueError):
        BranchSet.from_strings([("t", "0"), ("t", "0")])  # duplicate
    with pytest.raises(ValueError):
        BranchSet.from_strings([("0", "0")])


def test_approximate_branch_supported():
    # exact up to t^10; the tail beyond the declared precision is garbage
    b = branches([("t^2", "t^3 + t^12")], 10)
    assert delta(CUSP, b) == 1


def test_truncation_too_small():
    with pytest.raises(BadInput, match="truncation 4 is below the conductor bound 6"):
        delta(CUSP, branches([("t^2", "t^3 + t^12")], 4))


def test_bad_branch_data_fails_at_the_conductor_bound(monkeypatch):
    # the smooth germ y = x^2 has one branch; two parametrizations of it
    # give a cokernel dimension above mu = 0 from the first t-degree on,
    # and past the conductor bound no larger truncation can lower it
    from stabctab import germ as germ_mod

    rounds = []
    pivot_columns = germ_mod._pivot_columns

    def counting_pivot_columns(rows, invariant):
        # the first row, the image of 1, is 1 at column i*T of each branch i
        rows = list(rows)
        rounds.append(sorted(rows[0])[1])
        return pivot_columns(rows, invariant)

    g = germ("y - x^2")
    mu = milnor(g)
    monkeypatch.setattr(germ_mod, "_pivot_columns", counting_pivot_columns)
    bset = parse_branch_file("truncation: 560\nt ; t^2\nt^2 ; t^4\n")
    with pytest.raises(BadInput, match="mu = 0"):
        delta(g, bset, mu)
    assert rounds == [2]


def test_malformed_shipped_corpus_is_not_bad_input(tmp_path, monkeypatch):
    # the corpus is shipped data, not input: a line that does not decode,
    # lacks a field or holds a bad polynomial is a fault of the package
    monkeypatch.setattr(_record, "DATA_DIR", str(tmp_path))
    corpus = tmp_path / "ade_corpus.jsonl"
    for text in ('{"name": "A1"}', "name: A1",
                 '{"name": "A1", "poly": "x^", "branches": [], "expected": {}}'):
        corpus.write_text(f"# comment\n\n{text}\n", encoding="utf-8")
        with pytest.raises((KeyError, ValueError)) as info:
            load_corpus()
        assert not isinstance(info.value, BadInput), text
    corpus.write_text("# only comments\n\n", encoding="utf-8")
    assert load_corpus() == []


def test_corpus_inequalities():
    for rec in load_corpus():
        mu = milnor(rec.germ)
        tau = tjurina(rec.germ)
        dlt = delta(rec.germ, rec.branches)
        r = branch_count(rec.branches)
        assert tau <= mu
        assert mu <= 2 * dlt
        assert (mu == 2 * dlt) == (r == 1)
        assert dlt >= r * (r - 1) // 2


def rand_unimodular(rng):
    """Random invertible integer 2x2 matrix with small entries."""
    while True:
        m = [rng.randint(-3, 3) for _ in range(4)]
        if m[0] * m[3] - m[1] * m[2] != 0:
            return m


def test_linear_change_invariance():
    rng = random.Random(31)
    for rec in load_corpus():
        mu = milnor(rec.germ)
        tau = tjurina(rec.germ)
        # a linear change keeps the total degree, so a cutoff above the
        # germ's keeps every term
        cutoff = max(map(sum, rec.germ.poly.terms)) + 1
        for _ in range(10):
            m = rand_unimodular(rng)
            u = Poly(2, {(1, 0): m[0], (0, 1): m[1]})
            v = Poly(2, {(1, 0): m[2], (0, 1): m[3]})
            changed = CurveGerm(rec.germ.poly.substitute((u, v), cutoff))
            assert milnor(changed) == mu, (rec.name, m)
            assert tjurina(changed) == tau, (rec.name, m)


def quasihomogeneous_germ(rng):
    """a*x^p + b*y^q plus monomials strictly above the Newton diagram."""
    p, q = rng.randint(2, 4), rng.randint(2, 4)
    terms = {
        (p, 0): rng.choice((1, 2, 3, -1, -2)),
        (0, q): rng.choice((1, 2, 3, -1, -2)),
    }
    for _ in range(rng.randint(0, 2)):
        i, j = rng.randint(1, 4), rng.randint(1, 4)
        if i * q + j * p > p * q and (i, j) not in terms:
            terms[(i, j)] = rng.randint(-3, 3)
    return CurveGerm(Poly(2, {k: v for k, v in terms.items() if v})), (p - 1) * (q - 1)


def test_random_isolated_germs():
    """tau <= mu on 50 random germs; mu matches the weighted-degree count."""
    rng = random.Random(1234)
    for _ in range(50):
        g, expected_mu = quasihomogeneous_germ(rng)
        mu = milnor(g)
        assert mu == expected_mu
        assert tjurina(g) <= mu


def test_one_elimination_gives_the_quotient_below_its_cutoff():
    # the pivots below degree N of the rows at cutoff N + 1 are those of the
    # rows at cutoff N, so one elimination gives both quotient dimensions
    from stabctab.germ import _quotient_dims

    rng = random.Random(1234)
    for _ in range(20):
        g, _ = quasihomogeneous_germ(rng)
        for gens in ([g.poly.derivative(0), g.poly.derivative(1)], [g.poly]):
            dims = [_quotient_dims(gens, n, "mu") for n in range(2, 12)]
            assert [d for _, d in dims[:-1]] == [d for d, _ in dims[1:]]


def test_beyond_corpus_germs():
    """Harder singularities with hand-parametrized branches; expected
    values come from the weighted-degree count and the branch formula."""
    cases = [
        ("x^3 + x*y^3", [("0", "t"), ("t^3", "-t^2")], 7, 4, 2),
        ("x^3 + y^5", [("-t^5", "t^3")], 8, 4, 1),
        ("x^3*y - x*y^3", [("0", "t"), ("t", "0"), ("t", "t"), ("t", "-t")], 9, 6, 4),
        ("x*y^2 - x^5", [("0", "t"), ("t", "t^2"), ("t", "-t^2")], 6, 4, 3),
    ]
    for poly, brs, mu_exp, delta_exp, r_exp in cases:
        g = germ(poly)
        bset = branches(brs)
        assert milnor(g) == mu_exp
        assert delta(g, bset) == delta_exp
        assert branch_count(bset) == r_exp
        assert milnor(g) == 2 * delta(g, bset) - branch_count(bset) + 1
        assert tjurina(g) <= milnor(g)


def test_composition_work_bounds_what_substitute_does(monkeypatch):
    """Poly.substitute_work is at least the term pairs that Poly.substitute
    multiplies plus the terms its sums add, on random germs and branches,
    exact and truncated."""
    done = [0]
    mul, add = Poly.mul, Poly.__add__

    def counting_mul(self, other, cutoff):
        done[0] += len(self.terms) * len(other.terms)
        return mul(self, other, cutoff)

    def counting_add(self, other):
        done[0] += len(self.terms) + len(other.terms)
        return add(self, other)

    def image(rng):
        if rng.random() < 0.1:
            return Poly(1)
        return Poly(1, {(rng.randint(1, 12),): rng.randint(1, 3) for _ in range(rng.randint(1, 5))})

    rng = random.Random(17)
    for _ in range(300):
        xt, yt = image(rng), image(rng)
        f = Poly(2, {(rng.randint(0, 10), rng.randint(0, 10)): rng.randint(1, 2)
                     for _ in range(rng.randint(1, 10))})
        f = Poly(2, {(i, j): c for (i, j), c in f.terms.items() if (xt or not i) and (yt or not j)})
        dx, dy = (max((e for (e,) in p.terms), default=0) for p in (xt, yt))
        degree = max((i * dx + j * dy for i, j in f.terms), default=0)
        t0 = rng.choice([None, rng.randint(1, 40)])
        top = degree if t0 is None else min(degree, t0)
        monkeypatch.setattr(Poly, "mul", counting_mul)
        monkeypatch.setattr(Poly, "__add__", counting_add)
        done[0] = 0
        f.substitute((xt, yt), top + 1)
        monkeypatch.undo()
        assert done[0] <= f.substitute_work((xt, yt), top + 1), (f, xt, yt, t0)


def test_incomplete_branch_data_fails_formula():
    # three of the four lines through an ordinary quadruple point
    g = germ("x^3*y - x*y^3")
    bset = branches([("0", "t"), ("t", "0"), ("t", "t")])
    assert milnor(g) != 2 * delta(g, bset) - branch_count(bset) + 1


def test_parse_branch_file():
    b = parse_branch_file("# comment\nt ; t^2\nt ; -t^2\n")
    assert branch_count(b) == 2
    b2 = parse_branch_file("truncation: 12\nt^2 ; t^3 + t^14\n")
    assert b2.declared_truncation == 12
    with pytest.raises(ValueError):
        parse_branch_file("t, t^2\n")
    # truncation: is read on the first line only
    with pytest.raises(BadInput, match="branch line 'TRUNCATION: 12' is not 'x"):
        parse_branch_file("truncation: 12\nTRUNCATION: 12\nt^2 ; t^3\n")
    with pytest.raises(BadInput, match="branch line 'truncation: 12' is not 'x"):
        parse_branch_file("t^2 ; t^3\ntruncation: 12\n")


def test_germ_validation():
    with pytest.raises(ValueError):
        CurveGerm.from_string("1 + x")  # does not vanish at the origin
    with pytest.raises(ValueError):
        CurveGerm.from_string("x - x")  # zero polynomial
