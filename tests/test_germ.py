"""Singularity invariants: pinned small germs, the ADE corpus, properties."""

import random
from fractions import Fraction

import pytest

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


def germ(s):
    return CurveGerm.from_string(s)


def branches(pairs, t0=None):
    return BranchSet.from_strings(pairs, t0)


NODE = germ("x*y")
CUSP = germ("y^2 - x^3")
TACNODE = germ("y^2 - x^4")

NODE_BRANCHES = branches([("t", "0"), ("0", "t")])
CUSP_BRANCHES = branches([("t^2", "t^3")])
TACNODE_BRANCHES = branches([("t", "t^2"), ("t", "-t^2")])


def test_milnor_small_germs():
    assert milnor(NODE) == 1
    assert milnor(CUSP) == 2
    assert milnor(TACNODE) == 3


def test_milnor_smooth_point():
    assert milnor(germ("x")) == 0
    assert milnor(germ("y - x^2")) == 0


def test_tjurina_small_germs():
    assert tjurina(CUSP) == 2
    assert tjurina(NODE) == 1
    assert tjurina(TACNODE) == 3


def test_non_isolated():
    with pytest.raises(BadInput, match="still growing at maximal-ideal power 64"):
        milnor(germ("x^2"))
    with pytest.raises(BadInput, match="still growing at maximal-ideal power 64"):
        milnor(germ("x^2 + 2*x*y + y^2"))


def ordinary_point(m):
    """The ordinary m-fold point, the product of the lines y = i*x for i = 1..m."""
    f = Poly.parse("1", ("x", "y"))
    for i in range(1, m + 1):
        f = f.mul(Poly.parse(f"y - {i}*x", ("x", "y")))
    return CurveGerm(f)


@pytest.mark.parametrize("g, mu", [
    (germ("x^6 + y^14"), 65),
    (germ("x^33 + y^33"), 1024),
    (ordinary_point(14), 169),
], ids=["x^6+y^14", "x^33+y^33", "14-fold-point"])
def test_quotient_that_stops_above_the_cap_is_bad_input(g, mu):
    # each quotient stops growing below m^64, at a dimension above the cap
    message = f"^quotient dimension {mu} exceeds the cap of 64 on mu and tau$"
    with pytest.raises(BadInput, match=message):
        milnor(g)
    with pytest.raises(BadInput, match=message):
        tjurina(g)


def curved_point(m):
    """The curved m-fold point, the product of y - i*x - x^2 - i*x^3 for
    i = 1..m, with its m exact branches t ; i*t + t^2 + i*t^3."""
    f = Poly.parse("1", ("x", "y"))
    for i in range(1, m + 1):
        f = f.mul(Poly.parse(f"y - {i}*x - x^2 - {i}*x^3", ("x", "y")))
    return CurveGerm(f), branches([("t", f"{i}*t + t^2 + {i}*t^3") for i in range(1, m + 1)])


def test_elimination_work_is_capped(monkeypatch):
    # delta of the curved 4-fold point eliminates in 54,537 weighted
    # updates; the 7-fold point, far below the caps on mu and on the
    # composition, ran for minutes before the elimination had a cap
    from stabctab import germ as germ_mod

    g, bset = curved_point(4)
    mu = milnor(g)
    monkeypatch.setattr(germ_mod, "MAX_ELIMINATION_WORK", 54_537)
    assert delta(g, bset, mu) == 6
    monkeypatch.setattr(germ_mod, "MAX_ELIMINATION_WORK", 54_536)
    with pytest.raises(BadInput, match="^elimination exceeds the cap of 54536 weighted "
                                       "coefficient updates$"):
        delta(g, bset, mu)


def test_large_coefficients_weigh_on_the_elimination_cap(monkeypatch):
    # the multiplier 2^2000 has 2,002 bits with its denominator, so each
    # of the two updates it makes weighs 1 + 2002 // 1024 = 2
    from stabctab import germ as germ_mod

    one = Fraction(1)
    rows = [{0: one, 1: one, 2: one}, {0: Fraction(2**2000), 1: one}]
    monkeypatch.setattr(germ_mod, "MAX_ELIMINATION_WORK", 4)
    assert germ_mod._pivot_columns(rows) == [0, 1]
    monkeypatch.setattr(germ_mod, "MAX_ELIMINATION_WORK", 3)
    with pytest.raises(BadInput, match="^elimination exceeds the cap of 3 "):
        germ_mod._pivot_columns(rows)


def test_delta_small_germs():
    assert delta(NODE, NODE_BRANCHES) == 1
    assert delta(CUSP, CUSP_BRANCHES) == 1
    assert delta(TACNODE, TACNODE_BRANCHES) == 2


def test_branch_count():
    assert branch_count(NODE_BRANCHES) == 2
    assert branch_count(CUSP_BRANCHES) == 1
    assert branch_count(TACNODE_BRANCHES) == 2
    with pytest.raises(BadInput, match="a germ has at least one branch"):
        branch_count(BranchSet(()))


def test_milnor_formula_examples():
    assert milnor(NODE) == 2 * delta(NODE, NODE_BRANCHES) - branch_count(NODE_BRANCHES) + 1
    assert milnor(CUSP) == 2 * delta(CUSP, CUSP_BRANCHES) - branch_count(CUSP_BRANCHES) + 1
    triple = germ("x^3 - x*y^2")
    triple_branches = branches([("0", "t"), ("t", "t"), ("t", "-t")])
    assert milnor(triple) == 4
    assert delta(triple, triple_branches) == 3
    assert milnor(triple) == 2 * delta(triple, triple_branches) - branch_count(triple_branches) + 1


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

    def counting_pivot_columns(rows):
        # the first row, the image of 1, is 1 at column i*T of each branch i
        rows = list(rows)
        rounds.append(sorted(rows[0])[1])
        return pivot_columns(rows)

    g = germ("y - x^2")
    mu = milnor(g)
    monkeypatch.setattr(germ_mod, "_pivot_columns", counting_pivot_columns)
    bset = parse_branch_file("truncation: 560\nt ; t^2\nt^2 ; t^4\n")
    with pytest.raises(BadInput, match="mu = 0"):
        delta(g, bset, mu)
    assert rounds == [2]


def test_corpus_expected_values():
    corpus = load_corpus()
    assert {r.name for r in corpus} == {"A1", "A2", "A3", "A4", "D4", "D5", "E6"}
    for rec in corpus:
        mu = milnor(rec.germ)
        tau = tjurina(rec.germ)
        dlt = delta(rec.germ, rec.branches)
        r = branch_count(rec.branches)
        assert mu == rec.expected["mu"], rec.name
        assert tau == rec.expected["tau"], rec.name
        assert dlt == rec.expected["delta"], rec.name
        assert r == rec.expected["r"], rec.name
        assert mu == 2 * dlt - r + 1, rec.name


def test_corpus_file_that_cannot_be_read_is_bad_input(tmp_path):
    from importlib import resources

    shipped = tmp_path / "ade.jsonl"
    shipped.write_bytes(resources.files("stabctab").joinpath("data/ade_corpus.jsonl").read_bytes())
    assert load_corpus(shipped) == load_corpus()
    latin1 = tmp_path / "latin1.jsonl"
    latin1.write_bytes('{"name": "\u00e9"}\n'.encode("latin-1"))
    for path in (tmp_path / "missing.jsonl", tmp_path, latin1):
        with pytest.raises(BadInput):
            load_corpus(path)


#: A well-formed corpus record, without its braces.
A1 = ('"name": "A1", "poly": "y^2 - x^2", "branches": [["t", "t"], ["t", "-t"]], '
      '"expected": {"mu": 1, "tau": 1, "delta": 1, "r": 2}')


@pytest.mark.parametrize("line, message", [
    ('{' + A1.replace('"poly": "y^2 - x^2", ', '') + '}',
     "record has keys branches, expected, name, not exactly name, poly, branches, expected"),
    ('name: A1', "JSONDecodeError: Expecting value: line 1 column 1 (char 0)"),
    ('{' + A1.replace('[["t", "t"], ["t", "-t"]]', '[["t"]]') + '}',
     'branches must be a list of [x(t), y(t)] pairs of strings, got [["t"]]'),
    ('["A1", "y^2 - x^2"]', 'record must be an object, got ["A1", "y^2 - x^2"]'),
    ('{"name": "A1", "poly": "y^2 - x^2", "branches": [], "expected": {"mu": 1.9}}',
     "expected mu must be an integer, got 1.9"),
    ('{"name": "A1", "poly": "y^2 - x^2", "branches": [], "expected": {"tau": true}}',
     "expected tau must be an integer, got true"),
    ('{"name": "A1", "poly": "y^2 - x^2", "branches": [], "expected": {"delta": "1"}}',
     'expected delta must be an integer, got "1"'),
    ('{"name": "A1", "poly": "y^2 - x^2", "branches": [], "expected": [["mu", 1]]}',
     'expected must be an object, got [["mu", 1]]'),
    ('{' + A1.replace('"A1"', '"A1", "name": "B7"') + '}', "key 'name' is repeated"),
    ('{' + A1 + ', "expected": {"mu": 5}}', "key 'expected' is repeated"),
    ('{' + A1.replace('"r": 2', '"r": 2, "r": 3') + '}', "key 'r' is repeated"),
    ('{' + A1.replace(', "r": 2', '') + '}',
     "expected has keys delta, mu, tau, not exactly mu, tau, delta, r"),
    ('{' + A1.replace('"r": 2', '"r": 2, "kappa": 0') + '}',
     "expected has keys delta, kappa, mu, r, tau, not exactly mu, tau, delta, r"),
    ('{' + A1.replace('"A1"', '5') + '}', "name must be a string, got 5"),
    ('{' + A1.replace('"y^2 - x^2"', '5') + '}', "poly must be a string, got 5"),
], ids=["no-poly", "not-json", "one-element-branch", "json-array", "float-value",
        "bool-value", "string-value", "expected-not-an-object", "repeated-name",
        "repeated-expected", "repeated-expected-key", "expected-key-missing",
        "expected-key-extra", "name-not-a-string", "poly-not-a-string"])
def test_malformed_corpus_record_is_bad_input_naming_its_line(tmp_path, line, message):
    path = tmp_path / "corpus.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(BadInput) as exc:
        load_corpus(path)
    assert str(exc.value) == f"corpus line 1: {message}"


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
        for _ in range(10):
            m = rand_unimodular(rng)
            u = Poly(2, {(1, 0): m[0], (0, 1): m[1]})
            v = Poly(2, {(1, 0): m[2], (0, 1): m[3]})
            changed = CurveGerm(rec.germ.poly.substitute((u, v)))
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
            dims = [_quotient_dims(gens, n) for n in range(2, 12)]
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
    """_composition_work is at least the term pairs that Poly.substitute
    multiplies plus the terms its sums add, on random germs and branches,
    exact and truncated."""
    from stabctab.germ import _composition_work

    done = [0]
    mul, add = Poly.mul, Poly.__add__

    def counting_mul(self, other, cutoff=None):
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
        f.substitute((xt, yt), None if t0 is None else t0 + 1)
        monkeypatch.undo()
        assert done[0] <= _composition_work(f, xt, yt, top), (f, xt, yt, t0)


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
