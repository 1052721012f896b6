"""Lattice enumeration oracle, bound formulas, exact surd arithmetic."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from stabctab.errors import BadInput
from stabctab.nslattice import (
    BiellipticParams,
    LatticeModel,
    bielliptic_chi,
    bielliptic_codim_bound,
    bielliptic_codim_terms,
    bielliptic_dim_ls,
    decompose,
    enriques_codim_bound,
    enriques_codim_terms,
    enriques_d0,
    enriques_dim_ls,
    governing_cases,
    load_lattice,
    n_lower_bound,
    parse_lattice,
)
from stabctab.surd import QuadSurd, sqrt_rational

from draws import gram_schmidt_lattice


@pytest.fixture(scope="module")
def bielliptic_model():
    return load_lattice("bielliptic-rank2")


def fraction_forms(model):
    """Oracle for LatticeModel.test_forms: each test class T, paired with
    every gram basis vector in Fraction arithmetic, scaled by the least
    common multiple of the row's denominators."""
    forms = []
    for t in model.test_classes():
        f = [
            sum(Fraction(t[i]) * model.gram[i][col] for i in range(model.rank))
            for col in range(model.rank)
        ]
        den = math.lcm(*(x.denominator for x in f))
        forms.append(tuple(int(x * den) for x in f))
    return forms


def brute_force_pairs(model, beta, box=20):
    """Independent oracle: scan the whole coordinate box with the same
    positivity filter, as integer linear functionals."""
    functionals = fraction_forms(model)
    at_beta = [sum(f[i] * beta[i] for i in range(len(beta))) for f in functionals]

    pairs = []
    for t1 in itertools.product(range(-box, box + 1), repeat=model.rank):
        # f(theta2) = f(beta) - f(theta1) for each linear functional f
        if all(0 < sum(f[i] * t1[i] for i in range(len(t1))) < fb
               for f, fb in zip(functionals, at_beta)):
            pairs.append((t1, tuple(b - x for b, x in zip(beta, t1))))
    return sorted(pairs)


def test_preset_decompose_minimal_empty(bielliptic_model):
    assert decompose(bielliptic_model, (1, 0)) == []


def test_decompose_posts(bielliptic_model):
    tests = bielliptic_model.test_classes()
    for t1, t2 in decompose(bielliptic_model, (3, 2)):
        assert tuple(a + b for a, b in zip(t1, t2)) == (3, 2)
        for v in (t1, t2):
            assert all(bielliptic_model.ip(t, v) > 0 for t in tests)


def test_not_effective_candidate(bielliptic_model):
    with pytest.raises(BadInput, match="pairs non-positively with the ample witness"):
        decompose(bielliptic_model, (-1, -1))


def test_beta_not_of_the_rank_is_bad_input(bielliptic_model):
    for beta in ((2, 2, 5), (2,)):
        with pytest.raises(BadInput, match=f"^beta has {len(beta)} coordinates, "
                                           "lattice has rank 2$"):
            decompose(bielliptic_model, beta)


def random_rank2_model(rng):
    """Random signature-(1,1) rank-2 lattice with a small ample vector."""
    while True:
        a, b, c = (rng.randint(-5, 5) for _ in range(3))
        if a * c - b * b >= 0:
            continue
        gram = ((a, b), (b, c))

        def square(v):
            return a * v[0] * v[0] + 2 * b * v[0] * v[1] + c * v[1] * v[1]

        d1 = next(
            (
                v
                for v in sorted(
                    itertools.product(range(-3, 4), repeat=2),
                    key=lambda v: (abs(v[0]) + abs(v[1]), v),
                )
                if square(v) > 0
            ),
            None,
        )
        if d1 is None:
            continue
        g1 = a * d1[0] + b * d1[1]
        g2 = b * d1[0] + c * d1[1]
        d2 = (-g2, g1)
        n2 = 1
        while n2 * n2 * square(d1) + square(d2) <= 0:
            n2 += 1
        return LatticeModel(
            2,
            gram,
            d1,
            (tuple(map(Fraction, d1)), tuple(map(Fraction, d2))),
            (n2,),
        )


def test_random_lattice_enumeration_oracle():
    rng = random.Random(424242)
    done = 0
    while done < 25:
        model = random_rank2_model(rng)
        beta = (rng.randint(-5, 5), rng.randint(-5, 5))
        if model.ip(beta, model.ample_witness) <= 0:
            continue
        pairs = decompose(model, beta)
        assert pairs == brute_force_pairs(model, beta, box=20)
        assert pairs == brute_force_pairs(model, beta, box=28)
        for t1, t2 in pairs:
            assert all(-20 <= x <= 20 for x in t1 + t2)
        done += 1


def test_decompose_at_the_smallest_splittable_form_value():
    # the integer form of 2*D1 + D2 reads 2 on beta, so every theta1 reads 1
    model = LatticeModel(
        2,
        ((-3, 1), (1, 0)),
        (-1, -2),
        ((Fraction(-1), Fraction(-2)), (Fraction(1), Fraction(1))),
        (2,),
    )
    pairs = decompose(model, (5, -2))
    assert [t1 for t1, _ in pairs] == [(x, -1) for x in range(6)]
    assert pairs == brute_force_pairs(model, (5, -2))


def random_gram_schmidt_model(rng, rank):
    """Random signature-(1, rank-1) lattice whose D2, ... come from
    Gram-Schmidt against a small ample D1 and have a rational entry."""
    while True:
        drawn = gram_schmidt_lattice(rng, rank)
        if drawn is not None and any(x.denominator != 1 for v in drawn[2][1:] for x in v):
            return LatticeModel(rank, *drawn)


def test_random_rank3_enumeration_oracle():
    rng = random.Random(131313)
    done = 0
    while done < 12:
        model = random_gram_schmidt_model(rng, 3)
        beta = tuple(rng.randint(-3, 3) for _ in range(3))
        if model.ip(beta, model.ample_witness) <= 0:
            continue
        pairs = decompose(model, beta)
        assert pairs == brute_force_pairs(model, beta, box=8)
        assert pairs == brute_force_pairs(model, beta, box=11)
        done += 1


def test_random_rank4_enumeration_oracle():
    rng = random.Random(4443)
    done = 0
    last_signs = set()
    while done < 3:
        model = random_gram_schmidt_model(rng, 4)
        beta = tuple(rng.randint(-1, 2) for _ in range(4))
        if model.ip(beta, model.ample_witness) <= 0:
            continue
        pairs = decompose(model, beta)
        assert pairs == brute_force_pairs(model, beta, box=5)
        if pairs:
            assert pairs == brute_force_pairs(model, beta, box=7)
            last_signs |= {(f[-1] > 0) - (f[-1] < 0) for f in model.test_forms()}
            done += 1
    assert last_signs >= {-1, 1}


def test_last_coordinate_coefficients_of_every_sign():
    # forms (2, 0), (4, -2) and (4, 2): the last coordinate of theta1 is
    # bounded by a form with a negative last coefficient and by one with a
    # positive one, while the form with a zero last coefficient is decided
    # on the first coordinate alone
    model = LatticeModel(
        2, ((2, 0), (0, -2)), (1, 0),
        ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))), (2,),
    )
    assert model.test_forms() == [(2, 0), (4, -2), (4, 2)]
    for beta in ((2, 0), (3, 1), (5, -2), (6, 0), (7, 3), (9, -4)):
        pairs = decompose(model, beta)
        assert pairs == brute_force_pairs(model, beta, box=12)
        assert pairs
    rank3 = LatticeModel(
        3, ((2, 0, 0), (0, -2, 0), (0, 0, -2)), (1, 0, 0),
        tuple(tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3)), (2, 2),
    )
    assert [f[-1] for f in rank3.test_forms()] == [0, 0, 0, -2, 2]
    for beta in ((3, 0, 0), (4, 1, -1), (5, -1, 2)):
        assert decompose(rank3, beta) == brute_force_pairs(rank3, beta, box=8)


def test_integer_forms_equal_the_fraction_oracle():
    models = [load_lattice("bielliptic-rank2"), load_lattice("enriques-u-e8")]
    rng = random.Random(8080)
    models += [random_rank2_model(rng) for _ in range(10)]
    models += [random_gram_schmidt_model(rng, rank) for rank in (3, 4) for _ in range(10)]
    for model in models:
        assert model.test_forms() == fraction_forms(model)


def test_rank10_preset_loads_and_validates():
    model = load_lattice("enriques-u-e8")
    assert model.rank == 10
    squares = [model.ip(v, v) for v in model.ortho_basis]
    assert squares[0] == 2 and all(s < 0 for s in squares[1:])
    assert decompose(model, (1,) + (0,) * 9) == []


def test_model_validation_errors():
    with pytest.raises(BadInput, match="exactly one positive square, first"):
        LatticeModel(
            2,
            ((2, 0), (0, 2)),
            (1, 0),
            ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
            (1,),
        )
    # a degenerate gram fails the basis checks
    with pytest.raises(BadInput, match="exactly one positive square, first"):
        LatticeModel(
            2,
            ((1, 1), (1, 1)),
            (1, 0),
            ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
            (1,),
        )


def test_rank_is_capped():
    from stabctab.nslattice import MAX_RANK

    rank = MAX_RANK + 1
    with pytest.raises(BadInput, match=f"lattice rank {rank} is above the cap of {MAX_RANK}"):
        parse_lattice(f"rank {rank}\n")
    one = tuple(tuple(Fraction(int(i == j)) for j in range(rank)) for i in range(rank))
    with pytest.raises(BadInput, match=f"lattice rank {rank} is above the cap of {MAX_RANK}"):
        LatticeModel(rank, one, (1,) * rank, one, (1,) * (rank - 1))


def test_enumeration_cap_lies_between_two_boxes(bielliptic_model):
    # the box of (447, 447) holds 4,999,696 points, under the cap of
    # 5,000,000, and is scanned; that of (448, 448) holds 5,022,081 and is
    # refused before any point is visited
    assert len(decompose(bielliptic_model, (447, 447))) == 399_172
    with pytest.raises(BadInput, match="^decomposition enumeration region is too large$"):
        decompose(bielliptic_model, (448, 448))


def test_parse_lattice_rejects_garbage():
    with pytest.raises(ValueError):
        parse_lattice("rank 2\nwhatever 1 2\n")
    with pytest.raises(ValueError):
        parse_lattice("rank 2\ngram\n0 2\n2 0\n")  # missing fields


def test_enriques_dim_ls():
    assert enriques_dim_ls(10) == 5
    assert enriques_dim_ls(2) == 1
    for dsq in (0, -2):
        with pytest.raises(BadInput, match="needs a positive self-intersection"):
            enriques_dim_ls(dsq)
    with pytest.raises(BadInput, match="odd self-intersection 7"):
        enriques_dim_ls(7)


def test_bielliptic_chi():
    assert bielliptic_chi(1, 1, 2) == 2
    assert bielliptic_chi(0, 5, 3) == 0
    assert bielliptic_chi(3, 2, 3) == 18


def test_enriques_codim_bound_examples():
    terms = enriques_codim_terms(10, 10)
    bound = enriques_codim_bound(10, 10)
    assert bound == 5
    assert governing_cases(terms, bound) == ["2.1"]
    assert enriques_codim_bound(2, 1) == Fraction(1, 2)


def test_enriques_codim_bound_monotone():
    values = [enriques_codim_bound(10, d) for d in range(1, 51)]
    assert all(x <= y for x, y in zip(values, values[1:]))


def test_bielliptic_codim_bound_examples():
    params = BiellipticParams(1, 1, Fraction(1), Fraction(1), 2)
    terms = bielliptic_codim_terms(params, 3)
    assert [v for _, v in terms] == [5, 5, 6]
    bound = bielliptic_codim_bound(params, 3)
    assert bound == 5
    assert governing_cases(terms, bound) == ["1", "2"]
    assert n_lower_bound(bound) == 8
    assert bielliptic_codim_bound(params, 1) == -2  # vacuous, reported as-is
    assert bielliptic_dim_ls(params, 3) == 17


def test_bielliptic_params_validation():
    with pytest.raises(ValueError):
        BiellipticParams(1, 1, Fraction(1, 2), Fraction(1), 3)  # chi = 3/2
    with pytest.raises(ValueError):
        BiellipticParams(0, 1, Fraction(1), Fraction(1), 2)


def random_bielliptic_params(rng):
    while True:
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        lam = Fraction(rng.randint(1, 3), rng.randint(1, 3))
        mu = Fraction(rng.randint(1, 3), rng.randint(1, 3))
        gamma = rng.choice((2, 3, 4, 6))
        try:
            return BiellipticParams(a, b, lam, mu, gamma)
        except ValueError:
            continue


def test_bound_growth_random_parameters():
    """Both bounds eventually dominate any fixed level and are monotone
    past the governed-case threshold."""
    rng = random.Random(77)
    for _ in range(10):
        beta_sq = 2 * rng.randint(1, 10)
        values = [enriques_codim_bound(beta_sq, d) for d in range(2, 101)]
        assert all(x <= y for x, y in zip(values, values[1:]))
        assert n_lower_bound(values[-1]) > 50

        params = random_bielliptic_params(rng)
        # vertex of the pure case d^2 X - d Y: monotone past Y / X
        x_coef = params.a * params.b * params.lam * params.mu * params.gamma
        y_coef = (params.b * params.mu + params.a * params.lam) * params.gamma
        start = max(2, math.ceil(y_coef / x_coef) + 1)
        values = [bielliptic_codim_bound(params, d) for d in range(start, start + 150)]
        assert all(x <= y for x, y in zip(values, values[1:]))
        assert n_lower_bound(values[-1]) > 50


def test_n_lower_bound():
    assert n_lower_bound(Fraction(5)) == 8
    assert n_lower_bound(Fraction(1, 2)) == 0
    assert n_lower_bound(Fraction(0)) == -2
    assert n_lower_bound(Fraction(-7, 2)) == -2
    assert n_lower_bound(QuadSurd(Fraction(-2), Fraction(20), 5)) == 2 * 43 - 2


def test_enriques_d0_examples():
    assert enriques_d0(10, 2, 3) == 4
    assert enriques_d0(10, 0, 0) == 2


def test_enriques_d0_equals_the_sqrt_rational_route():
    # d0 as it was computed through sqrt_rational, which keeps each root exact
    def by_surds(beta_sq, i, j):
        return max(2, i + 1, math.ceil(Fraction(i + j + 2, 2)),
                   math.ceil(sqrt_rational(Fraction((i + j + 6) ** 2, 8 * beta_sq))),
                   math.ceil(sqrt_rational(Fraction(2 * i + 2 * j + 6, beta_sq))))

    for beta_sq in range(2, 401, 2):
        for i in range(9):
            for j in range(9):
                assert enriques_d0(beta_sq, i, j) == by_surds(beta_sq, i, j), (beta_sq, i, j)


def test_ceil_sqrt_equals_the_sqrt_rational_route():
    # the square-root terms of d0 decide it only at beta^2 = 2, where the
    # second one gives d0 = 3 at (i, j) = (1, 1) and (0, 2), so they are
    # checked on their own
    from stabctab.codim import _ceil_sqrt

    for q in range(1, 41):
        for p in range(300):
            assert _ceil_sqrt(p, q) == math.ceil(sqrt_rational(Fraction(p, q))), (p, q)
    big = 10**40 + 1
    assert _ceil_sqrt(big * big, 1) == big and _ceil_sqrt(big * big + 1, 1) == big + 1
    assert _ceil_sqrt(1, big) == 1 and _ceil_sqrt(0, big) == 0


def test_enriques_d0_monotone():
    for i in range(10):
        for j in range(10):
            assert enriques_d0(10, i + 1, j) >= enriques_d0(10, i, j)
            assert enriques_d0(10, i, j + 1) >= enriques_d0(10, i, j)


def test_enriques_d0_dominates_stable_hypotheses():
    """Past d0 the (generic-surface) codimension bound certifies the
    perverse range and the dimension condition 2 dim >= 3i + j holds, dim
    the linear-system dimension of d*beta.  Only soundness is asserted: a
    smaller d often meets both too, since d0 also carries the terms 2 and
    i + 1, which come from other hypotheses."""
    for beta_sq in range(2, 31, 2):
        for i in range(16):
            for j in range(16):
                d0 = enriques_d0(beta_sq, i, j)
                for d in range(d0, d0 + 6):
                    bound = enriques_codim_bound(beta_sq, d, generic=True)
                    assert n_lower_bound(bound) >= i + j, (beta_sq, i, j, d)
                    assert 2 * enriques_dim_ls(d * d * beta_sq) >= 3 * i + j, (beta_sq, i, j, d)


def test_surd_arithmetic():
    s = sqrt_rational(20)
    assert isinstance(s, QuadSurd) and str(s) == "0+2*sqrt(5)"
    assert math.ceil(s) == 5
    assert math.ceil(10 * s - 2) == 43
    assert sqrt_rational(4) == Fraction(2)
    assert sqrt_rational(Fraction(9, 4)) == Fraction(3, 2)
    two = sqrt_rational(2)
    assert two < Fraction(3, 2) or two > Fraction(7, 5)
    assert Fraction(7, 5) < two < Fraction(3, 2)
    assert math.ceil(-1 * two) == -1
    assert (-1 * two).__floor__() == -2
    assert math.ceil(QuadSurd(Fraction(1, 3), Fraction(-5), 7)) == -12


def test_surd_floor_matches_float():
    rng = random.Random(3)
    for _ in range(300):
        rat = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        coef = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        n = rng.choice((2, 3, 5, 6, 7, 10, 13))
        if coef == 0:
            continue
        s = QuadSurd(rat, coef, n)
        approx = float(rat) + float(coef) * math.sqrt(n)
        if abs(approx - round(approx)) > 1e-6:
            assert s.__floor__() == math.floor(approx)
            assert math.ceil(s) == math.ceil(approx)
        assert math.ceil(s) - s.__floor__() == 1  # irrational, never integral


def test_surd_order_matches_float():
    import operator

    rng = random.Random(11)
    ops = (operator.lt, operator.le, operator.gt, operator.ge)

    def value(x):
        if isinstance(x, QuadSurd):
            return float(x.rat) + float(x.coef) * math.sqrt(x.radicand)
        return float(x)

    def surd(n):
        coef = Fraction(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 7))
        return QuadSurd(Fraction(rng.randint(-60, 60), rng.randint(1, 7)), coef, n)

    checked = 0
    for _ in range(2000):
        n = rng.choice((2, 3, 5, 6, 7, 10))
        x = surd(n)
        for y in (surd(n), Fraction(rng.randint(-90, 90), rng.randint(1, 5)),
                  rng.randint(-20, 20)):
            if abs(value(x) - value(y)) < 1e-9:
                continue
            for op in ops:
                assert op(x, y) == op(value(x), value(y)), (op, x, y)
                assert op(y, x) == op(value(y), value(x)), (op, y, x)
                checked += 2
        # a surd equals itself, and an equal surd under every order
        twin = QuadSurd(x.rat, x.coef, n)
        assert x <= twin and x >= twin and not x < twin and not x > twin
    assert checked > 40000
    for op in ops:
        with pytest.raises(TypeError):
            op(sqrt_rational(2), sqrt_rational(3))
        with pytest.raises(TypeError):
            op(sqrt_rational(2), 1.5)
