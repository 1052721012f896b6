"""Generating functions: pinned coefficients and the structural identities."""

import math

import pytest

from stabctab import genfunc
from stabctab.errors import BadInput, InternalIdentityFailure
from stabctab.genfunc import (
    BIELLIPTIC,
    ENRIQUES,
    PerverseTable,
    SurfaceTopology,
    _euler_transform,
    _stable_betti_series,
    goettsche_series,
    hilb_betti,
    remark_identity_mismatch,
    stable_betti,
    stable_betti_numbers,
    stable_perverse_series,
    stable_perverse_table,
)
from stabctab.series import TruncatedBiSeries

from product_oracle import goettsche_oracle, perverse_oracle, stable_betti_oracle

SMALL_B2 = SurfaceTopology(0, 1, 0)
B1_FOUR = SurfaceTopology(4, 6, 0)


def test_surface_validation():
    with pytest.raises(ValueError):
        SurfaceTopology(1, 10, 0)  # odd b1
    with pytest.raises(ValueError):
        SurfaceTopology(0, 0, 0)  # empty H^2


def test_goettsche_low_coefficients():
    g = goettsche_series(ENRIQUES, 6)
    assert g[2, 1] == 10  # b2 of the surface itself
    assert g[2, 2] == 11
    for n in range(7):
        assert g[0, n] == 1
    assert (1, 1) not in g  # zeros are omitted
    assert all(type(c) is int and c > 0 for c in g.values())


def test_goettsche_z_degree_bounded_by_4w():
    g = goettsche_series(BIELLIPTIC, 5)
    assert all(i <= 4 * n for i, n in g)


def test_hilb_betti_examples():
    assert hilb_betti(ENRIQUES, 2, 2) == 11
    assert hilb_betti(BIELLIPTIC, 1, 1) == 2
    for surface in (ENRIQUES, BIELLIPTIC):
        for n in range(6):
            assert hilb_betti(surface, n, 0) == 1
    assert hilb_betti(ENRIQUES, 1, 5) == 0  # beyond cohomological range
    with pytest.raises(ValueError, match="^n and k must be nonnegative$"):
        hilb_betti(ENRIQUES, 1, -1)


def test_library_builds_at_the_order_asked(monkeypatch):
    orders = []
    product = genfunc._product

    def recording_product(factors, order, top):
        orders.append(order)
        return product(factors, order, top)

    monkeypatch.setattr(genfunc, "_product", recording_product)
    assert hilb_betti(ENRIQUES, 3, 2) == 11
    assert stable_betti(ENRIQUES, 2) == 11
    table = stable_perverse_table(ENRIQUES, 4)
    assert sum(table.entry(i, 4 - i) for i in range(5)) == 78
    with pytest.raises(BadInput, match="truncation order must be nonnegative"):
        stable_betti_numbers(ENRIQUES, -1)
    assert orders == [3, 2, 4, -1]


def test_stable_betti_examples():
    assert [stable_betti(ENRIQUES, k) for k in range(5)] == [1, 0, 11, 0, 78]
    assert stable_betti(BIELLIPTIC, 1) == 2
    assert stable_betti(B1_FOUR, 0) == 1
    assert stable_betti_numbers(ENRIQUES, 4) == [1, 0, 11, 0, 78]
    with pytest.raises(BadInput, match="truncation order must be nonnegative"):
        stable_betti_numbers(ENRIQUES, -1)


def test_stable_perverse_series_enriques():
    h = stable_perverse_series(ENRIQUES, 4)
    assert h.coeff(1, 1) == 9
    assert h.coeff(2, 0) == 1
    assert h.coeff(0, 2) == 1
    assert h.coeff(0, 0) == 1


def test_perverse_table_no_odd_t_when_b1_zero():
    table = stable_perverse_table(ENRIQUES, 9)
    assert all(table.entry(0, j) == 0 for j in range(1, 10, 2))


def test_perverse_table_base_row_and_nonnegativity():
    for surface in (ENRIQUES, BIELLIPTIC, SMALL_B2, B1_FOUR):
        table = stable_perverse_table(surface, 8)
        assert all(v >= 0 for v in table.entries.values())
        assert all(table.entry(0, j) in (0, 1) for j in range(9))


def test_perverse_table_type_invariants():
    with pytest.raises(ValueError):
        PerverseTable(2, {(0, 1): 2})  # base row above 1
    with pytest.raises(ValueError):
        PerverseTable(2, {(1, 1): -1})
    with pytest.raises(ValueError):
        PerverseTable(2, {(2, 1): 1})  # outside i + j <= order


def test_remark_identity_perturbed_control():
    mismatch = remark_identity_mismatch(ENRIQUES, 6, perturb=True)
    assert mismatch is not None
    (a, b), lhs, rhs = mismatch
    assert (a, b) == (0, 0) and lhs == rhs + 1
    assert mismatch == ((0, 0), 2, 1)


def test_remark_identity_catches_dropped_b1_factor(monkeypatch):
    """Dropping (1 + z^5 w^2)^b1 from G breaks the identity first at
    z^5 w^2, i.e. at q^2 t^3 of total degree 5: caught at order 8,
    invisible at order 4."""
    original = genfunc._goettsche_factors
    monkeypatch.setattr(
        genfunc,
        "_goettsche_factors",
        lambda s, order: [f for f in original(s, order) if f != (1, 5, 2, s.b1)],
    )
    for surface in (BIELLIPTIC, B1_FOUR):
        mismatch = remark_identity_mismatch(surface, 8)
        assert mismatch is not None and mismatch[0] == (2, 3), (surface, mismatch)
        assert remark_identity_mismatch(surface, 4) is None, surface


def test_first_difference_orders_by_total_degree():
    # the identity's key q^n t^(i-n) has negative j when n > i; total
    # degree i + j is then the z-degree i, so (2, -1) at z-degree 1 comes
    # before (0, 2) at z-degree 2
    left = {(2, -1): 1, (0, 2): 1, (1, 0): 4}
    right = {(1, 0): 4}
    assert genfunc._first_difference(left, right) == ((2, -1), 1, 0)
    assert genfunc._first_difference(right, right) is None


def test_perverse_anti_diagonals_sum_to_stable_betti():
    # both sides expand H's factor list graded by total degree, once
    # carrying the q-exponent and once without it (t = q): this checks
    # the kernel's two readings of H
    for surface in (ENRIQUES, BIELLIPTIC, SMALL_B2):
        for k in range(11):
            table = stable_perverse_table(surface, k)
            assert sum(table.entry(i, k - i) for i in range(k + 1)) == stable_betti(surface, k)


def test_odd_vanishing_for_b1_zero():
    for surface in (ENRIQUES, SMALL_B2):
        for k in range(1, 13, 2):
            assert stable_betti(surface, k) == 0


def _goettsche_partition_dp(b1, b2, max_n):
    """Independent oracle: expand the product by integer dynamic
    programming, one factor at a time, with no series machinery."""
    table = {(0, 0): 1}

    def times_inverse(zd, wd):
        # multiply by 1/(1 - z^zd w^wd): unbounded-copies recurrence,
        # reading each completed lower w-level exactly once
        for n in range(wd, max_n + 1):
            for k, _ in [kn for kn in table if kn[1] == n - wd]:
                key = (k + zd, n)
                table[key] = table.get(key, 0) + table[(k, n - wd)]

    def times_plus(zd, wd):
        for (k, n), c in list(table.items()):
            if n + wd <= max_n:
                key = (k + zd, n + wd)
                table[key] = table.get(key, 0) + c

    for m in range(1, max_n + 1):
        for _ in range(b1):
            times_plus(2 * m - 1, m)
            times_plus(2 * m + 1, m)
        times_inverse(2 * m - 2, m)
        for _ in range(b2):
            times_inverse(2 * m, m)
        times_inverse(2 * m + 2, m)
    return table


def test_kernel_matches_product_oracle_and_partition_dp():
    """The Euler-transform kernel against the factor-by-factor expansion
    (G, H, stable Betti) and the integer DP (G), at every order 0..12."""
    top = 12
    for surface in (ENRIQUES, BIELLIPTIC, SMALL_B2, B1_FOUR):
        g_ref = goettsche_oracle(surface, top)
        h_ref = perverse_oracle(surface, top)
        betti_ref = stable_betti_oracle(surface, top)
        dp = _goettsche_partition_dp(surface.b1, surface.b2, top)
        for order in range(top + 1):
            g = goettsche_series(surface, order)
            assert g == {k: c for k, c in g_ref.items() if k[1] <= order}, (surface, order)
            assert g == {k: c for k, c in dp.items() if k[1] <= order and c}, (surface, order)
            h = stable_perverse_series(surface, order)
            assert h == TruncatedBiSeries(order, h_ref), (surface, order)
            assert _stable_betti_series(surface, order) == betti_ref[: order + 1]


def test_kernel_rejects_non_log_derivative():
    # L = s^2 forces 2 * F_2 = 1: no integer series has this log-derivative
    with pytest.raises(InternalIdentityFailure):
        _euler_transform([{}, {}, {0: 1}], 2, 0)


def test_rows_cut_at_top_are_the_full_rows_cut():
    # every x-exponent is nonnegative, so cutting at x^top drops only the
    # coefficients above it, whatever the order and the top
    for surface in (ENRIQUES, BIELLIPTIC, B1_FOUR):
        for order in (0, 1, 5, 9):
            factors = genfunc._goettsche_factors(surface, order)
            full = genfunc._product(factors, order, 4 * order)
            assert [len(row) for row in full] == [4 * n + 1 for n in range(order + 1)]
            for top in (0, 1, order, 2 * order + 1, 4 * order + 7):
                cut = genfunc._product(factors, order, top)
                assert cut == [row[: top + 1] for row in full], (surface, order, top)


def test_perverse_series_is_symmetric_once_b1_is_cleared():
    """H(q, t) (1 + t)^b1 = H(t, q) (1 + q)^b1 on the kernel's integer
    coefficients: without its m = 1 factor (1 + q)^b1, each factor of H
    has its q <-> t mirror among the others.  At b1 = 0 this is
    n^{i,j} = n^{j,i}."""
    cases = [(b1, b2, 24) for b1 in (0, 2, 4) for b2 in range(1, 23)]
    for b1, b2, order in cases + [(0, 10, 64), (2, 2, 64), (4, 22, 64)]:
        h = genfunc._perverse_coefficients(SurfaceTopology(b1, b2, 0), order)
        binomial = list(enumerate(math.comb(b1, a) for a in range(b1 + 1)))
        for n in range(order + 1):
            for i in range(n + 1):
                j = n - i
                left = sum(c * h.get((i, j - a), 0) for a, c in binomial)
                right = sum(c * h.get((j, i - a), 0) for a, c in binomial)
                assert left == right, (b1, b2, order, i, j)
