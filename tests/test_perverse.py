"""The Betti-tower recursion and its agreement with coefficient extraction."""

from stabctab.errors import InconsistentTower
from stabctab.genfunc import BIELLIPTIC, ENRIQUES, PerverseTable, stable_perverse_table
from stabctab.perverse import (
    RelHilbBettiTower,
    build_tower,
    first_oracle_mismatch,
    solve_perverse,
)

from test_package import refused


def test_tower_values():
    tower = build_tower(ENRIQUES, 6)
    assert tower.value(1, 2) == 11  # 10 + 1
    assert tower.value(0, 4) == 1
    assert tower.value(0, 3) == 0


def test_tower_base_row_is_projective_space():
    for surface in (ENRIQUES, BIELLIPTIC):
        tower = build_tower(surface, 8)
        for m in range(9):
            assert tower.value(0, m) == (1 if m % 2 == 0 else 0)


def test_solve_single_step():
    tower = build_tower(ENRIQUES, 4)
    table = solve_perverse(tower)
    assert table.entry(1, 1) == 9
    assert table.entry(0, 2) == 1
    assert table.entry(2, 0) == stable_perverse_table(ENRIQUES, 4).entry(2, 0)


def test_oracle_equivalence():
    for surface, order in ((ENRIQUES, 10), (BIELLIPTIC, 10), (ENRIQUES, 0)):
        table = stable_perverse_table(surface, order)
        assert first_oracle_mismatch(surface, table) is None


def tampered(table, changes):
    return PerverseTable(table.order, {**table.entries, **changes})


def test_oracle_reports_a_tampered_entry():
    table = stable_perverse_table(ENRIQUES, 4)
    assert table.entry(1, 1) == 9
    assert first_oracle_mismatch(ENRIQUES, tampered(table, {(1, 1): 8})) == ((1, 1), 9, 8)


def test_oracle_reports_the_mismatch_of_lowest_total_degree():
    # (1, 3) comes first lexicographically, (2, 0) by total degree
    table = stable_perverse_table(ENRIQUES, 4)
    assert (table.entry(1, 3), table.entry(2, 0)) == (10, 1)
    changed = tampered(table, {(1, 3): 11, (2, 0): 2})
    assert first_oracle_mismatch(ENRIQUES, changed) == ((2, 0), 1, 2)


def test_solved_base_row_is_binary():
    for surface in (ENRIQUES, BIELLIPTIC):
        table = solve_perverse(build_tower(surface, 8))
        for j in range(9):
            assert table.entry(0, j) in (0, 1)


def test_triangular_dependence():
    """Entry (i, j) must depend only on tower rows l <= i."""
    order = 6
    base = build_tower(ENRIQUES, order)
    reference = solve_perverse(base)
    for ell_star in range(1, order + 1):
        bumped = dict(base.values)
        bumped[(ell_star, order)] += 1
        try:
            perturbed = solve_perverse(RelHilbBettiTower(ENRIQUES, order, bumped))
        except InconsistentTower:
            continue  # only rows >= ell_star can have been disturbed
        for (i, j), v in reference.entries.items():
            if i < ell_star:
                assert perturbed.entry(i, j) == v
        assert perturbed != reference


# node ids of tests whose checks are now rows of test_package.REFUSALS
test_inconsistent_tower_negative_entry = refused("solve_perverse-negative-entry")
test_inconsistent_tower_bad_base_row = refused("solve_perverse-base-row")
test_tower_refuses_a_negative_order = refused("RelHilbBettiTower-order-negative")
