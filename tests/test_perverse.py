"""The Betti-tower recursion and its agreement with coefficient extraction."""

import pytest

from stabctab.errors import InconsistentTower
from stabctab.genfunc import BIELLIPTIC, ENRIQUES, stable_perverse_table
from stabctab.perverse import (
    RelHilbBettiTower,
    build_tower,
    first_oracle_mismatch,
    solve_perverse,
)


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


def test_inconsistent_tower_negative_entry():
    tower = build_tower(ENRIQUES, 4)
    values = dict(tower.values)
    values[(1, 2)] = 0  # forces a negative shell at i = 1
    with pytest.raises(InconsistentTower):
        solve_perverse(RelHilbBettiTower(ENRIQUES, 4, values))


def test_inconsistent_tower_bad_base_row():
    tower = build_tower(ENRIQUES, 4)
    values = dict(tower.values)
    values[(0, 2)] = 5
    with pytest.raises(InconsistentTower):
        solve_perverse(RelHilbBettiTower(ENRIQUES, 4, values))
