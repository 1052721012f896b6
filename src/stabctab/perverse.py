r"""Inductive reconstruction of the perverse table from Betti towers.

In the stable range, the Betti numbers of the relative Hilbert schemes
over a linear system are governed by two facts:

* b_m of the 0-point relative Hilbert scheme (the projective space of
  the linear system itself) is 1 for even m and 0 for odd m;
* b_m of the l-point relative Hilbert scheme equals
  sum_{n=0}^{floor(m/2)} b_{m-2n} of the l-point Hilbert scheme of the
  ambient surface (a projective-bundle computation).

Moreover b_m of the l-point relative Hilbert scheme decomposes as the
sum of n^{i, m-i-2j} over i + j <= l.  Peeling off the l = i shell and
inducting on i inverts that relation:

    n^{i, m-i} = [b_m(tower, i) - b_m(tower, i-1)]
                 - sum_{i' < i, i'+j' = i} n^{i', m - i' - 2j'}.

This gives the perverse table by a triangular recursion that never looks
at tower rows above the current i, and serves as an independent oracle
against coefficient extraction from the product series H(q, t).
"""

from ._record import Record, is_int, is_int_pair
from .errors import InconsistentTower
from .genfunc import PerverseTable, SurfaceTopology, _first_difference, _goettsche_rows


class RelHilbBettiTower(Record):
    """Betti numbers b_m of the l-point relative Hilbert schemes.

    values maps (l, m) to b_m for 0 <= l <= order and 0 <= m <= order.
    Row l = 0 is the base of the induction: 1 for even m, 0 for odd m.
    The order and the values are ints and each key a tuple of two ints
    (TypeError), the order nonnegative and each key on the grid
    (ValueError); a value that no surface gives, a negative one say, is
    for ``solve_perverse`` to report.
    """

    def __init__(self, surface: SurfaceTopology, order: int,
                 values: dict[tuple[int, int], int] | None = None):
        values = {} if values is None else values
        if not (is_int(order) and all(is_int_pair(key) and is_int(b)
                                      for key, b in values.items())):
            raise TypeError("the order, the keys and the values of a tower must be integers")
        if order < 0:
            raise ValueError("order must be nonnegative")
        for ell, m in values:
            if not (0 <= ell <= order and 0 <= m <= order):
                raise ValueError(f"key ({ell}, {m}) outside the tower range")
        super().__init__(surface=surface, order=order, values=values)

    def value(self, ell: int, m: int) -> int:
        """b_m of the ell-point relative Hilbert scheme, for ints ell and m; 0
        off the grid."""
        if not (is_int(ell) and is_int(m)):
            raise TypeError("ell and m must be integers")
        return self.values.get((ell, m), 0)


def build_tower(surface: SurfaceTopology, order: int) -> RelHilbBettiTower:
    """Populate the tower for 0 <= l, m <= order.

    Each entry is the even-offset partial sum of surface Hilbert-scheme
    Betti numbers, b_m = sum_{n=0}^{floor(m/2)} b_{m-2n}(l points), all
    read from one point-counting series G at w-order ``order``, built up to
    z-degree ``order``, the highest it reads.
    """
    g = _goettsche_rows(surface, order, order)
    values: dict[tuple[int, int], int] = {}
    for ell in range(order + 1):
        for m in range(order + 1):
            values[(ell, m)] = g[ell][m] + values.get((ell, m - 2), 0)
    return RelHilbBettiTower(surface, order, values)


def solve_perverse(tower: RelHilbBettiTower) -> PerverseTable:
    """Solve the triangular recursion for the table n^{i,j}, i + j <= order.

    Raises InconsistentTower when an intermediate value is negative or a
    base-row value exceeds 1: no surface produces such a tower.
    """
    order = tower.order
    solved: dict[tuple[int, int], int] = {}
    for j in range(order + 1):
        base = tower.value(0, j)
        if base < 0 or base > 1:
            raise InconsistentTower(
                f"base row value {base} at degree {j} is not 0 or 1"
            )
        solved[(0, j)] = base
    for i in range(1, order + 1):
        for m in range(i, order + 1):
            shell = tower.value(i, m) - tower.value(i - 1, m)
            lower = sum(
                solved.get((ip, m - 2 * i + ip), 0)
                for ip in range(i)
                if m - 2 * i + ip >= 0
            )
            val = shell - lower
            if val < 0:
                raise InconsistentTower(
                    f"entry ({i}, {m - i}) came out negative ({val})"
                )
            solved[(i, m - i)] = val
    return PerverseTable(order, solved)


def first_oracle_mismatch(surface: SurfaceTopology, extracted: PerverseTable):
    """First (i, j) where the Betti-tower recursion differs from the table
    extracted from H(q, t) (as stable_perverse_table builds it), or None."""
    recursed = solve_perverse(build_tower(surface, extracted.order))
    return _first_difference(recursed.entries, extracted.entries)
