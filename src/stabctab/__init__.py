"""stabctab: exact stable cohomology tables for surfaces.

Truncated-series arithmetic, stable Betti and perverse Hodge tables
with an independent recursion oracle, plane-curve singularity
invariants, and divisor-class codimension bounds, all in exact rational
arithmetic.
"""

from .genfunc import (
    BIELLIPTIC,
    DEFAULT_ORDER,
    ENRIQUES,
    PerverseTable,
    SurfaceTopology,
    check_remark_identity,
    goettsche_series,
    hilb_betti,
    stable_betti,
    stable_betti_from_perverse,
    stable_betti_numbers,
    stable_perverse_series,
    stable_perverse_table,
)
from .germ import (
    BranchSet,
    CurveGerm,
    branch_count,
    delta,
    load_corpus,
    milnor,
    milnor_formula_check,
    tjurina,
)
from .nslattice import (
    BiellipticParams,
    DivisorClass,
    LatticeModel,
    arithmetic_genus,
    bielliptic_chi,
    bielliptic_codim_bound,
    decompose,
    enriques_codim_bound,
    enriques_d0,
    enriques_dim_ls,
    load_lattice,
    n_lower_bound,
)
from .perverse import RelHilbBettiTower, build_tower, solve_perverse
from .series import TruncatedBiSeries

__version__ = "0.1.0"

__all__ = [
    "BIELLIPTIC",
    "BiellipticParams",
    "BranchSet",
    "CurveGerm",
    "DEFAULT_ORDER",
    "DivisorClass",
    "ENRIQUES",
    "LatticeModel",
    "PerverseTable",
    "RelHilbBettiTower",
    "SurfaceTopology",
    "TruncatedBiSeries",
    "arithmetic_genus",
    "bielliptic_chi",
    "bielliptic_codim_bound",
    "branch_count",
    "build_tower",
    "check_remark_identity",
    "decompose",
    "delta",
    "enriques_codim_bound",
    "enriques_d0",
    "enriques_dim_ls",
    "goettsche_series",
    "hilb_betti",
    "load_corpus",
    "load_lattice",
    "milnor",
    "milnor_formula_check",
    "n_lower_bound",
    "solve_perverse",
    "stable_betti",
    "stable_betti_from_perverse",
    "stable_betti_numbers",
    "stable_perverse_series",
    "stable_perverse_table",
    "tjurina",
]
