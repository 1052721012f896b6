"""stabctab: exact stable cohomology tables for surfaces.

Truncated-series arithmetic, stable Betti and perverse Hodge tables
with an independent recursion oracle, plane-curve singularity
invariants, and divisor-class codimension bounds, all in exact rational
arithmetic.

``import stabctab`` loads none of these layers: each public name is
imported from its home module on first access (PEP 562), so a caller,
and each subcommand of the command line, pays only for the layer it
uses.
"""

from importlib import import_module

__version__ = "0.1.0"

#: The home module of every public name.
_HOMES = {
    "BIELLIPTIC": "genfunc",
    "ENRIQUES": "genfunc",
    "PerverseTable": "genfunc",
    "SurfaceTopology": "genfunc",
    "check_remark_identity": "genfunc",
    "goettsche_series": "genfunc",
    "hilb_betti": "genfunc",
    "stable_betti": "genfunc",
    "stable_betti_from_perverse": "genfunc",
    "stable_betti_numbers": "genfunc",
    "stable_perverse_series": "genfunc",
    "stable_perverse_table": "genfunc",
    "RelHilbBettiTower": "perverse",
    "build_tower": "perverse",
    "solve_perverse": "perverse",
    "TruncatedBiSeries": "series",
    "BranchSet": "germ",
    "CurveGerm": "germ",
    "branch_count": "germ",
    "delta": "germ",
    "load_corpus": "germ",
    "milnor": "germ",
    "milnor_formula_check": "germ",
    "tjurina": "germ",
    "BiellipticParams": "codim",
    "DivisorClass": "nslattice",
    "LatticeModel": "nslattice",
    "arithmetic_genus": "codim",
    "bielliptic_chi": "codim",
    "bielliptic_codim_bound": "codim",
    "decompose": "nslattice",
    "enriques_codim_bound": "codim",
    "enriques_d0": "codim",
    "enriques_dim_ls": "codim",
    "load_lattice": "nslattice",
    "n_lower_bound": "codim",
    "DEFAULT_ORDER": "cli",
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
