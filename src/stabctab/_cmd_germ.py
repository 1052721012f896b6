"""The germ subcommand."""

from __future__ import annotations

from . import germ as germ_mod
from ._record import read_text


def cmd_germ(args) -> tuple:
    g = germ_mod.CurveGerm.from_string(args.poly)
    results: dict = {"mu": germ_mod.milnor(g), "tau": germ_mod.tjurina(g)}
    status = 0
    provenance = "local quotient-algebra dimensions"
    if args.branches:
        provenance += "; delta from the normalization cokernel of the branch parametrizations"
        branches = germ_mod.parse_branch_file(read_text(args.branches))
        results["delta"] = germ_mod.delta(g, branches, results["mu"])
        results["r"] = germ_mod.branch_count(branches)
        ok = results["mu"] == 2 * results["delta"] - results["r"] + 1
        results["milnor_formula"] = "OK" if ok else "FAIL"
        if not ok:
            status = 1
    record = {
        "parameters": {"poly": args.poly, "branches": args.branches or ""},
        "results": results,
        "provenance": provenance,
    }
    return status, record, results.items()
