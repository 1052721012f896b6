"""The germ subcommand."""

from __future__ import annotations

from . import germ as germ_mod
from ._record import read_text
from .cli import _emit


def cmd_germ(args) -> int:
    g = germ_mod.CurveGerm.from_string(args.poly)
    results: dict = {"mu": germ_mod.milnor(g), "tau": germ_mod.tjurina(g)}
    status = 0
    if args.branches:
        branches = germ_mod.parse_branch_file(read_text(args.branches))
        results["delta"] = germ_mod._delta(g, branches, results["mu"])
        results["r"] = germ_mod.branch_count(branches)
        ok = results["mu"] == 2 * results["delta"] - results["r"] + 1
        results["milnor_formula"] = "OK" if ok else "FAIL"
        if not ok:
            status = 1
    tsv = [(k, v) for k, v in results.items()]
    record = {
        "command": "germ",
        "parameters": {"poly": args.poly, "branches": args.branches or ""},
        "results": results,
        "provenance": "local quotient-algebra dimensions; delta from the "
                      "normalization cokernel of the branch parametrizations",
    }
    _emit(args, record, tsv)
    return status
