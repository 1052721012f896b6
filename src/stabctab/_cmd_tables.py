"""The table subcommands: stable-betti, perverse and identity."""

from __future__ import annotations

from .genfunc import (
    SurfaceTopology,
    _table_order,
    remark_identity_mismatch,
    stable_betti_numbers,
    stable_perverse_table,
)


def _surface(args):
    return SurfaceTopology(args.b1, args.b2, 0)


def cmd_stable_betti(args) -> tuple:
    values = list(enumerate(stable_betti_numbers(_surface(args), args.max_k)))
    record = {
        "parameters": {"b1": args.b1, "b2": args.b2, "max_k": args.max_k},
        "results": values,
        "provenance": "stable Betti numbers: coefficients of the infinite "
                      "product in q attached to (b1, b2)",
    }
    return 0, record, [("k", "b_k"), *values]


def cmd_perverse(args) -> tuple:
    surface = _surface(args)
    table = stable_perverse_table(surface, args.max_order)
    rows = [(i, j, table.entry(i, j)) for i, j in sorted(table.entries, key=_table_order)]
    results: dict = {"table": rows}
    tsv = [("i", "j", "n"), *rows]
    status = 0
    if args.oracle:
        from . import perverse

        mismatch = perverse.first_oracle_mismatch(surface, table)
        if mismatch is None:
            results["oracle"] = "AGREE"
            tsv.append(("oracle", "AGREE", ""))
        else:
            (i, j), recursed, extracted = mismatch
            results["oracle"] = "DISAGREE"
            results["first_difference"] = {
                "i": i, "j": j, "recursion": recursed, "series": extracted,
            }
            tsv.append(("oracle", "DISAGREE", f"({i},{j}) {recursed}!={extracted}"))
            status = 1
    record = {
        "parameters": {"b1": args.b1, "b2": args.b2, "max_order": args.max_order,
                       "oracle": bool(args.oracle)},
        "results": results,
        "provenance": "stable perverse numbers: coefficients of the product "
                      "series H(q, t)" + (
                          "; cross-checked against the Betti-tower recursion"
                          if args.oracle else ""
                      ),
    }
    return status, record, tsv


def cmd_identity(args) -> tuple:
    mismatch = remark_identity_mismatch(_surface(args), args.order, perturb=args.perturb)
    results: dict = {"status": "PASS" if mismatch is None else "FAIL"}
    tsv = [("status", results["status"])]
    status = 0
    if mismatch is not None:
        (a, b), lhs, rhs = mismatch
        results["first_difference"] = {
            "q": a, "t": b, "lhs": str(lhs), "rhs": str(rhs),
        }
        tsv.append(("first_difference", f"q^{a} t^{b}: {lhs} != {rhs}"))
        status = 1
    record = {
        "parameters": {"b1": args.b1, "b2": args.b2, "order": args.order,
                       "perturb": bool(args.perturb)},
        "results": results,
        "provenance": "change of variables z = t, w = q/t linking the "
                      "point-counting series to H(q, t)/(1 - qt)",
    }
    return status, record, tsv
