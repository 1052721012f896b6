"""Command-line interface.

Every subcommand prints one machine-readable record, as TSV (default)
or JSON (--format json), and is deterministic: identical invocations
produce byte-identical output.  Exit codes: 0 success, 1 verification
failure, 2 usage error, 3 internal error (a coefficient that must be an
exact nonnegative integer was not, or the Betti tower the library built
for ``perverse --oracle`` is inconsistent: always a bug, never bad
input).  The environment variable STABCTAB_MAX_ORDER overrides the
built-in default truncation order (12) used when an order flag is not
given.

``identity`` checks H(zw, z)(1 - z^2) = (1 - w)(1 - z^2 w) G(z, w), the
change of variables z = t, w = q/t with denominators cleared; a
``first_difference`` names the key q^n t^(i-n) of the differing z^i w^n
coefficient and gives the integer coefficients of the two sides there
(rendered as strings in JSON).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import genfunc, germ as germ_mod, nslattice, perverse
from .errors import InconsistentTower, InternalIdentityFailure, StabctabError
from .surd import QuadSurd, parse_rational


def _usage(msg: str) -> "SystemExit":
    sys.stderr.write(msg.rstrip("\n") + "\n")
    return SystemExit(2)


def _default_order() -> int:
    env = os.environ.get("STABCTAB_MAX_ORDER")
    if env is None:
        return genfunc.DEFAULT_ORDER
    try:
        value = int(env)
    except ValueError:
        raise _usage(f"stabctab: STABCTAB_MAX_ORDER={env!r} is not an integer")
    if value < 0:
        raise _usage("stabctab: STABCTAB_MAX_ORDER must be nonnegative")
    return value


def _render_value(x):
    """JSON-safe exact rendering: ints stay ints, rationals become 'p/q',
    surds become 'p+q*sqrt(n)'."""
    if isinstance(x, (Fraction, QuadSurd)):
        return str(x)
    return x


def _emit(args, record: dict, tsv_rows: list[tuple]) -> None:
    if args.format == "json":
        sys.stdout.write(json.dumps(record, sort_keys=True, indent=2) + "\n")
    else:
        for row in tsv_rows:
            sys.stdout.write("\t".join(str(_render_value(c)) for c in row) + "\n")


def _surface(args) -> genfunc.SurfaceTopology:
    return genfunc.SurfaceTopology(args.b1, args.b2, 0)


def cmd_stable_betti(args) -> int:
    surface = _surface(args)
    values = list(enumerate(genfunc.stable_betti_numbers(surface, args.max_k)))
    record = {
        "command": "stable-betti",
        "parameters": {"b1": args.b1, "b2": args.b2, "max_k": args.max_k},
        "results": [[k, v] for k, v in values],
        "provenance": "stable Betti numbers: coefficients of the infinite "
                      "product in q attached to (b1, b2)",
    }
    _emit(args, record, [("k", "b_k")] + values)
    return 0


def cmd_perverse(args) -> int:
    surface = _surface(args)
    table = genfunc.stable_perverse_table(surface, args.max_order)
    keys = sorted(table.entries, key=lambda k: (k[0] + k[1], k))
    rows = [(i, j, table.entry(i, j)) for i, j in keys]
    results: dict = {"table": [[i, j, v] for i, j, v in rows]}
    tsv = [("i", "j", "n")] + rows
    status = 0
    if args.oracle:
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
        "command": "perverse",
        "parameters": {"b1": args.b1, "b2": args.b2, "max_order": args.max_order,
                       "oracle": bool(args.oracle)},
        "results": results,
        "provenance": "stable perverse numbers: coefficients of the product "
                      "series H(q, t)" + (
                          "; cross-checked against the Betti-tower recursion"
                          if args.oracle else ""
                      ),
    }
    _emit(args, record, tsv)
    return status


def cmd_identity(args) -> int:
    surface = _surface(args)
    mismatch = genfunc.remark_identity_mismatch(surface, args.order, perturb=args.perturb)
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
        "command": "identity",
        "parameters": {"b1": args.b1, "b2": args.b2, "order": args.order,
                       "perturb": bool(args.perturb)},
        "results": results,
        "provenance": "change of variables z = t, w = q/t linking the "
                      "point-counting series to H(q, t)/(1 - qt)",
    }
    _emit(args, record, tsv)
    return status


def cmd_germ(args) -> int:
    try:
        g = germ_mod.CurveGerm.from_string(args.poly)
    except ValueError as exc:
        raise _usage(f"stabctab germ: {exc}")
    results: dict = {"mu": germ_mod.milnor(g), "tau": germ_mod.tjurina(g)}
    status = 0
    if args.branches:
        try:
            with open(args.branches, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise _usage(f"stabctab germ: {exc}")
        branches = germ_mod.parse_branch_file(text)
        results["delta"] = germ_mod.delta(g, branches)
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


def _governing_text(labels: list[str]) -> str:
    if len(labels) == 1:
        return labels[0]
    return " or ".join(labels) + " (tie)"


def cmd_bounds(args) -> int:
    want_d = args.d is not None
    want_ij = args.i is not None or args.j is not None
    if want_d == want_ij:
        raise _usage("stabctab bounds: give exactly one of --d or --i/--j")
    if want_ij and (args.i is None or args.j is None):
        raise _usage("stabctab bounds: --i and --j go together")

    params: dict = {"surface": args.surface}
    results: dict = {}
    if args.surface == "enriques":
        if args.beta_sq is None:
            raise _usage("stabctab bounds: enriques needs --beta-sq")
        params["beta_sq"] = args.beta_sq
        if want_d:
            params["d"] = args.d
            params["generic"] = bool(args.generic)
            terms = nslattice.enriques_codim_terms(args.beta_sq, args.d, args.generic)
            bound = nslattice.enriques_codim_bound(args.beta_sq, args.d, args.generic)
        else:
            params["i"], params["j"] = args.i, args.j
            results["d0"] = nslattice.enriques_d0(args.beta_sq, args.i, args.j)
        provenance = (
            "five-case codimension bounds for non-integral members of |d*beta| "
            "on an Enriques surface; d0 is the max of five explicit terms"
        )
    else:
        missing = [f for f in ("a", "b", "lam", "mu", "gamma") if getattr(args, f) is None]
        if missing:
            raise _usage("stabctab bounds: bielliptic needs --a --b --lambda --mu --gamma")
        if not want_d:
            raise _usage("stabctab bounds: the d0 threshold is defined for enriques only")
        try:
            bp = nslattice.BiellipticParams(
                args.a, args.b, parse_rational(args.lam), parse_rational(args.mu), args.gamma
            )
        except ValueError as exc:
            raise _usage(f"stabctab bounds: {exc}")
        params.update(
            {"a": args.a, "b": args.b, "lambda": args.lam, "mu": args.mu,
             "gamma": args.gamma, "d": args.d}
        )
        terms = nslattice.bielliptic_codim_terms(bp, args.d)
        bound = nslattice.bielliptic_codim_bound(bp, args.d)
        provenance = (
            "three-case codimension bounds in the fiber-class basis of a "
            "bielliptic surface"
        )
    if want_d:
        results["codim_bound"] = _render_value(bound)
        results["n_bound"] = nslattice.n_lower_bound(bound)
        results["governing_case"] = _governing_text(
            nslattice.governing_cases(terms, bound)
        )
        results["case_bounds"] = [[label, _render_value(v)] for label, v in terms]
    if args.surface == "bielliptic":
        results["dim_ls"] = _render_value(nslattice.bielliptic_dim_ls(bp, args.d))
    record = {
        "command": "bounds",
        "parameters": params,
        "results": results,
        "provenance": provenance,
    }
    tsv = [(k, json.dumps(v) if isinstance(v, list) else v) for k, v in results.items()]
    _emit(args, record, tsv)
    return 0


def cmd_decompose(args) -> int:
    try:
        model = nslattice.load_lattice(args.lattice)
        beta = tuple(int(c) for c in args.beta.split(","))
        if len(beta) != model.rank:
            raise ValueError(
                f"beta has {len(beta)} coordinates, lattice has rank {model.rank}"
            )
        pairs = nslattice.decompose(model, beta)
    except (ValueError, OSError, StabctabError) as exc:
        raise _usage(f"stabctab decompose: {exc}")
    rows = [
        (",".join(map(str, t1)), ",".join(map(str, t2))) for t1, t2 in pairs
    ]
    record = {
        "command": "decompose",
        "parameters": {"lattice": args.lattice, "beta": args.beta},
        "results": {
            "count": len(pairs),
            "pairs": [[list(t1), list(t2)] for t1, t2 in pairs],
        },
        "provenance": "candidate splittings passing every declared "
                      "ample-positivity test, enumerated from exact bounds "
                      "in orthogonal coordinates",
    }
    _emit(args, record, [("theta1", "theta2")] + rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    order_default = _default_order()
    parser = argparse.ArgumentParser(
        prog="stabctab",
        description="Exact stable Betti / perverse tables, plane-curve "
                    "singularity invariants, and divisor-class bounds.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("tsv", "json"), default="tsv")

    p = sub.add_parser("stable-betti", help="table of stable Betti numbers")
    p.add_argument("--b1", type=int, required=True)
    p.add_argument("--b2", type=int, required=True)
    p.add_argument("--max-k", type=int, default=order_default)
    add_format(p)
    p.set_defaults(func=cmd_stable_betti)

    p = sub.add_parser("perverse", help="table of stable perverse numbers")
    p.add_argument("--b1", type=int, required=True)
    p.add_argument("--b2", type=int, required=True)
    p.add_argument("--max-order", type=int, default=order_default)
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the Betti-tower recursion")
    add_format(p)
    p.set_defaults(func=cmd_perverse)

    p = sub.add_parser("identity", help="verify the change-of-variables identity")
    p.add_argument("--b1", type=int, required=True)
    p.add_argument("--b2", type=int, required=True)
    p.add_argument("--order", type=int, default=order_default)
    p.add_argument("--perturb", action="store_true", help=argparse.SUPPRESS)
    add_format(p)
    p.set_defaults(func=cmd_identity)

    p = sub.add_parser("germ", help="plane-curve singularity invariants")
    p.add_argument("--poly", required=True, help="polynomial in x and y")
    p.add_argument("--branches", help="branch file: 'x(t) ; y(t)' per line")
    add_format(p)
    p.set_defaults(func=cmd_germ)

    p = sub.add_parser("bounds", help="codimension bounds and thresholds")
    p.add_argument("--surface", choices=("enriques", "bielliptic"), required=True)
    p.add_argument("--beta-sq", type=int, dest="beta_sq")
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--lambda", dest="lam")
    p.add_argument("--mu", dest="mu")
    p.add_argument("--gamma", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--i", type=int)
    p.add_argument("--j", type=int)
    p.add_argument("--generic", action="store_true",
                   help="generic Enriques surface: drop the rigid-curve cases")
    add_format(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("decompose", help="candidate divisor-class splittings")
    p.add_argument("--lattice", required=True,
                   help="preset name (bielliptic-rank2, enriques-u-e8) or file path")
    p.add_argument("--beta", required=True, help="comma-separated integer coordinates")
    add_format(p)
    p.set_defaults(func=cmd_decompose)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except (InternalIdentityFailure, InconsistentTower) as exc:
        parser.exit(3, f"stabctab: internal error: {exc}\n")
    except StabctabError as exc:
        parser.exit(2, f"stabctab: {exc}\n")
    except ValueError as exc:
        parser.exit(2, f"stabctab: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
