"""The lattice subcommands: bounds and decompose."""

from __future__ import annotations

from ._record import parse_int, parse_rational
from .errors import BadInput


def _reject(scope: str, *given) -> None:
    """BadInput naming the first of the (flag, value) pairs whose value is
    set: the flag is read by the calls of scope only, and not ignored."""
    for flag, value in given:
        if value is not None:
            raise BadInput(f"{flag} applies to {scope} only")


def cmd_bounds(args) -> tuple:
    from . import codim

    want_d = args.d is not None
    want_ij = args.i is not None or args.j is not None
    if want_d == want_ij:
        raise BadInput("give exactly one of --d or --i/--j")
    if want_ij and (args.i is None or args.j is None):
        raise BadInput("--i and --j go together")

    params: dict = {"surface": args.surface}
    results: dict = {}
    if args.surface == "enriques":
        if args.beta_sq is None:
            raise BadInput("enriques needs --beta-sq")
        _reject("--surface bielliptic", ("--a", args.a), ("--b", args.b),
                ("--lambda", args.lam), ("--mu", args.mu), ("--gamma", args.gamma))
        params["beta_sq"] = args.beta_sq
        if want_d:
            params["d"] = args.d
            params["generic"] = bool(args.generic)
            terms = codim.enriques_codim_terms(args.beta_sq, args.d, args.generic)
            bound = codim.enriques_minimum(terms)
            provenance = (
                "cases 1.1-1.3 of the codimension bounds for non-integral members of "
                "|d*beta| on a generic Enriques surface, which has no rigid curves"
                if args.generic else
                "five-case codimension bounds for non-integral members of |d*beta| "
                "on an Enriques surface"
            )
        else:
            _reject("--surface enriques --d", ("--generic", args.generic or None))
            params["i"], params["j"] = args.i, args.j
            results["d0"] = codim.enriques_d0(args.beta_sq, args.i, args.j)
            provenance = ("stabilization threshold d0 of an Enriques surface: "
                          "the max of five explicit terms")
    else:
        missing = [f for f in ("a", "b", "lam", "mu", "gamma") if getattr(args, f) is None]
        if missing:
            raise BadInput("bielliptic needs --a --b --lambda --mu --gamma")
        if not want_d:
            raise BadInput("the d0 threshold is defined for enriques only")
        _reject("--surface enriques", ("--beta-sq", args.beta_sq))
        _reject("--surface enriques --d", ("--generic", args.generic or None))
        bp = codim.BiellipticParams(
            args.a, args.b, parse_rational(args.lam), parse_rational(args.mu), args.gamma
        )
        params.update(
            {"a": args.a, "b": args.b, "lambda": args.lam, "mu": args.mu,
             "gamma": args.gamma, "d": args.d}
        )
        terms = codim.bielliptic_codim_terms(bp, args.d)
        bound = codim.bielliptic_minimum(terms)
        provenance = (
            "three-case codimension bounds in the fiber-class basis of a "
            "bielliptic surface"
        )
    if want_d:
        results["codim_bound"] = bound
        results["n_bound"] = codim.n_lower_bound(bound)
        labels = codim.governing_cases(terms, bound)
        results["governing_case"] = " or ".join(labels) + (" (tie)" if labels[1:] else "")
        results["case_bounds"] = terms
    if args.surface == "bielliptic":
        results["dim_ls"] = codim.bielliptic_dim_ls(bp, args.d)
    record = {"parameters": params, "results": results, "provenance": provenance}
    return 0, record, results.items()


def cmd_decompose(args) -> tuple:
    from itertools import chain

    from . import nslattice

    model = nslattice.load_lattice(args.lattice)
    beta = tuple(map(parse_int, args.beta.split(",")))
    pairs = nslattice.decompose(model, beta)
    rows = chain([("theta1", "theta2")],
                 ((",".join(map(str, t1)), ",".join(map(str, t2))) for t1, t2 in pairs))
    record = {
        "parameters": {"lattice": args.lattice, "beta": args.beta},
        "results": {"count": len(pairs), "pairs": pairs},
        "provenance": "candidate splittings passing every declared "
                      "ample-positivity test, enumerated from exact bounds "
                      "in orthogonal coordinates",
    }
    return 0, record, rows
