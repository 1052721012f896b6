"""The lattice subcommands: bounds and decompose."""

from __future__ import annotations

from ._record import parse_int, parse_rational
from .cli import _emit
from .errors import BadInput


def _render_value(x):
    """JSON-safe exact rendering: ints stay ints, rationals become 'p/q',
    surds become 'p+q*sqrt(n)'."""
    return x if isinstance(x, int) else str(x)


def _governing_text(labels: list[str]) -> str:
    if len(labels) == 1:
        return labels[0]
    return " or ".join(labels) + " (tie)"


def _tsv_value(v):
    """A TSV cell: lists as JSON (``json`` is loaded only for them)."""
    if isinstance(v, list):
        import json

        return json.dumps(v)
    return v


def cmd_bounds(args) -> int:
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
        params["beta_sq"] = args.beta_sq
        if want_d:
            params["d"] = args.d
            params["generic"] = bool(args.generic)
            terms = codim.enriques_codim_terms(args.beta_sq, args.d, args.generic)
            bound = codim.enriques_minimum(terms)
        else:
            params["i"], params["j"] = args.i, args.j
            results["d0"] = codim.enriques_d0(args.beta_sq, args.i, args.j)
        provenance = (
            "five-case codimension bounds for non-integral members of |d*beta| "
            "on an Enriques surface; d0 is the max of five explicit terms"
        )
    else:
        missing = [f for f in ("a", "b", "lam", "mu", "gamma") if getattr(args, f) is None]
        if missing:
            raise BadInput("bielliptic needs --a --b --lambda --mu --gamma")
        if not want_d:
            raise BadInput("the d0 threshold is defined for enriques only")
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
        results["codim_bound"] = _render_value(bound)
        results["n_bound"] = codim.n_lower_bound(bound)
        results["governing_case"] = _governing_text(
            codim.governing_cases(terms, bound)
        )
        results["case_bounds"] = [[label, _render_value(v)] for label, v in terms]
    if args.surface == "bielliptic":
        results["dim_ls"] = _render_value(codim.bielliptic_dim_ls(bp, args.d))
    record = {
        "command": "bounds",
        "parameters": params,
        "results": results,
        "provenance": provenance,
    }
    tsv = [(k, _tsv_value(v)) for k, v in results.items()]
    _emit(args, record, tsv)
    return 0


def cmd_decompose(args) -> int:
    from . import nslattice

    model = nslattice.load_lattice(args.lattice)
    beta = tuple(map(parse_int, args.beta.split(",")))
    if len(beta) != model.rank:
        raise BadInput(f"beta has {len(beta)} coordinates, lattice has rank {model.rank}")
    pairs = nslattice.decompose(model, beta)
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
