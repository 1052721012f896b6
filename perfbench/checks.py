"""Independent checks of stabctab CLI records.

Every check runs after the timed loop, in the benchmark process, by a
route that does not reuse the code path it checks:

* stable Betti numbers from a dense integer power-series product written
  here, not from the package's series classes;
* perverse tables: the Betti-tower oracle must report AGREE, and every
  anti-diagonal sum must equal those stable Betti numbers;
* identity records: the verdict must be PASS;
* germs: the invariants listed in the ADE corpus file, or the closed forms
  of A_k (mu = tau = k, delta = floor((k+1)/2), r = 1 or 2);
* splittings: every pair sums to beta and passes every ample test as an
  integer linear form built from ``LatticeModel.ip`` and
  ``LatticeModel.test_classes``; the count must equal an independent count
  of the lattice points of the same polytope, taken row by row inside
  bounds from its exact vertices;
* bounds: consistency of the per-case values with the reported minimum,
  and the closed forms of dim |d beta| and of three of the d0 terms;
* JSON records validate against ``output.schema.json`` with jsonschema;
  without it, only their top-level keys are checked, and the result
  header says so (``schema_validation``).

A check returns None on success and a one-line reason otherwise.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

try:
    import jsonschema
except ImportError:  # the package's test extra; fall back to the top-level keys
    jsonschema = None


class CheckFailed(Exception):
    pass


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# --- stable Betti numbers, independently --------------------------------------


def stable_betti_numbers(b1: int, b2: int, max_k: int) -> list[int]:
    """Coefficients of q^0..q^max_k of
    prod_{m>=1} (1+q^(2m-1))^b1 (1+q^(2m+1))^b1 / [(1-q^(2m))^(b2+1) (1-q^(2m+2))]
    as a dense list of Python ints."""
    f = [1] + [0] * max_k

    def times_one_plus(d: int, e: int) -> None:
        for _ in range(e):
            for n in range(max_k, d - 1, -1):
                f[n] += f[n - d]

    def over_one_minus(d: int, e: int) -> None:
        for _ in range(e):
            for n in range(d, max_k + 1):
                f[n] += f[n - d]

    for m in range(1, max_k + 1):
        if 2 * m - 1 <= max_k:
            times_one_plus(2 * m - 1, b1)
        if 2 * m + 1 <= max_k:
            times_one_plus(2 * m + 1, b1)
        if 2 * m <= max_k:
            over_one_minus(2 * m, b2 + 1)
        if 2 * m + 2 <= max_k:
            over_one_minus(2 * m + 2, 1)
    return f


# --- lattice splittings, independently ----------------------------------------


def integer_forms(model) -> list[tuple[int, ...]]:
    """Each ample test class T as the integer linear form x -> c*(T.x), c > 0."""
    forms = []
    for t in model.test_classes():
        row = [model.ip(t, tuple(int(i == j) for j in range(model.rank)))
               for i in range(model.rank)]
        den = math.lcm(*(Fraction(x).denominator for x in row))
        forms.append(tuple(int(x * den) for x in row))
    return forms


def dot(f, x) -> int:
    return sum(a * b for a, b in zip(f, x))


def _det(m) -> int:
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([r[:j] + r[j + 1:] for r in m[1:]])
               for j in range(len(m)))


def _vertex(rows, rhs):
    """Cramer's rule in integers: (numerators, denominator > 0) of the unique
    solution of a square system, or None if it is singular."""
    d = _det(rows)
    if d == 0:
        return None
    nums = [_det([r[:i] + (b,) + r[i + 1:] for r, b in zip(rows, rhs)]) for i in range(len(rows))]
    return (nums, d) if d > 0 else ([-x for x in nums], -d)


def count_splittings(forms, beta) -> int:
    """Number of integer x with 0 < f.x < f.beta for every form f.

    Rank 2 and 3: bounds on the leading coordinates from the exact vertices
    of the polytope 1 <= f.x <= f.beta - 1, then the last coordinate counted
    as an interval per row.  Any rank: zero when some f.beta < 2, since both
    sides of a splitting need f >= 1.
    """
    rank = len(beta)
    tops = [dot(f, beta) - 1 for f in forms]
    if any(top < 1 for top in tops):
        return 0
    if rank > 3:
        raise CheckFailed(f"no independent count for rank {rank}")
    planes = [(f, 1) for f in forms] + [(f, top) for f, top in zip(forms, tops)]
    vertices = []
    for combo in itertools.combinations(planes, rank):
        v = _vertex([f for f, _ in combo], [b for _, b in combo])
        if v is not None and all(v[1] <= dot(f, v[0]) <= top * v[1] for f, top in zip(forms, tops)):
            vertices.append(v)
    if not vertices:
        return 0
    ranges = [
        range(min(-(-n[i] // d) for n, d in vertices), max(n[i] // d for n, d in vertices) + 1)
        for i in range(rank - 1)
    ]
    count = 0
    for head in itertools.product(*ranges):
        lo, hi = -math.inf, math.inf
        for f, top in zip(forms, tops):
            rest = dot(f[:-1], head)
            c = f[-1]
            # 1 <= rest + c*y <= top
            if c == 0:
                if not 1 <= rest <= top:
                    break
            elif c > 0:
                lo = max(lo, -((rest - 1) // c))
                hi = min(hi, (top - rest) // c)
            else:
                lo = max(lo, -((top - rest) // -c))
                hi = min(hi, (rest - 1) // -c)
        else:
            if hi >= lo:
                count += hi - lo + 1
    return count


# --- record parsing -----------------------------------------------------------


def _schema(root: Path) -> dict:
    path = root / "src" / "stabctab" / "data" / "output.schema.json"
    return json.loads(path.read_text(encoding="utf-8"))


def _validate(record, schema) -> None:
    if jsonschema is not None:
        try:
            jsonschema.validate(record, schema)
        except jsonschema.ValidationError as exc:
            raise CheckFailed(f"schema: {exc.message}")
        return
    _require(isinstance(record, dict), "schema: record is not an object")
    _require(set(schema["required"]) <= set(record), "schema: missing keys")
    _require(set(record) <= set(schema["properties"]), "schema: extra keys")


def _tsv_results(cmd: str, rows: list[list[str]]):
    """The TSV rows of one record, in the shape of the JSON ``results``."""
    if cmd == "stable-betti":
        _require(rows[0] == ["k", "b_k"], "bad header")
        return [[int(k), int(v)] for k, v in rows[1:]]
    if cmd == "perverse":
        _require(rows[0] == ["i", "j", "n"], "bad header")
        out: dict = {"table": []}
        for row in rows[1:]:
            if row[0] == "oracle":
                out["oracle"] = row[1]
            else:
                out["table"].append([int(c) for c in row])
        return out
    if cmd == "decompose":
        _require(rows[0] == ["theta1", "theta2"], "bad header")
        pairs = [[[int(c) for c in t.split(",")] for t in row] for row in rows[1:]]
        return {"count": len(pairs), "pairs": pairs}
    out = {}
    for row in rows:
        _require(len(row) == 2, f"bad row {row!r}")
        key, value = row
        out[key] = json.loads(value) if value.startswith("[") else value
    return out


def parse_results(argv, stdout: bytes, schema: dict):
    cmd = argv[0]
    text = stdout.decode("utf-8")
    if _flag(argv, "--format") == "json":
        record = json.loads(text)
        _validate(record, schema)
        _require(record["command"] == cmd, "wrong command in record")
        return record["results"]
    lines = text.splitlines()
    _require(bool(lines), "empty output")
    return _tsv_results(cmd, [ln.split("\t") for ln in lines])


# --- per-command checks ---------------------------------------------------------


def _flag(argv, name: str):
    """Value of --name given as two arguments or as --name=value."""
    for i, arg in enumerate(argv):
        if arg == name:
            return argv[i + 1]
        if arg.startswith(name + "="):
            return arg[len(name) + 1:]
    return None


def _check_stable_betti(op, res, ctx):
    b1, b2, k = (int(_flag(op.argv, f)) for f in ("--b1", "--b2", "--max-k"))
    want = stable_betti_numbers(b1, b2, k)
    _require(res == [[i, v] for i, v in enumerate(want)], "stable Betti numbers differ")


def _check_perverse(op, res, ctx):
    b1, b2, order = (int(_flag(op.argv, f)) for f in ("--b1", "--b2", "--max-order"))
    _require(res.get("oracle") == "AGREE", f"oracle {res.get('oracle')!r}")
    sums = [0] * (order + 1)
    for i, j, n in res["table"]:
        _require(n > 0 and 0 <= i + j <= order, f"bad entry ({i},{j})={n}")
        sums[i + j] += int(n)
    _require(sums == stable_betti_numbers(b1, b2, order),
             "anti-diagonal sums differ from the stable Betti numbers")


def _check_identity(op, res, ctx):
    _require(res.get("status") == "PASS", f"status {res.get('status')!r}")


def _check_germ(op, res, ctx):
    got = {k: int(res[k]) for k in ("mu", "tau", "delta", "r")}
    _require(got == op.expect, f"invariants {got} != {op.expect}")
    _require(res.get("milnor_formula") == "OK", "milnor formula not OK")


def _check_decompose(op, res, ctx):
    forms = ctx.forms(_flag(op.argv, "--lattice"))
    beta = tuple(int(c) for c in _flag(op.argv, "--beta").split(","))
    pairs = [(tuple(t1), tuple(t2)) for t1, t2 in res["pairs"]]
    _require(int(res["count"]) == len(pairs), "count disagrees with the pair list")
    _require(all(a < b for a, b in zip(pairs, pairs[1:])), "pairs not strictly increasing")
    for t1, t2 in pairs:
        _require(all(x + y == b for x, y, b in zip(t1, t2, beta)), f"{t1}+{t2} != beta")
        _require(all(dot(f, t1) > 0 and dot(f, t2) > 0 for f in forms),
                 f"pair {t1},{t2} fails an ample test")
    want = count_splittings(forms, beta)
    _require(len(pairs) == want, f"{len(pairs)} pairs, independent count {want}")


def _check_bounds(op, res, ctx):
    argv = op.argv
    if "--d" not in argv:
        i, j = (int(_flag(argv, f)) for f in ("--i", "--j"))
        d0 = int(res["d0"])
        _require(d0 >= max(2, i + 1, -(-(i + j + 2) // 2)), f"d0 {d0} below its terms")
        return
    values = {str(v) for _, v in res["case_bounds"]}
    codim = str(res["codim_bound"])
    _require(codim in values, f"codim_bound {codim} is no case value")
    labels = [lab for lab, v in res["case_bounds"] if str(v) == codim]
    _require(all(g in labels for g in res["governing_case"].replace(" (tie)", "").split(" or ")),
             "governing case does not attain the bound")
    _require(int(res["n_bound"]) >= -2, f"n_bound {res['n_bound']} below -2")
    if _flag(argv, "--surface") == "bielliptic":
        a, b, gamma, d = (int(_flag(argv, f)) for f in ("--a", "--b", "--gamma", "--d"))
        lam, mu = Fraction(_flag(argv, "--lambda")), Fraction(_flag(argv, "--mu"))
        dim = d * d * a * b * lam * mu * gamma - 1
        _require(str(res["dim_ls"]) == str(dim), f"dim_ls {res['dim_ls']} != {dim}")


CHECKS = {
    "stable-betti": _check_stable_betti,
    "perverse": _check_perverse,
    "identity": _check_identity,
    "germ": _check_germ,
    "decompose": _check_decompose,
    "bounds": _check_bounds,
}


class Checker:
    """Checks op outputs; caches the integer test forms of each lattice."""

    def __init__(self, root: Path):
        self.schema = _schema(root)
        self.schema_validation = "top-level" if jsonschema is None else "full"
        self._forms: dict = {}

    def forms(self, lattice_source: str):
        if lattice_source not in self._forms:
            from stabctab.nslattice import load_lattice
            self._forms[lattice_source] = integer_forms(load_lattice(lattice_source))
        return self._forms[lattice_source]

    def check(self, op, returncode, stdout: bytes):
        """None if the op exited 0 with a correct record, else the reason."""
        if returncode != 0:
            return "timeout" if returncode is None else f"exit code {returncode}"
        try:
            res = parse_results(op.argv, stdout, self.schema)
            CHECKS[op.argv[0]](op, res, self)
        except CheckFailed as exc:
            return str(exc)
        except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            return f"malformed record: {type(exc).__name__}: {exc}"
        return None
