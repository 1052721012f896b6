"""Outside-in tracer for one stabctab CLI call.

Run as ``python3 perfbench/tracer.py SPANS_FILE OP_ID ARGV...`` with the
package importable.  It imports ``stabctab.cli`` (timed as the import), wraps
the functions and methods listed in TARGETS from here, calls
``stabctab.cli.main(ARGV)`` inside a root span, writes the spans as JSON to
SPANS_FILE and exits with the CLI's exit code.  The package is not edited:
every ``stabctab.*`` module binding of a target function object is replaced,
so internal calls (``perverse`` calling ``hilb_betti``) are seen, and methods
are replaced on their class.  Caches are never cleared; each call runs in a
fresh interpreter, so they start cold as they do for users.

A target that no longer exists is listed under ``absent`` instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter


def _term_pairs(args, result) -> int:
    left, right = args[0], args[1]
    if hasattr(left, "terms") and hasattr(right, "terms"):
        return len(left.terms) * len(right.terms)
    return 0


#: (span name, module, attribute path, counter name, counter from (args, result))
TARGETS = [
    ("series.mul", "stabctab.series", "TruncatedBiSeries.__mul__", "term_pairs", _term_pairs),
    ("series.mul", "stabctab.series", "ZWSeries.__mul__", "term_pairs", _term_pairs),
    ("series.inverse", "stabctab.series", "TruncatedBiSeries.inverse", None, None),
    ("series.inverse", "stabctab.series", "ZWSeries.inverse", None, None),
    ("series.product", "stabctab.series", "truncated_product", None, None),
    ("genfunc.goettsche", "stabctab.genfunc", "goettsche_series", None, None),
    ("genfunc.hilb_betti", "stabctab.genfunc", "hilb_betti", None, None),
    ("genfunc.identity", "stabctab.genfunc", "remark_identity_mismatch", None, None),
    ("genfunc.perverse_series", "stabctab.genfunc", "stable_perverse_series", None, None),
    ("genfunc.table", "stabctab.genfunc", "stable_perverse_table", None, None),
    ("genfunc.stable_betti", "stabctab.genfunc", "stable_betti", None, None),
    ("perverse.build_tower", "stabctab.perverse", "build_tower", "tower_entries",
     lambda args, result: len(result.values)),
    ("perverse.solve", "stabctab.perverse", "solve_perverse", None, None),
    ("nslattice.decompose", "stabctab.nslattice", "decompose", "pairs",
     lambda args, result: len(result)),
    ("nslattice.load", "stabctab.nslattice", "load_lattice", None, None),
    *(("nslattice.bounds", "stabctab.nslattice", name, None, None) for name in (
        "enriques_codim_terms", "enriques_codim_bound", "enriques_d0",
        "bielliptic_codim_terms", "bielliptic_codim_bound", "bielliptic_dim_ls",
        "n_lower_bound", "governing_cases")),
    ("germ.milnor", "stabctab.germ", "milnor", None, None),
    ("germ.tjurina", "stabctab.germ", "tjurina", None, None),
    ("germ.delta", "stabctab.germ", "delta", None, None),
    ("poly.parse", "stabctab.poly", "parse_polynomial", None, None),
]


class Tracer:
    """Spans (name, start, end, parent index) and counters of one call."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.absent: list[str] = []

    def wrap(self, fn, name, counter=None, count=None):
        spans, stack, counters = self.spans, self.stack, self.counters
        if counter:
            counters.setdefault(counter, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, perf_counter(), parent)
                stack.pop()
            if counter:
                counters[counter] += count(args, result)
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "stabctab" or n.startswith("stabctab."))]
        for name, module, path, counter, count in targets:
            try:
                owner = importlib.import_module(module)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = vars(owner)[attr] if outer else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{module}:{path}")
                continue
            wrapped = self.wrap(original, name, counter, count)
            for scope in [owner] if outer else modules:
                for key, value in list(vars(scope).items()):
                    if value is original:
                        setattr(scope, key, wrapped)

    def call_main(self, main, argv) -> int:
        """main(argv) inside the root span ``cli.main``; returns the exit code."""
        try:
            code = self.wrap(main, "cli.main")(argv)
        except SystemExit as exc:
            code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 1

    def dump(self, path, op_id: int, import_s: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"op": op_id, "import_s": import_s, "absent": self.absent,
                       "counters": self.counters, "spans": self.spans}, fh)


def self_times(spans) -> dict[str, list[float]]:
    """name -> [calls, self seconds, inclusive seconds] over one call's spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list[float]] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start - child[i]
        row[2] += end - start
    return out


if __name__ == "__main__":
    spans_file, op_id, cli_argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    t0 = perf_counter()
    import stabctab.cli
    import_s = perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    exit_code = tracer.call_main(stabctab.cli.main, cli_argv)
    sys.stdout.flush()
    tracer.dump(spans_file, op_id, import_s)
    sys.exit(exit_code)
