"""Seeded closed-loop benchmark of the stabctab command line.

    python3 perfbench/run.py --workload {tables,lattice,session} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout: every call is a fresh
``python3 -m stabctab ...`` subprocess with ``src`` on PYTHONPATH, driven by
one client with one call in flight.  Each output is checked after the loop
(see checks.py).  The last line of stdout is the result JSON; the line
before it is a header with the machine, the seed and the source digest.  The
full record, with a sha256 of every call's stdout, goes to
``perfbench/results/<workload>-seed<N>-trace<T>.json``.

A run is a fixed number of whole decks (see workloads.py): as many as take
S seconds at the baseline, from the deck seconds in WORKLOADS.  Every run
of a commit thus does the same work with the same size mix; a time cut
made the mix, and with it ops_per_s, depend on where the cut fell, since
one call can cost 30 times another.  --trace 0 measures the end-to-end
metrics.  --trace 1 runs decks for about S/2 seconds under tracer.py,
replays the same calls untraced to measure the tracing overhead, and
reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent

from checks import Checker  # noqa: E402
from tracer import self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: a call still running after this long counts as failed
OP_TIMEOUT_S = 60
#: no call starts later than this after the start, and none runs past it,
#: so a run ends well within three minutes even if calls hang
HARD_LIMIT_S = 150
#: fresh interpreters timed for setup_s, spread evenly over the loop
SETUP_SAMPLES = 12
#: share of --seconds the traced decks take at the baseline
TRACE_SHARE = 0.5
SETUP_CODE = "import stabctab.cli as c; c.build_parser(); print(c.__file__)"


def die(msg: str) -> None:
    sys.stderr.write(f"perfbench: {msg}\n")
    sys.exit(2)


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "STABCTAB_MAX_ORDER"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def spawn(cmd, env, root: Path, timeout=OP_TIMEOUT_S):
    """Run one command to completion: (exit code or None on timeout, stdout,
    stderr, seconds from spawn to exit)."""
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=root)
    try:
        out, err = proc.communicate(timeout=timeout)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        code = None
    return code, out, err, perf_counter() - start


def setup_time(env, root: Path) -> float:
    """Seconds from a fresh interpreter to build_parser() returning."""
    code, out, err, dt = spawn([sys.executable, "-c", SETUP_CODE], env, root)
    if code != 0:
        die(f"cannot import stabctab.cli: {err.decode(errors='replace').strip()}")
    loaded = Path(out.decode().strip()).resolve()
    if root / "src" not in loaded.parents:
        die(f"stabctab.cli was loaded from {loaded}, not from ./src")
    return dt


def run_ops(ops, env, root: Path, checker: Checker, deadline: float, spans_dir=None, between=None):
    """Run ops one at a time, starting none after `deadline` (a perf_counter
    time).  Returns (per-op rows, wall seconds of the loop).  Checks run
    after the loop, outside the timed region.  `between(i)`, if given, runs
    before op i; its time is left out of the loop's wall time.
    """
    done = []
    paused = 0.0
    start = perf_counter()
    for i, op in enumerate(ops):
        if between is not None:
            t = perf_counter()
            between(i)
            paused += perf_counter() - t
        left = deadline - perf_counter()
        if left <= 0:
            break
        if spans_dir is None:
            cmd = [sys.executable, "-m", "stabctab", *op.argv]
        else:
            spans = spans_dir / f"{len(done)}.json"
            cmd = [sys.executable, str(HERE / "tracer.py"), str(spans), str(len(done)), *op.argv]
        code, out, err, dt = spawn(cmd, env, root, timeout=min(OP_TIMEOUT_S, left))
        done.append((op, code, out, err, dt))
    wall = perf_counter() - start - paused
    if not done:
        die("no call started before the time limit")
    rows = []
    for op, code, out, err, dt in done:
        reason = checker.check(op, code, out)
        if reason and err:
            reason += " | " + err.decode(errors="replace").strip().splitlines()[-1][:200]
        rows.append({"argv": list(op.argv), "exit": code, "latency_s": dt,
                     "stdout_sha256": hashlib.sha256(out).hexdigest(), "fail": reason})
    return rows, wall


def tail(latencies):
    """(value, percentile, samples beyond it) at the highest whole percentile
    with at least 10 samples beyond it; the maximum when there are fewer."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100, 0
    pct = 100 * (n - 10) // n
    rank = -(-pct * n // 100)  # nearest rank, 1-based
    return xs[rank - 1], pct, n - rank


def seeded_ops(args, work: Path, root: Path, share: float):
    """The ops of the first whole decks of the seeded stream: as many decks
    as take share * --seconds at the baseline."""
    factory, deck_s = WORKLOADS[args.workload]
    n_decks = max(1, round(share * args.seconds / deck_s))
    decks = itertools.islice(factory(random.Random(args.seed), work, root), n_decks)
    return [op for deck in decks for op in deck], n_decks


def end_to_end(args, root, env, checker, work, deadline):
    ops, n_decks = seeded_ops(args, work, root, 1.0)
    # setup_s is sampled across the whole loop, not in one burst, so that it
    # sees the same drift of the host's speed as the calls
    at = collections.Counter(k * len(ops) // SETUP_SAMPLES for k in range(SETUP_SAMPLES))
    setup_time(env, root)  # warm-up, untimed
    setups = []
    rows, wall = run_ops(ops, env, root, checker, deadline,
                         between=lambda i: setups.extend(setup_time(env, root) for _ in range(at[i])))
    setup_s = statistics.median(setups)
    passed = sum(1 for r in rows if r["fail"] is None)
    lat = [r["latency_s"] for r in rows]
    tail_s, pct, beyond = tail(lat)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (passed / wall, "ops/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (tail_s, "s"),
        "ok_ratio": (passed / len(rows), "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
    }
    extra = {"decks": n_decks, "wall_s": wall, "setup_samples": len(setups),
             "fail_ratio": 1 - passed / len(rows),
             "op_tail": {"percentile": pct, "samples": len(lat), "beyond": beyond}}
    return rows, metrics, extra


#: per-layer metric -> (span name, field: calls / self_s / total_s / counter)
LAYER_METRICS = {
    "series.mul_calls": ("series.mul", "calls"),
    "series.mul_s": ("series.mul", "self_s"),
    "series.mul_term_pairs": ("term_pairs", "counter"),
    "series.product_s": ("series.product", "self_s"),
    "series.inverse_calls": ("series.inverse", "calls"),
    "series.inverse_s": ("series.inverse", "self_s"),
    "genfunc.identity_s": ("genfunc.identity", "self_s"),
    "genfunc.goettsche_calls": ("genfunc.goettsche", "calls"),
    "genfunc.goettsche_s": ("genfunc.goettsche", "self_s"),
    "genfunc.hilb_betti_calls": ("genfunc.hilb_betti", "calls"),
    "perverse.build_tower_s": ("perverse.build_tower", "self_s"),
    "perverse.tower_entries": ("tower_entries", "counter"),
    "genfunc.perverse_series_s": ("genfunc.perverse_series", "self_s"),
    "genfunc.table_s": ("genfunc.table", "self_s"),
    "genfunc.stable_betti_s": ("genfunc.stable_betti", "self_s"),
    "perverse.solve_s": ("perverse.solve", "self_s"),
    "nslattice.decompose_calls": ("nslattice.decompose", "calls"),
    "nslattice.decompose_s": ("nslattice.decompose", "self_s"),
    "nslattice.pairs": ("pairs", "counter"),
    "nslattice.load_s": ("nslattice.load", "self_s"),
    "nslattice.bounds_s": ("nslattice.bounds", "self_s"),
    "germ.milnor_s": ("germ.milnor", "self_s"),
    "germ.tjurina_s": ("germ.tjurina", "self_s"),
    "germ.delta_s": ("germ.delta", "self_s"),
    "poly.parse_s": ("poly.parse", "self_s"),
    "cli.import_s": ("cli.import", "total_s"),
    "cli.main_s": ("cli.main", "total_s"),
}


def per_layer(args, root, env, checker, work, deadline):
    ops, n_decks = seeded_ops(args, work, root, TRACE_SHARE)
    spans_dir = work / "spans"
    spans_dir.mkdir()
    rows, traced_wall = run_ops(ops, env, root, checker, deadline, spans_dir=spans_dir)
    replay, plain_wall = run_ops(ops[:len(rows)], env, root, checker, deadline)
    for r, p in zip(rows, replay):
        if r["fail"] is None and (p["fail"] or p["stdout_sha256"] != r["stdout_sha256"]):
            r["fail"] = "traced and untraced stdout differ"
    agg: dict[str, list[float]] = {}
    counters: dict[str, int] = {}
    absent: set[str] = set()
    for i in range(len(rows)):
        path = spans_dir / f"{i}.json"
        if not path.exists():
            continue
        data = json.loads(path.read_text(encoding="utf-8"))
        absent.update(data["absent"])
        for k, v in data["counters"].items():
            counters[k] = counters.get(k, 0) + v
        agg.setdefault("cli.import", [0, 0.0, 0.0])[2] += data["import_s"]
        for name, (calls, self_s, total_s) in self_times(data["spans"]).items():
            row = agg.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += self_s
            row[2] += total_s
    fields = {"calls": 0, "self_s": 1, "total_s": 2}
    metrics = {}
    for metric, (name, field) in LAYER_METRICS.items():
        if field == "counter":
            metrics[metric] = (counters.get(name, 0), "count")
        else:
            value = agg.get(name, [0, 0.0, 0.0])[fields[field]]
            metrics[metric] = (value, "count" if field == "calls" else "s")
    # over the calls both passes ran; the replay stops early only at the deadline
    overhead = (sum(r["latency_s"] for r in rows[:len(replay)])
                / sum(r["latency_s"] for r in replay)) if replay else 0.0
    metrics["trace.overhead"] = (overhead, "ratio")
    extra = {"decks": n_decks, "traced_wall_s": traced_wall, "untraced_wall_s": plain_wall,
             "trace_overhead": overhead, "absent_targets": sorted(absent),
             "spans": {k: {"calls": v[0], "self_s": v[1], "total_s": v[2]} for k, v in sorted(agg.items())}}
    return rows, metrics, extra


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "stabctab").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine(root: Path) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "cpu_model": cpu, "commit": commit,
            "source_sha256": source_digest(root)}


def main(argv=None) -> int:
    deadline = perf_counter() + HARD_LIMIT_S
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        die("--seconds must be positive")
    root = Path.cwd().resolve()
    if not (root / "src" / "stabctab" / "cli.py").is_file():
        die(f"no stabctab source under {root / 'src'}; run from the root of a checkout")
    sys.path.insert(0, str(root / "src"))
    env = child_env(root)
    checker = Checker(root)
    with tempfile.TemporaryDirectory(dir=HERE, prefix="tmp-") as tmp:
        run = per_layer if args.trace else end_to_end
        rows, metrics, extra = run(args, root, env, checker, Path(tmp), deadline)
    failed = sum(1 for r in rows if r["fail"] is not None)
    header = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **machine(root), "schema_validation": checker.schema_validation,
              "attempted": len(rows), "failed": failed,
              **extra, "failures": [r for r in rows if r["fail"]][:5]}
    result = {"correct": bool(rows) and failed == 0, "attempted": len(rows), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"header": header, "result": result, "ops": rows}, indent=1) + "\n",
                   encoding="utf-8")
    print(json.dumps({k: v for k, v in header.items() if k != "spans"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
