"""Tests of the benchmark itself: checks, negative controls and the tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import json
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from tracer import self_times  # noqa: E402
from workloads import WORKLOADS, Lattice, Op, decompose_op, random_lattice  # noqa: E402

ENV = run.child_env(ROOT)
DEADLINE = math.inf


@pytest.fixture(scope="module")
def checker():
    return checks.Checker(ROOT)


def call(op):
    code, out, _, _ = run.spawn([sys.executable, "-m", "stabctab", *op.argv], ENV, ROOT)
    return code, out


# --- negative controls ------------------------------------------------------------


def test_identity_perturb_counts_as_failure(checker):
    ops = [Op(("identity", "--b1", "0", "--b2", "10", "--order", "6")),
           Op(("identity", "--b1", "0", "--b2", "10", "--order", "6", "--perturb"))]
    rows, _ = run.run_ops(ops, ENV, ROOT, checker, DEADLINE)
    assert [r["fail"] is None for r in rows] == [True, False]
    assert rows[1]["exit"] == 1


def test_decompose_record_missing_a_pair_fails(checker):
    op = decompose_op("bielliptic-rank2", (4, 3))
    code, out = call(op)
    assert checker.check(op, code, out) is None
    lines = out.splitlines(keepends=True)
    assert len(lines) > 3
    assert "independent count" in checker.check(op, code, b"".join(lines[:2] + lines[3:]))

    op = Op(op.argv + ("--format", "json"))
    code, out = call(op)
    assert checker.check(op, code, out) is None
    record = json.loads(out)
    del record["results"]["pairs"][0]
    record["results"]["count"] -= 1
    assert checker.check(op, code, json.dumps(record).encode()) is not None


def test_missing_wrapper_target_is_reported(tmp_path):
    spans = tmp_path / "spans.json"
    code = (
        "import sys, stabctab.cli\n"
        "from tracer import TARGETS, Tracer\n"
        "t = Tracer()\n"
        "t.install(TARGETS + [\n"
        "    ('x.cls', 'stabctab.series', 'NoSuchSeries.__mul__', None, None),\n"
        "    ('x.fn', 'stabctab.genfunc', 'no_such_function', None, None),\n"
        "    ('x.mod', 'stabctab.no_such_module', 'f', None, None)])\n"
        "rc = t.call_main(stabctab.cli.main, ['perverse', '--b1', '0', '--b2', '10',\n"
        "                                     '--max-order', '6', '--oracle'])\n"
        f"t.dump({str(spans)!r}, 0, 0.0)\n"
        "sys.exit(rc)\n"
    )
    env = dict(ENV, PYTHONPATH=f"{HERE}:{ENV['PYTHONPATH']}")
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(spans.read_text())
    assert data["absent"] == ["stabctab.series:NoSuchSeries.__mul__",
                              "stabctab.genfunc:no_such_function",
                              "stabctab.no_such_module:f"]
    names = {s[0] for s in data["spans"]}
    assert {"cli.main", "series.mul", "genfunc.hilb_betti", "perverse.build_tower"} <= names


# --- tracer ---------------------------------------------------------------------------


def test_traced_call_matches_untraced_and_nests(tmp_path, checker):
    op = Op(("perverse", "--b1", "2", "--b2", "2", "--max-order", "8", "--oracle"))
    traced, _ = run.run_ops([op], ENV, ROOT, checker, DEADLINE, spans_dir=tmp_path)
    plain, _ = run.run_ops([op], ENV, ROOT, checker, DEADLINE)
    assert traced[0]["fail"] is None and plain[0]["fail"] is None
    assert traced[0]["stdout_sha256"] == plain[0]["stdout_sha256"]
    data = json.loads((tmp_path / "0.json").read_text())
    assert data["absent"] == []
    assert data["counters"]["tower_entries"] == 81
    spans = data["spans"]
    assert spans[0][0] == "cli.main" and spans[0][3] == -1
    # internal calls are seen: hilb_betti runs under build_tower
    by_index = {i: s for i, s in enumerate(spans)}
    assert any(s[0] == "genfunc.hilb_betti" and by_index[s[3]][0] == "perverse.build_tower"
               for s in spans)
    times = self_times(spans)
    main_calls, main_self, main_total = times["cli.main"]
    assert main_calls == 1
    assert sum(row[1] for row in times.values()) == pytest.approx(main_total)


def test_self_times():
    spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1), ("b", 5.0, 6.0, 0)]
    assert self_times(spans) == {"a": [1, 6.0, 10.0], "b": [2, 3.0, 4.0], "c": [1, 1.0, 1.0]}


# --- checks ---------------------------------------------------------------------------


def test_stable_betti_numbers():
    assert checks.stable_betti_numbers(0, 10, 4) == [1, 0, 11, 0, 78]


def brute_force_count(forms, beta, box):
    return sum(
        all(0 < checks.dot(f, x) < checks.dot(f, beta) for f in forms)
        for x in itertools.product(range(-box, box + 1), repeat=len(beta))
    )


@pytest.mark.parametrize("rank", [2, 3])
def test_count_splittings_matches_brute_force(rank):
    rng = random.Random(rank)
    done = 0
    while done < 12:
        model = random_lattice(rng, rank)
        beta = tuple(rng.randint(-1, 5) if i == 0 else rng.randint(-4, 4) for i in range(rank))
        if model.ip(beta, model.ample_witness) <= 0:
            continue
        forms = checks.integer_forms(model)
        assert checks.count_splittings(forms, beta) == brute_force_count(forms, beta, 12)
        done += 1


def test_benchmark_lattice_agrees_with_the_program():
    from stabctab.nslattice import load_lattice, parse_lattice

    for name in ("bielliptic-rank2", "enriques-u-e8"):
        text = (ROOT / "src" / "stabctab" / "data" / "lattices" / f"{name}.lat").read_text()
        assert checks.integer_forms(Lattice.parse(text)) == checks.integer_forms(load_lattice(name))
    rng = random.Random(5)
    for rank in (2, 3, 2, 3):
        lat = random_lattice(rng, rank)
        assert Lattice.parse(lat.text()) == lat
        assert checks.integer_forms(lat) == checks.integer_forms(parse_lattice(lat.text()))


def test_tail_percentile():
    assert run.tail([0.5] * 5) == (0.5, 100, 0)
    xs = [float(i) for i in range(1, 101)]
    assert run.tail(xs) == (90.0, 90, 10)
    value, pct, beyond = run.tail(xs[:42])
    assert (pct, beyond) == (76, 10) and value == 32.0


# --- workloads --------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_deck_is_seeded_and_checks_clean(name, tmp_path, checker):
    factory, _ = WORKLOADS[name]
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    deck = next(factory(random.Random(7), a, ROOT))
    again = next(factory(random.Random(7), b, ROOT))
    assert [op.argv for op in deck] == [
        tuple(arg.replace(str(b), str(a)) for arg in op.argv) for op in again
    ]
    rows, _ = run.run_ops(deck, ENV, ROOT, checker, DEADLINE)
    assert [r["fail"] for r in rows] == [None] * len(deck)


def test_refuses_to_run_without_the_source(tmp_path):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "session",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == [HERE.name]
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == [*run.LAYER_METRICS, "trace.overhead"]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "ops_per_s", "op_p50_s", "op_tail_s", "ok_ratio", "peak_rss_mb"}
