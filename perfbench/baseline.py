"""Inclusive times of the ROADMAP baseline rows, taken through the tracer.

    python3 perfbench/baseline.py

Run from the root of a source checkout.  Each row is one CLI call run
under tracer.py in a fresh interpreter; the row's time is the inclusive
time of the named spans, as a median over REPEATS calls, printed as a
Markdown table next to the figure recorded in ROADMAP.md.
"""

from __future__ import annotations

import json
import statistics
import sys
import tempfile
from pathlib import Path

from run import HERE, child_env, spawn
from tracer import self_times

REPEATS = 3

#: (row, CLI argv, spans whose inclusive time is the row's time, ROADMAP seconds)
ROWS = [
    ("goettsche_series(ENRIQUES, 24), cold",
     ("identity", "--b1", "0", "--b2", "10", "--order", "24"), ("genfunc.goettsche",), 0.27),
    ("solve_perverse(build_tower(ENRIQUES, 24))",
     ("perverse", "--b1", "0", "--b2", "10", "--max-order", "24", "--oracle"),
     ("perverse.build_tower", "perverse.solve"), 2.0),
    ("decompose(bielliptic-rank2, (20,20))",
     ("decompose", "--lattice", "bielliptic-rank2", "--beta", "20,20"), ("nslattice.decompose",), 1.26),
]


def main() -> int:
    root = Path.cwd().resolve()
    env = child_env(root)
    print("| row | traced inclusive s (median) | ROADMAP s |\n|---|---|---|")
    with tempfile.TemporaryDirectory(dir=HERE, prefix="tmp-") as tmp:
        spans_file = Path(tmp) / "spans.json"
        for row, argv, names, roadmap in ROWS:
            times = []
            for _ in range(REPEATS):
                code, _, err, _ = spawn([sys.executable, str(HERE / "tracer.py"), str(spans_file), "0", *argv],
                                        env, root)
                if code != 0:
                    sys.stderr.write(err.decode(errors="replace"))
                    return 1
                totals = self_times(json.loads(spans_file.read_text())["spans"])
                times.append(sum(totals[n][2] for n in names))
            print(f"| {row} | {statistics.median(times):.3f} | {roadmap} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
