"""Equivalence sweeps: fixed grids of command-line calls, each hashed to one digest.

Usage: ``PYTHONPATH=src python bench/sweep.py GRID [GRID ...]``, GRID one of
``tables`` and ``germ``.  Each call runs ``stabctab.cli.main`` in-process,
on whichever ``stabctab`` is first on the path; for each grid the script
prints the grid, its call count and one sha256 over the (argv, exit code,
stdout, stderr) of its calls in order.  A refactor that claims unchanged
records runs the grids at the parent and at the change (point PYTHONPATH
at each checkout's ``src``) and gives both digests.  The grids are not
seeded: every call is fixed.

* ``tables``: ``perverse --oracle``, ``identity`` and ``identity --perturb``
  at orders 0..20, then ``stable-betti --max-k 0..48``, each at
  b1 in {0, 2, 4}, b2 in 1..22, as TSV and as JSON.
* ``germ``: the shipped ADE corpus, then A_k = y^2 - x^(k+1) for k in 1..39,
  each without and with its branch file, as TSV and as JSON.  Branch files
  are written to a temporary working directory and named relative to it,
  since a JSON record holds the path it was given.

Digests at this revision (CPython 3.11; 16 s for both on a 2-vCPU Xeon):

    tables  14784 calls  d420e71be84b291f47970e1b928ca5b5b56350599e4b68ed8c1ea02068ae0299
    germ      184 calls  c54044cd94f491e838ea9cd97dc7e72af82056efcb863114dced40b0568174c4
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from importlib import resources

from stabctab.cli import main

FORMATS = ("tsv", "json")
SURFACES = [(b1, b2) for b1 in (0, 2, 4) for b2 in range(1, 23)]


def tables_calls():
    for b1, b2 in SURFACES:
        surface = ("--b1", str(b1), "--b2", str(b2))
        for order in range(21):
            for call in (("perverse", *surface, "--max-order", str(order), "--oracle"),
                         ("identity", *surface, "--order", str(order)),
                         ("identity", *surface, "--order", str(order), "--perturb")):
                for fmt in FORMATS:
                    yield (*call, "--format", fmt)
    for b1, b2 in SURFACES:
        for max_k in range(49):
            for fmt in FORMATS:
                yield ("stable-betti", "--b1", str(b1), "--b2", str(b2), "--max-k", str(max_k),
                       "--format", fmt)


def a_k_branches(k):
    """The branches of y^2 - x^(k+1): two smooth ones when k is odd, one cusp
    otherwise."""
    if k % 2:
        return [("t", f"t^{(k + 1) // 2}"), ("t", f"-t^{(k + 1) // 2}")]
    return [("t^2", f"t^{k + 1}")]


def germ_calls():
    """Calls on (name, poly, branches) germs; the caller's working directory
    receives the branch files."""
    corpus = resources.files("stabctab").joinpath("data/ade_corpus.jsonl").read_text()
    germs = [(r["name"], r["poly"], r["branches"])
             for r in map(json.loads, (line for line in corpus.splitlines()
                                       if line and not line.startswith("#")))]
    germs += [(f"A_{k}", f"y^2 - x^{k + 1}", a_k_branches(k)) for k in range(1, 40)]
    for name, poly, branches in germs:
        path = f"{name}.br"
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{x} ; {y}\n" for x, y in branches)
        for extra in ((), ("--branches", path)):
            for fmt in FORMATS:
                yield ("germ", "--poly", poly, *extra, "--format", fmt)


def run(argv):
    """main(argv)'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def sweep(calls):
    """The number of calls and the sha256 over their (argv, code, stdout, stderr)."""
    digest = hashlib.sha256()
    count = 0
    for argv in calls:
        digest.update(json.dumps([argv, *run(argv)]).encode() + b"\n")
        count += 1
    return count, digest.hexdigest()


GRIDS = {"tables": tables_calls, "germ": germ_calls}


def cli(argv):
    if not argv or any(name not in GRIDS for name in argv):
        sys.stderr.write(f"usage: sweep.py GRID [GRID ...], GRID in {', '.join(GRIDS)}\n")
        return 2
    home = os.getcwd()
    for name in argv:
        with tempfile.TemporaryDirectory() as scratch:
            os.chdir(scratch)
            try:
                count, digest = sweep(GRIDS[name]())
            finally:
                os.chdir(home)
        print(f"{name}\t{count}\t{digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(cli(sys.argv[1:]))
