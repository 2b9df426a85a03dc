"""Time the cells of one benchmark workload under two source trees in one
process, interleaved, and check that the trees give the same outputs.

    python tools/ab_cells.py --a ../parent --b . --workload table1d --seed 0 --rounds 15

Each tree's ``src/ppinterp`` is imported as a package of its own
(``ppinterp_a``, ``ppinterp_b``), so both run side by side in this process;
the same tree given twice is an A/A control.  The cells come from this
checkout's ``perfbench/workloads.py``, built once per side from the same
seed.  One untimed pass per side compares every output by shape and
``.view(np.int64)``.  Then each round runs every cell once per side, back
to back, the side that goes first alternating from round to round and from
cell to cell.  Prints one JSON line: the number of outputs and of those
that differ, the median over rounds of B's round time over A's, the rounds
in which B took less time, and each side's sum of per-cell minimum times
with their ratio.  It gates nothing: a ratio read in one process on a
shared host needs an A/A control beside it.

Both sides share one process and one heap, so a change whose cost or gain
is page faults reads differently here than in ``perfbench/run.py``, which
runs one side per process: a change to the 2D/3D engine has read 1.03x
here and 0.96x-0.97x in the runner.  2D/3D pass times and fault counts
compare only between checkouts whose paths have the same length, run by
the same driver, one side per process (``tools/pass_faults.py``); use this
tool for the bit-for-bit check and for 1D cells.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(tree, name):
    """Import ``tree/src/ppinterp`` as the package ``name``."""
    pkg = os.path.join(os.path.abspath(tree), "src", "ppinterp")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def call(layer, fn, *args):
    return fn(*args)


def timed(cell):
    t0 = perf_counter()
    cell.run(call)
    return perf_counter() - t0


def main(argv=None):
    sys.path[:0] = [os.path.join(ROOT, "perfbench")]
    import run  # perfbench's runner: its thread settings, set before numpy loads

    for var in run.THREAD_VARS:
        os.environ[var] = "1"
    import numpy as np
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--a", required=True, help="source tree of side A")
    p.add_argument("--b", required=True, help="source tree of side B")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rounds", type=int, default=15)
    args = p.parse_args(argv)
    if args.rounds < 1:
        p.error("--rounds must be at least 1")
    sides = [workloads.build(args.workload, load(tree, f"ppinterp_{s}"), args.seed).cells
             for tree, s in ((args.a, "a"), (args.b, "b"))]

    outs = [[out for cell in cells for out in cell.run(call)] for cells in sides]
    differ = sum(x.shape != y.shape or not np.array_equal(x.view(np.int64), y.view(np.int64))
                 for x, y in zip(*outs))

    cells = len(sides[0])
    times = np.empty((args.rounds, cells, 2))  # [round, cell, side]
    for r in range(args.rounds):
        for k in range(cells):
            first = (r + k) % 2
            for s in (first, 1 - first):
                times[r, k, s] = timed(sides[s][k])
    rounds = times.sum(axis=1)
    minima = times.min(axis=0).sum(axis=0)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "rounds": args.rounds,
        "cells": cells,
        "a": os.path.abspath(args.a),
        "b": os.path.abspath(args.b),
        "outputs": len(outs[1]),
        "outputs_differing": int(differ) + abs(len(outs[0]) - len(outs[1])),
        "round_median_ratio_b_over_a": round(statistics.median(rounds[:, 1] / rounds[:, 0]), 4),
        "rounds_b_faster": f"{int((rounds[:, 1] < rounds[:, 0]).sum())}/{args.rounds}",
        "sum_of_cell_minima_s": {"a": round(float(minima[0]), 6), "b": round(float(minima[1]), 6)},
        "minima_ratio_b_over_a": round(float(minima[1] / minima[0]), 4),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
