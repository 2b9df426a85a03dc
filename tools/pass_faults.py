"""Time the passes of one benchmark workload and count the minor page faults
each pass makes.

    python tools/pass_faults.py --workload grid3d --seed 0 --passes 20

Run it from anywhere in a source checkout: it imports ppinterp from the
checkout's ``src/`` and the workload's cells from ``perfbench/workloads.py``,
as ``perfbench/run.py`` does.  After one untimed warm-up pass it runs the
passes back to back and prints one JSON line: the best and the median pass
time, the minor page faults per pass (``getrusage``'s ``ru_minflt``; the
median, with the smallest and largest) and the process's max RSS.

The faults show how much memory the allocator hands back to the system
between passes and then takes again: a change that moves them can move a
2D/3D workload's ``wall_s`` without changing the work it does.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_pass(cells):
    """Run every cell once; returns (seconds, minor faults)."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = perf_counter()
    for cell in cells:
        cell.run(lambda layer, fn, *args: fn(*args))
    seconds = perf_counter() - t0
    return seconds, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults


def main(argv=None):
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    import run  # perfbench's runner: its thread settings, set before numpy loads

    for var in run.THREAD_VARS:
        os.environ[var] = "1"
    import ppinterp
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--passes", type=int, default=20)
    args = p.parse_args(argv)
    if args.passes < 1:
        p.error("--passes must be at least 1")
    cells = workloads.build(args.workload, ppinterp, args.seed).cells
    run_pass(cells)
    seconds, faults = zip(*(run_pass(cells) for _ in range(args.passes)))
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "passes": args.passes,
        "best_s": round(min(seconds), 6),
        "median_s": round(statistics.median(seconds), 6),
        "minflt_per_pass": {"median": statistics.median(faults), "min": min(faults), "max": max(faults)},
        "max_rss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 2),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
