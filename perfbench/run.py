"""ppinterp benchmark: one workload per process, through the public entry
points adaptive_interpolation_1d/2d/3d and pchip_1d.

    python3 perfbench/run.py --workload table1d --seed 0 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports ppinterp from ``src/``
there and from nowhere else.  The workload's inputs are generated from
``--seed``.  After an untimed warm-up pass, whose outputs are checked, the
job list is run in passes until ``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics.  The last line
of standard output is the result as one JSON object; the line before it
stamps the run (versions, thread settings, sample counts, check results).

``--record`` writes the digest of the warm-up outputs for this workload and
seed into ``perfbench/reference.json`` instead of measuring.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 3
IMPORT_CHILDREN = 6
IMPORT_CHILD = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import ppinterp; print(time.perf_counter() - t)")
COVERAGE_TOLERANCE = 0.10
MIN_PASSES = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("table1d", "roundtrip", "field2d", "grid3d"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true")
    return p.parse_args(argv)


class Counters:
    """Calls attempted and failed, and the results of the output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed_calls = 0
        self.bound_violations = 0
        self.node_mismatches = 0
        self.check_failures = []

    @property
    def failed(self):
        return self.failed_calls + len(self.check_failures)


def invoker(counters, durations, tracer=None, axes=()):
    """The ``call`` a cell makes its public calls through: counts and times
    each call, and traces it when a tracer is given."""
    def call(layer, fn, *args):
        counters.attempted += 1
        t0 = perf_counter()
        try:
            out = fn(*args) if tracer is None else tracer.root(layer, fn, args, axes)
        except Exception:
            counters.failed_calls += 1
            raise
        durations.append(perf_counter() - t0)
        return out
    return call


def run_pass(wl, counters, tracer=None, expect=None):
    """Run every cell once.  Returns (outputs per cell, seconds per cell,
    seconds per call, loop seconds).  With ``expect`` (the warm-up outputs),
    every output must equal it bit for bit."""
    outputs, cell_s, call_s = [], [], []
    t_loop = perf_counter()
    for k, cell in enumerate(wl.cells):
        durations = []
        try:
            outs = cell.run(invoker(counters, durations, tracer, cell.axes))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            outs = None
        outputs.append(outs)
        cell_s.append(sum(durations))
        call_s.extend(durations)
        if expect is not None and outs is not None and expect[k] is not None:
            same = all(a.shape == b.shape and (a == b).all() for a, b in zip(outs, expect[k]))
            if not same:
                counters.check_failures.append(f"{cell.name}: output differs from the warm-up pass")
    return outputs, cell_s, call_s, perf_counter() - t_loop


def check_outputs(wl, outputs, counters, seed, checks):
    """Checks on the warm-up outputs; returns the digest status."""
    for cell, outs in zip(wl.cells, outputs):
        if outs is None:
            continue
        for bad, mism in cell.check(outs):
            counters.bound_violations += bad
            counters.node_mismatches += mism
            if bad or mism:
                counters.check_failures.append(f"{cell.name}: {bad} bound violations, {mism} node mismatches")
    ref = checks.load_reference(wl.name, seed)
    if ref is None:
        return "no reference for this seed"
    if any(o is None for o in outputs):
        counters.check_failures.append("digest: a cell failed, outputs incomplete")
        return "incomplete"
    flat = [o for outs in outputs for o in outs]
    per_call, global_bad = checks.compare_digest(flat, ref)
    for k, bad in enumerate(per_call):
        if bad:
            counters.check_failures.append(f"digest: output {k} sum differs from the reference")
    if global_bad:
        counters.check_failures.append("digest: min/max/subsample differ from the reference")
    return "mismatch" if any(per_call) or global_bad else "match"


def cell_errors(wl, outputs):
    return {cell.name: cell.error(outs) for cell, outs in zip(wl.cells, outputs) if outs is not None}


def check_published(wl, errors, counters):
    results = {}
    for label, ok in wl.published:
        try:
            passed = bool(ok(errors))
        except KeyError:
            passed = False
        results[label] = passed
        if not passed:
            counters.check_failures.append(f"published band: {label}")
    return results


def import_samples(n):
    """Seconds to import ppinterp in fresh interpreters."""
    out = []
    for _ in range(n):
        proc = subprocess.run([sys.executable, "-c", IMPORT_CHILD, SRC], capture_output=True,
                              text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def percentile(values, q):
    """q-th percentile (0 < q < 100), linear between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def typical(samples):
    """Time of one cell, call or layer over a run's passes: the 90th
    percentile of its samples.

    On a shared machine a neighbour's load slows a core by up to 2x for
    milliseconds to minutes at a time, so each sample is either a slow one,
    a fast one or a mix.  The slow level is the one that recurs in every
    run; the median jumps between levels as the mix changes from run to run,
    while the 90th percentile stays on the slow level.
    """
    return percentile(samples, 90)


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def src_digest():
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "ppinterp")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ppinterp", "__init__.py")):
        print(f"error: no ppinterp sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.dont_write_bytecode = True
    sys.path.insert(0, SRC)

    t0 = perf_counter()
    import ppinterp
    imports = [perf_counter() - t0]
    if not os.path.abspath(ppinterp.__file__).startswith(SRC + os.sep):
        print(f"error: ppinterp was imported from {ppinterp.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import numpy as np
    import scipy

    import checks
    import hooks
    import workloads

    gen = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        wl = workloads.build(args.workload, ppinterp, args.seed)
        gen.append(perf_counter() - t0)

    counters = Counters()
    outputs, *_ = run_pass(wl, counters)
    if args.record:
        return record(wl, outputs, args.seed, checks)
    digest_status = check_outputs(wl, outputs, counters, args.seed, checks)
    errors = cell_errors(wl, outputs)
    published = check_published(wl, errors, counters) if args.seed == 0 else {}

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "commit": commit(),
        "src_sha256": src_digest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "cells": len(wl.cells),
        "digest": digest_status,
        "published_bands": published,
    }

    if args.trace:
        metrics = measure_traced(wl, counters, args.seconds, outputs, stamp, hooks)
    else:
        # Fresh-interpreter imports before and after the timed passes, so
        # that the median spans the load changes of the whole run.
        imports += import_samples(IMPORT_CHILDREN // 2)
        metrics = measure(wl, counters, args.seconds, outputs, stamp)
        imports += import_samples(IMPORT_CHILDREN - IMPORT_CHILDREN // 2)
        metrics["setup_s"] = metric(statistics.median(imports) + statistics.median(gen), "s")
        metrics["peak_rss_mb"] = metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
        errs = [e for e in errors.values() if e > 0.0]
        metrics["l2_gmean"] = metric(math.exp(statistics.fmean(math.log(e) for e in errs)), "L2")
        stamp["setup"] = {"import_s": imports, "inputs_s": gen}
        stamp["cell_l2"] = errors

    stamp.update({
        "attempted": counters.attempted,
        "failed_calls": counters.failed_calls,
        "bound_violations": counters.bound_violations,
        "node_mismatches": counters.node_mismatches,
        "check_failures": counters.check_failures[:20],
        "failed_frac": counters.failed / max(counters.attempted, 1),
    })
    print(json.dumps({"stamp": stamp}))
    print(json.dumps({
        "correct": counters.failed == 0,
        "attempted": counters.attempted,
        "failed": counters.failed,
        "metrics": metrics,
    }))
    return 0


def done(deadline, passes, last_pass_s):
    """Stop when the next pass would end past the deadline, once at least
    MIN_PASSES passes are in."""
    return passes >= MIN_PASSES and perf_counter() + last_pass_s > deadline


def measure(wl, counters, seconds, expect, stamp):
    """Timed passes until ``seconds`` are up; end-to-end metrics."""
    cell_samples = [[] for _ in wl.cells]
    call_samples = []
    deadline = perf_counter() + seconds
    while True:
        _, cell_s, call_s, _ = run_pass(wl, counters, expect=expect)
        for samples, s in zip(cell_samples, cell_s):
            samples.append(s)
        call_samples.append(call_s)
        if done(deadline, len(call_samples), sum(cell_s)):
            break
    calls_ms = [1e3 * typical(c) for c in zip(*call_samples)]
    stamp["passes"] = len(call_samples)
    stamp["calls_per_pass"] = len(calls_ms)
    stamp["cell_s"] = {c.name: typical(s) for c, s in zip(wl.cells, cell_samples)}
    return {
        "wall_s": metric(sum(typical(s) for s in cell_samples), "s"),
        "call_p50_ms": metric(percentile(calls_ms, 50), "ms"),
        "call_p90_ms": metric(percentile(calls_ms, 90), "ms"),
    }


def measure_traced(wl, counters, seconds, expect, stamp, hooks):
    """Untraced and traced passes in turn until ``seconds`` are up;
    per-layer metrics from the traced passes."""
    tracer = hooks.Tracer()
    plain = [[] for _ in wl.cells]
    traced = [[] for _ in wl.cells]
    layer_times, coverage, count_records = [], [], []
    deadline = perf_counter() + seconds
    while True:
        _, plain_s, _, _ = run_pass(wl, counters, expect=expect)
        for samples, s in zip(plain, plain_s):
            samples.append(s)
        tracer.install()
        tracer.reset()
        try:
            _, cell_s, _, loop_s = run_pass(wl, counters, tracer=tracer)
        finally:
            tracer.uninstall()
        for samples, s in zip(traced, cell_s):
            samples.append(s)
        layer_times.append(tracer.times())
        coverage.append(tracer.self_total() / loop_s)
        count_records.append(tracer.counts_record())
        if done(deadline, len(layer_times), loop_s + sum(plain_s)):
            break

    if any(rec != count_records[0] for rec in count_records):
        counters.check_failures.append("trace: per-layer counts differ between passes")
    wall_plain = sum(typical(s) for s in plain)
    wall_traced = sum(typical(s) for s in traced)
    cover = statistics.median(coverage)
    if abs(cover - 1.0) > COVERAGE_TOLERANCE:
        counters.check_failures.append(f"trace: layer self times cover {cover:.3f} of the traced wall time")
    stamp["passes"] = len(layer_times)
    stamp["absent_hooks"] = tracer.absent

    metrics = {}
    for name in layer_times[0]:
        metrics[name] = metric(typical([t[name] for t in layer_times]), "s")
    units = {"stencil.degree_mean": "degree", "stencil.linear_frac": "ratio"}
    for name, value in count_records[0].items():
        metrics[name] = metric(value, units.get(name, "count"))
    metrics["trace.wall_s"] = metric(wall_traced, "s")
    metrics["trace.overhead_frac"] = metric(wall_traced / wall_plain - 1.0, "ratio")
    metrics["trace.coverage_frac"] = metric(cover, "ratio")
    return metrics


def record(wl, outputs, seed, checks):
    """Store the digest of the warm-up outputs as the reference for this seed."""
    if any(o is None for o in outputs):
        print("error: a cell failed; nothing recorded", file=sys.stderr)
        return 1
    ref = {}
    if os.path.exists(checks.REFERENCE):
        with open(checks.REFERENCE) as fh:
            ref = json.load(fh)
    ref.setdefault(wl.name, {})[str(seed)] = checks.digest([o for outs in outputs for o in outs])
    with open(checks.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {wl.name} seed {seed} in {checks.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
