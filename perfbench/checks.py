"""Output checks run outside the timed region.

Guarantees of the method (bounds, positivity, exactness at the nodes) are
checked on every call's output.  Digests of the outputs (per-call sums plus a
fixed subsample, minimum and maximum of the whole workload) are compared with
``reference.json``, recorded for the committed seeds.
"""

from __future__ import annotations

import json
import os

import numpy as np

DBI, PPI = 1, 2
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
SAMPLES = 32
RTOL = 1e-9


def _nodes_exact(x, u, xq, v):
    """Number of output points that sit on a mesh node but miss its value."""
    hit = np.searchsorted(x, xq)
    hit = np.minimum(hit, x.size - 1)
    on = x[hit] == xq
    tol = 1e-12 * (np.max(np.abs(u)) + 1e-300)
    return int(np.count_nonzero(np.abs(v[on] - u[hit[on]]) > tol))


def one_d(x, u, xq, v, im):
    """(bound violations, node mismatches) of one 1D call.

    DBI output must stay inside the data range of the interval that holds
    the point; PPI output (eps <= 1) must be nonnegative for nonnegative
    data.  ``im`` is None for PCHIP, which is checked at the nodes only.
    """
    x, u, xq, v = (np.asarray(a, dtype=float) for a in (x, u, xq, v))
    tau = 1e-12 * (np.ptp(u) + 1.0)
    if im == DBI:
        i = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, x.size - 2)
        lo = np.minimum(u[i], u[i + 1])
        hi = np.maximum(u[i], u[i + 1])
        bad = int(np.count_nonzero((v < lo - tau) | (v > hi + tau)))
    elif im == PPI and u.min() >= 0.0:
        bad = int(np.count_nonzero(v < -1e-12 * u.max()))
    else:
        bad = 0
    return bad, _nodes_exact(x, u, xq, v)


def grid(axes_in, v, axes_out, out):
    """(positivity violations, node mismatches) of one PPI call in 2D/3D.

    Node exactness is checked at output points whose every coordinate is a
    mesh node of its axis.
    """
    v = np.asarray(v, dtype=float)
    bad = int(np.count_nonzero(out < -1e-12 * v.max())) if v.min() >= 0.0 else 0
    picks_in, picks_out = [], []
    for x, xq in zip(axes_in, axes_out):
        hit = np.minimum(np.searchsorted(x, xq), x.size - 1)
        on = np.flatnonzero(x[hit] == xq)
        picks_in.append(hit[on])
        picks_out.append(on)
    want = v[np.ix_(*picks_in)]
    got = out[np.ix_(*picks_out)]
    tol = 1e-12 * (np.max(np.abs(v)) + 1e-300)
    return bad, int(np.count_nonzero(np.abs(got - want) > tol))


def digest(outputs):
    """Digest of a workload's outputs, in call order: the sum of every
    call's output, and the minimum, maximum and a fixed subsample of all of
    them together."""
    flat = np.concatenate([np.ravel(o) for o in outputs])
    pick = np.linspace(0, flat.size - 1, SAMPLES).astype(int)
    return {
        "sums": [float(np.sum(o)) for o in outputs],
        "min": float(flat.min()),
        "max": float(flat.max()),
        "sample": [float(s) for s in flat[pick]],
    }


def load_reference(workload, seed):
    """Recorded digest for (workload, seed), or None if none was recorded."""
    if not os.path.exists(REFERENCE):
        return None
    with open(REFERENCE) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def compare_digest(outputs, ref):
    """Per-call sum mismatches, plus one for a mismatch in the workload's
    minimum, maximum or subsample.  Returns (per-call flags, global flag)."""
    got = digest(outputs)
    calls = []
    for o, s_got, s_ref in zip(outputs, got["sums"], ref["sums"]):
        scale = float(np.sum(np.abs(o))) + 1e-300
        calls.append(abs(s_got - s_ref) > RTOL * scale)
    if len(got["sums"]) != len(ref["sums"]):
        return calls, True
    scale = max(abs(got["min"]), abs(got["max"])) + 1e-300
    pairs = [(got["min"], ref["min"]), (got["max"], ref["max"])] + list(zip(got["sample"], ref["sample"]))
    return calls, any(abs(a - b) > RTOL * scale for a, b in pairs)
