"""Tensor-product drivers: a 1D routine swept along x, then y, then z.

``tensor_sweep`` is the one driver and the one place that validates the
input of the interpolation entry points.  A 1D call is the sweep along a
single axis; 2D and 3D calls sweep every axis in turn.  The method is
nonlinear, so the sweep order is part of the definition; the intermediate
fields are materialized between sweeps."""

from __future__ import annotations

from functools import partial

import numpy as np

from .config import InterpConfig
from .divdiff import _as_float, _check_range, _finite, as_mesh1d, as_values
from .stencil import interpolate_lines

__all__ = [
    "adaptive_interpolation_1d",
    "adaptive_interpolation_2d",
    "adaptive_interpolation_3d",
    "tensor_sweep",
]

# Upper bound on the (line, point) pairs one sweep call holds, counting each
# line's mesh points or output points, whichever are more.  Measured over
# 2^14 to 2^17 (BENCH_15.json): below 2^16, PCHIP's fixed work per call,
# repeated per chunk, slows large 2D calls; at 2^17 the adaptive engine's
# work arrays take twice the memory and lose the cache.
CHUNK_PAIRS = 1 << 16


def locate(mesh: np.ndarray, points):
    """Validate the output points of one axis for the validated ``mesh`` and
    locate them; returns ``(pts, runs, node, hits, dest)``.  Every search of
    the output points is made here, once per axis.

    The points must be a 1D sequence of real, finite values in [mesh[0],
    mesh[-1]], in any order.  ``pts`` holds them as floats in non-decreasing
    order; ``dest`` is None if they came so, and otherwise the ``argsort``
    that sorted them, so that ``out[dest] = result`` restores the caller's
    order.  Two reverse searches of the mesh into the points locate them:
    ``edge = pts.searchsorted(mesh)`` gives the first point >= x[i], and
    ``side="right"`` the first point > x[i].  ``runs[i]`` counts the points
    of interval i, ``x[i] <= p < x[i+1]``, which are
    ``pts[edge[i]:edge[i] + runs[i]]``; the last interval also takes the
    points at x[-1].
    ``hits[i]`` counts the points equal to x[i], and ``node`` holds their
    positions in ``pts``, node by node, so ``pts[node]`` is
    ``mesh.repeat(hits)``.

    One ``>=`` pass tests order and finiteness together: a NaN fails every
    comparison, so it sends the points to the sort, which puts it last,
    where the end-point range test then fails.  Only a failed range test
    scans the points for finiteness, and an outside point is named in the
    caller's order."""
    pts = _as_float(points, "output points")
    if pts.ndim != 1:
        raise ValueError(f"output points must be one-dimensional, got shape {pts.shape}")
    p, dest = pts, None
    if np.count_nonzero(pts[1:] >= pts[:-1]) < pts.size - 1:
        dest = pts.argsort()
        p = pts[dest]
    if p.size and not (p[0] >= mesh[0] and p[-1] <= mesh[-1]):
        _check_range(_finite(pts, "output points"), mesh)  # raises
    edge = p.searchsorted(mesh)
    runs = edge[1:] - edge[:-1]
    runs[-1] = p.size - edge[-2]
    # The points equal to node i are the sorted positions edge[i] up to
    # past[i]; numbered in order, node point j of node i sits at
    # j + past[i] - total[i].
    past = p.searchsorted(mesh, side="right")
    hits = past - edge
    total = hits.cumsum()
    node = np.arange(total[-1]) + (past - total).repeat(hits)
    return p, runs, node, hits, dest


def tensor_sweep(meshes, v, outs, sweep) -> np.ndarray:
    """Map grid values ``v`` on the tensor product of ``meshes`` onto the
    tensor product of the output points ``outs``, one axis at a time, axis 0
    first.

    Every mesh, the values and every output axis are validated before any
    sweep runs, and each output axis is located once, by ``locate``.  If
    any output axis is empty, the empty result of the output shape is
    returned then, and no sweep runs, so a sweep always receives points.
    ``sweep(mesh, lines, points, runs, node, hits)`` receives the lines
    along one axis as the columns of a ``(mesh.size, m)`` block, with the
    axis's sorted ``points``, ``runs``, ``node`` and ``hits`` as ``locate``
    returns them, and returns the lines' ``(points.size, m)`` values at
    ``points``.  The block is the grid with that axis swapped to the front;
    every line is interpolated on its own, so the order and grouping of the
    columns do not matter.  Every call for an axis receives the same
    ``points``, ``runs``, ``node`` and ``hits``, so a sweep searches
    nothing, and the results of sorted points are scattered back to the
    caller's order.

    The columns go to ``sweep`` a chunk at a time, each chunk holding at
    most ``CHUNK_PAIRS`` (line, point) pairs, or one line, which caps the
    memory of a sweep's work arrays on large grids.  A block that fits in
    one chunk is swept in one call and its result used as returned; larger
    ones are copied chunk by chunk into one output block.

    The 1D guarantees carry over to the grid, sweep by sweep.  Let a point
    lie in cell [x_i, x_i+1] x [y_j, y_j+1] of a 2D grid.  The x sweep keeps
    a DBI value at (x_out, y_k) between the two data values of its interval
    in row k, so for k = j and j+1 it lies in the hull of the cell's corner
    values in that row; the y sweep keeps the result between those two
    intermediate values, hence in the hull of the cell's four corner
    values.  Each further axis adds its factor of two, so in 3D a DBI output
    lies in the hull of the 2^3 corner values of its cell.  On nonnegative
    data, PPI with eps0, eps1 <= 1 keeps every sweep nonnegative, so the
    result is nonnegative; and each sweep stays at most (1 + max(eps0,
    eps1)) times the larger of its interval's two values, so the result is
    at most (1 + max(eps0, eps1))^dim times the largest corner value.  A node of
    every axis is reproduced bit for bit by each sweep, so grid nodes return
    the data.  ``tests/test_interpnd.py::TestTensorProductGuarantees``
    checks all four on seeded 2D/3D families.
    """
    ms = [as_mesh1d(m) for m in meshes]
    q = as_values(v, tuple([m.size for m in ms]))  # a list builds faster than a generator
    located = [locate(m, o) for m, o in zip(ms, outs)]
    for loc in located:
        if not loc[0].size:
            return np.empty([pts.size for pts, *_ in located])
    for k, (mesh, (p, runs, node, hits, dest)) in enumerate(zip(ms, located)):
        front = q.swapaxes(0, k)
        lines = front.reshape(mesh.size, -1)
        step = max(1, CHUNK_PAIRS // max(mesh.size, p.size))
        if step >= lines.shape[1]:
            block = sweep(mesh, lines, p, runs, node, hits)
        else:
            block = np.empty((p.size, lines.shape[1]))
            for c in range(0, lines.shape[1], step):
                block[:, c : c + step] = sweep(mesh, lines[:, c : c + step], p, runs, node, hits)
        if dest is not None:
            block[dest] = block.copy()
        q = block.reshape(p.shape + front.shape[1:]).swapaxes(0, k)
    return q


def adaptive_interpolation_1d(x, v, xout, d, im,
                              st=InterpConfig.st, eps0=InterpConfig.eps0, eps1=InterpConfig.eps1):
    """Adaptive data-bounded (im=1) or positivity-preserving (im=2)
    interpolation of (x, v) onto ``xout`` with target degree ``d``."""
    cfg = InterpConfig(d=d, im=im, st=st, eps0=eps0, eps1=eps1)
    return tensor_sweep((x,), v, (xout,), partial(interpolate_lines, config=cfg))


def adaptive_interpolation_2d(x, y, v, xout, yout, d, im,
                              st=InterpConfig.st, eps0=InterpConfig.eps0, eps1=InterpConfig.eps1):
    """Tensor-product adaptive interpolation of grid values v[i, j] given at
    (x_i, y_j) onto the grid xout x yout (x sweep first, then y)."""
    cfg = InterpConfig(d=d, im=im, st=st, eps0=eps0, eps1=eps1)
    return tensor_sweep((x, y), v, (xout, yout), partial(interpolate_lines, config=cfg))


def adaptive_interpolation_3d(x, y, z, v, xout, yout, zout, d, im,
                              st=InterpConfig.st, eps0=InterpConfig.eps0, eps1=InterpConfig.eps1):
    """Tensor-product adaptive interpolation of v[i, j, k] given at
    (x_i, y_j, z_k) onto xout x yout x zout (x, then y, then z sweeps)."""
    cfg = InterpConfig(d=d, im=im, st=st, eps0=eps0, eps1=eps1)
    return tensor_sweep((x, y, z), v, (xout, yout, zout), partial(interpolate_lines, config=cfg))
