"""Tensor-product 2D/3D drivers: a 1D routine swept along x, then y, then z.

The method is nonlinear, so the sweep order is part of the definition; the
intermediate fields are materialized between sweeps."""

from __future__ import annotations

from functools import partial

import numpy as np

from .config import InterpConfig
from .divdiff import as_mesh1d, as_values
from .interp1d import _check_output_points, interpolate_lines

__all__ = ["adaptive_interpolation_2d", "adaptive_interpolation_3d", "tensor_sweep"]


def tensor_sweep(meshes, v, outs, sweep) -> np.ndarray:
    """Map grid values ``v`` on the tensor product of ``meshes`` onto the
    tensor product of the output points ``outs``, one axis at a time, axis 0
    first.

    Every mesh, the values and every output axis are validated before any
    sweep runs.  ``sweep(mesh, lines, points)`` receives the lines along one
    axis as the columns of a ``(mesh.size, m)`` block, in C order over the
    other axes, and returns their ``(points.size, m)`` values at ``points``.
    """
    ms = [as_mesh1d(m) for m in meshes]
    q = as_values(v, tuple(m.size for m in ms))
    pts = [_check_output_points(m, o) for m, o in zip(ms, outs)]
    for k, (mesh, p) in enumerate(zip(ms, pts)):
        front = np.moveaxis(q, k, 0)
        lines = sweep(mesh, front.reshape(mesh.size, -1), p)
        q = np.moveaxis(lines.reshape(p.shape + front.shape[1:]), 0, k)
    return q


# Upper bound on the (line, point) pairs one engine call holds, counting each
# line's mesh points or output points, whichever are more.  It caps the
# memory of the lane and evaluation arrays; the chunking never changes a
# result, since every line is interpolated on its own.
CHUNK_PAIRS = 1 << 17


def _sweep(mesh, lines, points, config):
    """Apply the 1D routine to every column of ``lines``, a chunk of
    columns per call."""
    out = np.empty((points.size, lines.shape[1]))
    step = max(1, CHUNK_PAIRS // max(mesh.size, points.size))
    for k in range(0, lines.shape[1], step):
        out[:, k : k + step] = interpolate_lines(mesh, lines[:, k : k + step], points, config)
    return out


def adaptive_interpolation_2d(x, y, v, xout, yout, d, im, st=3, eps0=0.01, eps1=1.0):
    """Tensor-product adaptive interpolation of grid values v[i, j] given at
    (x_i, y_j) onto the grid xout x yout (x sweep first, then y)."""
    cfg = InterpConfig(d=d, im=im, st=st, eps0=eps0, eps1=eps1)
    return tensor_sweep((x, y), v, (xout, yout), partial(_sweep, config=cfg))


def adaptive_interpolation_3d(x, y, z, v, xout, yout, zout, d, im, st=3, eps0=0.01, eps1=1.0):
    """Tensor-product adaptive interpolation of v[i, j, k] given at
    (x_i, y_j, z_k) onto xout x yout x zout (x, then y, then z sweeps)."""
    cfg = InterpConfig(d=d, im=im, st=st, eps0=eps0, eps1=eps1)
    return tensor_sweep((x, y, z), v, (xout, yout, zout), partial(_sweep, config=cfg))
