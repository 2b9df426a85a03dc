"""Tensor-product 2D/3D drivers: the 1D routine swept along x, then y, then z.

The method is nonlinear, so the sweep order is part of the definition; the
intermediate fields are materialized between sweeps."""

from __future__ import annotations

import numpy as np

from .config import InterpConfig
from .divdiff import as_mesh1d
from .interp1d import _check_output_points, interpolate_1d

__all__ = ["adaptive_interpolation_2d", "adaptive_interpolation_3d"]


def _check_grid(v, shape: tuple[int, ...]) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"grid values have shape {arr.shape}, expected {shape}")
    return arr


def _sweep(mesh, values, out_pts, config):
    """Apply the 1D routine along axis 0 of ``values`` for every other index."""
    lines = values.shape[1]
    out = np.empty((out_pts.size, lines))
    for k in range(lines):
        out[:, k] = interpolate_1d(mesh, values[:, k], out_pts, config)
    return out


def interpolate_2d(x, y, v, xout, yout, config: InterpConfig) -> np.ndarray:
    xs, ys = as_mesh1d(x), as_mesh1d(y)
    grid = _check_grid(v, (xs.size, ys.size))
    xo = _check_output_points(xs, xout)
    yo = _check_output_points(ys, yout)

    q = _sweep(xs, grid, xo, config)                         # (mx, ny)
    out = _sweep(ys, q.T, yo, config)                        # (my, mx)
    return out.T


def interpolate_3d(x, y, z, v, xout, yout, zout, config: InterpConfig) -> np.ndarray:
    xs, ys, zs = as_mesh1d(x), as_mesh1d(y), as_mesh1d(z)
    grid = _check_grid(v, (xs.size, ys.size, zs.size))
    xo = _check_output_points(xs, xout)
    yo = _check_output_points(ys, yout)
    zo = _check_output_points(zs, zout)
    ny, nz = ys.size, zs.size
    mx, my, mz = xo.size, yo.size, zo.size

    q = _sweep(xs, grid.reshape(xs.size, ny * nz), xo, config).reshape(mx, ny, nz)
    g = _sweep(ys, np.moveaxis(q, 1, 0).reshape(ny, mx * nz), yo, config)
    g = np.moveaxis(g.reshape(my, mx, nz), 0, 1)             # (mx, my, nz)
    w = _sweep(zs, np.moveaxis(g, 2, 0).reshape(nz, mx * my), zo, config)
    return np.moveaxis(w.reshape(mz, mx, my), 0, 2)          # (mx, my, mz)


def adaptive_interpolation_2d(x, y, v, xout, yout, d, im, st=3, eps0=0.01, eps1=1.0):
    """Tensor-product adaptive interpolation of grid values v[i, j] given at
    (x_i, y_j) onto the grid xout x yout (x sweep first, then y)."""
    cfg = InterpConfig(d=d, im=im, st=st, eps0=eps0, eps1=eps1)
    return interpolate_2d(x, y, v, xout, yout, cfg)


def adaptive_interpolation_3d(x, y, z, v, xout, yout, zout, d, im, st=3, eps0=0.01, eps1=1.0):
    """Tensor-product adaptive interpolation of v[i, j, k] given at
    (x_i, y_j, z_k) onto xout x yout x zout (x, then y, then z sweeps)."""
    cfg = InterpConfig(d=d, im=im, st=st, eps0=eps0, eps1=eps1)
    return interpolate_3d(x, y, z, v, xout, yout, zout, cfg)
