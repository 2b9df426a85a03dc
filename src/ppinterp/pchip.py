"""Monotone piecewise cubic Hermite (Fritsch-Carlson) baseline.

Backed by scipy's PCHIP implementation: harmonic-mean slope estimates zeroed
at data extrema, three-point one-sided endpoint slopes with limiting."""

from __future__ import annotations

import numpy as np
from scipy.interpolate import PchipInterpolator

from .divdiff import as_mesh1d
from .interp1d import _check_output_points, _check_values
from .interpnd import _check_grid

__all__ = ["pchip_1d", "pchip_2d"]


def pchip_1d(x, v, xout) -> np.ndarray:
    """Monotone cubic Hermite interpolation of (x, v) onto ``xout``."""
    xm = as_mesh1d(x)
    u = _check_values(xm, v)
    pts = _check_output_points(xm, xout)
    return PchipInterpolator(xm, u)(pts)


def pchip_2d(x, y, v, xout, yout) -> np.ndarray:
    """Tensor-product PCHIP on grid values v[i, j]: x sweep, then y sweep."""
    xs, ys = as_mesh1d(x), as_mesh1d(y)
    grid = _check_grid(v, (xs.size, ys.size))
    xo = _check_output_points(xs, xout)
    yo = _check_output_points(ys, yout)

    q = PchipInterpolator(xs, grid, axis=0)(xo)      # (mx, ny)
    return PchipInterpolator(ys, q, axis=1)(yo)      # (mx, my)
