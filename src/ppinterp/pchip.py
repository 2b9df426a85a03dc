"""Monotone piecewise cubic Hermite (Fritsch-Carlson) baseline.

Backed by scipy's PCHIP implementation: harmonic-mean slope estimates zeroed
at data extrema, three-point one-sided endpoint slopes with limiting."""

from __future__ import annotations

import numpy as np
from scipy.interpolate import PchipInterpolator

from .divdiff import as_mesh1d, as_values
from .interp1d import _check_output_points
from .interpnd import tensor_sweep

__all__ = ["pchip_1d", "pchip_2d"]


def pchip_1d(x, v, xout) -> np.ndarray:
    """Monotone cubic Hermite interpolation of (x, v) onto ``xout``."""
    xm = as_mesh1d(x)
    u = as_values(v, xm.shape)
    pts = _check_output_points(xm, xout)
    return PchipInterpolator(xm, u)(pts)


def pchip_2d(x, y, v, xout, yout) -> np.ndarray:
    """Tensor-product PCHIP on grid values v[i, j]: x sweep, then y sweep."""
    return tensor_sweep(
        (x, y), v, (xout, yout), lambda mesh, lines, pts: PchipInterpolator(mesh, lines, axis=0)(pts)
    )
