"""Monotone piecewise cubic Hermite (Fritsch-Carlson) baseline.

Backed by scipy's PCHIP implementation: harmonic-mean slope estimates zeroed
at data extrema, three-point one-sided endpoint slopes with limiting."""

from __future__ import annotations

import numpy as np

from .interpnd import tensor_sweep

__all__ = ["pchip_1d", "pchip_2d"]


def _pchip(mesh, lines, points):
    """SciPy's PCHIP of ``lines`` along axis 0, evaluated at ``points``.

    ``scipy.interpolate`` is imported here, on the first PCHIP call, and not
    with the package: it costs most of the package's import time and memory,
    and the adaptive methods run on numpy alone."""
    from scipy.interpolate import PchipInterpolator

    return PchipInterpolator(mesh, lines, axis=0)(points)


def pchip_1d(x, v, xout) -> np.ndarray:
    """Monotone cubic Hermite interpolation of (x, v) onto ``xout``."""
    return tensor_sweep((x,), v, (xout,), _pchip)


def pchip_2d(x, y, v, xout, yout) -> np.ndarray:
    """Tensor-product PCHIP on grid values v[i, j]: x sweep, then y sweep."""
    return tensor_sweep((x, y), v, (xout, yout), _pchip)
