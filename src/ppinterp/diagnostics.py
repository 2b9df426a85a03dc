"""Error norms and mesh utilities used by the experiment harness."""

from __future__ import annotations

import numpy as np

from .config import _is_integer
from .divdiff import as_mesh1d

__all__ = [
    "l2_error_continuum",
    "l2_error_grid",
    "refine_mesh",
]


def l2_error_continuum(approx_values, exact_values, *meshes) -> float:
    """Trapezoidal-rule approximation of the continuous L2 difference norm.

    ``meshes`` are the dense sampling grids of the axes the two value arrays
    live on (one per axis); the rule is applied per axis, last axis first.
    """
    a = np.asarray(approx_values, dtype=float)
    b = np.asarray(exact_values, dtype=float)
    grids = [as_mesh1d(m) for m in meshes]
    shape = tuple(g.size for g in grids)
    if a.shape != shape or b.shape != shape:
        raise ValueError(f"value shapes {a.shape}, {b.shape} must match the sampling meshes {shape}")
    sq = (a - b) ** 2
    for g in reversed(grids):
        sq = np.trapezoid(sq, g, axis=-1)
    return float(np.sqrt(sq))


def l2_error_grid(a, b) -> float:
    """Root-mean-square difference over grid points.

    The mean (rather than plain sum) keeps values comparable across grid
    resolutions.
    """
    av = np.asarray(a, dtype=float)
    bv = np.asarray(b, dtype=float)
    if av.shape != bv.shape:
        raise ValueError(f"length mismatch: {av.shape} vs {bv.shape}")
    return float(np.sqrt(np.mean((av - bv) ** 2)))


def refine_mesh(mesh, k: int) -> np.ndarray:
    """Insert ``k`` equally spaced interior points in every interval.

    Original points are preserved exactly; N points become N + k(N-1).
    """
    x = as_mesh1d(mesh)
    if not _is_integer(k) or k < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k!r}")
    n = x.size
    out = np.empty(n + k * (n - 1))
    out[:: k + 1] = x
    delta = np.diff(x)
    for m in range(1, k + 1):
        out[m :: k + 1] = x[:-1] + delta * (m / (k + 1))
    return out
