"""1D driver: per-interval classification, bounds, stencil growth and
evaluation of the output points."""

from __future__ import annotations

import numpy as np

from .bounds import IntervalBounds, boundary_sigmas, classify_interval, interval_bounds, scaling_factors
from .config import InterpConfig
from .divdiff import IntervalInterpolant, build_table, newton_eval
from .stencil import build_stencil

__all__ = ["adaptive_interpolation_1d", "interpolate_1d", "interval_interpolants"]


def _check_output_points(x: np.ndarray, xout) -> np.ndarray:
    pts = np.asarray(xout, dtype=float)
    if pts.ndim != 1:
        raise ValueError(f"output points must be one-dimensional, got shape {pts.shape}")
    inside = (pts >= x[0]) & (pts <= x[-1])
    if not np.all(inside):
        bad = pts[~inside][0]
        raise ValueError(f"output point {bad!r} outside the mesh range [{x[0]}, {x[-1]}]")
    return pts


def _interval_piece(x, u, table, slopes, i, config: InterpConfig) -> IntervalInterpolant:
    sp, sc, sn = boundary_sigmas(slopes, i)
    cls = classify_interval(sp, sc, sn)
    u_min, u_max = interval_bounds(u[i], u[i + 1], cls, config.eps0, config.eps1)
    if u[i] == u[i + 1] or sc == 0.0:
        b = IntervalBounds(u_min, u_max, degenerate=True)
    else:
        m_l, m_r = scaling_factors(u[i], u[i + 1], u_min, u_max, config.im)
        b = IntervalBounds(u_min, u_max, m_l, m_r)
    return build_stencil(x, table, i, b, config)


def _tabulate(x, v, config: InterpConfig):
    """Mesh, values, divided-difference table and slopes of one 1D problem.

    ``build_table`` validates the mesh and the values; the values are read
    back from its order-0 column."""
    xm = np.asarray(x, dtype=float)
    table = build_table(xm, v, config.d)
    return xm, table.entries[:, 0], table, table.entries[: xm.size - 1, 1]


def interpolate_1d(x, v, xout, config: InterpConfig) -> np.ndarray:
    """Interpolate values ``v`` on mesh ``x`` to the points ``xout``.

    Each output point belongs to the half-open interval [x_i, x_{i+1}) that
    contains it (the last interval is closed on the right); points outside
    the mesh range are an error.  Output order follows ``xout``.
    """
    xm, u, table, slopes = _tabulate(x, v, config)
    pts = _check_output_points(xm, xout)
    n = xm.size

    idx = np.searchsorted(xm, pts, side="right") - 1
    np.clip(idx, 0, n - 2, out=idx)
    order = np.argsort(idx, kind="stable")
    sorted_idx = idx[order]

    out = np.empty(pts.shape)
    start = 0
    m = pts.size
    while start < m:
        i = int(sorted_idx[start])
        stop = int(np.searchsorted(sorted_idx, i, side="right"))
        piece = _interval_piece(xm, u, table, slopes, i, config)
        sel = order[start:stop]
        out[sel] = newton_eval(piece, xm, pts[sel])
        start = stop
    return out


def interval_interpolants(x, v, config: InterpConfig) -> list[IntervalInterpolant]:
    """Build the interpolant of every interval (mainly for inspection/tests)."""
    xm, u, table, slopes = _tabulate(x, v, config)
    return [_interval_piece(xm, u, table, slopes, i, config) for i in range(xm.size - 1)]


def adaptive_interpolation_1d(x, v, xout, d, im, st=3, eps0=0.01, eps1=1.0):
    """Adaptive data-bounded (im=1) or positivity-preserving (im=2)
    interpolation of (x, v) onto ``xout`` with target degree ``d``."""
    return interpolate_1d(x, v, xout, InterpConfig(d=d, im=im, st=st, eps0=eps0, eps1=eps1))
