"""1D driver: classification, bounds, stencil growth and evaluation of the
output points, for one line of values or a block of lines on one mesh."""

from __future__ import annotations

import numpy as np

from .bounds import boundary_sigmas, classify_interval, interval_bounds
from .config import InterpConfig
from .divdiff import IntervalInterpolant, as_mesh1d, as_values, build_table, horner
from .stencil import Stencils, grow_stencils

__all__ = [
    "adaptive_interpolation_1d",
    "interpolate_1d",
    "interpolate_lines",
    "interval_interpolants",
]


def _check_output_points(x: np.ndarray, xout) -> np.ndarray:
    pts = np.asarray(xout, dtype=float)
    if pts.ndim != 1:
        raise ValueError(f"output points must be one-dimensional, got shape {pts.shape}")
    inside = (pts >= x[0]) & (pts <= x[-1])
    if not np.all(inside):
        bad = pts[~inside][0]
        raise ValueError(f"output point {bad!r} outside the mesh range [{x[0]}, {x[-1]}]")
    return pts


def _stencils(x, table, intervals, config: InterpConfig) -> Stencils:
    """Stencils of ``intervals`` on every line of ``table``; lane
    k * lines + c is interval ``intervals[k]`` of line c."""
    entries = table.entries.reshape(table.n_points, table.max_order + 1, -1)
    lines = entries.shape[2]
    sp, sc, sn = boundary_sigmas(entries[:-1, 1], intervals)
    u_i, u_ip1 = entries[intervals, 0], entries[intervals + 1, 0]
    cls = classify_interval(sp, sc, sn)
    u_min, u_max = interval_bounds(u_i, u_ip1, cls, config.eps0, config.eps1)
    degenerate = (u_i == u_ip1) | (sc == 0.0)
    return grow_stencils(
        x,
        entries,
        np.repeat(intervals, lines),
        np.tile(np.arange(lines), intervals.size),
        u_min.ravel(),
        u_max.ravel(),
        degenerate.ravel(),
        config,
    )


def interpolate_lines(mesh, lines, points, config: InterpConfig) -> np.ndarray:
    """Interpolate every column of the ``(n, m)`` block ``lines``, values on
    ``mesh``, to ``points``; returns the ``(points.size, m)`` block.

    Each output point belongs to the half-open interval [x_i, x_{i+1}) that
    contains it (the last interval is closed on the right); points outside
    the mesh range are an error.  Output order follows ``points``.  Only the
    intervals that hold an output point grow a stencil.
    """
    x = as_mesh1d(mesh)
    table = build_table(x, lines, config.d)
    pts = _check_output_points(x, points)
    n, m = x.size, table.entries.shape[2]

    idx = np.searchsorted(x, pts, side="right") - 1
    np.clip(idx, 0, n - 2, out=idx)
    used = np.zeros(n - 1, dtype=bool)
    used[idx] = True
    intervals = np.flatnonzero(used)
    rank = np.cumsum(used) - 1

    st = _stencils(x, table, intervals, config)
    lane = (rank[idx][:, None] * m + np.arange(m)).ravel()
    out = horner(st.coeffs, x[st.order], st.degree, lane, np.repeat(pts, m))
    return out.reshape(pts.size, m)


def interpolate_1d(x, v, xout, config: InterpConfig) -> np.ndarray:
    """Interpolate values ``v`` on mesh ``x`` to the points ``xout``: the
    one-line case of ``interpolate_lines``."""
    xm = as_mesh1d(x)
    return interpolate_lines(xm, as_values(v, xm.shape)[:, None], xout, config)[:, 0]


def interval_interpolants(x, v, config: InterpConfig) -> list[IntervalInterpolant]:
    """Build the interpolant of every interval (mainly for inspection/tests)."""
    xm = as_mesh1d(x)
    table = build_table(xm, as_values(v, xm.shape), config.d)
    st = _stencils(xm, table, np.arange(xm.size - 1), config)
    pieces = []
    for k, deg in enumerate(st.degree.tolist()):
        order = st.order[k, : deg + 1].tolist()
        pieces.append(
            IntervalInterpolant(
                interval_index=order[0],
                window=(min(order), max(order)),
                insertion_order=tuple(order),
                coefficients=tuple(st.coeffs[k, : deg + 1].tolist()),
                normalization="degenerate" if st.degenerate[k] else "standard",
                denom=float(st.denom[k]),
                m_l=float(st.m_l[k]),
                m_r=float(st.m_r[k]),
            )
        )
    return pieces


def adaptive_interpolation_1d(x, v, xout, d, im, st=3, eps0=0.01, eps1=1.0):
    """Adaptive data-bounded (im=1) or positivity-preserving (im=2)
    interpolation of (x, v) onto ``xout`` with target degree ``d``."""
    return interpolate_1d(x, v, xout, InterpConfig(d=d, im=im, st=st, eps0=eps0, eps1=eps1))
