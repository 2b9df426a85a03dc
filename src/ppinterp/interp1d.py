"""1D driver: classification, bounds, stencil growth and evaluation of the
output points, for one line of values or a block of lines on one mesh."""

from __future__ import annotations

import numpy as np

from .bounds import boundary_sigmas, classify_interval, interval_bounds
from .config import InterpConfig
from .divdiff import (
    IntervalInterpolant,
    as_mesh1d,
    as_points,
    as_values,
    divided_differences,
    horner,
)
from .stencil import Stencils, grow_stencils

__all__ = [
    "adaptive_interpolation_1d",
    "interpolate_1d",
    "interpolate_lines",
    "interval_interpolants",
]


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


def interpolate_lines(x, lines, pts, config: InterpConfig) -> np.ndarray:
    """Interpolate every column of the ``(n, m)`` block ``lines``, values on
    mesh ``x``, to the points ``pts``; returns the ``(pts.size, m)`` block.

    The inputs must already be validated, by ``as_mesh1d``, ``as_values`` and
    ``as_points``: the public entry points check each of them once per call.
    Each output point belongs to the half-open interval [x_i, x_{i+1}) that
    contains it (the last interval is closed on the right).  Output order
    follows ``pts``.  Only the intervals that hold an output point grow a
    stencil.
    """
    table = divided_differences(x, lines, config.d)
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
    u = as_values(v, xm.shape)
    return interpolate_lines(xm, u[:, None], as_points(xm, xout), config)[:, 0]


def interval_interpolants(x, v, config: InterpConfig) -> list[IntervalInterpolant]:
    """Build the interpolant of every interval (mainly for inspection/tests)."""
    xm = as_mesh1d(x)
    table = divided_differences(xm, as_values(v, xm.shape), config.d)
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
