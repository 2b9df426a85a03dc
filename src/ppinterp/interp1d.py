"""The 1D engine driver: a block of lines on one mesh, interpolated to one set
of output points.  Every public entry point, 1D included, reaches it
through ``interpnd.tensor_sweep``, which validates the input first and
hands it one chunk of an axis's lines per call."""

from __future__ import annotations

import numpy as np

from .config import InterpConfig
from .divdiff import IntervalInterpolant, as_mesh1d, as_values, horner
from .stencil import grow_stencils

__all__ = ["interpolate_lines", "interval_interpolants"]


def interpolate_lines(x, lines, pts, config: InterpConfig) -> np.ndarray:
    """Interpolate every column of the ``(n, m)`` block ``lines``, values on
    mesh ``x``, to the points ``pts``; returns the ``(pts.size, m)`` block.

    The inputs must already be validated, by ``as_mesh1d``, ``as_values`` and
    ``as_points``: the public entry points check each of them once per call.
    Each output point belongs to the half-open interval [x_i, x_{i+1}) that
    contains it (the last interval is closed on the right), and a point
    equal to a mesh node returns the line's value there, so every node,
    x[-1] and signed zeros included, is reproduced bit for bit.

    The points are located as runs: sorted, the points of one interval are
    one contiguous run, so one search of the n mesh nodes into the sorted
    points gives every run's length, and ``horner`` evaluates each interval's
    polynomials on its run.  Points already in non-decreasing order are used
    as given; otherwise they are sorted with one ``argsort`` and the results
    are written back through that permutation, so output order follows
    ``pts``.  Only the intervals that hold an output point grow a stencil.
    """
    if not pts.size:
        return np.empty((0, lines.shape[1]))
    dest = None  # where the sorted points' results go, if they were sorted
    if np.count_nonzero(pts[1:] < pts[:-1]):  # some point is below the one before
        dest = pts.argsort()
        pts = pts[dest]
    edge = pts.searchsorted(x)  # edge[i]: the first point >= x[i]
    counts = edge[1:] - edge[:-1]  # points in [x_i, x_{i+1})
    counts[-1] = pts.size - edge[-2]  # the last one takes the points at x[-1] too
    intervals = counts.nonzero()[0]
    # The points equal to node i are the sorted positions edge[i] up to
    # past[i]; numbered in order, node point j of node i sits at
    # j + past[i] - total[i].
    past = pts.searchsorted(x, side="right")
    hits = past - edge
    total = hits.cumsum()
    node = np.arange(total[-1]) + (past - total).repeat(hits)
    st = grow_stencils(x, lines, intervals, config)
    res = horner(st.coeffs, x[st.order], counts[intervals], pts)
    # A node's value is returned as given.  Horner gives it as c_0 + 0 * p,
    # which turns a -0.0 into +0.0, and x[-1] lies in the last interval,
    # whose records start at x[-2], so it would come out rounded.
    res[node] = lines.repeat(hits, 0)
    if dest is None:
        return res
    out = np.empty_like(res)
    out[dest] = res
    return out


def interval_interpolants(x, v, config: InterpConfig) -> list[IntervalInterpolant]:
    """Build the interpolant of every interval (mainly for inspection/tests)."""
    xm = as_mesh1d(x)
    st = grow_stencils(xm, as_values(v, xm.shape)[:, None], np.arange(xm.size - 1), config)
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
