"""The 1D engine driver: a block of lines on one mesh, interpolated to one set
of output points.  Every public entry point, 1D included, reaches it
through ``interpnd.tensor_sweep``, which validates the input first, locates
the output points once per axis and hands it one chunk of an axis's lines
per call, with the axis's located points."""

from __future__ import annotations

import numpy as np

from .config import InterpConfig
from .divdiff import IntervalInterpolant, as_mesh1d, as_values, horner
from .stencil import grow_stencils

__all__ = ["interpolate_lines", "interval_interpolants"]


def interpolate_lines(x, lines, pts, edge, runs, config: InterpConfig) -> np.ndarray:
    """Interpolate every column of the ``(n, m)`` block ``lines``, values on
    mesh ``x``, to the points ``pts``; returns the ``(pts.size, m)`` block.

    The inputs must already be validated, by ``as_mesh1d`` and
    ``as_values``, and the points validated and located by
    ``interpnd.locate``, which gives the sorted ``pts``, ``edge =
    pts.searchsorted(x)`` and the ``runs`` of points per interval.  Each
    output point belongs to the half-open interval [x_i, x_{i+1}) that
    contains it (the last interval is closed on the right), and a point
    equal to a mesh node returns the line's value there, so every node,
    x[-1] and signed zeros included, is reproduced bit for bit.

    Only the intervals with a nonempty run grow a stencil, and ``horner``
    evaluates each one's polynomials on its run.  ``edge`` serves only the
    search for the points that equal a node.
    """
    if not pts.size:
        return np.empty((0, lines.shape[1]))
    intervals = runs.nonzero()[0]
    # The points equal to node i are the sorted positions edge[i] up to
    # past[i]; numbered in order, node point j of node i sits at
    # j + past[i] - total[i].
    past = pts.searchsorted(x, side="right")
    hits = past - edge
    total = hits.cumsum()
    node = np.arange(total[-1]) + (past - total).repeat(hits)
    st = grow_stencils(x, lines, intervals, config)
    res = horner(st.coeffs, st.nodes, runs[intervals], pts)
    # A node's value is returned as given.  Horner gives it as c_0 + 0 * p,
    # which turns a -0.0 into +0.0, and x[-1] lies in the last interval,
    # whose records start at x[-2], so it would come out rounded.
    res[node] = lines.repeat(hits, 0)
    return res


def interval_interpolants(x, v, config: InterpConfig) -> list[IntervalInterpolant]:
    """Build the interpolant of every interval (mainly for inspection/tests).

    Each piece's insertion order is recovered from the engine's recorded
    nodes by one search of the mesh."""
    xm = as_mesh1d(x)
    st = grow_stencils(xm, as_values(v, xm.shape)[:, None], np.arange(xm.size - 1), config)
    orders = xm.searchsorted(st.nodes)  # the nodes are mesh values
    pieces = []
    for k, deg in enumerate(st.degree.tolist()):
        order = orders[k, : deg + 1].tolist()
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
