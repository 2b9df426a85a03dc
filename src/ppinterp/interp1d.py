"""The 1D engine driver: a block of lines on one mesh, interpolated to one set
of output points.  Every public entry point, 1D included, reaches it as one
axis of ``interpnd.tensor_sweep``, which validates the input first."""

from __future__ import annotations

import numpy as np

from .config import InterpConfig
from .divdiff import IntervalInterpolant, as_mesh1d, as_values, horner
from .stencil import grow_stencils

__all__ = ["interpolate_lines", "interval_interpolants"]

# Upper bound on the (line, point) pairs one engine call holds, counting each
# line's mesh points or output points, whichever are more.  It caps the
# memory of the lane and evaluation arrays; the chunking never changes a
# result, since every line is interpolated on its own.
CHUNK_PAIRS = 1 << 17


def interpolate_lines(x, lines, pts, config: InterpConfig) -> np.ndarray:
    """Interpolate every column of the ``(n, m)`` block ``lines``, values on
    mesh ``x``, to the points ``pts``; returns the ``(pts.size, m)`` block.

    The inputs must already be validated, by ``as_mesh1d``, ``as_values`` and
    ``as_points``: the public entry points check each of them once per call.
    Each output point belongs to the half-open interval [x_i, x_{i+1}) that
    contains it (the last interval is closed on the right), and a point
    equal to a mesh node returns the line's value there, so every node,
    x[-1] and signed zeros included, is reproduced bit for bit.  Output
    order follows ``pts``.  Only the intervals that hold an output point
    grow a stencil.  The columns go to the engine a chunk at a time, each
    chunk holding at most ``CHUNK_PAIRS`` (line, point) pairs, or one line.
    """
    n, m = x.size, lines.shape[1]
    idx = x.searchsorted(pts, side="right") - 1  # >= 0: no point lies left of x[0]
    node = (x.take(idx) == pts).nonzero()[0]  # the points equal to a mesh node
    at = idx[node]  # and the nodes they equal
    np.minimum(idx, n - 2, out=idx)
    used = np.zeros(n - 1, dtype=bool)
    used[idx] = True
    intervals = used.nonzero()[0]
    # An interval's lane rank among the used intervals: idx itself when
    # every interval holds a point.
    rank = idx if intervals.size == n - 1 else (used.cumsum() - 1)[idx]

    out = np.empty((pts.size, m))
    step = max(1, CHUNK_PAIRS // max(n, pts.size))
    for k in range(0, m, step):
        c = min(step, m - k)
        st = grow_stencils(x, lines[:, k : k + c], intervals, config)
        lane = rank[:, None] * c + np.arange(c)  # (point, line) -> its lane
        out[:, k : k + c] = horner(st.coeffs, x[st.order], lane, pts[:, None])
        # A node's value is returned as given.  Horner gives it as
        # c_0 + 0 * p, which turns a -0.0 into +0.0, and x[-1] lies in the
        # last interval, whose records start at x[-2], so it would come out
        # rounded.
        out[node, k : k + c] = lines[at, k : k + c]
        del st, lane  # free this chunk's lanes before the next one grows
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
