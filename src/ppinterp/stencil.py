"""Adaptive stencil construction, for many intervals at once.

Each interval's stencil starts from its two endpoints and grows one mesh
point at a time.  A candidate point is admissible when the ratio of scaled
divided differences (lambda_bar) stays inside recursively tightened bounds
(B-, B+); when both neighbors are admissible a user-selectable policy (st)
picks the side.

The engine works on lanes: one lane is one interval of one line of values,
and every lane of a block takes expansion step j together.  The step
functions are written elementwise, so the same code handles one lane
(``replay_chain``) or an array of them (``grow_stencils``)."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .bounds import boundary_sigmas, classify_interval, interval_bounds, scaling_factors, where
from .config import InterpConfig
from .divdiff import DividedDifferenceTable, IntervalInterpolant, divided_differences

__all__ = [
    "lambda_bar_step",
    "b_bounds_step",
    "select_direction",
    "Stencils",
    "grow_stencils",
    "replay_chain",
]


def lambda_bar_step(
    dd, length, h, t, lambda_bar_prev, prev, length_product, denom, m_l, m_r, degenerate
):
    """One admissibility step: lambda_bar and its bounds (B-, B+) for a grown
    window of ``length`` whose divided difference is ``dd``, on an interval
    of length ``h``; the point is admissible when B- <= lambda_bar <= B+.

    ``t`` is the position of the point added one step earlier over ``h``
    (unused by the first step).  ``lambda_bar_prev`` and ``prev`` = (B-, B+)
    are the values of the current window (``prev`` is None before the first
    expansion), ``length_product`` the product of window lengths accumulated
    so far and ``denom`` the normalization (interval slope, or w when
    ``degenerate``); ``m_l`` and ``m_r`` are the scaling factors.  The bounds
    pair the grown window's length with that position (the factor
    multiplying lambda_j in the nested form).  The engine passes the left and
    right candidates of every lane as ``(2, lanes)`` arrays against per-lane
    state, so each per-lane term is computed once for both.
    """
    lam = dd / denom * length_product * length
    bm, bp = b_bounds_step(prev, lambda_bar_prev, length / h, t, m_l, m_r, degenerate)
    return lam, bm, bp


def b_bounds_step(prev, lambda_bar_prev, d_j, t_j, m_l, m_r, degenerate_base=False):
    """One step of the recursive admissibility bounds on lambda_bar.

    ``d_j`` is the grown window length and ``t_j`` the position of the point
    added one step earlier, both over the base interval length (t <= 0 left
    of the interval, t >= 1 right of it).  The first step (``prev`` is None)
    seeds the recursion from (m_l, m_r); later steps propagate the previous
    bounds, swapping sides when that point lies to the right (t_j > 0).

    With equal endpoint values the interpolant has no linear term, so the
    quadratic shape s(s-1)*lambda_1/d_1 alone must fit between m_l and m_r;
    since s(s-1) spans [-1/4, 0] the seed tightens to (-4*m_r*d_1,
    -4*m_l*d_1).  ``degenerate_base`` selects that seed.
    """
    if prev is None:
        return (
            where(degenerate_base, -4.0 * m_r, -4.0 * (m_r - 1.0) - 1.0) * d_j,
            where(degenerate_base, -4.0 * m_l, -4.0 * m_l + 1.0) * d_j,
        )
    bm, bp = prev
    left = t_j <= 0.0
    f = d_j / (left - t_j)  # 1 - t on the left, -t on the right
    return (where(left, bm, bp) - lambda_bar_prev) * f, (where(left, bp, bm) - lambda_bar_prev) * f


def select_direction(st: int, dd, lam, i, window, interval, points):
    """True where the left candidate is taken when both are admissible.

    The current window of interval ``i`` is ``window`` = (l, r), and the
    candidates are the points l-1 and r+1.  ``dd`` and ``lam`` hold their
    divided differences and lambda_bar, ``points`` their coordinates, each as
    a (left, right) pair; ``interval`` is (x_i, x_{i+1}).  st=1 prefers the
    smaller divided-difference magnitude, st=2 the side that keeps the
    stencil symmetric, st=3 the closer point.  Exact ties fall back to the
    smaller |lambda_bar| (the right side wins equality).  Only the active
    policy's key is computed.
    """
    if st == 1:
        a, b = np.abs(dd)
    elif st == 2:
        l, r = window
        a, b = i - l, r - (i + 1)
    elif st == 3:
        a, b = interval[0] - points[0], points[1] - interval[1]
    else:
        raise ValueError(f"st must be 1, 2 or 3, got {st}")
    lam_left, lam_right = np.abs(lam)
    return (a < b) | ((a == b) & (lam_left < lam_right))


class Stencils(NamedTuple):
    """The grown stencils of many lanes, one row per lane.

    ``order`` and ``coeffs`` hold the insertion order and the Newton
    coefficients, column-major: the engine writes insertion j of every lane
    at once.  Past ``degree`` every row is padded, ``order`` with the
    interval's left node and ``coeffs`` with +0; ``horner`` relies on that
    padding to evaluate every column with no mask.  ``degenerate``,
    ``denom``, ``m_l`` and ``m_r`` record the normalization and scaling
    factors the growth used.
    """

    order: np.ndarray
    coeffs: np.ndarray
    degree: np.ndarray
    degenerate: np.ndarray
    denom: np.ndarray
    m_l: np.ndarray
    m_r: np.ndarray


# Start of the left and right candidate windows, relative to the current
# window's start l: the left candidate adds point l-1, the right one r+1.
_SIDES = np.array([[-1], [0]])


def grow_stencils(x, values, intervals, config: InterpConfig) -> Stencils:
    """Grow the stencil of every lane together.

    ``values`` is an ``(n, lines)`` block of values on mesh ``x``, one line
    per column, both validated (by ``as_values`` and ``as_mesh1d``); lane
    k * lines + c is interval ``intervals[k]`` (an integer array) of line
    c.  The block's divided-difference table is built here, to order
    min(d, n-1), so no stencil grows past that degree.  Each lane is
    classified and bounded from its line's slopes and endpoint values, and
    marked degenerate where those values are equal or its slope is zero.

    A lane stops when neither neighbor is admissible, its window holds d+1
    points, or the mesh ends on both sides.  A degenerate lane is normalized
    by the first expanded window's scaled difference (w) instead of the
    slope; if that window is flat too, or not admissible, the lane falls back
    to the linear piece.

    At step s every growing window spans s+1 intervals, so the two
    candidates of every lane are windows of s+2 intervals: their divided
    differences are one gather from column s+2 of the table, and their
    lengths one gather from x[s+2:] - x[:-s-2].  Candidates past a mesh end
    are clamped onto an existing entry and masked off.
    """
    entries = divided_differences(x, values, config.d)
    n, width, lines = entries.shape
    top = width - 1
    i = intervals.repeat(lines)
    c = np.arange(i.size) % lines
    ip1 = i + 1
    sp, slope, sn = (s.ravel() for s in boundary_sigmas(entries[:-1, 1], intervals))
    u_i, u_ip1 = entries[intervals, 0].ravel(), entries[intervals + 1, 0].ravel()
    cls = classify_interval(sp, slope, sn)
    u_min, u_max = interval_bounds(u_i, u_ip1, cls, config.eps0, config.eps1)
    degenerate = (u_i == u_ip1) | (slope == 0.0)
    xi, xi1 = x[i], x[ip1]
    h = xi1 - xi
    # order[j] and coeffs[j] hold insertion j of every lane; the result is
    # their transpose.
    order = i[None].repeat(width, axis=0)
    order[1] = ip1
    coeffs = np.zeros(order.shape)
    coeffs[0], coeffs[1] = u_i, slope
    degree = np.ones(i.size, dtype=np.intp)
    denom, length_product, w = slope, np.ones(i.size), 1.0
    first = True  # the candidates each lane's first step may take

    if top >= 2 and degenerate.any():
        # Equal endpoint values: the slope normalization is unusable.  Force
        # the first expansion toward the smaller second divided difference
        # (ties go right) and normalize by that window's scaled difference w.
        g = degenerate.nonzero()[0]
        ig, cg = i[g], c[g]
        raw = ig + _SIDES
        cand = np.minimum(np.maximum(raw, 0), n - 3)
        dd_left, dd_right = abs(entries[cand, 2, cg])
        can_left, can_right = cand == raw
        left = can_left & (~can_right | (dd_left < dd_right))
        l1 = np.where(left, ig - 1, ig)
        wg = entries[l1, 2, cg] * h[g] * (x[l1 + 2] - x[l1])
        flat = wg == 0.0  # flat lanes fall back to the linear piece
        first = np.ones((2, i.size), dtype=bool)
        first[0, g], first[1, g] = left & ~flat, ~(left | flat)
        w = np.ones(i.size)
        w[g] = np.where(flat, 1.0, wg)  # any nonzero w will do
        denom, length_product = np.where(degenerate, w, slope), np.where(degenerate, h, 1.0)
    m_l, m_r = scaling_factors(u_i, u_ip1, u_min, u_max, config.im, w)  # DBI gives scalars

    # The lanes still growing (row numbers) and their state; the first step
    # takes every lane, and m_l, m_r and degenerate are read by it alone.
    lane, ig, cg, dn, lp = np.arange(i.size), i, c, denom, length_product
    l, lam, prev, t = i, 1.0, None, None
    reach = np.zeros((top, 2, 1), dtype=np.intp)  # candidate points: window start + (0, s+2)
    reach[:, 1, 0] = np.arange(2, top + 2)
    for s in range(top - 1):
        raw = l + _SIDES
        cand = np.minimum(np.maximum(raw, 0), n - s - 3)
        ok = cand == raw  # a candidate is valid where the clamp left it alone
        del raw
        if prev is None:
            ok &= first
        dd = entries[cand, s + 2, cg]
        length = (x[s + 2 :] - x[: n - s - 2])[cand]
        lam2, bm, bp = lambda_bar_step(dd, length, h, t, lam, prev, lp, dn, m_l, m_r, degenerate)
        ok &= bm <= lam2
        ok &= lam2 <= bp
        point = cand + reach[s]
        xp = x[point]
        ok_l, ok_r = ok
        go_left = ok_l & (~ok_r | select_direction(
            config.st, dd, lam2, ig, (l, l + s + 1), (xi, xi1), xp
        ))
        keep = (ok_l | ok_r).nonzero()[0]
        if keep.size == 0:
            break
        pick = keep + np.where(go_left, 0, lane.size)[keep]  # flat index into (2, lanes)

        lane = lane[keep]
        order[s + 2][lane] = point.take(pick)
        coeffs[s + 2][lane] = dd.take(pick)
        degree[lane] = s + 2
        l, lam, prev = cand.take(pick), lam2.take(pick), (bm.take(pick), bp.take(pick))
        lp = lp[keep] * length.take(pick)
        ig, cg, dn, h, xi, xi1 = ig[keep], cg[keep], dn[keep], h[keep], xi[keep], xi1[keep]
        t = (xp.take(pick) - xi) / h
        # Free this step's (2, lanes) arrays before the next step builds its own.
        del cand, ok, dd, length, lam2, bm, bp, point, xp

    linear = degenerate & (degree == 1)
    return Stencils(
        order=order.T,
        coeffs=coeffs.T,
        degree=degree,
        degenerate=degenerate & ~linear,
        denom=np.where(linear, slope, denom),
        m_l=np.where(linear, 0.0, m_l),
        m_r=np.where(linear, 1.0, m_r),
    )


def replay_chain(piece: IntervalInterpolant, table: DividedDifferenceTable, mesh):
    """Recompute (lambda_bar_j, B-_j, B+_j) along an accepted stencil.

    Returns one (j, lambda_bar, b_minus, b_plus) tuple per expansion.  The
    windows, length products and previous bounds are rebuilt from the
    recorded insertion order, normalization and scaling factors alone; every
    accepted step must satisfy B- <= lambda_bar <= B+.
    """
    x = np.asarray(mesh, dtype=float)
    i = piece.interval_index
    order = piece.insertion_order
    degenerate = piece.normalization == "degenerate"
    h = x[i + 1] - x[i]
    length_product = float(h) if degenerate else 1.0
    l, r = i, i + 1
    lam, prev = 1.0, None
    chain = []
    for j in range(1, len(order) - 1):
        e = order[j + 1]
        l, r = min(l, e), max(r, e)
        length = x[r] - x[l]
        lam, bm, bp = lambda_bar_step(
            table.entries[l, r - l], length, h, (x[order[j]] - x[i]) / h, lam, prev,
            length_product, piece.denom, piece.m_l, piece.m_r, degenerate,
        )
        chain.append((j, lam, bm, bp))
        prev = (bm, bp)
        length_product *= length
    return chain
