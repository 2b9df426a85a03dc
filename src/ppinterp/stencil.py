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

from .bounds import scaling_factors, where
from .config import InterpConfig
from .divdiff import DividedDifferenceTable, IntervalInterpolant

__all__ = [
    "lambda_bar_candidate",
    "b_bounds_step",
    "select_direction",
    "Stencils",
    "grow_stencils",
    "replay_chain",
]


def lambda_bar_candidate(
    x: np.ndarray,
    i,
    window,
    last,
    dd,
    lambda_bar_prev,
    prev,
    length_product,
    denom,
    m_l,
    m_r,
    degenerate,
):
    """One admissibility step: the stencil of interval ``i`` grows to
    ``window`` = (l, r), whose divided difference is ``dd``.

    ``last`` is the point added one step earlier, ``lambda_bar_prev`` and
    ``prev`` = (B-, B+) the values of the current window (``prev`` is None
    before the first expansion), ``length_product`` the product of window
    lengths accumulated so far and ``denom`` the normalization (interval
    slope, or w when ``degenerate``).

    Returns (lambda_bar, B-, B+, length) of the grown window; the point is
    admissible when B- <= lambda_bar <= B+.  The bounds pair the grown
    window's length with the position of ``last`` (the factor multiplying
    lambda_j in the nested form).
    """
    l, r = window
    h = x[i + 1] - x[i]
    length = x[r] - x[l]
    lam = dd / denom * length_product * length
    bm, bp = b_bounds_step(
        prev, lambda_bar_prev, length / h, (x[last] - x[i]) / h, m_l, m_r, degenerate
    )
    return lam, bm, bp, length


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
            where(degenerate_base, -4.0 * m_r * d_j, (-4.0 * (m_r - 1.0) - 1.0) * d_j),
            where(degenerate_base, -4.0 * m_l * d_j, (-4.0 * m_l + 1.0) * d_j),
        )
    bm, bp = prev
    left = t_j <= 0.0
    f = d_j / where(left, 1.0 - t_j, -t_j)
    return (where(left, bm, bp) - lambda_bar_prev) * f, (where(left, bp, bm) - lambda_bar_prev) * f


def select_direction(
    st: int, dd_left, dd_right, mu_l, mu_r, dist_left, dist_right, lb_left, lb_right
):
    """True where the left neighbor is taken when both are admissible.

    st=1 prefers the smaller divided-difference magnitude, st=2 the side that
    keeps the stencil symmetric, st=3 the closer point.  Exact ties fall back
    to the smaller |lambda_bar| (the right side wins equality).
    """
    if st == 1:
        a, b = np.abs(dd_left), np.abs(dd_right)
    elif st == 2:
        a, b = np.asarray(mu_l), np.asarray(mu_r)
    elif st == 3:
        a, b = np.asarray(dist_left), np.asarray(dist_right)
    else:
        raise ValueError(f"st must be 1, 2 or 3, got {st}")
    return (a < b) | ~((a > b) | (abs(lb_left) >= abs(lb_right)))


class Stencils(NamedTuple):
    """The grown stencils of many lanes, one row per lane.

    ``order`` and ``coeffs`` hold the insertion order and the Newton
    coefficients, padded past ``degree`` (with the interval's left node and
    zeros); ``degenerate``, ``denom``, ``m_l`` and ``m_r`` record the
    normalization and scaling factors the growth used.
    """

    order: np.ndarray
    coeffs: np.ndarray
    degree: np.ndarray
    degenerate: np.ndarray
    denom: np.ndarray
    m_l: np.ndarray
    m_r: np.ndarray


def grow_stencils(x, entries, i, c, u_min, u_max, degenerate, config: InterpConfig) -> Stencils:
    """Grow the stencil of every lane together.

    Lane k is interval ``i[k]`` of line ``c[k]`` of the ``(n, top+1, lines)``
    divided-difference table ``entries``; ``u_min``/``u_max`` are its value
    bounds and ``degenerate`` marks equal endpoint values or a zero slope.

    A lane stops when neither neighbor is admissible, its window holds d+1
    points, or the mesh ends on both sides.  A degenerate lane is normalized
    by the first expanded window's scaled difference (w) instead of the
    slope; if that window is flat too, or not admissible, the lane falls back
    to the linear piece.
    """
    n, width, _ = entries.shape
    top = width - 1
    u_i, slope = entries[i, 0, c], entries[i, 1, c]
    h = x[i + 1] - x[i]
    order = np.repeat(i[:, None], width, axis=1)
    order[:, 1] = i + 1
    coeffs = np.zeros(order.shape)
    coeffs[:, 0], coeffs[:, 1] = u_i, slope
    degree = np.ones(i.size, dtype=np.intp)
    denom, length_product, w = slope.copy(), np.ones(i.size), np.ones(i.size)
    forced_left = np.zeros(i.size, dtype=bool)
    linear = degenerate & (top < 2)

    if top >= 2:
        # Equal endpoint values: the slope normalization is unusable.  Force
        # the first expansion toward the smaller second divided difference
        # (ties go right) and normalize by that window's scaled difference w.
        g = np.flatnonzero(degenerate)
        ig, cg = i[g], c[g]
        dd_left = entries[np.maximum(ig - 1, 0), 2, cg]
        dd_right = entries[np.minimum(ig, n - 3), 2, cg]
        left = (ig > 0) & ((ig + 2 >= n) | (np.abs(dd_left) < np.abs(dd_right)))
        l1 = np.where(left, ig - 1, ig)
        wg = entries[l1, 2, cg] * h[g] * (x[l1 + 2] - x[l1])
        forced_left[g] = left
        linear[g] = wg == 0.0
        w[g] = np.where(wg == 0.0, 1.0, wg)  # flat lanes fall back; any nonzero w will do
        denom[g], length_product[g] = w[g], h[g]
    u_ip1 = entries[i + 1, 0, c]
    factors = scaling_factors(u_i, u_ip1, u_min, u_max, config.im, w)
    m_l, m_r = (np.broadcast_to(m, i.shape) for m in factors)  # DBI gives scalars

    # The lanes still growing, and their state.
    grow = np.flatnonzero(~linear)
    ig, cg, dg, fl = i[grow], c[grow], degenerate[grow], forced_left[grow]
    dn, lp, ml, mr = denom[grow], length_product[grow], m_l[grow], m_r[grow]
    l, r = ig, ig + 1
    last, lam, prev = r, np.ones(grow.size), None
    for s in range(top - 1):
        if grow.size == 0:
            break
        lo, ro = np.maximum(l - 1, 0), np.minimum(r + 1, n - 1)
        can_left, can_right = l > 0, r < n - 1
        if prev is None:  # a degenerate lane's first step is forced
            can_left &= ~dg | fl
            can_right &= ~dg | ~fl
        dd_left, dd_right = entries[lo, r - lo, cg], entries[l, ro - l, cg]
        lam_l, bm_l, bp_l, len_l = lambda_bar_candidate(
            x, ig, (lo, r), last, dd_left, lam, prev, lp, dn, ml, mr, dg
        )
        lam_r, bm_r, bp_r, len_r = lambda_bar_candidate(
            x, ig, (l, ro), last, dd_right, lam, prev, lp, dn, ml, mr, dg
        )
        ok_l = can_left & (bm_l <= lam_l) & (lam_l <= bp_l)
        ok_r = can_right & (bm_r <= lam_r) & (lam_r <= bp_r)
        go_left = ok_l & (~ok_r | select_direction(
            config.st, dd_left, dd_right, ig - l, r - (ig + 1),
            x[ig] - x[lo], x[ro] - x[ig + 1], lam_l, lam_r,
        ))
        took = ok_l | ok_r
        if prev is None:
            linear[grow[dg & ~took]] = True

        e = np.where(go_left, lo, ro)[took]
        grow = grow[took]
        order[grow, s + 2] = e
        coeffs[grow, s + 2] = np.where(go_left, dd_left, dd_right)[took]
        degree[grow] += 1
        prev = (np.where(go_left, bm_l, bm_r)[took], np.where(go_left, bp_l, bp_r)[took])
        lam = np.where(go_left, lam_l, lam_r)[took]
        lp = (lp * np.where(go_left, len_l, len_r))[took]
        l, r = np.where(go_left, lo, l)[took], np.where(go_left, r, ro)[took]
        last = e
        ig, cg, dg, dn, ml, mr = ig[took], cg[took], dg[took], dn[took], ml[took], mr[took]

    return Stencils(
        order=order,
        coeffs=coeffs,
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
    length_product = float(x[i + 1] - x[i]) if degenerate else 1.0
    l, r = i, i + 1
    lam, prev = 1.0, None
    chain = []
    for j in range(1, len(order) - 1):
        e = order[j + 1]
        l, r = min(l, e), max(r, e)
        lam, bm, bp, length = lambda_bar_candidate(
            x, i, (l, r), order[j], table.entries[l, r - l], lam, prev,
            length_product, piece.denom, piece.m_l, piece.m_r, degenerate,
        )
        chain.append((j, lam, bm, bp))
        prev = (bm, bp)
        length_product *= length
    return chain
