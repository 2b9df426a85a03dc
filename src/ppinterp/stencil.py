"""Adaptive stencil construction for one interval.

Grows the two-point base stencil one mesh point at a time.  A candidate point
is admissible when the ratio of scaled divided differences (lambda_bar) stays
inside recursively tightened bounds (B-, B+); when both neighbors are
admissible a user-selectable policy (st) picks the side."""

from __future__ import annotations

import numpy as np

from .bounds import IntervalBounds, scaling_factors
from .config import InterpConfig
from .divdiff import DividedDifferenceTable, IntervalInterpolant

__all__ = [
    "LEFT",
    "RIGHT",
    "lambda_bar_candidate",
    "b_bounds_step",
    "select_direction",
    "build_stencil",
    "replay_chain",
]

LEFT = "left"
RIGHT = "right"


def lambda_bar_candidate(
    table: DividedDifferenceTable,
    x: np.ndarray,
    i: int,
    window: tuple[int, int],
    e: int,
    last: int,
    lambda_bar_prev: float,
    prev: tuple[float, float] | None,
    length_product: float,
    denom: float,
    m_l: float,
    m_r: float,
    degenerate: bool,
) -> tuple[float, float, float, float, float]:
    """One admissibility step: grow ``window`` of interval ``i`` by point ``e``.

    ``last`` is the point added one step earlier, ``lambda_bar_prev`` and
    ``prev`` = (B-, B+) the values of the current window (``prev`` is None
    before the first expansion), ``length_product`` the product of window
    lengths accumulated so far and ``denom`` the normalization (interval
    slope, or w when ``degenerate``).

    Returns (dd, lambda_bar, B-, B+, length) of the grown window; the point is
    admissible when B- <= lambda_bar <= B+.  The bounds pair the grown
    window's length with the position of ``last`` (the factor multiplying
    lambda_j in the nested form).
    """
    l, r = min(window[0], e), max(window[1], e)
    h = x[i + 1] - x[i]
    dd = float(table.entries[l, r - l])
    length = float(x[r] - x[l])
    lam = dd / denom * length_product * length
    bm, bp = b_bounds_step(
        prev, lambda_bar_prev, length / h, (x[last] - x[i]) / h, m_l, m_r, degenerate
    )
    return dd, lam, bm, bp, length


def b_bounds_step(
    prev: tuple[float, float] | None,
    lambda_bar_prev: float,
    d_j: float,
    t_j: float,
    m_l: float,
    m_r: float,
    degenerate_base: bool = False,
) -> tuple[float, float]:
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
        if degenerate_base:
            return -4.0 * m_r * d_j, -4.0 * m_l * d_j
        return (-4.0 * (m_r - 1.0) - 1.0) * d_j, (-4.0 * m_l + 1.0) * d_j
    bm, bp = prev
    if t_j <= 0.0:
        f = d_j / (1.0 - t_j)
        return (bm - lambda_bar_prev) * f, (bp - lambda_bar_prev) * f
    f = d_j / (-t_j)
    return (bp - lambda_bar_prev) * f, (bm - lambda_bar_prev) * f


def select_direction(
    st: int,
    dd_left: float,
    dd_right: float,
    mu_l: int,
    mu_r: int,
    dist_left: float,
    dist_right: float,
    lb_left: float,
    lb_right: float,
) -> str:
    """Pick the expansion side when both neighbors are admissible.

    st=1 prefers the smaller divided-difference magnitude, st=2 the side that
    keeps the stencil symmetric, st=3 the closer point.  Exact ties fall back
    to the smaller |lambda_bar| (the right side wins equality).
    """
    if st == 1:
        a, b = abs(dd_left), abs(dd_right)
    elif st == 2:
        a, b = mu_l, mu_r
    elif st == 3:
        a, b = dist_left, dist_right
    else:
        raise ValueError(f"st must be 1, 2 or 3, got {st}")
    if a < b:
        return LEFT
    if a > b:
        return RIGHT
    return RIGHT if abs(lb_left) >= abs(lb_right) else LEFT


def _linear_piece(table: DividedDifferenceTable, i: int) -> IntervalInterpolant:
    return IntervalInterpolant(
        interval_index=i,
        window=(i, i + 1),
        insertion_order=(i, i + 1),
        coefficients=(float(table.entries[i, 0]), float(table.entries[i, 1])),
        normalization="standard",
        denom=float(table.entries[i, 1]),
    )


def build_stencil(
    mesh,
    table: DividedDifferenceTable,
    i: int,
    bounds: IntervalBounds,
    config: InterpConfig,
) -> IntervalInterpolant:
    """Grow the stencil for interval ``i`` and return its interpolant.

    Expansion stops when neither neighbor is admissible, the window holds
    d+1 points, or the mesh ends on both sides.  Equal endpoint values switch
    the normalization to the first expanded window's scaled difference (w);
    if that window is flat too, or not admissible, the interval falls back to
    the linear piece.
    """
    x = np.asarray(mesh, dtype=float)
    n = table.n_points
    if not 0 <= i < n - 1:
        raise ValueError(f"interval index {i} out of range for {n} mesh points")
    d = config.d
    if table.max_order < min(d, n - 1):
        raise ValueError("divided-difference table holds too few orders for degree d")

    l, r = i, i + 1
    order = [i, i + 1]
    coeffs = [float(table.entries[i, 0]), float(table.entries[i, 1])]
    denom, length_product = coeffs[1], 1.0
    lam, prev = 1.0, None
    m_l, m_r = bounds.m_l, bounds.m_r
    degenerate = bounds.degenerate
    forced = None

    if degenerate:
        # Equal endpoint values: the slope normalization is unusable.  Force
        # the first expansion toward the smaller second divided difference
        # (ties go right) and normalize by that window's scaled difference w.
        sides = [e for e in (i + 2, i - 1) if 0 <= e < n]
        if d < 2 or not sides:
            return _linear_piece(table, i)
        forced = min(sides, key=lambda e: abs(float(table.entries[min(e, i), 2])))
        l1, r1 = min(forced, i), max(forced, i + 1)
        h = float(x[i + 1] - x[i])
        w = float(table.entries[l1, 2]) * h * (x[r1] - x[l1])
        if w == 0.0:
            return _linear_piece(table, i)
        m_l, m_r = scaling_factors(
            coeffs[0], float(table.entries[i + 1, 0]), bounds.u_min, bounds.u_max, config.im, w
        )
        denom, length_product = w, h

    while r - l < d:
        ok = []
        for e in (forced,) if forced is not None else (l - 1, r + 1):
            if 0 <= e < n:
                step = lambda_bar_candidate(
                    table, x, i, (l, r), e, order[-1], lam, prev,
                    length_product, denom, m_l, m_r, degenerate,
                )
                if step[2] <= step[1] <= step[3]:  # B- <= lambda_bar <= B+
                    ok.append((e, step))
        if not ok:
            if forced is not None:
                return _linear_piece(table, i)
            break
        if len(ok) == 2:
            (el, sl), (er, sr) = ok
            side = select_direction(
                config.st, sl[0], sr[0], i - l, r - (i + 1),
                x[i] - x[el], x[er] - x[i + 1], sl[1], sr[1],
            )
            e, step = ok[side == RIGHT]
        else:
            e, step = ok[0]
        dd, lam, bm, bp, length = step
        l, r = min(l, e), max(r, e)
        order.append(e)
        coeffs.append(dd)
        prev = (bm, bp)
        length_product *= length
        forced = None

    return IntervalInterpolant(
        interval_index=i,
        window=(l, r),
        insertion_order=tuple(order),
        coefficients=tuple(coeffs),
        normalization="degenerate" if degenerate else "standard",
        denom=denom,
        m_l=m_l,
        m_r=m_r,
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
        _, lam, bm, bp, length = lambda_bar_candidate(
            table, x, i, (l, r), e, order[j], lam, prev,
            length_product, piece.denom, piece.m_l, piece.m_r, degenerate,
        )
        chain.append((j, lam, bm, bp))
        l, r = min(l, e), max(r, e)
        prev = (bm, bp)
        length_product *= length
    return chain
