"""Reference stencil engine: one interval at a time, in plain Python.

This is the per-interval loop the lockstep engine (``stencil.grow_stencils``)
replaced.  It calls the same step functions one lane at a time, so comparing
the two checks the engine's lane bookkeeping: masks, the forced degenerate
step, the linear fallback and the padded records.  Those functions have one
path of numpy arithmetic, so on one interval they return numpy values; a
piece's fields are converted to Python floats where it is built, as the
engine's ``stencil.interval_interpolants`` converts them."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ppinterp.config import InterpConfig
from ppinterp.stencil import (
    DividedDifferenceTable, IntervalInterpolant, boundary_sigmas, build_table, classify_interval,
    interval_bounds, lambda_bar_step, scaling_factors, select_direction,
)


@dataclass(frozen=True)
class IntervalBounds:
    """Bounds and scaling factors for one interval.

    ``degenerate`` marks equal endpoint values: the stencil engine then
    derives the scaling factors itself from the scaled first nonzero divided
    difference (w) that replaces the interval slope as normalization.
    """

    u_min: float
    u_max: float
    m_l: float = 0.0
    m_r: float = 1.0
    degenerate: bool = False


def _linear_piece(table: DividedDifferenceTable, i: int) -> IntervalInterpolant:
    return IntervalInterpolant(
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
    n, width = table.entries.shape
    if not 0 <= i < n - 1:
        raise ValueError(f"interval index {i} out of range for {n} mesh points")
    d = config.d
    if width - 1 < min(d, n - 1):
        raise ValueError("divided-difference table holds too few orders for degree d")

    l, r = i, i + 1
    h = float(x[i + 1] - x[i])
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
                wl, wr = min(l, e), max(r, e)
                dd = float(table.entries[wl, wr - wl])
                length = x[wr] - x[wl]
                step = (dd,) + lambda_bar_step(
                    dd, length, h, (x[order[-1]] - x[i]) / h, lam, prev,
                    length_product, denom, m_l, m_r, degenerate,
                ) + (length,)
                if step[2] <= step[1] <= step[3]:  # B- <= lambda_bar <= B+
                    ok.append((e, step))
        if not ok:
            if forced is not None:
                return _linear_piece(table, i)
            break
        if len(ok) == 2:
            (el, sl), (er, sr) = ok
            left = select_direction(
                config.st, (sl[0], sr[0]), (sl[1], sr[1]), i, (l, r),
                (x[i], x[i + 1]), (x[el], x[er]),
            )
            e, step = ok[0] if left else ok[1]
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
        insertion_order=tuple(order),
        coefficients=tuple(coeffs),
        normalization="degenerate" if degenerate else "standard",
        denom=float(denom),
        m_l=float(m_l),
        m_r=float(m_r),
    )


def interval_interpolants(x, v, config: InterpConfig) -> list[IntervalInterpolant]:
    """Every interval's interpolant, classified, bounded and grown one
    interval at a time."""
    xm = np.asarray(x, dtype=float)
    table = build_table(xm, v, config.d)
    u = table.entries[:, 0]
    slopes = table.entries[: xm.size - 1, 1]
    pieces = []
    for i in range(xm.size - 1):
        sp, sc, sn = boundary_sigmas(slopes, i)
        cls = classify_interval(sp, sc, sn)
        u_min, u_max = interval_bounds(u[i], u[i + 1], cls, config.eps0, config.eps1)
        if u[i] == u[i + 1] or sc == 0.0:
            b = IntervalBounds(u_min, u_max, degenerate=True)
        else:
            m_l, m_r = scaling_factors(u[i], u[i + 1], u_min, u_max, config.im)
            b = IntervalBounds(u_min, u_max, m_l, m_r)
        pieces.append(build_stencil(xm, table, i, b, config))
    return pieces
