"""Adaptive stencil construction, for many intervals at once, and every
reader of its record but ``divdiff.horner``.

Each interval's stencil starts from its two endpoints and grows one mesh
point at a time.  A candidate point is admissible when the ratio of scaled
divided differences (lambda_bar) stays inside recursively tightened bounds
(B-, B+); when both neighbors are admissible a user-selectable policy (st)
picks the side.

Growth reads an admissibility model built here too: each interval's
extremum class (``classify_interval``), its value bounds (u_min, u_max)
(``interval_bounds``) and the scaling factors (m_l, m_r) that translate
them into the seed of the bounds (``scaling_factors``).

The engine works on lanes: one lane is one interval of one line of values,
and every lane of a block takes expansion step j together.  The model and
the step functions are written elementwise on one path of numpy
arithmetic, so one interval (the test oracle's) and an array of lanes run
the same code: scalar arguments describe one interval, arrays many, and
one interval of Python floats comes back as numpy float64 scalars (a
class as an ``ExtremumClass``, DBI's constant factors as Python floats).
Python's min/max are spelled np.where(b < a, b, a) so that signed zeros
come out as Python's min/max give them.  The exported model functions
check their arguments; the engine calls their unchecked cores.
``grow_stencils`` grows a block's lanes into a ``Stencils`` record.
``interpolate_lines``, the 1D routine every entry point sweeps along each
axis, evaluates the record at the output points; ``interval_interpolants``
turns it into pieces; ``replay_stencils`` re-checks it in the same lockstep,
and ``replay_chain`` is its one-lane case, a piece turned back into a
record."""

from __future__ import annotations

import enum
from typing import NamedTuple

import numpy as np

from .config import DBI, InterpConfig, _check_eps, _is_integer
from .divdiff import DividedDifferenceTable, IntervalInterpolant, _as_float, _piece_nodes, as_mesh1d
from .divdiff import as_values, horner, next_order

__all__ = [
    "ExtremumClass",
    "boundary_sigmas",
    "classify_interval",
    "interval_bounds",
    "scaling_factors",
    "lambda_bar_step",
    "b_bounds_step",
    "select_direction",
    "Stencils",
    "grow_stencils",
    "interpolate_lines",
    "interval_interpolants",
    "replay_stencils",
    "replay_chain",
]


class ExtremumClass(enum.IntEnum):
    """Hidden-extremum classification of an interval from neighboring slopes.

    The tags name the slope pattern: LOCAL_MAX is the opposite-sign pattern
    entered on a falling slope (the lower bound gets relaxed), LOCAL_MIN the
    one entered on a rising slope (the upper bound gets relaxed), AMBIGUOUS
    relaxes both sides.  The values are bit flags: bit LOCAL_MAX relaxes the
    lower bound and bit LOCAL_MIN the upper one.  Arrays of intervals carry
    their class as these plain integers.
    """

    NONE = 0
    LOCAL_MAX = 1
    LOCAL_MIN = 2
    AMBIGUOUS = 3


def _finite(data, what: str) -> np.ndarray:
    """``data`` as ``_as_float`` gives it, which must be finite."""
    a = _as_float(data, what)
    if np.count_nonzero(np.isfinite(a)) < a.size:
        raise ValueError(f"{what} must be finite")
    return a


def boundary_sigmas(slopes, i):
    """Slopes (sigma_{i-1}, sigma_i, sigma_{i+1}) around interval ``i``.

    ``slopes`` holds the order-1 divided differences of the n-1 intervals
    (along axis 0; further axes are lines), which must be finite; ``i`` must
    be an integer in [0, n-2].  The neighbors come from
    ``_neighbour_slopes``, whose rule covers the mesh boundary.
    """
    s = _finite(slopes, "slopes")
    if not (_is_integer(i) and 0 <= i < len(s)):
        raise ValueError(f"interval index must be an integer in [0, {len(s) - 1}], got {i!r}")
    prev, nxt = _neighbour_slopes(s, i)
    return prev, s[i], nxt


def _neighbour_slopes(s, i):
    """Slopes (sigma_{i-1}, sigma_{i+1}) around interval ``i`` of the array
    ``s`` laid out as ``boundary_sigmas`` takes it.  Missing neighbors at
    the mesh boundary are assumed to carry the same sign as the interval's
    own slope, so the nearest available slope is copied.  The engine, which
    holds sigma_i already, calls this alone."""
    return s.take(np.subtract(i, 1), 0, mode="clip"), s.take(np.add(i, 1), 0, mode="clip")


def classify_interval(sigma_prev, sigma_cur, sigma_next):
    """Classify interval i from the slopes of itself and its two neighbors.

    Only the signs matter.  Opposite-sign outer slopes flag an extremum whose
    type follows the sign of sigma_prev; same-sign outer slopes with an
    opposite-sign inner slope leave the extremum type ambiguous.  Scalar
    slopes give an ``ExtremumClass``, arrays an integer array of its values.

    The slopes must be real and finite; ``_classify_interval`` is the
    unchecked core the engine calls.

    The signs are multiplied, not the slopes: their product underflows to
    zero for slopes below about 1e-162 and overflows above about 1e154,
    which would make the class depend on the data's scale.
    """
    return _classify_interval(*(_finite(s, "slopes") for s in (sigma_prev, sigma_cur, sigma_next)))


def _classify_interval(sigma_prev, sigma_cur, sigma_next):
    sign_prev = np.sign(sigma_prev)
    outer = sign_prev * np.sign(sigma_next) < 0.0
    inner = sign_prev * np.sign(sigma_cur) < 0.0
    cls = np.where(
        outer,
        np.where(sign_prev < 0.0, ExtremumClass.LOCAL_MAX.value, ExtremumClass.LOCAL_MIN.value),
        np.where(inner, ExtremumClass.AMBIGUOUS.value, ExtremumClass.NONE.value),
    )
    return ExtremumClass(int(cls)) if isinstance(outer, np.bool_) else cls


def interval_bounds(u_i, u_ip1, cls, eps0: float, eps1: float):
    """Interval value bounds (u_min, u_max).

    Starting from the endpoint values, each side is pushed out by eps*|value|:
    eps1 on the side an extremum may poke through (lower side for LOCAL_MAX,
    upper side for LOCAL_MIN, both for AMBIGUOUS), eps0 elsewhere.  With
    eps0 = eps1 = 0 the bounds collapse to the data values.

    The values must be real and finite, ``cls`` an integer (or integer
    array) in [0, 3], bools and floats not, and eps0, eps1 as
    ``InterpConfig`` takes them; ``_interval_bounds`` is the unchecked core
    the engine calls.
    """
    c = np.asarray(cls)
    if c.dtype.kind not in "iu" or np.count_nonzero((c < 0) | (c > 3)):
        raise ValueError(f"extremum class must be an integer in [0, 3], got {cls!r}")
    _check_eps(eps0, eps1)
    return _interval_bounds(_finite(u_i, "values"), _finite(u_ip1, "values"), c, eps0, eps1)


def _interval_bounds(u_i, u_ip1, cls, eps0, eps1):
    lo = np.where(u_ip1 < u_i, u_ip1, u_i)
    hi = np.where(u_ip1 > u_i, u_ip1, u_i)
    eps_lo = np.where(cls & ExtremumClass.LOCAL_MAX.value, eps1, eps0)
    eps_hi = np.where(cls & ExtremumClass.LOCAL_MIN.value, eps1, eps0)
    return lo - eps_lo * abs(lo), hi + eps_hi * abs(hi)


def scaling_factors(u_i, u_ip1, u_min, u_max, method: int, degenerate_w=None):
    """Factors (m_l, m_r) bounding the normalized interpolant shape.

    DBI pins them to (0, 1).  Any other ``method`` is PPI (``InterpConfig``
    admits only the two), and they widen with (u_min, u_max),
    normalized by the endpoint jump: m_l <= 0 and m_r >= 1, since the shape
    is pinned to 0 and 1 at the interval endpoints.

    With equal endpoint values the shape is normalized by ``degenerate_w``
    instead and vanishes at both endpoints, so nothing forces it to reach 1:
    the floors are m_l <= 0 <= m_r, which keeps the enclosure exactly
    [u_min, u_max].  ``degenerate_w`` is read only where the endpoint values
    are equal.
    """
    if method == DBI:
        return 0.0, 1.0

    equal = u_ip1 == u_i
    den, floor = u_ip1 - u_i, 1.0
    if np.count_nonzero(equal):
        if degenerate_w is None:
            raise ValueError("equal endpoint values require degenerate_w")
        den, floor = np.where(equal, degenerate_w, den), np.where(equal, 0.0, 1.0)
    if np.count_nonzero(den == 0.0):
        raise ValueError("flat data: expanded window has zero divided difference")
    rising = den > 0.0
    a = (np.where(rising, u_min, u_max) - u_i) / den
    b = (np.where(rising, u_max, u_min) - u_i) / den
    # [()] gives one interval's factors as scalars, not 0-d arrays
    return np.where(a < 0.0, a, 0.0)[()], np.where(b > floor, b, floor)[()]


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
        bm, bp = -4.0 * (m_r - 1.0) - 1.0, -4.0 * m_l + 1.0
        if np.count_nonzero(degenerate_base):
            bm, bp = np.where(degenerate_base, -4.0 * m_r, bm), np.where(degenerate_base, -4.0 * m_l, bp)
        return bm * d_j, bp * d_j
    bm, bp = prev
    left = t_j <= 0.0
    f = d_j / (left - t_j)  # 1 - t on the left, -t on the right
    return (np.where(left, bm, bp) - lambda_bar_prev) * f, (np.where(left, bp, bm) - lambda_bar_prev) * f


def select_direction(st: int, dd, lam, i, window, interval, points):
    """True where the left candidate is taken when both are admissible.

    The current window of interval ``i`` is ``window`` = (l, r), and the
    candidates are the points l-1 and r+1.  ``dd`` and ``lam`` hold their
    divided differences and lambda_bar, ``points`` their coordinates, each as
    a (left, right) pair; ``interval`` is (x_i, x_{i+1}).  st=1 prefers the
    smaller divided-difference magnitude, st=2 the side that keeps the
    stencil symmetric, st=3 (any other value; ``InterpConfig`` admits only
    1, 2 and 3) the closer point.  Exact ties fall back to the smaller
    |lambda_bar| (the right side wins equality).  Only the active policy's
    key is computed, and |lambda_bar| only where some key ties.
    """
    if st == 1:
        mag = np.abs(dd)
        a, b = mag[0], mag[1]
    elif st == 2:
        l, r = window
        a, b = i - l, r - (i + 1)
    else:
        a, b = interval[0] - points[0], points[1] - interval[1]
    tie = a == b
    if not np.count_nonzero(tie):
        return a < b
    lam_abs = np.abs(lam)
    return (a < b) | (tie & (lam_abs[0] < lam_abs[1]))


class Stencils(NamedTuple):
    """The grown stencils of many lanes, one row per lane.

    ``nodes`` and ``coeffs`` hold the abscissae of the inserted mesh
    points, in insertion order, and the Newton coefficients, column-major:
    the engine writes insertion j of every lane at once.  Past ``degree``
    every row is padded, ``nodes`` with the interval's left node x_i and
    ``coeffs`` with +0; ``horner`` relies on that padding to evaluate every
    column with no mask.  Every entry of ``nodes`` is a mesh value, so
    ``x.searchsorted(nodes)`` gives the insertion indices exactly (the mesh
    increases strictly, and a -0.0 node is found as itself).  ``degenerate``,
    ``denom``, ``m_l`` and ``m_r`` record the normalization and scaling
    factors the growth used.
    """

    nodes: np.ndarray
    coeffs: np.ndarray
    degree: np.ndarray
    degenerate: np.ndarray
    denom: np.ndarray
    m_l: np.ndarray
    m_r: np.ndarray


# A block settles its flat lanes before growth only when they are at least
# this share of its lanes: settling compacts every lane array once, which
# costs more than it saves on a block with a handful of flat lanes.
SETTLE_SHARE = 0.25

# Start of the left and right candidate windows, relative to the current
# window's start l: the left candidate adds point l-1, the right one r+1.
_SIDES = np.array([[-1], [0]])


def grow_stencils(x, values, intervals, config: InterpConfig) -> Stencils:
    """Grow the stencil of every lane together.

    ``values`` is an ``(n, lines)`` block of values on mesh ``x``, one line
    per column, both validated (by ``as_values`` and ``as_mesh1d``); lane
    k * lines + c is interval ``intervals[k]`` (an integer array) of line
    c.  The block's divided differences go up to order min(d, n-1), so no
    stencil grows past that degree.  Each lane is classified and bounded
    from its line's slopes and endpoint values (under PPI; DBI's scaling
    factors are constants), and marked degenerate where those values are
    equal or its slope is zero.

    A lane stops when neither neighbor is admissible, its window holds d+1
    points, or the mesh ends on both sides.  A degenerate lane is normalized
    by the first expanded window's scaled difference (w) instead of the
    slope; if that window is flat too, or not admissible, the lane falls back
    to the linear piece.  A lane whose forced window is flat (w == 0) can
    only end that way.  When such flat lanes are at least ``SETTLE_SHARE``
    of the block's lanes, they are settled before classification: their
    rows keep the linear piece the record starts from, and the bounds, the
    scaling factors and every step run on the other lanes alone.  Fewer
    flat lanes go through the first step, which takes neither of their
    candidates.

    At step s every growing window spans s+1 intervals, so the two
    candidates of every lane are windows of s+2 intervals, both in order
    s+2 of the divided differences.  The table is never held whole: two
    ``(n, lines)`` slabs hold order s+1 and order s+2, and ``next_order``
    builds order s+2 over the older slab just before step s reads it,
    divided by the window spans that also give the candidates' lengths.
    One ``take`` at each lane's flat offset in the slab (row l of its line)
    reads both candidates' divided differences.  A candidate past either
    mesh end reads NaN, which fails B- <= lambda_bar <= B+, so nothing
    clamps the candidates: past the right end the window starts in the
    slab's NaN tail, and a left candidate at l = 0 wraps to the slab's last
    row, which is never written.  The candidates' lengths and points are
    read with ``take(mode="clip")``: past a mesh end that gives finite
    stand-ins, which the failed test masks off.  The record holds the
    abscissa of each inserted point, the one the next step's position
    ``t`` is computed from, so no index is gathered for it.
    The lanes still growing are compacted only in a step where some lane
    stops.  A degenerate lane left at degree 1 is recorded as the linear
    piece (slope normalization, factors (0, 1)); that rewrite runs only in
    a call where some lane is degenerate.
    """
    n, lines = values.shape
    top = min(config.d, n - 1)
    xb = x[:, None]  # window spans broadcast against the lines
    # order 1 in ``cur``; the slabs' last rows stay NaN
    cur, nxt = np.full((2, n, lines), np.nan)
    next_order(values, xb[1:] - xb[:-1], cur)
    # from a lane's offset to its two candidates: the window start one row
    # left or the same
    sides = _SIDES * lines
    # Flat offset of every lane's window start in a slab (row i of its line)
    pos = ((intervals * lines)[:, None] + np.arange(lines)).ravel()
    u_i, u_ip1, slope = values[intervals].ravel(), values[intervals + 1].ravel(), cur.take(pos)
    degenerate = (u_i == u_ip1) | (slope == 0.0)
    ndeg = np.count_nonzero(degenerate)
    i = intervals.repeat(lines)
    # nodes[j] and coeffs[j] hold insertion j of every lane; the result is
    # their transpose.  Until a step writes them, they hold the linear piece.
    xi, xi1 = x[i], x[i + 1]
    nodes = xi[None].repeat(top + 1, 0)
    nodes[1] = xi1
    h = xi1 - xi
    coeffs = np.zeros(nodes.shape)
    coeffs[0], coeffs[1] = u_i, slope
    lanes = i.size
    live = slice(None)  # selects the lanes that may grow: all of them
    denom, lp, w, dg = slope, np.ones(lanes), 1.0, degenerate  # lp: the product of window lengths
    first = True  # the candidates each lane's first step may take

    span = xb[2:] - xb[:-2]  # order 2's window spans, read by step 0
    cur, nxt = next_order(cur, span, nxt), cur  # ``nxt`` keeps order 1 for the bounds

    if top >= 2 and ndeg:
        # Equal endpoint values: the slope normalization is unusable.  Force
        # the first expansion toward the smaller second divided difference
        # (ties go right) and normalize by that window's scaled difference w.
        # n >= 3 here, so at most one side is past a mesh end (NaN).
        g = degenerate.nonzero()[0]
        dd2 = cur.take(pos[g] + sides)
        left = (abs(dd2[0]) < abs(dd2[1])) | np.isnan(dd2[1])
        wg = np.where(left, dd2[0], dd2[1]) * h[g] * span.take(i[g] - left)
        flat = wg == 0.0  # a flat lane can only end as the linear piece
        nflat = int(np.count_nonzero(flat))  # a Python int compares fast with a float
        if nflat and nflat < SETTLE_SHARE * lanes:
            # too few flat lanes to settle: their first step takes neither
            # side, and any nonzero w will do for them
            left, right, wg = left & ~flat, ~(left | flat), wg + flat
        else:
            if nflat:
                # Settle the flat lanes: their rows of nodes and coeffs
                # already hold the linear piece, and the finish writes the
                # rest of their record.  Every later lane array holds only
                # the other lanes.
                grows = np.ones(lanes, dtype=bool)
                grows[g[flat]] = False
                live = grows.nonzero()[0]
                pos, i, slope, dg = pos[live], i[live], slope[live], degenerate[live]
                u_i, u_ip1, xi, xi1, h = u_i[live], u_ip1[live], xi[live], xi1[live], h[live]
                lp = np.ones(live.size)
                keep = ~flat
                g = (g - flat.cumsum())[keep]  # renumbered among the growing lanes
                left, wg = left[keep], wg[keep]
            right = ~left
        first = np.ones((2, i.size), dtype=bool)
        first[0, g], first[1, g] = left, right
        denom = w = slope.copy()  # w is read only on degenerate lanes
        denom[g] = wg
        lp[g] = h[g]
    u_min = u_max = None
    if config.im != DBI:  # DBI's scaling factors ignore the bounds
        sp, sn = _neighbour_slopes(nxt[:-1], intervals)
        cls = _classify_interval(sp.ravel()[live], slope, sn.ravel()[live])
        u_min, u_max = _interval_bounds(u_i, u_ip1, cls, config.eps0, config.eps1)
        del sp, sn, cls
    m_l, m_r = scaling_factors(u_i, u_ip1, u_min, u_max, config.im, w)  # DBI gives scalars
    del u_i, u_ip1, u_min, u_max  # coeffs[0] keeps u_i

    # The lanes still growing (row numbers) and their state; the first step
    # takes every lane not settled, and m_l, m_r and degenerate are read by
    # it alone.  ``pick`` indexes the flattened (2, lanes) candidates: lane
    # k's left candidate is k, its right one k + lanes.
    ig, dn, l = i, denom, i
    lam, prev, t = 1.0, None, None
    near = np.arange(i.size)  # the lanes' numbers among themselves
    lane = near if i.size == lanes else live  # and their rows
    far = near + i.size
    reach = np.zeros((top, 2, 1), dtype=np.intp)  # candidate points: window start + (0, s+2)
    reach[:, 1, 0] = np.arange(2, top + 2)
    for s in range(top - 1 if i.size else 0):
        cand = l + _SIDES  # the candidates' window starts
        off = pos + sides
        dd = cur.take(off)  # NaN past either mesh end
        length = span.take(cand, mode="clip")
        lam2, bm, bp = lambda_bar_step(dd, length, h, t, lam, prev, lp, dn, m_l, m_r, dg)
        ok = bm <= lam2
        ok &= lam2 <= bp
        if prev is None:
            ok &= first
        xp = x.take(cand + reach[s], mode="clip")
        ok_l, ok_r = ok[0], ok[1]
        # left where only it is admissible, or both are and the policy says
        # so: (sel >= ok_r) is sel | ~ok_r on booleans
        go_left = ok_l & (select_direction(
            config.st, dd, lam2, ig, (l, l + (s + 1)), (xi, xi1), xp
        ) >= ok_r)
        pick = np.where(go_left, near, far)
        grow = ok_l | ok_r
        if np.count_nonzero(grow) < grow.size:  # some lane stops: compact
            keep = grow.nonzero()[0]
            if keep.size == 0:
                break
            pick = pick[keep]
            lane, ig, dn, lp = lane[keep], ig[keep], dn[keep], lp[keep]
            h, xi, xi1 = h[keep], xi[keep], xi1[keep]
            near = np.arange(keep.size)
            far = near + keep.size

        xk = xp.take(pick)  # the inserted points, which the next t reads too
        nodes[s + 2][lane] = xk
        coeffs[s + 2][lane] = dd.take(pick)
        if s == top - 2:
            break
        l, pos = cand.take(pick), off.take(pick)
        lam, prev = lam2.take(pick), (bm.take(pick), bp.take(pick))
        lp = lp * length.take(pick)
        t = (xk - xi) / h
        # Free this step's arrays before the next step builds its own.
        del cand, off, ok, dd, length, lam2, bm, bp, xp, xk
        span = xb[s + 3 :] - xb[: n - s - 3]  # order s+3's, read by step s+1
        cur, nxt = next_order(cur, span, nxt), cur

    degree = (nodes[2:] != nodes[0]).sum(0) + 1  # padding repeats x_i
    if ndeg:  # a degenerate lane left at degree 1 records the linear piece
        if i.size < lanes:  # settled: the growing lanes' fields go to their rows
            rows = np.empty((3, lanes))  # a settled row is rewritten below
            rows[0, live], rows[1, live], rows[2, live] = denom, m_l, m_r
            denom, m_l, m_r = rows
        linear = degenerate & (degree == 1)
        degenerate, denom = degenerate & ~linear, np.where(linear, coeffs[1], denom)
        m_l, m_r = np.where(linear, 0.0, m_l), np.where(linear, 1.0, m_r)
    elif config.im == DBI:  # one factor per lane in the record
        m_l, m_r = np.full(lanes, m_l), np.full(lanes, m_r)
    return Stencils(nodes.T, coeffs.T, degree, degenerate, denom, m_l, m_r)


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


def replay_stencils(x, table, st: Stencils):
    """Recompute (lambda_bar, B-, B+) at every expansion step of every lane
    of ``st``, all lanes in lockstep; every accepted step must satisfy
    B- <= lambda_bar <= B+.

    ``table`` is the column-major ``(width, n, lines)`` block
    ``divided_differences`` builds from the values the stencils were grown
    on, and lane k reads line k % lines.  The windows, length products and
    previous bounds are rebuilt from the recorded nodes, normalization and
    scaling factors alone; one search of the mesh turns the nodes into
    insertion indices.  The padding repeats the interval's left node, so a
    padded step leaves the window unchanged.
    Returns a ``(3, width - 2, lanes)`` array, lambda_bar, B- and B+ of
    step j at ``[:, j - 1]``, with NaN past each lane's degree.
    """
    order = x.searchsorted(st.nodes.T)  # order[j]: insertion j of every lane
    i, l, r = order[0], order[0], order[1]
    line = np.arange(i.size) % table.shape[2]
    h = x[i + 1] - x[i]
    dn = np.where(st.denom == 0.0, 1.0, st.denom)  # a flat linear fallback records 0
    lp = np.where(st.degenerate, h, 1.0)  # the product of window lengths
    lam, prev = 1.0, None
    out = np.empty((3, order.shape[0] - 2, i.size))
    for j in range(1, order.shape[0] - 1):
        l, r = np.minimum(l, order[j + 1]), np.maximum(r, order[j + 1])
        length, t = x[r] - x[l], (x[order[j]] - x[i]) / h
        lam, bm, bp = lambda_bar_step(
            table[r - l, l, line], length, h, t, lam, prev, lp, dn, st.m_l, st.m_r, st.degenerate
        )
        out[:, j - 1] = lam, bm, bp
        prev, lp = (bm, bp), lp * length
    out[:, np.arange(1, out.shape[1] + 1)[:, None] >= st.degree] = np.nan
    return out


def replay_chain(piece: IntervalInterpolant, table: DividedDifferenceTable, mesh):
    """Recompute (lambda_bar_j, B-_j, B+_j) along one accepted stencil:
    ``replay_stencils`` on a one-lane record of ``piece``, whose nodes are
    the mesh values at its insertion order, on the mesh as ``as_mesh1d``
    checks it.

    Returns one (j, lambda_bar, b_minus, b_plus) tuple of floats per
    expansion; every accepted step must satisfy B- <= lambda_bar <= B+.
    The piece's window must fit the mesh, and the table must hold one row
    per mesh point and an order above the piece's degree.
    """
    x = as_mesh1d(mesh)
    fields = (_piece_nodes(piece, x), piece.coefficients, piece.degree,
              piece.normalization == "degenerate", piece.denom, piece.m_l, piece.m_r)
    shape = table.entries.shape  # (mesh points, orders)
    if shape[0] != x.size or shape[1] <= piece.degree:
        raise ValueError(f"table of shape {shape} does not fit {x.size} mesh points and degree {piece.degree}")
    one = Stencils(*(np.array([f]) for f in fields))
    out = replay_stencils(x, table.entries.T[..., None], one)
    return [(j, *step) for j, step in enumerate(out[..., 0].T.tolist(), 1)]
