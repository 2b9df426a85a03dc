"""The Newton form and the adaptive stencils it is built on, for many
intervals at once, with every reader of their record.

The Newton form comes first, since everything below reads it: the
divided-difference recursion (``next_order``) and its tables, the
per-interval pieces (``IntervalInterpolant``) and nested evaluation
(``horner``, ``newton_eval``).

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
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .config import DBI, InterpConfig, _as_float, _check_eps, _check_range, _finite, _is_integer, as_mesh1d, as_values

__all__ = [
    "DividedDifferenceTable",
    "build_table",
    "divided_differences",
    "next_order",
    "IntervalInterpolant",
    "horner",
    "newton_eval",
    "ExtremumClass",
    "boundary_sigmas",
    "classify_interval",
    "interval_bounds",
    "scaling_factors",
    "lambda_bar_step",
    "select_direction",
    "Stencils",
    "grow_stencils",
    "interpolate_lines",
    "interval_interpolants",
    "replay_stencils",
    "replay_chain",
]


@dataclass(frozen=True)
class DividedDifferenceTable:
    """Dense table of divided differences over one mesh and one line of values.

    ``entries[i, j]`` holds the order-j divided difference of the values over
    mesh points i..i+j.  Entries with i + j >= n do not exist and are stored
    as NaN, so a read past either mesh end gives NaN, never a number.
    ``entries`` is the transpose of the column-major array
    ``divided_differences`` builds.
    """

    entries: np.ndarray


def build_table(mesh, values, max_degree: int) -> DividedDifferenceTable:
    """Build all divided differences of order 0..min(max_degree, n-1) of one
    line of values, one value per mesh point."""
    x = as_mesh1d(mesh)
    u = as_values(values, x.shape)
    if not _is_integer(max_degree) or max_degree < 1:
        raise ValueError(f"max_degree must be an integer >= 1, got {max_degree!r}")
    return DividedDifferenceTable(entries=divided_differences(x, u, max_degree).T)


def divided_differences(x: np.ndarray, u: np.ndarray, max_degree: int) -> np.ndarray:
    """``build_table``'s entries without its checks, for inputs already
    validated: ``x`` by ``as_mesh1d``, ``u`` by ``as_values`` and
    ``max_degree`` >= 1.  ``u`` may also be an ``(n, lines)`` block, one line
    per column; every line shares the recursion.

    The table is column-major: ``t[j, i]`` (``t[j, i, line]`` for a block)
    is the order-j divided difference over mesh points i..i+j, for j up to
    ``top`` = min(max_degree, n-1), so each order is one contiguous slab of
    shape ``u.shape``, built from the one below by ``next_order``.  Entries
    with i + j >= n are NaN.
    """
    n = x.size
    top = min(max_degree, n - 1)
    t = np.full((top + 1,) + u.shape, np.nan)
    t[0] = u
    xb = x.reshape((n,) + (1,) * (u.ndim - 1))  # broadcasts against the lines
    for j in range(1, top + 1):
        next_order(t[j - 1], xb[j:] - xb[: n - j], t[j])
    return t


def next_order(prev: np.ndarray, span: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the divided differences one order above ``prev`` into ``out``
    and return ``out``: the one place the recursion is written.

    ``prev`` holds order j-1 over the n mesh points (rows, with lines as
    columns), NaN wherever the order does not exist, and ``span`` the
    window spans x[i+j] - x[i] of order j, shaped to broadcast against
    ``out[:n-j]``.  Every row but ``out``'s last is written: the difference
    of two rows of ``prev`` carries its NaN tail up one order, so rows
    n-j..n-2 come out NaN without a mask, and only the n-j rows that exist
    are divided.  ``out``'s last row is never written, so it stays NaN if it
    was.  The stencil engine keeps two such slabs and builds each order in
    the step that reads it; a read past either mesh end gives NaN there,
    which no admissibility test accepts.
    """
    np.subtract(prev[1:], prev[:-1], out[:-1])
    out[: span.shape[0]] /= span
    return out


@dataclass(frozen=True)
class IntervalInterpolant:
    """Newton-form interpolant for one mesh interval [x_i, x_{i+1}].

    ``window`` is the inclusive (l, r) mesh-index span of the stencil and
    ``insertion_order`` records how the stencil grew, starting (i, i+1); the
    three hold integers (numpy integers included, bools and floats not).
    ``coefficients[j]`` is the divided difference of the window after j
    insertions, so evaluation nests the products over ``insertion_order``.

    ``normalization`` / ``denom`` / ``m_l`` / ``m_r`` record how the stencil
    growth was normalized and bounded, so an accepted stencil can be replayed
    and re-checked after the fact; ``normalization`` is "standard" or
    "degenerate", and nothing else.  The coefficients, ``m_l`` and ``m_r``
    must be real and finite; ``denom`` may be left NaN for a piece that is
    only evaluated, and ``replay_chain`` checks it.
    """

    interval_index: int
    window: tuple[int, int]
    insertion_order: tuple[int, ...]
    coefficients: tuple[float, ...]
    normalization: str = "standard"  # "standard" (slope) or "degenerate" (w)
    denom: float = field(default=np.nan)
    m_l: float = 0.0
    m_r: float = 1.0

    @property
    def degree(self) -> int:
        return self.window[1] - self.window[0]

    def __post_init__(self):
        if self.normalization not in ("standard", "degenerate"):
            raise ValueError(f"normalization must be 'standard' or 'degenerate', got {self.normalization!r}")
        if not all(map(_is_integer, (self.interval_index, *self.window, *self.insertion_order))):
            raise ValueError("interval index, window and insertion order must hold integers")
        l, r = self.window
        i = self.interval_index
        if not (l <= i < i + 1 <= r):
            raise ValueError(f"window {self.window} does not contain interval {i}")
        if len(self.insertion_order) != r - l + 1 or len(self.coefficients) != r - l + 1:
            raise ValueError("insertion order / coefficients must cover the window")
        if self.insertion_order[0] != i or self.insertion_order[1] != i + 1:
            raise ValueError("insertion order must start with (i, i+1)")
        if sorted(self.insertion_order) != list(range(l, r + 1)):
            raise ValueError("insertion order must be a permutation of the window")
        _finite((*self.coefficients, self.m_l, self.m_r), "piece coefficients, m_l and m_r")


def horner(coeffs, nodes, runs, points):
    """Evaluate many Newton-form polynomials at once by nested multiplication.

    Row k of ``coeffs`` and ``nodes`` holds the coefficients and node
    abscissae of polynomial k.  The rows come in ``runs.size`` groups of
    equal size, in order, and the 1D ``points`` in runs of the lengths
    ``runs`` holds: every point of run r is evaluated on every polynomial
    of group r.  ``runs`` holds at least one group.  The result has shape
    ``(points.size, rows per group)``.  Each column j is expanded to the
    points by repeating group r's entries ``runs[r]`` times.  Every point
    runs c_j + (x - x_j) * p over every column, accumulated in place in
    the expansion of the last column, so the result is a new array and the
    inputs are only read.  There is no mask, so a row of lower degree must
    be padded as a ``Stencils`` record is.  Column-major ``coeffs`` and
    ``nodes`` (the layout ``grow_stencils`` returns) make each column one
    contiguous row to expand, and a record's ``nodes`` are read as they
    are, with no gather from the mesh.
    """
    groups = runs.size
    shape = (coeffs.shape[1], groups, coeffs.shape[0] // groups)
    c, xn = coeffs.T.reshape(shape), nodes.T.reshape(shape)  # [j, group, row]
    col = points[:, None]
    # the axis goes by position: numpy's keyword parsing costs more than
    # the copy itself on small calls
    p = c[-1].repeat(runs, 0)
    for j in range(shape[0] - 2, -1, -1):
        q = xn[j].repeat(runs, 0)
        np.subtract(col, q, q)
        p *= q
        p += c[j].repeat(runs, 0)
    return p


def _piece_nodes(piece: IntervalInterpolant, x: np.ndarray) -> np.ndarray:
    """The abscissae of ``piece``'s insertion order on the validated mesh
    ``x``; a window that reaches past either end of the mesh raises."""
    if piece.window[0] < 0 or piece.window[1] >= x.size:
        raise ValueError(f"piece window {piece.window} does not fit a mesh of {x.size} points")
    return x.take(piece.insertion_order)


def newton_eval(piece: IntervalInterpolant, mesh, x):
    """Evaluate the Newton-form interpolant at ``x`` (scalar or array).

    Nested multiplication over the insertion order: the result is
    c_0 + (x - x_e0)(c_1 + (x - x_e1)(c_2 + ...)), computed by ``horner``
    with every point in one run.  The mesh is checked as ``as_mesh1d``
    checks it, and the points must be real, finite and in [mesh[0],
    mesh[-1]], as the entry points take them, so no input is cut to its
    real part, gives a silent NaN or is extrapolated.  A piece whose window
    does not fit the mesh raises.
    """
    xs = as_mesh1d(mesh)
    xv = _finite(x, "output points")
    _check_range(xv, xs)
    p = horner(
        np.array([piece.coefficients], dtype=float),
        _piece_nodes(piece, xs)[None],
        np.array([xv.size]),
        xv.reshape(-1),
    )
    return float(p[0, 0]) if xv.ndim == 0 else p.reshape(xv.shape)


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


def boundary_sigmas(slopes, i):
    """Slopes (sigma_{i-1}, sigma_i, sigma_{i+1}) around interval ``i``.

    ``slopes`` holds the order-1 divided differences of the n-1 intervals
    (along axis 0; further axes are lines), which must be finite; ``i`` must
    be an integer in [0, n-2].  The neighbors come from
    ``_neighbour_slopes``, whose rule covers the mesh boundary.
    """
    s = _finite(slopes, "slopes")
    if s.ndim == 0:
        raise ValueError("slopes must be an array with one slope per interval, got a scalar")
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
    # LOCAL_MAX (1) or LOCAL_MIN (2) by the entry sign; else AMBIGUOUS (3) or NONE (0)
    cls = np.where(outer, 2 - (sign_prev < 0.0), 3 * inner)
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
    # row 0 takes eps1 on bit LOCAL_MAX of classes 0-3, row 1 on bit LOCAL_MIN
    eps = np.where([[False, True, False, True], [False, False, True, True]], eps1, eps0).take(cls, 1)
    return lo - eps[0] * abs(lo), hi + eps[1] * abs(hi)


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
    are equal.  The endpoint values must be finite: equal ones are found as
    a zero difference, and a zero denominator can only come from w.
    """
    if method == DBI:
        return 0.0, 1.0

    den, floor = u_ip1 - u_i, 1.0
    equal = den == 0.0  # finite values differ by zero only where they are equal
    if np.count_nonzero(equal):
        if degenerate_w is None:
            raise ValueError("equal endpoint values require degenerate_w")
        den, floor = np.where(equal, degenerate_w, den), np.where(equal, 0.0, 1.0)
        if np.count_nonzero(den == 0.0):  # only w can be zero
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
    ``degenerate``); ``m_l`` and ``m_r`` are the scaling factors.  The engine
    passes the left and right candidates of every lane as ``(2, lanes)``
    arrays against per-lane state, so each per-lane term is computed once
    for both.

    The bounds pair the grown window's length over ``h``, d_j, with the
    position ``t`` (the factor multiplying lambda_j in the nested form; t <= 0
    left of the interval, t >= 1 right of it).  The first step seeds the
    recursion from (m_l, m_r); later steps propagate the previous bounds,
    swapping sides when that point lies to the right (t > 0).  With equal
    endpoint values (``degenerate``) the interpolant has no linear term, so
    the quadratic shape s(s-1)*lambda_1/d_1 alone must fit between m_l and
    m_r; since s(s-1) spans [-1/4, 0] the seed tightens to (-4*m_r*d_1,
    -4*m_l*d_1).
    """
    lam = dd / denom * length_product * length
    d_j = length / h
    if prev is None:
        bm, bp = -4.0 * (m_r - 1.0) - 1.0, -4.0 * m_l + 1.0
        if np.count_nonzero(degenerate):
            bm, bp = np.where(degenerate, -4.0 * m_r, bm), np.where(degenerate, -4.0 * m_l, bp)
        return lam, bm * d_j, bp * d_j
    bm, bp = prev
    left = t <= 0.0
    f = d_j / (left - t)  # 1 - t on the left, -t on the right
    return lam, (np.where(left, bm, bp) - lambda_bar_prev) * f, (np.where(left, bp, bm) - lambda_bar_prev) * f


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
    ``coeffs`` with +0, and ``horner`` relies on that padding to evaluate
    every column with no mask: past the degree its running value p stays
    +0, and c_deg + (+-0) is c_deg, so a padded row gives the trimmed row's
    result bit for bit.  (A zero result could change sign only on a row of
    all-zero coefficients; the engine makes those at degree 1 alone, where
    it does not.)  Every entry of ``nodes`` is a mesh value, so
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
    # order 1 in ``cur``; the slabs' last rows are never written and stay NaN
    slabs = np.empty((2, n, lines))
    slabs[:, -1] = np.nan
    cur, nxt = slabs[0], slabs[1]
    next_order(values, xb[1:] - xb[:-1], cur)
    # from a lane's offset to its two candidates: the window start one row
    # left or the same
    sides = _SIDES * lines
    # Flat offset of every lane's window start in a slab (row i of its line)
    pos = np.arange(n * lines).reshape(n, lines).take(intervals, 0).ravel()
    u = values.ravel()  # at a lane's offset its u_i, one row (lines) on its u_{i+1}
    u_i, u_ip1, slope = u.take(pos), u.take(pos + lines), cur.take(pos)
    degenerate = slope == 0.0  # equal endpoint values give a slope of +-0 too
    ndeg = np.count_nonzero(degenerate)
    i = intervals.repeat(lines)
    # nodes[j] and coeffs[j] hold insertion j of every lane; the result is
    # their transpose.  Until a step writes them, they hold the linear piece.
    xi, xi1 = x.take(i), x[1:].take(i)
    nodes = xi[None].repeat(top + 1, 0)
    nodes[1] = xi1
    h = xi1 - xi
    coeffs = np.zeros(nodes.shape)
    coeffs[0], coeffs[1] = u_i, slope
    lanes = i.size
    live = slice(None)  # selects the lanes that may grow: all of them
    denom, lp, w, dg = slope, np.empty(lanes), 1.0, degenerate  # lp: the product of window lengths
    lp.fill(1.0)  # empty and fill take a third of the time of np.ones
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
    both = np.arange(2 * i.size).reshape(2, -1)  # one arange for near and far
    near, far = both[0], both[1]  # the lanes' numbers among themselves, plus i.size
    lane = near if i.size == lanes else live  # and their rows
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

    degree = (nodes != nodes[0]).sum(0)  # nodes[1] is x_{i+1}; padding repeats x_i
    if ndeg:  # a degenerate lane left at degree 1 records the linear piece
        if i.size < lanes:  # settled: the growing lanes' fields go to their rows
            rows = np.empty((3, lanes))  # a settled row is rewritten below
            rows[0, live], rows[1, live], rows[2, live] = denom, m_l, m_r
            denom, m_l, m_r = rows
        linear = degenerate & (degree == 1)
        # linear lanes are degenerate ones, so ^ clears them
        degenerate, denom = degenerate ^ linear, np.where(linear, coeffs[1], denom)
        m_l, m_r = np.where(linear, 0.0, m_l), np.where(linear, 1.0, m_r)
    elif config.im == DBI:  # one factor per lane in the record
        m_l, m_r = np.full(lanes, m_l), np.full(lanes, m_r)
    return Stencils(nodes.T, coeffs.T, degree, degenerate, denom, m_l, m_r)


def interpolate_lines(x, lines, pts, runs, node, hits, config: InterpConfig) -> np.ndarray:
    """Interpolate every column of the ``(n, m)`` block ``lines``, values on
    mesh ``x``, to the points ``pts``; returns the ``(pts.size, m)`` block.

    The inputs must already be validated, by ``as_mesh1d`` and
    ``as_values``, and the points validated and located by
    ``interpnd.locate``, which gives the sorted ``pts`` (at least one), the
    ``runs`` of points per interval, and the ``hits`` points equal to each
    node at the positions ``node``.  Each output point belongs to the
    half-open interval [x_i, x_{i+1}) that contains it (the last interval
    is closed on the right), and a point equal to a mesh node returns the
    line's value there, so every node, x[-1] and signed zeros included, is
    reproduced bit for bit.  Nothing is searched here.

    Only the intervals with a nonempty run grow a stencil, and ``horner``
    evaluates each one's polynomials on its run.
    """
    intervals = runs.nonzero()[0]
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
    The piece's window must fit the mesh, the table's entries must be a
    real 2-D array with one row per mesh point and an order above the
    piece's degree, and the entries the piece reads and its ``denom`` must
    be finite, since every step reads the one and divides by the other.
    """
    x = as_mesh1d(mesh)
    entries = _as_float(table.entries, "table entries")
    fields = (_piece_nodes(piece, x), piece.coefficients, piece.degree,
              piece.normalization == "degenerate", piece.denom, piece.m_l, piece.m_r)
    shape = entries.shape  # (mesh points, orders)
    if entries.ndim != 2 or shape[0] != x.size or shape[1] <= piece.degree:
        raise ValueError(f"table of shape {shape} does not fit {x.size} mesh points and degree {piece.degree}")
    _finite(piece.denom, "piece denom")
    one = Stencils(*(np.array([f]) for f in fields))
    out = replay_stencils(x, entries.T[..., None], one)
    _finite(out[:, : piece.degree - 1], "table entries the piece reads")
    return [(j, *step) for j, step in enumerate(out[..., 0].T.tolist(), 1)]
