"""Newton divided differences: table construction, per-interval interpolants,
and nested (Horner-like) evaluation."""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite

import numpy as np

from .config import _is_integer

__all__ = [
    "as_mesh1d",
    "as_values",
    "DividedDifferenceTable",
    "build_table",
    "divided_differences",
    "next_order",
    "IntervalInterpolant",
    "horner",
    "newton_eval",
]


_FLOAT = np.dtype(float)


def _as_float(data, what: str) -> np.ndarray:
    """``data`` as a float64 array, which passes with one dtype test.
    Complex data raise: converting them would keep only the real part."""
    a = np.asarray(data)
    if a.dtype is not _FLOAT:
        if a.dtype.kind == "c":
            raise ValueError(f"{what} must be real, got dtype {a.dtype}")
        a = a.astype(float)
    return a


def _finite(data, what: str) -> np.ndarray:
    """``data`` as ``_as_float`` gives it, which must be finite."""
    a = _as_float(data, what)
    if np.count_nonzero(np.isfinite(a)) < a.size:
        raise ValueError(f"{what} must be finite")
    return a


def _check_range(pts: np.ndarray, mesh: np.ndarray):
    """Raise ``ValueError`` naming the first of the finite ``pts`` that lies
    outside [mesh[0], mesh[-1]]; there is no extrapolation."""
    bad = pts[(pts < mesh[0]) | (pts > mesh[-1])]
    if bad.size:
        raise ValueError(f"output point {float(bad[0])} outside the mesh range [{mesh[0]}, {mesh[-1]}]")


def as_mesh1d(points) -> np.ndarray:
    """Validate and return a 1D mesh as a float array.

    The mesh must hold at least two real, finite, strictly increasing
    coordinates.
    A strictly increasing mesh with finite ends is finite throughout (a NaN
    fails the increase), so the whole mesh is scanned for finiteness only
    once that test has failed, and a non-finite mesh is reported as such.
    """
    x = _as_float(points, "mesh coordinates")
    if x.ndim != 1:
        raise ValueError(f"mesh must be one-dimensional, got shape {x.shape}")
    if x.size < 2:
        raise ValueError(f"mesh needs at least 2 points, got {x.size}")
    if np.count_nonzero(x[1:] > x[:-1]) < x.size - 1 or not isfinite(x[0]) or not isfinite(x[-1]):
        if np.count_nonzero(np.isfinite(x)) < x.size:
            raise ValueError("mesh coordinates must be finite")
        raise ValueError("mesh coordinates must be strictly increasing")
    return x


def as_values(values, shape: tuple[int, ...]) -> np.ndarray:
    """Validate and return the values on a mesh (or a grid of meshes) as a
    float array: they must be real, have ``shape`` and be finite."""
    u = _as_float(values, "values")
    if u.shape != shape:
        raise ValueError(f"values shape {u.shape} does not match mesh shape {shape}")
    if np.count_nonzero(np.isfinite(u)) < u.size:
        raise ValueError("values must be finite")
    return u


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
    ``insertion_order`` records how the stencil grew, starting (i, i+1).
    ``coefficients[j]`` is the divided difference of the window after j
    insertions, so evaluation nests the products over ``insertion_order``.

    ``normalization`` / ``denom`` / ``m_l`` / ``m_r`` record how the stencil
    growth was normalized and bounded, so an accepted stencil can be replayed
    and re-checked after the fact.  The coefficients, ``m_l`` and ``m_r``
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
    be padded with +0 coefficients, as ``grow_stencils`` pads its records:
    past the degree p stays +0, and c_deg + (+-0) is c_deg, so the padded
    row gives the trimmed row's result bit for bit.  (A zero result could
    change sign only on a row of all-zero coefficients; the engine makes
    those at degree 1 alone, where it does not.)  Column-major ``coeffs``
    and ``nodes`` (the layout ``grow_stencils`` returns) make each column
    one contiguous row to expand, and a ``Stencils`` record's ``nodes``,
    padded past each degree with the interval's left node, are read as
    they are, with no gather from the mesh.
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
