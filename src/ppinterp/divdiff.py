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
    "IntervalInterpolant",
    "horner",
    "newton_eval",
]


def as_mesh1d(points) -> np.ndarray:
    """Validate and return a 1D mesh as a float array.

    The mesh must hold at least two finite, strictly increasing coordinates.
    A strictly increasing mesh with finite ends is finite throughout (a NaN
    fails the increase), so the whole mesh is scanned for finiteness only
    once that test has failed, and a non-finite mesh is reported as such.
    """
    x = np.asarray(points, dtype=float)
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
    float array: they must have ``shape`` and be finite."""
    u = np.asarray(values, dtype=float)
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
    shape ``u.shape``.  Entries with i + j >= n are NaN.  The stencil engine
    reads the table by flat offsets and relies on that NaN: a candidate
    window past either mesh end reads NaN, which no admissibility test
    accepts.
    """
    n = x.size
    top = min(max_degree, n - 1)
    t = np.full((top + 1,) + u.shape, np.nan)
    t[0] = u
    xb = x.reshape((n,) + (1,) * (u.ndim - 1))  # broadcasts against the lines
    for j in range(1, top + 1):
        row = t[j, : n - j]
        np.subtract(t[j - 1, 1 : n - j + 1], t[j - 1, : n - j], row)
        row /= xb[j:] - xb[: n - j]
    return t


@dataclass(frozen=True)
class IntervalInterpolant:
    """Newton-form interpolant for one mesh interval [x_i, x_{i+1}].

    ``window`` is the inclusive (l, r) mesh-index span of the stencil and
    ``insertion_order`` records how the stencil grew, starting (i, i+1).
    ``coefficients[j]`` is the divided difference of the window after j
    insertions, so evaluation nests the products over ``insertion_order``.

    ``normalization`` / ``denom`` / ``m_l`` / ``m_r`` record how the stencil
    growth was normalized and bounded, so an accepted stencil can be replayed
    and re-checked after the fact.
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


def horner(coeffs, nodes, runs, points):
    """Evaluate many Newton-form polynomials at once by nested multiplication.

    Row k of ``coeffs`` and ``nodes`` holds the coefficients and node
    abscissae of polynomial k.  The rows come in ``runs.size`` groups of
    equal size, in order, and the 1D ``points`` in runs of the lengths
    ``runs`` holds: every point of run r is evaluated on every polynomial
    of group r.  The result has shape ``(points.size, rows per group)``.
    Each column j is expanded to the points by repeating group r's entries
    ``runs[r]`` times.  Every point runs c_j + (x - x_j) * p over every
    column, with no mask, so a row of lower degree must be padded with +0
    coefficients, as ``grow_stencils`` pads its records: past the degree p
    stays +0, and c_deg + (+-0) is c_deg, so the padded row gives the
    trimmed row's result bit for bit.  (A zero result could change sign
    only on a row of all-zero coefficients; the engine makes those at
    degree 1 alone, where it does not.)  Column-major ``coeffs`` and
    ``nodes`` (the layout ``grow_stencils`` returns) make each column one
    contiguous row to expand.
    """
    groups = runs.size
    shape = (coeffs.shape[1], groups, coeffs.shape[0] // groups if groups else 0)
    c, xn = coeffs.T.reshape(shape), nodes.T.reshape(shape)  # [j, group, row]
    col = points[:, None]
    # the axis goes by position: numpy's keyword parsing costs more than
    # the copy itself on small calls
    p = c[-1].repeat(runs, 0)
    for j in range(shape[0] - 2, -1, -1):
        q = col - xn[j].repeat(runs, 0)
        q *= p
        q += c[j].repeat(runs, 0)
        p = q
    return p


def newton_eval(piece: IntervalInterpolant, mesh, x):
    """Evaluate the Newton-form interpolant at ``x`` (scalar or array).

    Nested multiplication over the insertion order: the result is
    c_0 + (x - x_e0)(c_1 + (x - x_e1)(c_2 + ...)), computed by ``horner``
    with every point in one run.
    """
    xs = np.asarray(mesh, dtype=float)
    xv = np.asarray(x, dtype=float)
    p = horner(
        np.array([piece.coefficients], dtype=float),
        xs[[piece.insertion_order]],
        np.array([xv.size]),
        xv.reshape(-1),
    )
    return float(p[0, 0]) if xv.ndim == 0 else p.reshape(xv.shape)
