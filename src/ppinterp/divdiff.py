"""Newton divided differences: table construction, per-interval interpolants,
and nested (Horner-like) evaluation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "as_mesh1d",
    "as_values",
    "DividedDifferenceTable",
    "build_table",
    "IntervalInterpolant",
    "horner",
    "newton_eval",
]


def as_mesh1d(points) -> np.ndarray:
    """Validate and return a 1D mesh as a float array.

    The mesh must hold at least two finite, strictly increasing coordinates.
    """
    x = np.asarray(points, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"mesh must be one-dimensional, got shape {x.shape}")
    if x.size < 2:
        raise ValueError(f"mesh needs at least 2 points, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise ValueError("mesh coordinates must be finite")
    if not np.all(np.diff(x) > 0.0):
        raise ValueError("mesh coordinates must be strictly increasing")
    return x


def as_values(values, shape: tuple[int, ...]) -> np.ndarray:
    """Validate and return the values on a mesh (or a grid of meshes) as a
    float array: they must have ``shape`` and be finite."""
    u = np.asarray(values, dtype=float)
    if u.shape != shape:
        raise ValueError(f"values shape {u.shape} does not match mesh shape {shape}")
    if not np.all(np.isfinite(u)):
        raise ValueError("values must be finite")
    return u


@dataclass(frozen=True)
class DividedDifferenceTable:
    """Dense table of divided differences over one mesh and its values.

    ``entries[i, j]`` holds the order-j divided difference of the values over
    mesh points i..i+j; with several lines of values (one per column) it is
    ``entries[i, j, line]``.  Entries with i + j >= n_points do not exist and
    are stored as NaN so that accidental reads surface loudly.
    """

    entries: np.ndarray
    n_points: int
    max_order: int


def build_table(mesh, values, max_degree: int) -> DividedDifferenceTable:
    """Build all divided differences of order 0..min(max_degree, n-1).

    ``values`` holds one value per mesh point, or an ``(n, lines)`` block
    with one line of values per column; every line shares the recursion."""
    x = as_mesh1d(mesh)
    u = np.asarray(values, dtype=float)
    u = as_values(u, x.shape + u.shape[1:])
    if max_degree < 1:
        raise ValueError(f"max_degree must be >= 1, got {max_degree}")

    n = x.size
    top = min(max_degree, n - 1)
    t = np.full((n, top + 1) + u.shape[1:], np.nan)
    t[:, 0] = u
    xb = x.reshape((n,) + (1,) * (u.ndim - 1))  # broadcasts against the lines
    for j in range(1, top + 1):
        t[: n - j, j] = (t[1 : n - j + 1, j - 1] - t[: n - j, j - 1]) / (xb[j:] - xb[: n - j])
    return DividedDifferenceTable(entries=t, n_points=n, max_order=top)


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


def horner(coeffs, nodes, degree, lane, points):
    """Evaluate many Newton-form polynomials at once by nested multiplication.

    Row k of ``coeffs`` and ``nodes`` holds the coefficients and node
    abscissae of polynomial k (padded past ``degree[k]``); point m is
    evaluated on polynomial ``lane[m]``.  Each point sees exactly the
    arithmetic of c_0 + (x - x_0)(c_1 + (x - x_1)(c_2 + ...)).
    """
    deg = degree[lane]
    p = coeffs[lane, deg]
    for j in range(coeffs.shape[1] - 2, -1, -1):
        p = np.where(j < deg, coeffs[lane, j] + (points - nodes[lane, j]) * p, p)
    return p


def newton_eval(piece: IntervalInterpolant, mesh, x):
    """Evaluate the Newton-form interpolant at ``x`` (scalar or array).

    Nested multiplication over the insertion order: the result is
    c_0 + (x - x_e0)(c_1 + (x - x_e1)(c_2 + ...)).
    """
    xs = np.asarray(mesh, dtype=float)
    xv = np.asarray(x, dtype=float)
    flat = xv.reshape(-1)
    p = horner(
        np.array([piece.coefficients], dtype=float),
        xs[[piece.insertion_order]],
        np.array([piece.degree]),
        np.zeros(flat.size, dtype=np.intp),
        flat,
    )
    return float(p[0]) if xv.ndim == 0 else p.reshape(xv.shape)
