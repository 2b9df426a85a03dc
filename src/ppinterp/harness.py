"""Experiment layer: the analytic test functions (f1-f3 in 1D, f4-f6 in
2D), the error norms and mesh refinement they are measured with, the error
sweeps behind the published tables and the mesh-to-mesh round-trip studies,
emitted as CSV.

The CLI is its front end.  The interpolation core imports nothing from
here, so ``import ppinterp`` does not load it.  The norms take their arrays
through the core's validators, so complex, NaN or infinite input raises
``ValueError`` instead of giving a wrong number."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import DBI, PPI, InterpConfig, _is_integer, as_mesh1d, as_values
from .interpnd import adaptive_interpolation_1d, adaptive_interpolation_2d
from .pchip import pchip_1d, pchip_2d

__all__ = [
    "TestFunction", "TEST_FUNCTIONS",  # the analytic test functions
    "l2_error_continuum", "l2_error_grid", "refine_mesh",  # norms and meshes
    "DENSE_1D",
    "DENSE_2D",
    "ExperimentSpec",
    "METHODS",
    "approximation_error",
    "roundtrip_error",
    "run_experiments",
    "table_sweep",
    "format_rows",
    "CSV_HEADER",
]


def _f1(x):
    return 0.1 / (0.1 + 25.0 * x**2)


def _f2(x):
    return 1.0 / (1.0 + np.exp(-200.0 * x))


def _f3(x):
    x = np.asarray(x, dtype=float)
    left = 1.0 + (2.0 * np.exp(2.0 * np.pi * x) - 1.0 - np.exp(np.pi)) / (np.exp(np.pi) - 1.0)
    right = 1.0 - np.sin(2.0 * np.pi * x / 3.0 + np.pi / 3.0)
    return np.where(x < -0.5, left, right)


def _f4(x, y):
    return 0.1 / (0.1 + 25.0 * (x**2 + y**2))


def _f5(x, y):
    return 1.0 / (1.0 + np.exp(-np.sqrt(2.0) * 100.0 * (x + y)))


def _f6(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    diag = y - x
    r2 = (x - 1.5) ** 2 + (y - 0.5) ** 2
    # First matching branch wins.
    return np.select(
        [(diag >= 0.0) & (diag <= 0.5), diag >= 0.5, r2 <= 1.0 / 16.0],
        [2.0 * diag, np.ones_like(diag), np.cos(4.0 * np.pi * np.sqrt(r2))],
        default=0.0,
    )


@dataclass(frozen=True)
class TestFunction:
    """One analytic test case: callable plus its dimensionality and domain."""

    name: str
    ndim: int
    domain: tuple[tuple[float, float], ...]
    func: Callable

    def sample(self, *meshes):
        """Evaluate on tensor-product meshes (1 mesh per dimension)."""
        if len(meshes) != self.ndim:
            raise ValueError(f"{self.name} needs {self.ndim} mesh(es), got {len(meshes)}")
        return self.func(*np.meshgrid(*meshes, indexing="ij"))


TEST_FUNCTIONS: dict[str, TestFunction] = {
    "f1": TestFunction("f1", 1, ((-1.0, 1.0),), _f1),
    "f2": TestFunction("f2", 1, ((-0.2, 0.2),), _f2),
    "f3": TestFunction("f3", 1, ((-1.0, 1.0),), _f3),
    "f4": TestFunction("f4", 2, ((-1.0, 1.0), (-1.0, 1.0)), _f4),
    "f5": TestFunction("f5", 2, ((-0.2, 0.2), (-0.2, 0.2)), _f5),
    "f6": TestFunction("f6", 2, ((0.0, 2.0), (0.0, 2.0)), _f6),
}


def l2_error_continuum(approx_values, exact_values, *meshes) -> float:
    """Trapezoidal-rule approximation of the continuous L2 difference norm.

    ``meshes`` are the dense sampling grids of the axes the two value arrays
    live on (one per axis); the rule is applied per axis, last axis first.
    """
    grids = [as_mesh1d(m) for m in meshes]
    shape = tuple(g.size for g in grids)
    sq = (as_values(approx_values, shape) - as_values(exact_values, shape)) ** 2
    for g in reversed(grids):
        sq = np.trapezoid(sq, g, axis=-1)
    return float(np.sqrt(sq))


def l2_error_grid(a, b) -> float:
    """Root-mean-square difference over grid points.

    The mean (rather than plain sum) keeps values comparable across grid
    resolutions.
    """
    av, bv = (as_values(v, np.shape(v)) for v in (a, b))
    if av.shape != bv.shape:
        raise ValueError(f"length mismatch: {av.shape} vs {bv.shape}")
    return float(np.sqrt(np.mean((av - bv) ** 2)))


def refine_mesh(mesh, k: int) -> np.ndarray:
    """Insert ``k`` equally spaced interior points in every interval.

    Original points are preserved exactly; N points become N + k(N-1).
    """
    x = as_mesh1d(mesh)
    if not _is_integer(k) or k < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k!r}")
    n = x.size
    out = np.empty(n + k * (n - 1))
    out[:: k + 1] = x
    delta = np.diff(x)
    for m in range(1, k + 1):
        out[m :: k + 1] = x[:-1] + delta * (m / (k + 1))
    return out


# Dense uniform sampling used for the continuum error norms.
DENSE_1D = 10_000
DENSE_2D = 1_000

# Method name -> InterpConfig.im; PCHIP has no im and ignores st/eps.
METHODS = {"dbi": DBI, "ppi": PPI, "pchip": None}

CSV_HEADER = "N,method,degree,st,eps0,eps1,l2"


@dataclass(frozen=True)
class ExperimentSpec:
    """One cell of an experiment sweep."""

    fn: str
    n: int
    method: str  # a key of METHODS
    degree: int
    st: int = InterpConfig.st
    eps0: float = InterpConfig.eps0
    eps1: float = InterpConfig.eps1
    kind: str = "approx"  # "approx" | "roundtrip"
    refine: int = 0

    def __post_init__(self):
        if self.fn not in TEST_FUNCTIONS:
            raise ValueError(f"unknown test function {self.fn!r}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        # the degree/st/eps rule does not depend on im, so PCHIP rows are
        # held to it too (checked as DBI) although PCHIP ignores st and eps
        InterpConfig(self.degree, METHODS[self.method] or DBI, self.st, self.eps0, self.eps1)
        if self.kind not in ("approx", "roundtrip"):
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if not _is_integer(self.n) or self.n < 2:
            raise ValueError(f"n must be an integer, at least 2, got {self.n!r}")
        if not _is_integer(self.refine) or self.refine < 0:
            raise ValueError(f"refine must be a nonnegative integer, got {self.refine!r}")
        if self.refine != 0 and self.kind != "roundtrip":
            raise ValueError(f"refine applies only to roundtrip experiments, not {self.kind!r}")
        if self.kind == "roundtrip" and TEST_FUNCTIONS[self.fn].ndim != 1:
            raise ValueError("round-trip experiments use the 1D test functions")


_ADAPTIVE = {1: adaptive_interpolation_1d, 2: adaptive_interpolation_2d}
_PCHIP = {1: pchip_1d, 2: pchip_2d}


def _interp(spec: ExperimentSpec, meshes, v, outs):
    """Interpolate values on the tensor product of ``meshes`` (one per axis)
    to the tensor product of ``outs`` with the spec's method."""
    im = METHODS[spec.method]
    if im is None:
        return _PCHIP[len(meshes)](*meshes, v, *outs)
    return _ADAPTIVE[len(meshes)](*meshes, v, *outs, spec.degree, im, spec.st, spec.eps0, spec.eps1)


def approximation_error(spec: ExperimentSpec) -> float:
    """Sample the test function on a uniform mesh (n points per axis),
    interpolate to the dense norm grid and return the continuum L2 error."""
    tf = TEST_FUNCTIONS[spec.fn]
    n_dense = DENSE_1D if tf.ndim == 1 else DENSE_2D
    meshes = [np.linspace(lo, hi, spec.n) for lo, hi in tf.domain]
    dense = [np.linspace(lo, hi, n_dense) for lo, hi in tf.domain]
    approx = _interp(spec, meshes, tf.sample(*meshes), dense)
    return l2_error_continuum(approx, tf.sample(*dense), *dense)


def roundtrip_meshes(spec: ExperimentSpec) -> tuple[np.ndarray, np.ndarray]:
    """Advection mesh (uniform n points, optionally refined) and reaction mesh
    (interval midpoints, plus the shared endpoints so the hulls coincide)."""
    (lo, hi), = TEST_FUNCTIONS[spec.fn].domain
    mesh_a = refine_mesh(np.linspace(lo, hi, spec.n), spec.refine)
    mids = 0.5 * (mesh_a[:-1] + mesh_a[1:])
    mesh_r = np.concatenate(([mesh_a[0]], mids, [mesh_a[-1]]))
    return mesh_a, mesh_r


def _roundtrip(spec: ExperimentSpec) -> tuple[int, float]:
    """Map function values advection -> reaction -> advection; returns the
    advection mesh size and the grid-point L2 error against the original
    values."""
    tf = TEST_FUNCTIONS[spec.fn]
    mesh_a, mesh_r = roundtrip_meshes(spec)
    u = tf.func(mesh_a)
    on_r = _interp(spec, [mesh_a], u, [mesh_r])
    back = _interp(spec, [mesh_r], on_r, [mesh_a])
    return mesh_a.size, l2_error_grid(back, u)


def roundtrip_error(spec: ExperimentSpec) -> float:
    """The round trip's grid-point L2 error (see ``_roundtrip``)."""
    return _roundtrip(spec)[1]


def run_experiments(specs) -> list[tuple]:
    """Run every spec; returns (N, method, degree, st, eps0, eps1, l2) rows.

    For round-trip rows N is the advection mesh size after refinement.
    """
    rows = []
    for spec in specs:
        if spec.kind == "roundtrip":
            n_row, err = _roundtrip(spec)
        else:
            err = approximation_error(spec)
            n_row = spec.n
        rows.append((n_row, spec.method, spec.degree, spec.st, spec.eps0, spec.eps1, err))
    return rows


def table_sweep(table_id: int) -> list[ExperimentSpec]:
    """The full sweep behind one published approximation table (1..6)."""
    if not _is_integer(table_id) or table_id not in range(1, 7):
        raise ValueError(f"table id must be an integer 1..6, got {table_id!r}")
    fn = f"f{table_id}"
    specs = []
    for n in (17, 33, 65, 129, 257):
        specs.append(ExperimentSpec(fn=fn, n=n, method="pchip", degree=3))
        for method in ("dbi", "ppi"):
            for degree in (3, 4, 8):
                specs.append(ExperimentSpec(fn=fn, n=n, method=method, degree=degree))
    return specs


def format_rows(rows) -> str:
    """Render rows as CSV text (header included, LF endings, 6 significant
    digits for the error column; st/eps columns are empty for pchip)."""
    lines = [CSV_HEADER]
    for n, method, degree, st, eps0, eps1, err in rows:
        if method == "pchip":
            st_s, e0_s, e1_s = "", "", ""
        else:
            st_s, e0_s, e1_s = str(st), repr(float(eps0)), repr(float(eps1))
        lines.append(f"{n},{method},{degree},{st_s},{e0_s},{e1_s},{err:.5E}")
    return "\n".join(lines) + "\n"
