"""Experiment harness: error sweeps over the analytic test functions and
mesh-to-mesh round-trip mapping studies, emitted as CSV."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DBI, PPI, InterpConfig
from .diagnostics import l2_error_continuum, l2_error_grid, refine_mesh
from .interpnd import adaptive_interpolation_1d, adaptive_interpolation_2d
from .pchip import pchip_1d, pchip_2d
from .testfunctions import TEST_FUNCTIONS

__all__ = [
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
        if self.n < 2:
            raise ValueError("n must be at least 2")


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
    tf = TEST_FUNCTIONS[spec.fn]
    if tf.ndim != 1:
        raise ValueError("round-trip experiments use the 1D test functions")
    (lo, hi), = tf.domain
    mesh_a = refine_mesh(np.linspace(lo, hi, spec.n), spec.refine)
    mids = 0.5 * (mesh_a[:-1] + mesh_a[1:])
    mesh_r = np.concatenate(([mesh_a[0]], mids, [mesh_a[-1]]))
    return mesh_a, mesh_r


def roundtrip_error(spec: ExperimentSpec) -> float:
    """Map function values advection -> reaction -> advection and return the
    grid-point L2 error against the original values."""
    tf = TEST_FUNCTIONS[spec.fn]
    mesh_a, mesh_r = roundtrip_meshes(spec)
    u = tf.func(mesh_a)
    on_r = _interp(spec, [mesh_a], u, [mesh_r])
    back = _interp(spec, [mesh_r], on_r, [mesh_a])
    return l2_error_grid(back, u)


def run_experiments(specs) -> list[tuple]:
    """Run every spec; returns (N, method, degree, st, eps0, eps1, l2) rows.

    For round-trip rows N is the advection mesh size after refinement.
    """
    rows = []
    for spec in specs:
        if spec.kind == "roundtrip":
            err = roundtrip_error(spec)
            n_row = roundtrip_meshes(spec)[0].size
        else:
            err = approximation_error(spec)
            n_row = spec.n
        rows.append((n_row, spec.method, spec.degree, spec.st, spec.eps0, spec.eps1, err))
    return rows


def table_sweep(table_id: int) -> list[ExperimentSpec]:
    """The full sweep behind one published approximation table (1..6)."""
    if table_id not in range(1, 7):
        raise ValueError(f"table id must be 1..6, got {table_id}")
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
