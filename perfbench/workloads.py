"""The benchmark's workloads: inputs generated from a seed, and the cells that
feed them to ppinterp's public entry points.

Seed 0 gives the paper's uniform meshes.  Any other seed jitters the interior
mesh nodes and shifts the feature centre of each analytic function.  On a
uniform mesh the st=3 closest-point rule ties at every symmetric step and
falls through to its |lambda_bar| tie-break; jittered meshes rarely tie, so the
two kinds of seed exercise different branches.

A cell is one unit of the paper's job list (one table entry, one round trip,
one 2D/3D field).  It makes one or more public calls through the ``call``
function the runner hands it, and says how its outputs are checked and how
far they are from the analytic function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks
from checks import DBI, PPI

# Perturbations for seeds other than 0.  They are small because l2_gmean is a
# reported metric that must stay steady from seed to seed; any jitter at all
# breaks the exact ties of uniform meshes.
JITTER = 0.01        # interior nodes move by up to this share of the spacing
SHIFT = 0.01         # feature centres move by this share of the domain, either way
TABLE_NS = (17, 33, 65, 129, 257)
DENSE_1D = 10_000
ROUNDTRIP_BASE = 32


@dataclass
class Cell:
    """One entry of a workload's job list.

    ``run(call)`` makes the public calls, each as ``call(layer, fn, *args)``,
    and returns their outputs in call order.  ``check(outputs)`` returns, per
    call, the number of outputs that break a guarantee of the method (bound or
    positivity violations) and the number of node-exactness mismatches.
    ``error(outputs)`` is the L2 error of the cell against the analytic
    function.  ``axes`` holds, for a 2D/3D call, the (input mesh, output
    points) pair of every axis in sweep order.
    """

    name: str
    run: Callable
    check: Callable
    error: Callable
    axes: tuple = ()


@dataclass
class Workload:
    name: str
    cells: list[Cell] = field(default_factory=list)
    # Seed-0 comparisons with the acceptance suite's published bands:
    # (label, predicate over {cell name: L2 error}).
    published: list[tuple[str, Callable]] = field(default_factory=list)


# --------------------------------------------------------------------------
# Analytic functions.  ``c`` is the feature-centre shift drawn from the seed.

def f1(x, c=0.0):
    return 0.1 / (0.1 + 25.0 * (x - c) ** 2)


def f2(x, c=0.0):
    return 1.0 / (1.0 + np.exp(-200.0 * (x - c)))


def f3(x, c=0.0):
    s = np.asarray(x, dtype=float) - c
    left = 1.0 + (2.0 * np.exp(2.0 * np.pi * s) - 1.0 - np.exp(np.pi)) / (np.exp(np.pi) - 1.0)
    right = 1.0 - np.sin(2.0 * np.pi * s / 3.0 + np.pi / 3.0)
    return np.where(s < -0.5, left, right)


def f4(x, y, c=(0.0, 0.0)):
    return 0.1 / (0.1 + 25.0 * ((x - c[0]) ** 2 + (y - c[1]) ** 2))


def f6(x, y, c=(0.0, 0.0)):
    x = np.asarray(x, dtype=float) - c[0]
    y = np.asarray(y, dtype=float) - c[1]
    diag = y - x
    r2 = (x - 1.5) ** 2 + (y - 0.5) ** 2
    return np.select(
        [(diag >= 0.0) & (diag <= 0.5), diag >= 0.5, r2 <= 1.0 / 16.0],
        [2.0 * diag, np.ones_like(diag), np.cos(4.0 * np.pi * np.sqrt(r2))],
        default=0.0,
    )


def runge3(x, y, z, c=(0.0, 0.0, 0.0)):
    return 0.1 / (0.1 + 25.0 * ((x - c[0]) ** 2 + (y - c[1]) ** 2 + (z - c[2]) ** 2))


FUNCS_1D = {"f1": (f1, (-1.0, 1.0)), "f2": (f2, (-0.2, 0.2)), "f3": (f3, (-1.0, 1.0))}


# --------------------------------------------------------------------------
# Meshes and norms.

def mesh(rng, lo, hi, n):
    """Uniform mesh of n points; with an rng, interior nodes are jittered."""
    x = np.linspace(lo, hi, n)
    if rng is not None:
        h = (hi - lo) / (n - 1)
        x[1:-1] += rng.uniform(-JITTER, JITTER, n - 2) * h
    return x


def shift(rng, lo, hi):
    return 0.0 if rng is None else float(rng.choice((-SHIFT, SHIFT)) * (hi - lo))


def refine(x, k):
    """Insert k equally spaced points in every interval of x."""
    if k == 0:
        return x.copy()
    out = np.empty(x.size + k * (x.size - 1))
    out[:: k + 1] = x
    for m in range(1, k + 1):
        out[m :: k + 1] = x[:-1] + np.diff(x) * (m / (k + 1))
    return out


def l2_trapezoid(err, *grids):
    """Continuum L2 norm of ``err`` on a tensor grid, trapezoid rule per axis
    (last axis first)."""
    acc = np.asarray(err, dtype=float) ** 2
    for g in reversed(grids):
        acc = np.trapezoid(acc, g, axis=-1)
    return float(np.sqrt(acc))


def rms(a, b):
    return float(np.sqrt(np.mean((np.asarray(a) - np.asarray(b)) ** 2)))


def within(value, ref, band):
    return ref / band <= value <= ref * band


# --------------------------------------------------------------------------
# Workloads.

def _adaptive_1d(P, x, u, xq, d, im, st=3):
    return lambda call: [call("interp1d", P.adaptive_interpolation_1d, x, u, xq, d, im, st)]


def _pchip_1d(P, x, u, xq):
    return lambda call: [call("pchip", P.pchip_1d, x, u, xq)]


def table1d(P, rng) -> Workload:
    """Paper Tables 1-3: f1, f2, f3 on N in {17..257} to 10^4 points with
    PCHIP, and with DBI and PPI at d in {3, 4, 8}."""
    wl = Workload("table1d")
    for fname, (f, (lo, hi)) in FUNCS_1D.items():
        c = shift(rng, lo, hi)
        xq = np.linspace(lo, hi, DENSE_1D)
        exact = f(xq, c)
        for n in TABLE_NS:
            x = mesh(rng, lo, hi, n)
            u = f(x, c)
            err = lambda outs, exact=exact, xq=xq: l2_trapezoid(outs[0] - exact, xq)
            for method, im in (("pchip", None), ("dbi", DBI), ("ppi", PPI)):
                check = lambda outs, x=x, u=u, xq=xq, im=im: [checks.one_d(x, u, xq, outs[0], im)]
                if im is None:
                    wl.cells.append(Cell(f"{fname}/N{n}/pchip", _pchip_1d(P, x, u, xq), check, err))
                    continue
                for d in (3, 4, 8):
                    wl.cells.append(Cell(f"{fname}/N{n}/{method}{d}",
                                         _adaptive_1d(P, x, u, xq, d, im), check, err))

    t1_ppi8 = {17: 4.61e-2, 33: 3.05e-3, 65: 9.92e-4, 129: 2.43e-5, 257: 9.89e-8}
    t1_pchip = {17: 3.99e-2, 33: 4.52e-3, 65: 2.79e-3, 129: 6.23e-4, 257: 1.17e-4}
    for n in TABLE_NS:
        wl.published.append((f"table1 f1 N={n} PPI d=8 within 3x of {t1_ppi8[n]:.2e}",
                             lambda e, n=n: within(e[f"f1/N{n}/ppi8"], t1_ppi8[n], 3.0)))
        wl.published.append((f"table1 f1 N={n} PCHIP within 3x of {t1_pchip[n]:.2e}",
                             lambda e, n=n: within(e[f"f1/N{n}/pchip"], t1_pchip[n], 3.0)))
    for m in ("dbi", "ppi"):
        wl.published.append((f"table2 f2 N=257 {m.upper()} d=8 within 3x of 5.22e-09",
                             lambda e, m=m: within(e[f"f2/N257/{m}8"], 5.22e-9, 3.0)))
    for m in ("pchip", "dbi3", "dbi4", "dbi8", "ppi3", "ppi4", "ppi8"):
        wl.published.append((f"table3 f3 N=257 {m} within 25% of 5.2e-02",
                             lambda e, m=m: abs(e[f"f3/N257/{m}"] - 5.2e-2) <= 0.25 * 5.2e-2))
    return wl


def _roundtrip(P, xa, ua, xr, d, im, st):
    def run(call):
        on_r = call("interp1d", P.adaptive_interpolation_1d, xa, ua, xr, d, im, st)
        return [on_r, call("interp1d", P.adaptive_interpolation_1d, xr, on_r, xa, d, im, st)]
    return run


def _roundtrip_pchip(P, xa, ua, xr):
    def run(call):
        on_r = call("pchip", P.pchip_1d, xa, ua, xr)
        return [on_r, call("pchip", P.pchip_1d, xr, on_r, xa)]
    return run


def roundtrip(P, rng) -> Workload:
    """Advection -> reaction -> advection mesh mapping: f1, f2, f3 on a
    32-point base mesh refined by 0, 1 or 3 points per interval, with PCHIP,
    and with DBI and PPI at d in {3, 5, 7} and st in {1, 2, 3}.  The paper's
    trends (error falls with degree and with refinement) are checked on
    seed 0."""
    wl = Workload("roundtrip")
    for fname, (f, (lo, hi)) in FUNCS_1D.items():
        c = shift(rng, lo, hi)
        base = mesh(rng, lo, hi, ROUNDTRIP_BASE)
        for k in (0, 1, 3):
            xa = refine(base, k)
            xr = np.concatenate(([xa[0]], 0.5 * (xa[:-1] + xa[1:]), [xa[-1]]))
            ua = f(xa, c)
            err = lambda outs, ua=ua: rms(outs[1], ua)
            for method, im in (("pchip", None), ("dbi", DBI), ("ppi", PPI)):
                check = lambda outs, xa=xa, ua=ua, xr=xr, im=im: [
                    checks.one_d(xa, ua, xr, outs[0], im), checks.one_d(xr, outs[0], xa, outs[1], im)]
                if im is None:
                    wl.cells.append(Cell(f"{fname}/k{k}/pchip", _roundtrip_pchip(P, xa, ua, xr), check, err))
                    continue
                for d in (3, 5, 7):
                    for st in (1, 2, 3):
                        wl.cells.append(Cell(f"{fname}/k{k}/{method}{d}/st{st}",
                                             _roundtrip(P, xa, ua, xr, d, im, st), check, err))

    def decreasing(e):
        v = [e[f"f1/k3/ppi{d}/st3"] for d in (3, 5, 7)]
        return v[0] > v[1] > v[2]

    def nonincreasing(e):
        cols = ["pchip"] + [f"{m}{d}/st3" for m in ("dbi", "ppi") for d in (3, 5, 7)]
        return all(e[f"f1/k0/{c}"] >= e[f"f1/k1/{c}"] >= e[f"f1/k3/{c}"] for c in cols)

    wl.published.append(("roundtrip f1 k=3 PPI error decreases over d=3,5,7", decreasing))
    wl.published.append(("roundtrip f1 error non-increasing over k=0,1,3", nonincreasing))
    return wl


def _field(P, f, c, lo, hi, n, m, d, rng):
    x, y = mesh(rng, lo, hi, n), mesh(rng, lo, hi, n)
    xo, yo = np.linspace(lo, hi, m), np.linspace(lo, hi, m)
    v = f(*np.meshgrid(x, y, indexing="ij"), c)
    exact = f(*np.meshgrid(xo, yo, indexing="ij"), c)
    run = lambda call: [call("interpnd", P.adaptive_interpolation_2d, x, y, v, xo, yo, d, PPI)]
    check = lambda outs: [checks.grid((x, y), v, (xo, yo), outs[0])]
    return run, check, (lambda outs: l2_trapezoid(outs[0] - exact, xo, yo)), ((x, xo), (y, yo))


FIELD_N, FIELD_M = 33, 100


def field2d(P, rng) -> Workload:
    """Paper Tables 4 and 6 in 2D: f4 with PPI d=8 (every interval reaches
    degree 8) and f6 with PPI d=4 (most intervals stop at degree 1 on its
    plateaus)."""
    wl = Workload("field2d")
    for name, f, (lo, hi), d in (("f4", f4, (-1.0, 1.0), 8), ("f6", f6, (0.0, 2.0), 4)):
        c = (shift(rng, lo, hi), shift(rng, lo, hi))
        run, check, err, axes = _field(P, f, c, lo, hi, FIELD_N, FIELD_M, d, rng)
        wl.cells.append(Cell(f"{name}/N{FIELD_N}/ppi{d}", run, check, err, axes))
    return wl


GRID_N, GRID_M = 11, 21


def grid3d(P, rng) -> Workload:
    """3D Runge bump 0.1/(0.1+25r^2) on [-1,1]^3, PPI d=8: many short sweep
    lines along each of x, y and z."""
    wl = Workload("grid3d")
    c = tuple(shift(rng, -1.0, 1.0) for _ in range(3))
    axes_in = [mesh(rng, -1.0, 1.0, GRID_N) for _ in range(3)]
    axes_out = [np.linspace(-1.0, 1.0, GRID_M) for _ in range(3)]
    v = runge3(*np.meshgrid(*axes_in, indexing="ij"), c)
    exact = runge3(*np.meshgrid(*axes_out, indexing="ij"), c)
    run = lambda call: [call("interpnd", P.adaptive_interpolation_3d, *axes_in, v, *axes_out, 8, PPI)]
    check = lambda outs: [checks.grid(axes_in, v, axes_out, outs[0])]
    wl.cells.append(Cell(f"runge3/N{GRID_N}/ppi8", run, check,
                         lambda outs: l2_trapezoid(outs[0] - exact, *axes_out),
                         tuple(zip(axes_in, axes_out))))
    return wl


WORKLOADS = {"table1d": table1d, "roundtrip": roundtrip, "field2d": field2d, "grid3d": grid3d}


def build(name, P, seed) -> Workload:
    """Generate the inputs of workload ``name`` from ``seed``."""
    rng = None if seed == 0 else np.random.default_rng(seed)
    return WORKLOADS[name](P, rng)
