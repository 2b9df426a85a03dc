"""What the API accepts: the method parameters of the 1D/2D/3D drivers
(``InterpConfig``) and the rules for their arrays (``as_mesh1d``,
``as_values`` and the float, finite and range checks every entry point
shares)."""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

__all__ = ["DBI", "PPI", "InterpConfig", "as_mesh1d", "as_values"]

# Method selector values: 1 = data-bounded, 2 = positivity-preserving.
DBI = 1
PPI = 2


def _is_integer(value) -> bool:
    """True for Python and numpy integers, False for bools, floats and the rest."""
    try:
        operator.index(value)
    except TypeError:
        return False
    return not isinstance(value, bool)


@dataclass(frozen=True)
class InterpConfig:
    """Knobs for the adaptive interpolation drivers, and the one home of their
    defaults and valid values: the entry points' signatures, the harness and
    the CLI read both from here, for DBI, PPI and PCHIP experiments alike.

    d      target polynomial degree per interval (stencil of up to d+1 points)
    im     interpolation method, DBI (1) or PPI (2)
    st     stencil-growth policy: 1 smallest divided difference, 2 most
           symmetric stencil, 3 closest point
    eps0   bound relaxation for intervals without a detected extremum
    eps1   bound relaxation for intervals with a detected extremum

    d, im and st must be integers (numpy integers included, bools and floats
    not); eps0 and eps1 finite, nonnegative real numbers (bools not).  PPI
    keeps nonnegative data nonnegative only for eps0, eps1 <= 1; larger
    values are accepted but void that guarantee.
    """

    d: int
    im: int
    st: int = 3
    eps0: float = 0.01
    eps1: float = 1.0

    def __post_init__(self):
        if not _is_integer(self.d) or self.d < 1:
            raise ValueError(f"target degree d must be an integer >= 1, got {self.d!r}")
        if not _is_integer(self.im) or self.im not in (DBI, PPI):
            raise ValueError(f"im must be {DBI} (DBI) or {PPI} (PPI), got {self.im!r}")
        if not _is_integer(self.st) or self.st not in (1, 2, 3):
            raise ValueError(f"st must be 1, 2 or 3, got {self.st!r}")
        _check_eps(self.eps0, self.eps1)


def _check_eps(eps0, eps1):
    """Raise ``ValueError`` unless eps0 and eps1 are finite, nonnegative real
    numbers (bools not)."""
    for eps in (eps0, eps1):
        real = type(eps) is float or isinstance(eps, numbers.Real) and not isinstance(eps, bool)
        if not (real and 0.0 <= eps < math.inf):
            raise ValueError(
                f"eps0 and eps1 must be finite and nonnegative real numbers, got {eps0!r}, {eps1!r}"
            )


_FLOAT = np.dtype(float)


def _as_float(data, what: str) -> np.ndarray:
    """``data`` as a float64 array, which passes with one dtype test.
    Only bool, integer and float data are converted; any other dtype raises,
    since converting it would keep only a complex number's real part, read a
    date as a day count or parse text as a number."""
    a = np.asarray(data)
    if a.dtype is not _FLOAT:
        if a.dtype.kind not in "biuf":
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
    if np.count_nonzero(x[1:] > x[:-1]) < x.size - 1 or not math.isfinite(x[0]) or not math.isfinite(x[-1]):
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
