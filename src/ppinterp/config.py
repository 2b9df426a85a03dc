"""Interpolation configuration shared by the 1D/2D/3D drivers."""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

__all__ = ["DBI", "PPI", "InterpConfig"]

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
