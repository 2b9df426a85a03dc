"""Interpolation configuration shared by the 1D/2D/3D drivers."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

__all__ = ["DBI", "PPI", "InterpConfig"]

# Method selector values: 1 = data-bounded, 2 = positivity-preserving.
DBI = 1
PPI = 2


@dataclass(frozen=True)
class InterpConfig:
    """Knobs for the adaptive interpolation drivers.

    d      target polynomial degree per interval (stencil of up to d+1 points)
    im     interpolation method, DBI (1) or PPI (2)
    st     stencil-growth policy: 1 smallest divided difference, 2 most
           symmetric stencil, 3 closest point
    eps0   bound relaxation for intervals without a detected extremum
    eps1   bound relaxation for intervals with a detected extremum

    PPI keeps nonnegative data nonnegative only for eps0, eps1 <= 1; larger
    values are accepted but void that guarantee.
    """

    d: int
    im: int
    st: int = 3
    eps0: float = 0.01
    eps1: float = 1.0

    def __post_init__(self):
        try:
            d = operator.index(self.d)
        except TypeError:
            d = None
        if d is None or isinstance(self.d, bool) or d < 1:
            raise ValueError(f"target degree d must be an integer >= 1, got {self.d!r}")
        if self.im not in (DBI, PPI):
            raise ValueError(f"im must be {DBI} (DBI) or {PPI} (PPI), got {self.im}")
        if self.st not in (1, 2, 3):
            raise ValueError(f"st must be 1, 2 or 3, got {self.st}")
        if not (0.0 <= self.eps0 < math.inf and 0.0 <= self.eps1 < math.inf):
            raise ValueError(
                f"eps0 and eps1 must be finite and nonnegative, got {self.eps0}, {self.eps1}"
            )
