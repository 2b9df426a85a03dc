"""Per-interval extremum detection, value bounds (u_min, u_max) and the
scaling factors (m_l, m_r) that translate them into stencil admissibility."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .config import DBI, PPI

__all__ = [
    "ExtremumClass",
    "IntervalBounds",
    "boundary_sigmas",
    "classify_interval",
    "interval_bounds",
    "scaling_factors",
]


class ExtremumClass(enum.Enum):
    """Hidden-extremum classification of an interval from neighboring slopes.

    The tags name the slope pattern: LOCAL_MAX is the opposite-sign pattern
    entered on a falling slope (the lower bound gets relaxed), LOCAL_MIN the
    one entered on a rising slope (the upper bound gets relaxed), AMBIGUOUS
    relaxes both sides.
    """

    NONE = "none"
    LOCAL_MAX = "local_max"
    LOCAL_MIN = "local_min"
    AMBIGUOUS = "ambiguous"


@dataclass(frozen=True)
class IntervalBounds:
    """Bounds and scaling factors for one interval.

    ``degenerate`` marks equal endpoint values: the stencil engine then
    derives the scaling factors itself from the scaled first nonzero divided
    difference (w) that replaces the interval slope as normalization.
    """

    u_min: float
    u_max: float
    m_l: float = 0.0
    m_r: float = 1.0
    degenerate: bool = False


def boundary_sigmas(slopes, i: int) -> tuple[float, float, float]:
    """Slopes (sigma_{i-1}, sigma_i, sigma_{i+1}) around interval ``i``.

    ``slopes`` holds the order-1 divided differences of the n-1 intervals.
    Missing neighbors at the mesh boundary are assumed to carry the same sign
    as the interval's own slope, so the nearest available slope is copied.
    """
    n_int = len(slopes)
    cur = float(slopes[i])
    prev = float(slopes[i - 1]) if i > 0 else cur
    nxt = float(slopes[i + 1]) if i < n_int - 1 else cur
    return prev, cur, nxt


def classify_interval(sigma_prev: float, sigma_cur: float, sigma_next: float) -> ExtremumClass:
    """Classify interval i from the slopes of itself and its two neighbors.

    Only the signs matter.  Opposite-sign outer slopes flag an extremum whose
    type follows the sign of sigma_prev; same-sign outer slopes with an
    opposite-sign inner slope leave the extremum type ambiguous.
    """
    outer = sigma_prev * sigma_next
    if outer < 0.0:
        return ExtremumClass.LOCAL_MAX if sigma_prev < 0.0 else ExtremumClass.LOCAL_MIN
    if sigma_prev * sigma_cur < 0.0:
        return ExtremumClass.AMBIGUOUS
    return ExtremumClass.NONE


def interval_bounds(
    u_i: float, u_ip1: float, cls: ExtremumClass, eps0: float, eps1: float
) -> tuple[float, float]:
    """Interval value bounds (u_min, u_max).

    Starting from the endpoint values, each side is pushed out by eps*|value|:
    eps1 on the side an extremum may poke through (lower side for LOCAL_MAX,
    upper side for LOCAL_MIN, both for AMBIGUOUS), eps0 elsewhere.  With
    eps0 = eps1 = 0 the bounds collapse to the data values.
    """
    lo = min(u_i, u_ip1)
    hi = max(u_i, u_ip1)
    eps_lo = eps1 if cls in (ExtremumClass.LOCAL_MAX, ExtremumClass.AMBIGUOUS) else eps0
    eps_hi = eps1 if cls in (ExtremumClass.LOCAL_MIN, ExtremumClass.AMBIGUOUS) else eps0
    return lo - eps_lo * abs(lo), hi + eps_hi * abs(hi)


def scaling_factors(
    u_i: float,
    u_ip1: float,
    u_min: float,
    u_max: float,
    method: int,
    degenerate_w: float | None = None,
) -> tuple[float, float]:
    """Factors (m_l, m_r) bounding the normalized interpolant shape.

    DBI pins them to (0, 1).  For PPI they widen with (u_min, u_max),
    normalized by the endpoint jump: m_l <= 0 and m_r >= 1, since the shape
    is pinned to 0 and 1 at the interval endpoints.

    With equal endpoint values the shape is normalized by ``degenerate_w``
    instead and vanishes at both endpoints, so nothing forces it to reach 1:
    the floors are m_l <= 0 <= m_r, which keeps the enclosure exactly
    [u_min, u_max].
    """
    if method == DBI:
        return 0.0, 1.0
    if method != PPI:
        raise ValueError(f"method must be {DBI} (DBI) or {PPI} (PPI), got {method}")

    if u_ip1 != u_i:
        jump = u_ip1 - u_i
        lo, hi = (u_min, u_max) if u_ip1 > u_i else (u_max, u_min)
        return min(0.0, (lo - u_i) / jump), max(1.0, (hi - u_i) / jump)

    if degenerate_w is None:
        raise ValueError("equal endpoint values require degenerate_w")
    w = degenerate_w
    if w == 0.0:
        raise ValueError("flat data: expanded window has zero divided difference")
    lo, hi = (u_min, u_max) if w > 0.0 else (u_max, u_min)
    return min(0.0, (lo - u_i) / w), max(0.0, (hi - u_i) / w)
