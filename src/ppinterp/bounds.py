"""Per-interval extremum detection, value bounds (u_min, u_max) and the
scaling factors (m_l, m_r) that translate them into stencil admissibility."""

from __future__ import annotations

import enum

import numpy as np

from .config import DBI, PPI

__all__ = [
    "ExtremumClass",
    "boundary_sigmas",
    "classify_interval",
    "interval_bounds",
    "scaling_factors",
]


class ExtremumClass(enum.IntEnum):
    """Hidden-extremum classification of an interval from neighboring slopes.

    The tags name the slope pattern: LOCAL_MAX is the opposite-sign pattern
    entered on a falling slope (the lower bound gets relaxed), LOCAL_MIN the
    one entered on a rising slope (the upper bound gets relaxed), AMBIGUOUS
    relaxes both sides.  The integer values let arrays of intervals carry
    their class.
    """

    NONE = 0
    LOCAL_MAX = 1
    LOCAL_MIN = 2
    AMBIGUOUS = 3


# Every function below works elementwise: scalar arguments describe one
# interval, arrays describe many at once with the same arithmetic.  Python's
# min/max are spelled where(b < a, b, a) so that signed zeros come out as in
# scalar code.


def where(cond, a, b):
    """``np.where(cond, a, b)``, except that a scalar ``cond`` (one lane)
    picks its branch directly and keeps scalar arithmetic in Python floats."""
    if isinstance(cond, (bool, np.bool_)):
        return a if cond else b
    return np.where(cond, a, b)


def boundary_sigmas(slopes, i):
    """Slopes (sigma_{i-1}, sigma_i, sigma_{i+1}) around interval ``i``.

    ``slopes`` holds the order-1 divided differences of the n-1 intervals
    (along axis 0; further axes are lines).  Missing neighbors at the mesh
    boundary are assumed to carry the same sign as the interval's own slope,
    so the nearest available slope is copied.
    """
    s = np.asarray(slopes, dtype=float)
    last = s.shape[0] - 1
    return s[np.maximum(i - 1, 0)], s[i], s[np.minimum(np.add(i, 1), last)]


def classify_interval(sigma_prev, sigma_cur, sigma_next):
    """Classify interval i from the slopes of itself and its two neighbors.

    Only the signs matter.  Opposite-sign outer slopes flag an extremum whose
    type follows the sign of sigma_prev; same-sign outer slopes with an
    opposite-sign inner slope leave the extremum type ambiguous.  Scalar
    slopes give an ``ExtremumClass``, arrays an integer array of its values.
    """
    return where(
        sigma_prev * sigma_next < 0.0,
        where(sigma_prev < 0.0, ExtremumClass.LOCAL_MAX, ExtremumClass.LOCAL_MIN),
        where(sigma_prev * sigma_cur < 0.0, ExtremumClass.AMBIGUOUS, ExtremumClass.NONE),
    )


def interval_bounds(u_i, u_ip1, cls, eps0: float, eps1: float):
    """Interval value bounds (u_min, u_max).

    Starting from the endpoint values, each side is pushed out by eps*|value|:
    eps1 on the side an extremum may poke through (lower side for LOCAL_MAX,
    upper side for LOCAL_MIN, both for AMBIGUOUS), eps0 elsewhere.  With
    eps0 = eps1 = 0 the bounds collapse to the data values.
    """
    lo = where(u_ip1 < u_i, u_ip1, u_i)
    hi = where(u_ip1 > u_i, u_ip1, u_i)
    eps_lo = where((cls == ExtremumClass.LOCAL_MAX) | (cls == ExtremumClass.AMBIGUOUS), eps1, eps0)
    eps_hi = where((cls == ExtremumClass.LOCAL_MIN) | (cls == ExtremumClass.AMBIGUOUS), eps1, eps0)
    return lo - eps_lo * abs(lo), hi + eps_hi * abs(hi)


def scaling_factors(u_i, u_ip1, u_min, u_max, method: int, degenerate_w=None):
    """Factors (m_l, m_r) bounding the normalized interpolant shape.

    DBI pins them to (0, 1).  For PPI they widen with (u_min, u_max),
    normalized by the endpoint jump: m_l <= 0 and m_r >= 1, since the shape
    is pinned to 0 and 1 at the interval endpoints.

    With equal endpoint values the shape is normalized by ``degenerate_w``
    instead and vanishes at both endpoints, so nothing forces it to reach 1:
    the floors are m_l <= 0 <= m_r, which keeps the enclosure exactly
    [u_min, u_max].  ``degenerate_w`` is read only where the endpoint values
    are equal.
    """
    if method == DBI:
        return 0.0, 1.0
    if method != PPI:
        raise ValueError(f"method must be {DBI} (DBI) or {PPI} (PPI), got {method}")

    equal = u_ip1 == u_i
    if degenerate_w is None:
        if np.any(equal):
            raise ValueError("equal endpoint values require degenerate_w")
        degenerate_w = 1.0
    den = where(equal, degenerate_w, u_ip1 - u_i)
    if np.any(den == 0.0):
        raise ValueError("flat data: expanded window has zero divided difference")
    rising = den > 0.0
    a = (where(rising, u_min, u_max) - u_i) / den
    b = (where(rising, u_max, u_min) - u_i) / den
    floor = where(equal, 0.0, 1.0)
    return where(a < 0.0, a, 0.0), where(b > floor, b, floor)
