"""Per-interval extremum detection, value bounds (u_min, u_max) and the
scaling factors (m_l, m_r) that translate them into stencil admissibility."""

from __future__ import annotations

import enum

import numpy as np

from .config import DBI, _is_integer
from .divdiff import _as_float

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
    relaxes both sides.  The values are bit flags: bit LOCAL_MAX relaxes the
    lower bound and bit LOCAL_MIN the upper one.  Arrays of intervals carry
    their class as these plain integers.
    """

    NONE = 0
    LOCAL_MAX = 1
    LOCAL_MIN = 2
    AMBIGUOUS = 3


# Every function below works elementwise, on one path: scalar arguments
# describe one interval, arrays describe many at once, and both go through
# the same numpy arithmetic, so one interval of Python floats comes back as
# numpy float64: scalars, or 0-d arrays where np.where gives the result.
# Python's min/max are spelled np.where(b < a, b, a) so that signed zeros
# come out as Python's min/max give them.


def boundary_sigmas(slopes, i):
    """Slopes (sigma_{i-1}, sigma_i, sigma_{i+1}) around interval ``i``.

    ``slopes`` holds the order-1 divided differences of the n-1 intervals
    (along axis 0; further axes are lines), which must be finite; ``i`` must
    be an integer in [0, n-2].  The neighbors come from
    ``_neighbour_slopes``, whose rule covers the mesh boundary.
    """
    s = _as_float(slopes, "slopes")
    if not (_is_integer(i) and 0 <= i < len(s)):
        raise ValueError(f"interval index must be an integer in [0, {len(s) - 1}], got {i!r}")
    if np.count_nonzero(np.isfinite(s)) < s.size:
        raise ValueError("slopes must be finite")
    prev, nxt = _neighbour_slopes(s, i)
    return prev, s[i], nxt


def _neighbour_slopes(s, i):
    """Slopes (sigma_{i-1}, sigma_{i+1}) around interval ``i`` of the array
    ``s`` laid out as ``boundary_sigmas`` takes it.  Missing neighbors at
    the mesh boundary are assumed to carry the same sign as the interval's
    own slope, so the nearest available slope is copied.  The engine, which
    holds sigma_i already, calls this alone."""
    return s.take(np.subtract(i, 1), 0, mode="clip"), s.take(np.add(i, 1), 0, mode="clip")


def classify_interval(sigma_prev, sigma_cur, sigma_next):
    """Classify interval i from the slopes of itself and its two neighbors.

    Only the signs matter.  Opposite-sign outer slopes flag an extremum whose
    type follows the sign of sigma_prev; same-sign outer slopes with an
    opposite-sign inner slope leave the extremum type ambiguous.  Scalar
    slopes give an ``ExtremumClass``, arrays an integer array of its values.

    The signs are multiplied, not the slopes: their product underflows to
    zero for slopes below about 1e-162 and overflows above about 1e154,
    which would make the class depend on the data's scale.
    """
    sign_prev = np.sign(sigma_prev)
    outer = sign_prev * np.sign(sigma_next) < 0.0
    inner = sign_prev * np.sign(sigma_cur) < 0.0
    cls = np.where(
        outer,
        np.where(sign_prev < 0.0, ExtremumClass.LOCAL_MAX.value, ExtremumClass.LOCAL_MIN.value),
        np.where(inner, ExtremumClass.AMBIGUOUS.value, ExtremumClass.NONE.value),
    )
    return ExtremumClass(int(cls)) if isinstance(outer, np.bool_) else cls


def interval_bounds(u_i, u_ip1, cls, eps0: float, eps1: float):
    """Interval value bounds (u_min, u_max).

    Starting from the endpoint values, each side is pushed out by eps*|value|:
    eps1 on the side an extremum may poke through (lower side for LOCAL_MAX,
    upper side for LOCAL_MIN, both for AMBIGUOUS), eps0 elsewhere.  With
    eps0 = eps1 = 0 the bounds collapse to the data values.
    """
    lo = np.where(u_ip1 < u_i, u_ip1, u_i)
    hi = np.where(u_ip1 > u_i, u_ip1, u_i)
    eps_lo = np.where(cls & ExtremumClass.LOCAL_MAX.value, eps1, eps0)
    eps_hi = np.where(cls & ExtremumClass.LOCAL_MIN.value, eps1, eps0)
    return lo - eps_lo * abs(lo), hi + eps_hi * abs(hi)


def scaling_factors(u_i, u_ip1, u_min, u_max, method: int, degenerate_w=None):
    """Factors (m_l, m_r) bounding the normalized interpolant shape.

    DBI pins them to (0, 1).  Any other ``method`` is PPI (``InterpConfig``
    admits only the two), and they widen with (u_min, u_max),
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

    equal = u_ip1 == u_i
    den, floor = u_ip1 - u_i, 1.0
    if np.count_nonzero(equal):
        if degenerate_w is None:
            raise ValueError("equal endpoint values require degenerate_w")
        den, floor = np.where(equal, degenerate_w, den), np.where(equal, 0.0, 1.0)
    if np.count_nonzero(den == 0.0):
        raise ValueError("flat data: expanded window has zero divided difference")
    rising = den > 0.0
    a = (np.where(rising, u_min, u_max) - u_i) / den
    b = (np.where(rising, u_max, u_min) - u_i) / den
    return np.where(a < 0.0, a, 0.0), np.where(b > floor, b, floor)
