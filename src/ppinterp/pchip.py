"""Monotone piecewise cubic Hermite (Fritsch-Carlson) baseline.

Node slopes are weighted harmonic means of the neighbouring secant slopes,
zeroed at data extrema (Fritsch & Carlson, SIAM J. Numer. Anal. 17, 1980;
Fritsch & Butland, SIAM J. Sci. Comput. 5, 1984); the end slopes are
three-point one-sided estimates with shape-preserving limits (Moler,
*Numerical Computing with MATLAB*, 2004, section 3.6, ``pchiptx``).  The
arithmetic follows SciPy's ``PchipInterpolator`` operation by operation, so
the results equal SciPy's bit for bit, signs of zero included, while the
package runs on numpy alone."""

from __future__ import annotations

import numpy as np

from .interpnd import tensor_sweep

__all__ = ["pchip_1d", "pchip_2d"]


def _end_slope(h0, h1, m0, m1):
    """One-sided three-point slope at a mesh end, from the spacings ``h0``
    (end interval), ``h1`` (its neighbour) and their secant slopes ``m0``,
    ``m1``: zero if its sign differs from ``m0``'s, and ``3*m0`` if the
    secants change sign and it exceeds ``3*|m0|``."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    s0 = np.sign(m0)
    cap = (s0 != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
    return np.where(np.sign(d) == s0, np.where(cap, 3.0 * m0, d), 0.0)


def _pchip(mesh, lines, points, edge, runs):
    """PCHIP of the columns of the ``(n, m)`` block ``lines`` on ``mesh``,
    evaluated at ``points``; equals SciPy's
    ``PchipInterpolator(mesh, lines, axis=0)(points)`` bit for bit.  The
    points come located by ``interpnd.locate``: non-decreasing, with
    ``runs[i]`` points in interval i; ``edge`` is not read.

    The harmonic mean is formed only where both secants are nonzero and
    share a sign: elsewhere the slope is +0 and the secants are replaced by 1
    before dividing, so no division by zero happens.  A two-point mesh is
    linear.  Each point takes the cubic of the interval ``x[i] <= p <
    x[i+1]`` (the last one for ``p == x[-1]``), summed from the constant
    term up, as SciPy's ``PPoly`` does; node values are not written back.
    So, unlike the adaptive methods, x[-1] is evaluated on the last cubic
    and may come out rounded: on nonnegative data it can be a tiny negative
    value (-3.3e-16 has been seen)."""
    lines = np.ascontiguousarray(lines)  # rows gathered per point must be contiguous
    h = (mesh[1:] - mesh[:-1])[:, None]
    m = (lines[1:] - lines[:-1]) / h
    d = np.empty_like(lines)
    if mesh.size == 2:
        d[:] = m
    else:
        m0, m1 = m[:-1], m[1:]
        # secants of opposite signs, or a zero one (two zeros share a sign)
        flat = (np.sign(m0) != np.sign(m1)) | (m0 == 0)
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        whmean = (w1 / np.where(flat, 1.0, m0) + w2 / np.where(flat, 1.0, m1)) / (w1 + w2)
        d[1:-1] = np.where(flat, 0.0, 1.0 / whmean)
        d[0] = _end_slope(h[0], h[1], m[0], m[1])
        d[-1] = _end_slope(h[-1], h[-2], m[-1], m[-2])
    # each point's interval i, x[i] <= p < x[i+1] (n-2 at x[-1]), from its run
    i = np.arange(mesh.size - 1).repeat(runs)
    s = (points - mesh.take(i))[:, None]
    s2 = s * s
    # CubicHermiteSpline's coefficients times the powers of s, summed in
    # PPoly's order from a start at 0.0, which turns a -0.0 into +0.0
    c3 = 0.0 + lines[:-1]
    t = (d[:-1] + d[1:] - 2 * m) / h
    c1 = (m - d[:-1]) / h
    c1 -= t
    # i is in range, so mode="clip" changes no index; it lets take write
    # into out= unbuffered
    out = c3.take(i, axis=0, mode="clip")
    term = np.empty_like(out)
    for c, power in ((d[:-1], s), (c1, s2), (t / h, s2 * s)):
        c.take(i, axis=0, out=term, mode="clip")
        term *= power
        out += term
    return out


def pchip_1d(x, v, xout) -> np.ndarray:
    """Monotone cubic Hermite interpolation of (x, v) onto ``xout``."""
    return tensor_sweep((x,), v, (xout,), _pchip)


def pchip_2d(x, y, v, xout, yout) -> np.ndarray:
    """Tensor-product PCHIP on grid values v[i, j]: x sweep, then y sweep."""
    return tensor_sweep((x, y), v, (xout, yout), _pchip)
