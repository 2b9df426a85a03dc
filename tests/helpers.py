"""Shared helpers for the test suite: random meshes and independent oracles."""

import numpy as np

from ppinterp.divdiff import IntervalInterpolant


def random_mesh(rng, n, lo=-5.0, hi=5.0, min_gap=1e-3):
    """Strictly increasing mesh of n points with a guaranteed minimum gap."""
    gaps = rng.uniform(min_gap, 1.0, n - 1)
    x = np.concatenate(([0.0], np.cumsum(gaps)))
    return lo + (hi - lo) * x / x[-1]


def brute_dd(x, u, i, j):
    """Divided difference by direct recursion (independent of build_table)."""
    if j == 0:
        return float(u[i])
    return (brute_dd(x, u, i + 1, j - 1) - brute_dd(x, u, i, j - 1)) / (x[i + j] - x[i])


def make_piece(x, u, i, insertion_order):
    """Interval interpolant built from brute-force divided differences."""
    order = list(insertion_order)
    coeffs = []
    for j in range(len(order)):
        wl, wr = min(order[: j + 1]), max(order[: j + 1])
        coeffs.append(brute_dd(x, u, wl, wr - wl))
    return IntervalInterpolant(
        interval_index=i,
        window=(min(order), max(order)),
        insertion_order=tuple(order),
        coefficients=tuple(coeffs),
    )


def monomial_coefficients(x, piece):
    """Expand the Newton form into monomial coefficients (increasing power)."""
    poly = np.zeros(1)
    basis = np.array([1.0])
    for j, c in enumerate(piece.coefficients):
        poly = np.polynomial.polynomial.polyadd(poly, c * basis)
        basis = np.polynomial.polynomial.polymul(basis, [-x[piece.insertion_order[j]], 1.0])
    return poly


def leading_dd_lagrange(x, u, l, r):
    """Highest-order divided difference over x[l..r] via the symmetric sum."""
    total = 0.0
    for k in range(l, r + 1):
        denom = 1.0
        for j in range(l, r + 1):
            if j != k:
                denom *= x[k] - x[j]
        total += u[k] / denom
    return total
