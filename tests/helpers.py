"""Shared helpers for the test suite: random meshes and grids, and independent
oracles."""

import numpy as np

from ppinterp.config import DBI, PPI, InterpConfig
from ppinterp.stencil import IntervalInterpolant, Stencils


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


def make_piece(x, u, insertion_order):
    """Interval interpolant built from brute-force divided differences."""
    order = list(insertion_order)
    coeffs = []
    for j in range(len(order)):
        wl, wr = min(order[: j + 1]), max(order[: j + 1])
        coeffs.append(brute_dd(x, u, wl, wr - wl))
    return IntervalInterpolant(insertion_order=tuple(order), coefficients=tuple(coeffs))


def pieces_record(pieces, x):
    """``pieces`` as one ``Stencils`` record on mesh ``x``, a lane per
    piece, padded past each degree as the engine pads (nodes with the
    interval's left node, coefficients with +0): its nodes are the mesh
    values at the insertion orders, so the record derives each piece's
    degree, normalization and denominator.  One piece gives the one-lane
    record ``replay_chain`` reads."""
    width = max(p.degree for p in pieces) + 1
    pad = [width - 1 - p.degree for p in pieces]
    orders = [p.insertion_order + (p.interval_index,) * k for p, k in zip(pieces, pad)]
    coeffs = [p.coefficients + (0.0,) * k for p, k in zip(pieces, pad)]
    factors = np.array([(p.m_l, p.m_r) for p in pieces], dtype=float).T
    return Stencils(np.take(x, orders), np.array(coeffs, dtype=float), *factors)


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


def zero_node_mesh(rng, n):
    """A random mesh with one node, chosen at random, exactly at 0.0."""
    x = random_mesh(rng, n, -1.0, 1.0)
    return x - x[rng.integers(n)]


def mixed_points(rng, x, size):
    """Sorted output points on mesh ``x``: ``size`` uniform draws, every
    node, x[-1] once more, repeats of some of these, and -0.0 and +0.0 when
    the mesh spans zero."""
    pts = np.concatenate([rng.uniform(x[0], x[-1], size), x, x[-1:]])
    pts = np.concatenate([pts, rng.choice(pts, size // 3 + 2)])
    if x[0] <= 0.0 <= x[-1]:
        pts = np.concatenate([pts, [-0.0, 0.0, -0.0]])
    return np.sort(pts)


def signed_zeros(rng, v, share=0.3):
    """``v`` with about ``share`` of its entries set to +0.0 or -0.0."""
    v = v.copy()
    zeros = rng.random(v.shape) < share
    v[zeros] = rng.choice([0.0, -0.0], zeros.sum())
    return v


def signed_equal(a, b):
    """Equal values and equal sign bits, so -0.0 and +0.0 differ."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def reorderings(rng, size):
    """The reversing permutation and a random one."""
    return np.arange(size)[::-1], rng.permutation(size)


def random_grid_case(rng, ndim):
    """Meshes, nonnegative grid values with zero runs and plateaus along
    each axis, output axes and a configuration."""
    meshes = [random_mesh(rng, int(rng.integers(2, 13 if ndim == 2 else 7))) for _ in range(ndim)]
    v = rng.uniform(0.0, 5.0, [m.size for m in meshes])
    v[rng.random(v.shape) < 0.3] = 0.0
    for axis in range(ndim):
        if rng.random() < 0.5:
            front = np.moveaxis(v, axis, 0)
            front[1::3] = front[: front.shape[0] - 1 : 3]
    v *= 10.0 ** int(rng.integers(-8, 9))
    outs = [rng.uniform(m[0], m[-1], int(rng.integers(1, 16))) for m in meshes]
    eps0, eps1 = rng.uniform(0.0, 1.0, 2)
    cfg = InterpConfig(
        d=int(rng.integers(1, 9)), im=int(rng.choice([DBI, PPI])),
        st=int(rng.integers(1, 4)), eps0=eps0, eps1=eps1,
    )
    return meshes, v, outs, cfg
