"""Tests of ``ppinterp.interpnd``, the tensor-product drivers: the 1D entry
point (exactness at the nodes, the order of the output points, DBI/PPI
guarantees), then the 2D and 3D sweeps, their bookkeeping, memory and
guarantees, then what every entry point shares: the validators' messages
and the one validation per call.  The parameter rule, ``InterpConfig``, is
tested in ``test_config.py``.

Each behaviour is tested once, where it is checked most strongly: the
messages for bad input, exactly, on every axis of every entry point in
``ENTRY_POINTS`` (which a guard keeps equal to the interpolation callables
``ppinterp`` exports), and node exactness, point order and the DBI/PPI
bounds bit for bit or with no slack, on random 1D and 2D/3D families."""

import inspect
import re
import sys
import tracemalloc
from dataclasses import MISSING, fields, replace
from functools import partial

import numpy as np
import pytest

import ppinterp
from ppinterp import (
    DBI,
    PPI,
    InterpConfig,
    adaptive_interpolation_1d,
    adaptive_interpolation_2d,
    adaptive_interpolation_3d,
    interval_interpolants,
    pchip_1d,
    pchip_2d,
)
from ppinterp import interpnd, stencil
from ppinterp.harness import TEST_FUNCTIONS
from ppinterp.interpnd import locate
from ppinterp.pchip import _pchip
from ppinterp.stencil import interpolate_lines

from helpers import (
    mixed_points, random_grid_case, random_mesh, reorderings, signed_equal, signed_zeros,
    zero_node_mesh,
)


def _random_instance(rng, signed):
    """A random 1D problem from the property family: n 2-40, d 1-15, st 1-3,
    eps <= 1, 30% zeros, a paired plateau in half of them, and values scaled
    by 10**k for k in -8..8 (``signed`` lets the values change sign)."""
    n = int(rng.integers(2, 41))
    x = random_mesh(rng, n)
    u = rng.uniform(-1.0 if signed else 0.0, 1.0, n)
    u[rng.random(n) < 0.3] = 0.0
    if n >= 4 and rng.random() < 0.5:
        j = int(rng.integers(0, n - 3))
        u[j + 1], u[j + 3] = u[j], u[j + 2]
    u *= 10.0 ** int(rng.integers(-8, 9))
    eps0, eps1 = rng.uniform(0.0, 1.0, 2)
    return x, u, int(rng.integers(1, 16)), int(rng.integers(1, 4)), eps0, eps1


def _dense_points(x, per_interval=40):
    """Points filling every interval of ``x``, ends included, and the index
    of the interval each belongs to."""
    t = np.linspace(0.0, 1.0, per_interval)
    s = (x[:-1, None] + (x[1:] - x[:-1])[:, None] * t).ravel()
    cell = np.repeat(np.arange(x.size - 1), per_interval)
    return np.minimum(s, x[-1]), cell


class TestExactness:
    def test_affine_reproduction(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(3, 12))
            x = random_mesh(rng, n)
            a, b = rng.uniform(-2, 2, 2)
            u = a + b * x
            xout = rng.uniform(x[0], x[-1], 40)
            for im in (DBI, PPI):
                v = adaptive_interpolation_1d(x, u, xout, int(rng.integers(1, 9)), im)
                want = a + b * xout
                assert np.allclose(v, want, rtol=1e-13, atol=1e-13 * max(1, abs(a)))

    def test_every_node_bitwise_exact(self):
        # x[-1] too: it lies in the last interval, whose records start at
        # x[-2], and must still return u[-1] bit for bit.  Signed zeros
        # too: Horner gives an interior node as c_0 + 0 * p, which would
        # turn a -0.0 into +0.0.
        x = np.linspace(0.0, 1.0, 6)
        u = np.array([1.0, -0.0, 0.5, -0.0, 2.0, -0.0])
        for im in (DBI, PPI):
            v = adaptive_interpolation_1d(x, u, x, 3, im)
            assert (v.view(np.int64) == u.view(np.int64)).all()
        rng = np.random.default_rng(66)
        for trial in range(300):
            x, u, d, st, eps0, eps1 = _random_instance(rng, signed=trial % 2 == 0)
            u[(u == 0.0) & (rng.random(u.size) < 0.5)] = -0.0
            for im in (DBI, PPI):
                v = adaptive_interpolation_1d(x, u, x, d, im, st, eps0, eps1)
                assert (v.view(np.int64) == u.view(np.int64)).all()

    def test_constant_data(self):
        x = np.linspace(0, 1, 9)
        u = np.full(9, 2.5)
        v = adaptive_interpolation_1d(x, u, np.linspace(0, 1, 50), 5, PPI)
        assert np.array_equal(v, np.full(50, 2.5))


class TestOutputOrdering:
    def test_reversed_and_shuffled_points_permute_result(self):
        # Duplicate points, -0.0 and +0.0 points at a zero node, -0.0 data,
        # every node and x[-1] twice: each point's value, sign bit included,
        # must not depend on where the point sits in the output axis.
        rng = np.random.default_rng(31)
        for trial in range(120):
            x, u, d, st, eps0, eps1 = _random_instance(rng, signed=trial % 2 == 0)
            x = x - x[rng.integers(x.size)]  # one node exactly at 0.0
            u = signed_zeros(rng, u)
            pts = mixed_points(rng, x, int(rng.integers(1, 80)))
            for im in (DBI, PPI):
                base = adaptive_interpolation_1d(x, u, pts, d, im, st, eps0, eps1)
                for perm in reorderings(rng, pts.size):
                    got = adaptive_interpolation_1d(x, u, pts[perm], d, im, st, eps0, eps1)
                    assert signed_equal(got, base[perm])


class TestMethodRelations:
    def test_ppi_zero_eps_equals_dbi(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(4, 16))
            x = random_mesh(rng, n)
            u = rng.uniform(0, 10, n)
            if rng.random() < 0.3:
                j = int(rng.integers(0, n - 1))
                u[j + 1] = u[j]
            d = int(rng.integers(1, 9))
            st = int(rng.integers(1, 4))
            xout = rng.uniform(x[0], x[-1], 30)
            a = adaptive_interpolation_1d(x, u, xout, d, PPI, st, 0.0, 0.0)
            b = adaptive_interpolation_1d(x, u, xout, d, DBI, st)
            assert np.max(np.abs(a - b)) <= 1e-14

    # The dense points include every node and end at x[-1]; the guarantees
    # hold there with no rounding slack.
    def test_dbi_respects_data_bounds(self):
        rng = np.random.default_rng(77)
        for _ in range(150):
            x, u, d, st, eps0, eps1 = _random_instance(rng, signed=True)
            s, cell = _dense_points(x)
            v = adaptive_interpolation_1d(x, u, s, d, DBI, st, eps0, eps1)
            assert np.all(v >= np.minimum(u[:-1], u[1:])[cell])
            assert np.all(v <= np.maximum(u[:-1], u[1:])[cell])

    def test_positivity_of_ppi(self):
        rng = np.random.default_rng(19)
        for _ in range(150):
            x, u, d, st, eps0, eps1 = _random_instance(rng, signed=False)
            s, _ = _dense_points(x)
            for im in (DBI, PPI):
                v = adaptive_interpolation_1d(x, u, s, d, im, st, eps0, eps1)
                assert v.min() >= 0.0

    def test_power_of_two_scaling_is_exact(self):
        # every step is scale-equivariant, so scaling the values by 2**k
        # scales the output by exactly 2**k, even near the ends of the range
        rng = np.random.default_rng(600)
        for trial in range(150):
            x, u, d, st, eps0, eps1 = _random_instance(rng, signed=trial % 2 == 0)
            im = DBI if trial % 3 == 0 else PPI
            s, _ = _dense_points(x, per_interval=7)
            base = adaptive_interpolation_1d(x, u, s, d, im, st, eps0, eps1)
            for k in (-600, 600):
                got = adaptive_interpolation_1d(x, np.ldexp(u, k), s, d, im, st, eps0, eps1)
                assert np.array_equal(got, np.ldexp(base, k))

    def test_smooth_error_shrinks_with_degree(self):
        x = np.linspace(-0.2, 0.2, 257)
        u = 1.0 / (1.0 + np.exp(-200.0 * x))
        dense = np.linspace(-0.2, 0.2, 4000)
        exact = 1.0 / (1.0 + np.exp(-200.0 * dense))
        errs = []
        for d in (3, 4, 8):
            v = adaptive_interpolation_1d(x, u, dense, d, PPI)
            errs.append(np.sqrt(np.trapezoid((v - exact) ** 2, dense)))
        assert errs[0] >= errs[1] >= errs[2]


class TestConfigDriver:
    def test_config_and_flat_signature_agree(self):
        x = np.linspace(0, 1, 9)
        u = np.sin(x * 5) + 1.5
        xout = np.linspace(0, 1, 37)
        cfg = InterpConfig(d=4, im=PPI, st=2, eps0=0.1, eps1=0.5)
        via_cfg = interpolate_lines(x, u[:, None], *locate(x, xout)[:4], cfg)[:, 0]
        via_args = adaptive_interpolation_1d(x, u, xout, 4, PPI, 2, 0.1, 0.5)
        assert np.array_equal(via_cfg, via_args)

    def test_degree_capped_by_mesh(self):
        # x**3 at d = 8 on 4 nodes is capped at degree 3 and reproduced, and
        # x**2 at d = 2 under DBI is reproduced in the end interval too
        x = np.linspace(0, 1, 4)
        u = x**3
        v = adaptive_interpolation_1d(x, u, [0.5], 8, PPI)
        assert v[0] == pytest.approx(0.125, rel=1e-12)
        x = np.linspace(0, 1, 5)
        v = adaptive_interpolation_1d(x, x**2, [0.9, 0.1, 0.5], 2, DBI)
        assert v[1] == pytest.approx(0.01, abs=1e-12)

    def test_pieces_cover_all_intervals(self):
        x = np.linspace(0, 1, 9)
        u = np.cos(x)
        pieces = interval_interpolants(x, u, InterpConfig(d=3, im=DBI))
        assert [p.interval_index for p in pieces] == list(range(8))


def assert_one_axis_field_matches_1d(interp, meshes, outs):
    """A field that varies along one axis only equals the 1D result along
    that axis, bit for bit, for every axis."""
    for axis, (mesh, out) in enumerate(zip(meshes, outs)):
        g = np.cos(3 * mesh) + 1.5
        shape = [1] * len(meshes)
        shape[axis] = -1
        v = np.broadcast_to(g.reshape(shape), [m.size for m in meshes])
        got = interp(*meshes, v, *outs, 6, PPI)
        line = adaptive_interpolation_1d(mesh, g, out, 6, PPI)
        assert np.array_equal(got, np.broadcast_to(line.reshape(shape), got.shape))


class TestExactness2D:
    def test_constant_in_y_matches_1d(self):
        # and, in turn, a field constant in x
        rng = np.random.default_rng(2)
        meshes = [random_mesh(rng, 9), random_mesh(rng, 5)]
        outs = [np.linspace(m[0], m[-1], k) for m, k in zip(meshes, (33, 4))]
        assert_one_axis_field_matches_1d(adaptive_interpolation_2d, meshes, outs)

    def test_bilinear_exact(self):
        rng = np.random.default_rng(3)
        x = random_mesh(rng, 7)
        y = random_mesh(rng, 6)
        a, b, c, d = 1.3, -0.7, 0.4, 0.2
        gx, gy = np.meshgrid(x, y, indexing="ij")
        v = a + b * gx + c * gy + d * gx * gy
        xout = np.linspace(x[0], x[-1], 15)
        yout = np.linspace(y[0], y[-1], 12)
        ox, oy = np.meshgrid(xout, yout, indexing="ij")
        want = a + b * ox + c * oy + d * ox * oy
        for im in (DBI, PPI):
            got = adaptive_interpolation_2d(x, y, v, xout, yout, 3, im)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


class TestExactness3D:
    def test_constant_field(self):
        x = np.linspace(0, 1, 4)
        v = np.full((4, 4, 4), 3.25)
        out = adaptive_interpolation_3d(x, x, x, v, [0.3, 0.6], [0.1, 0.9], [0.5, 0.7], 2, PPI)
        assert np.array_equal(out, np.full((2, 2, 2), 3.25))

    def test_one_axis_field_matches_1d(self):
        rng = np.random.default_rng(9)
        meshes = [random_mesh(rng, 7), random_mesh(rng, 5), random_mesh(rng, 6)]
        outs = [np.linspace(m[0], m[-1], k) for m, k in zip(meshes, (9, 4, 11))]
        assert_one_axis_field_matches_1d(adaptive_interpolation_3d, meshes, outs)

    def test_separable_affine_product(self):
        rng = np.random.default_rng(5)
        x = random_mesh(rng, 5)
        y = random_mesh(rng, 4)
        z = random_mesh(rng, 6)
        gfun = lambda t: 2.0 + 0.5 * t
        hfun = lambda t: 1.0 - 0.25 * t
        pfun = lambda t: 0.75 + 0.1 * t
        gx, gy, gz = np.meshgrid(x, y, z, indexing="ij")
        v = gfun(gx) * hfun(gy) * pfun(gz)
        xo = np.linspace(x[0], x[-1], 7)
        yo = np.linspace(y[0], y[-1], 6)
        zo = np.linspace(z[0], z[-1], 5)
        ox, oy, oz = np.meshgrid(xo, yo, zo, indexing="ij")
        want = gfun(ox) * hfun(oy) * pfun(oz)
        got = adaptive_interpolation_3d(x, y, z, v, xo, yo, zo, 3, PPI)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def line_by_line(meshes, v, outs, cfg):
    """The tensor-product sweep composed of one 1D call per line."""
    q = v
    for axis, (mesh, out) in enumerate(zip(meshes, outs)):
        q = np.apply_along_axis(
            lambda line: adaptive_interpolation_1d(
                mesh, line, out, cfg.d, cfg.im, cfg.st, cfg.eps0, cfg.eps1
            ),
            axis,
            q,
        )
    return q


ADAPTIVE = {2: adaptive_interpolation_2d, 3: adaptive_interpolation_3d}


class TestBlockBookkeeping:
    """Each sweep hands the engine whole blocks of lines; the result must be
    the per-line composition of the 1D routine, bit for bit."""

    def check(self, rng, trials):
        for trial in range(trials):
            ndim = 2 + trial % 2
            meshes, v, outs, cfg = random_grid_case(rng, ndim)
            got = ADAPTIVE[ndim](*meshes, v, *outs, cfg.d, cfg.im, cfg.st, cfg.eps0, cfg.eps1)
            assert np.array_equal(got, line_by_line(meshes, v, outs, cfg))

    def test_matches_line_by_line(self):
        self.check(np.random.default_rng(31), 60)

    @pytest.mark.parametrize("pairs", [1, 40])
    def test_across_chunk_boundaries(self, monkeypatch, pairs):
        # one line per chunk, or two or three: most sweeps split into
        # several chunks, the last one short
        rng = np.random.default_rng(33)
        cases = []
        for _ in range(30):
            meshes, v, outs = random_grid_case(rng, 2)[:3]
            v[(v == 0.0) & (rng.random(v.shape) < 0.5)] = -0.0
            cases.append((meshes, v, outs, pchip_2d(*meshes, v, *outs)))
        monkeypatch.setattr(interpnd, "CHUNK_PAIRS", pairs)
        self.check(np.random.default_rng(32), 30)
        for meshes, v, outs, whole in cases:
            assert signed_equal(pchip_2d(*meshes, v, *outs), whole)


class TestSweepContract:
    """``tensor_sweep`` locates each output axis once: every chunk of an
    axis receives the same sorted points, the same search of the mesh into
    them and the same runs, and the caller's order is restored afterwards."""

    @pytest.mark.parametrize("pairs", [1, 40])
    def test_one_locate_per_axis(self, monkeypatch, pairs):
        # the y axis is shuffled; both axes split into several chunks
        monkeypatch.setattr(interpnd, "CHUNK_PAIRS", pairs)
        rng = np.random.default_rng(38)
        x, y = random_mesh(rng, 5), zero_node_mesh(rng, 6)
        v = signed_zeros(rng, rng.uniform(0.0, 1.0, (5, 6)))
        xo, yo = mixed_points(rng, x, 2), mixed_points(rng, y, 2)
        perm = rng.permutation(yo.size)
        for method in (partial(stencil.interpolate_lines, config=InterpConfig(d=5, im=PPI)), _pchip):
            calls = []

            def sweep(mesh, lines, points, runs, node, hits):
                calls.append((mesh, points, runs, node, hits))
                return method(mesh, lines, points, runs, node, hits)

            got = interpnd.tensor_sweep((x, y), v, (xo, yo[perm]), sweep)
            assert signed_equal(got, interpnd.tensor_sweep((x, y), v, (xo, yo), method)[:, perm])
            for mesh in (x, y):
                axis = [c for c in calls if c[0].size == mesh.size]
                points, runs, node, hits = axis[0][1:]
                assert len(axis) > 1
                assert all(c[1] is points and c[2] is runs and c[3] is node and c[4] is hits for c in axis)
                assert np.all(points[1:] >= points[:-1])
                assert np.array_equal(hits, points.searchsorted(mesh, "right") - points.searchsorted(mesh))
                assert np.array_equal(points[node], mesh.repeat(hits))
                # the points of each interval x[i] <= p < x[i+1], the last
                # one taking the points at x[-1] (two or more of them here)
                owner = np.minimum(mesh.searchsorted(points, side="right") - 1, mesh.size - 2)
                assert np.count_nonzero(points == mesh[-1]) >= 2
                assert np.array_equal(runs, np.bincount(owner, minlength=mesh.size - 1))

    def test_no_sweep_on_an_empty_axis(self):
        # an empty output axis ends the call after validation, before any
        # sweep, so a sweep never receives zero points
        x = np.linspace(0.0, 1.0, 4)
        v = np.ones((4, 4, 4))

        def sweep(*args):
            raise AssertionError("a sweep ran")

        for empty in range(1, 8):
            outs = [[] if empty >> k & 1 else x for k in range(3)]
            got = interpnd.tensor_sweep((x, x, x), v, outs, sweep)
            assert got.shape == tuple(len(o) for o in outs) and got.dtype == float
        with pytest.raises(ValueError, match="^output point 2.0 outside"):
            interpnd.tensor_sweep((x, x, x), v, ([], x, [2.0]), sweep)

    def test_one_output_axis_per_mesh(self):
        # a missing axis would leave its mesh unmapped, an extra one would
        # be checked and ignored
        x, y = np.linspace(0.0, 1.0, 3), np.linspace(0.0, 1.0, 4)
        for outs in ((), (x,), (x, y, [0.5])):
            with pytest.raises(ValueError, match=f"^{len(outs)} output axes given for 2 meshes$"):
                interpnd.tensor_sweep((x, y), np.ones((3, 4)), outs, _pchip)


class TestChunkMemory:
    """The chunks cap the memory of a sweep's work arrays: beyond the output,
    a large 2D call holds no more than a fixed number of float64 values per
    (line, point) pair of one chunk, so the bound follows
    ``interpnd.CHUNK_PAIRS``, not the grid.

    The number of values per pair depends on the output axis: a chunk's
    pairs count each line's mesh or output points, whichever are more, but
    the adaptive engine's arrays scale with its lanes, one per interval
    that holds a point.  Refining 257 points to 1000 gives about one lane
    per four pairs; an output axis as long as the mesh gives one lane per
    pair, the most, and so the most values per pair."""

    VALUES_PER_PAIR = 40  # work arrays and the intermediate field

    @pytest.mark.parametrize(
        "size, call, values_per_pair",
        [
            (2000, lambda x, v, xo: pchip_2d(x, x, v, xo, xo), VALUES_PER_PAIR),
            (1000, lambda x, v, xo: adaptive_interpolation_2d(x, x, v, xo, xo, 8, PPI),
             VALUES_PER_PAIR),
            (257, lambda x, v, xo: adaptive_interpolation_2d(x, x, v, xo, xo, 8, PPI), 70),
        ],
        ids=["pchip", "ppi", "ppi-same-size"],
    )
    def test_peak_beyond_output_set_by_chunk_budget(self, size, call, values_per_pair):
        x = np.linspace(-1.0, 1.0, 257)
        v = TEST_FUNCTIONS["f4"].sample(x, x)
        xo = np.linspace(-1.0, 1.0, size)
        tracemalloc.start()
        try:
            out = call(x, v, xo)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes < values_per_pair * 8 * interpnd.CHUNK_PAIRS


def sweep_blocks(meshes, v, outs, cfg):
    """The result of a 2D/3D call and, per sweep, the block of lines it
    received and the block it returned."""
    blocks = []

    def sweep(mesh, lines, points, runs, node, hits):
        out = stencil.interpolate_lines(mesh, lines, points, runs, node, hits, cfg)
        blocks.append((lines, out))
        return out

    return interpnd.tensor_sweep(meshes, v, outs, sweep), blocks


class TestGuarantees:
    def test_dbi_range_and_ppi_positivity_through_every_sweep(self):
        # DBI keeps every line inside its data range, so each sweep stays in
        # [min v, max v]; PPI with eps <= 1 keeps nonnegative data
        # nonnegative up to rounding
        rng = np.random.default_rng(34)
        for trial in range(120):
            ndim = 2 + trial % 2
            meshes, v, outs, cfg = random_grid_case(rng, ndim)
            tau = 1e-12 * v.max()
            for im in (DBI, PPI):
                cfg = replace(cfg, im=im)
                result, blocks = sweep_blocks(meshes, v, outs, cfg)
                assert np.array_equal(
                    result, ADAPTIVE[ndim](*meshes, v, *outs, cfg.d, im, cfg.st, cfg.eps0, cfg.eps1)
                )
                assert len(blocks) == ndim
                for lines, out in blocks:
                    if im == DBI:
                        assert np.all(out >= lines.min(axis=0) - tau)
                        assert np.all(out <= lines.max(axis=0) + tau)
                    else:
                        assert out.min() >= -tau

    def test_nodes_exact_and_no_rounding_slack(self):
        # Output axes made of every mesh node plus a grid that ends at the
        # last node: the nodes return the data bit for bit, DBI stays inside
        # [min v, max v] and PPI nonnegative, with zero tolerance
        rng = np.random.default_rng(35)
        for trial in range(120):
            ndim = 2 + trial % 2
            meshes, v, _, cfg = random_grid_case(rng, ndim)
            grids = [np.linspace(m[0], m[-1], int(rng.integers(2, 9))) for m in meshes]
            outs = [np.concatenate([m, g]) for m, g in zip(meshes, grids)]
            nodes = np.ix_(*[np.arange(m.size) for m in meshes])
            for im in (DBI, PPI):
                got = ADAPTIVE[ndim](*meshes, v, *outs, cfg.d, im, cfg.st, cfg.eps0, cfg.eps1)
                assert (got[nodes].view(np.int64) == v.view(np.int64)).all()
                assert got.min() >= (v.min() if im == DBI else 0.0)
                if im == DBI:
                    assert got.max() <= v.max()


def corner_hull(meshes, v, outs):
    """The smallest and largest of the 2^dim grid values at the corners of
    each output point's cell (a point at x[-1] is in the last interval)."""
    cells = np.ix_(*[np.minimum(m.searchsorted(o, side="right") - 1, m.size - 2)
                     for m, o in zip(meshes, outs)])
    corners = np.stack([v[tuple(c + (k >> a & 1) for a, c in enumerate(cells))]
                        for k in range(2 ** len(meshes))])
    return corners.min(axis=0), corners.max(axis=0)


def flat_share(lines, d):
    """The share of a block's lanes that ``grow_stencils`` finds flat:
    equal endpoint values with an equal neighbour inside the mesh, where
    the degree cap leaves room for the forced first step."""
    if min(d, lines.shape[0] - 1) < 2:
        return 0.0
    lo, hi, nan = lines[:-1], lines[1:], np.full((1, lines.shape[1]), np.nan)
    left, right = np.vstack([nan, lines[:-2]]), np.vstack([lines[2:], nan])
    return np.mean((lo == hi) & ((left == lo) | (right == lo)))


def tensor_family(rng, ndim, kind):
    """A seeded 2D/3D case with every mesh node in the output axes.  The
    plateau kind is one constant with a few other values and zero over
    half of one axis: most lanes are flat, so the engine settles them."""
    meshes, v, outs, cfg = random_grid_case(rng, ndim)
    if kind == "plateau":
        v = np.full(v.shape, rng.uniform(0.5, 5.0))
        v[rng.random(v.shape) < 0.15] = rng.uniform(0.0, 5.0)
        front = np.moveaxis(v, int(rng.integers(ndim)), 0)
        front[: front.shape[0] // 2] = 0.0
    outs = [np.concatenate([o, m]) for o, m in zip(outs, meshes)]
    return meshes, v, outs, cfg


class TestTensorProductGuarantees:
    # The guarantees of tensor_sweep's docstring, per output point, on seeded
    # 2D and 3D families: random grids with zero runs and plateaus, and
    # plateau grids whose flat lanes the engine settles before growth.  A
    # probe of 200 cases per family and dimension needed no tolerance; the
    # DBI and PCHIP hull allows 1e-12 relative for rounding.  Both families reach blocks that
    # the engine settles (more than 10 and 200 per case).  Each case takes
    # about 0.15 s on a 2-vCPU x86-64 guest.
    @pytest.mark.parametrize("ndim", [2, 3])
    @pytest.mark.parametrize("kind", ["random", "plateau"])
    def test_hull_positivity_growth_and_nodes(self, ndim, kind):
        rng = np.random.default_rng(1600 + 10 * ndim + (kind == "plateau"))
        settled = 0
        for trial in range(100):
            meshes, v, outs, cfg = tensor_family(rng, ndim, kind)
            lo, hi = corner_hull(meshes, v, outs)
            tol = 1e-12 * np.maximum(abs(lo), abs(hi))
            nodes = np.ix_(*[np.arange(o.size - m.size, o.size) for o, m in zip(outs, meshes)])
            for im in (DBI, PPI):
                got, blocks = sweep_blocks(meshes, v, outs, replace(cfg, im=im))
                assert (got[nodes].view(np.int64) == v.view(np.int64)).all()
                if im == DBI:
                    assert np.all(got >= lo - tol) and np.all(got <= hi + tol)
                else:
                    assert got.min() >= 0.0  # eps0, eps1 <= 1 on nonnegative data
                    assert np.all(got <= (1.0 + max(cfg.eps0, cfg.eps1)) ** ndim * hi)
                settled += sum(flat_share(lines, cfg.d) >= stencil.SETTLE_SHARE
                               for lines, _ in blocks)
            if ndim == 2:
                got = pchip_2d(*meshes, v, *outs)
                assert np.all(got >= lo - tol) and np.all(got <= hi + tol)
        assert settled > (200 if kind == "plateau" else 10)


class TestOutputAxes:
    def test_reversed_and_shuffled_axes_permute_result(self):
        # Every axis holds duplicates, -0.0 and +0.0 at a zero node, every
        # node and x[-1] twice, over -0.0 data: reversing or shuffling the
        # axes permutes the result, sign bits included.
        rng = np.random.default_rng(36)
        for trial in range(60):
            ndim = 2 + trial % 2
            meshes = [zero_node_mesh(rng, int(rng.integers(2, 10 if ndim == 2 else 6)))
                      for _ in range(ndim)]
            v = signed_zeros(rng, rng.uniform(-1.0 if trial % 4 < 2 else 0.0, 1.0,
                                              [m.size for m in meshes]))
            outs = [mixed_points(rng, m, int(rng.integers(1, 12 if ndim == 2 else 5)))
                    for m in meshes]
            d, im, st = int(rng.integers(1, 9)), (DBI, PPI)[trial // 2 % 2], trial % 3 + 1
            interps = [lambda *a: ADAPTIVE[ndim](*a, d, im, st)]
            if ndim == 2:
                interps.append(pchip_2d)
            for interp in interps:
                base = interp(*meshes, v, *outs)
                for perms in zip(*(reorderings(rng, o.size) for o in outs)):
                    got = interp(*meshes, v, *(o[p] for o, p in zip(outs, perms)))
                    assert signed_equal(got, base[np.ix_(*perms)])

    def test_empty_output_axes(self):
        # any empty output axis gives an empty result of the grid's shape
        rng = np.random.default_rng(37)
        meshes = [random_mesh(rng, n) for n in (5, 4, 3)]
        v = rng.uniform(0.0, 1.0, (5, 4, 3))
        full = [np.linspace(m[0], m[-1], k) for m, k in zip(meshes, (3, 2, 4))]
        assert pchip_1d(meshes[0], v[:, 0, 0], []).shape == (0,)
        assert adaptive_interpolation_1d(meshes[0], v[:, 0, 0], [], 3, PPI).shape == (0,)
        for ndim in (2, 3):
            grid = v[(slice(None),) * ndim + (0,) * (3 - ndim)]
            interps = [lambda *a: ADAPTIVE[ndim](*a, 3, PPI)]
            if ndim == 2:
                interps.append(pchip_2d)
            for empty in range(1, 2**ndim):
                outs = [[] if empty >> k & 1 else full[k] for k in range(ndim)]
                shape = tuple(len(o) for o in outs)
                for interp in interps:
                    got = interp(*meshes[:ndim], grid, *outs)
                    assert got.shape == shape and got.dtype == float


# Every public entry point as (axes, function, the arguments that follow the
# output axes).
ENTRY_POINTS = {
    "adaptive_1d": (1, adaptive_interpolation_1d, (3, PPI)),
    "adaptive_2d": (2, adaptive_interpolation_2d, (3, DBI)),
    "adaptive_3d": (3, adaptive_interpolation_3d, (3, PPI)),
    "pchip_1d": (1, pchip_1d, ()),
    "pchip_2d": (2, pchip_2d, ()),
}


def call_entry(name, meshes, values, outs):
    _, fn, options = ENTRY_POINTS[name]
    return fn(*meshes, values, *outs, *options)


def test_entry_points_are_the_exported_interpolators():
    # the callables ppinterp exports from interpnd and pchip, so a new one
    # joins every test over ENTRY_POINTS
    exported = [name for name in ppinterp.__all__ if getattr(getattr(ppinterp, name), "__module__", None)
                in ("ppinterp.interpnd", "ppinterp.pchip")]
    assert sorted(fn.__name__ for _, fn, _ in ENTRY_POINTS.values()) == sorted(exported)


MESH_FINITE = "mesh coordinates must be finite"
MESH_INCREASING = "mesh coordinates must be strictly increasing"
VALUES_FINITE = "values must be finite"
POINTS_FINITE = "output points must be finite"
NAN, INF = np.nan, np.inf


def outside(point):
    return f"output point {point} outside the mesh range [0.0, 3.0]"


class TestValidatorMessages:
    """Each bad input gets its own message, whichever entry point and axis
    it reaches.  A call with several faults reports the first in check
    order: the meshes axis by axis, then the values, then the output axes
    axis by axis; within one input, non-finite numbers come before order
    and range."""

    @staticmethod
    def expect(name, message, meshes=None, values=None, outs=None):
        axes = ENTRY_POINTS[name][0]
        grid = [np.array([0.0, 1.0, 2.0, 3.0])] * axes
        v = np.linspace(1.0, 2.0, 4 ** axes).reshape((4,) * axes)
        points = [np.array([2.5, 0.0, 1.5])] * axes
        call_entry(name, grid, v, points)  # the valid call goes through
        # each bad input reaches the entry point as given, lists as lists
        v = v if values is None else values
        for k, mesh in (meshes or {}).items():
            grid[k] = mesh
        for k, pts in (outs or {}).items():
            points[k] = pts
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call_entry(name, grid, v, points)

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    @pytest.mark.parametrize("mesh, message", [
        ([0.0, NAN, 2.0, 3.0], MESH_FINITE),
        ([NAN, 1.0, 2.0, 3.0], MESH_FINITE),
        ([0.0, 1.0, 2.0, NAN], MESH_FINITE),
        ([0.0, INF, 2.0, 3.0], MESH_FINITE),
        ([0.0, -INF, 2.0, 3.0], MESH_FINITE),
        ([-INF, 1.0, 2.0, 3.0], MESH_FINITE),  # increasing, but not finite
        ([0.0, 1.0, 2.0, INF], MESH_FINITE),
        ([INF, 1.0, 2.0, 3.0], MESH_FINITE),
        ([0.0, 1.0, 2.0, -INF], MESH_FINITE),
        ([3.0, NAN, 1.0, 0.0], MESH_FINITE),  # decreasing and not finite
        ([0.0, 1.0, 1.0, 3.0], MESH_INCREASING),
        ([0.0, 2.0, 1.0, 3.0], MESH_INCREASING),
        ([3.0, 2.0, 1.0, 0.0], MESH_INCREASING),
        ([0.0], "mesh needs at least 2 points, got 1"),
        # an integer mesh is read as floats, and its range printed so
        ([1, 2, 3, 4], "output point 0.0 outside the mesh range [1.0, 4.0]"),
        ([[0.0, 1.0, 2.0, 3.0]], "mesh must be one-dimensional, got shape (1, 4)"),
    ])
    def test_mesh(self, name, mesh, message):
        for axis in range(ENTRY_POINTS[name][0]):
            self.expect(name, message, meshes={axis: mesh})

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    @pytest.mark.parametrize("fault", ["short_last_axis", "extra_axis", "missing_axis"])
    def test_values_shape(self, name, fault):
        axes = ENTRY_POINTS[name][0]
        grid = (4,) * axes
        shape = {"short_last_axis": grid[:-1] + (3,), "extra_axis": grid + (1,),
                 "missing_axis": grid[1:]}[fault]
        self.expect(name, f"values shape {shape} does not match mesh shape {grid}",
                    values=np.ones(shape))

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    @pytest.mark.parametrize("bad", [NAN, INF, -INF])
    def test_values(self, name, bad):
        axes = ENTRY_POINTS[name][0]
        for flat in (0, 4 ** axes // 2, 4 ** axes - 1):
            v = np.ones(4 ** axes)
            v[flat] = bad
            self.expect(name, VALUES_FINITE, values=v.reshape((4,) * axes))

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    @pytest.mark.parametrize("pts, message", [
        ([0.0, 1.5, 3.0, NAN], POINTS_FINITE),  # sorted
        ([NAN, 3.0, 1.5, 0.0], POINTS_FINITE),  # reversed
        ([1.5, NAN, 0.0, 3.0], POINTS_FINITE),  # shuffled
        ([1.5, INF, 0.0], POINTS_FINITE),
        ([-INF, 0.0, 1.5], POINTS_FINITE),
        ([4.0, 1.5, NAN], POINTS_FINITE),  # outside, then not finite
        ([-1.0, 0.5, 3.5], outside(-1.0)),  # sorted
        ([3.5, 0.5, -1.0], outside(3.5)),  # reversed
        ([0.5, 3.5, -1.0, 2.0], outside(3.5)),  # shuffled: the caller's first
        ([2.0, -1.0, 0.5, 3.5], outside(-1.0)),
        ([3.0, 0.0, 3.0000000000000004], outside(3.0000000000000004)),
        ([[0.0, 1.5], [3.0, 2.0]], "output points must be one-dimensional, got shape (2, 2)"),
        ([NAN], POINTS_FINITE),  # one point: the order pass compares nothing
    ])
    def test_output_points(self, name, pts, message):
        for axis in range(ENTRY_POINTS[name][0]):
            self.expect(name, message, outs={axis: pts})

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    @pytest.mark.parametrize("bad", [
        [0.0, 1.0, 2.0, 3.0 + 0j],
        np.arange(4).astype("datetime64[D]"),
        ["0", "1", "2", "3"],
        np.array([0.0, 1.0, 2.0, {}], dtype=object),
    ], ids=["complex", "datetime64", "text", "object"])
    def test_not_numbers(self, name, bad):
        # input that does not hold numbers is refused, not converted: a
        # complex number is not cut to its real part (even with a zero
        # imaginary part), a date is not read as a day count, text is not
        # parsed, and an object is not asked for a float
        axes = ENTRY_POINTS[name][0]
        dtype = np.asarray(bad).dtype
        for axis in range(axes):
            self.expect(name, f"mesh coordinates must be real, got dtype {dtype}", meshes={axis: bad})
            self.expect(name, f"output points must be real, got dtype {dtype}", outs={axis: bad})
        self.expect(name, f"values must be real, got dtype {dtype}",
                    values=np.broadcast_to(np.asarray(bad), (4,) * axes))

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    @pytest.mark.parametrize("fault", ["mesh", "output_points", "values"])
    def test_ragged(self, name, fault):
        # a ragged sequence is no array of numbers either: the rule names
        # the input, where numpy's "inhomogeneous shape" error would not
        axes = ENTRY_POINTS[name][0]
        ragged = "must be a regular array of numbers, got a ragged sequence"
        if fault == "mesh":
            for axis in range(axes):
                self.expect(name, f"mesh coordinates {ragged}", meshes={axis: [0.0, 1.0, [2.0], 3.0]})
        elif fault == "output_points":
            for axis in range(axes):
                self.expect(name, f"output points {ragged}", outs={axis: [0.5, [1.0]]})
        else:
            values = np.ones((4,) * axes).tolist()
            values[1] = [values[1]]  # one entry nested a level deeper
            self.expect(name, f"values {ragged}", values=values)

    @pytest.mark.parametrize("name", ["adaptive_2d", "adaptive_3d", "pchip_2d"])
    def test_first_fault_in_check_order(self, name):
        axes = ENTRY_POINTS[name][0]
        last = axes - 1
        nan_values = np.full((4,) * axes, NAN)
        bad_mesh = [0.0, 1.0, 1.0, 3.0]
        # a mesh fault on the last axis comes before the values and points
        self.expect(name, MESH_INCREASING, meshes={last: bad_mesh}, values=nan_values,
                    outs={0: [NAN]})
        # the meshes are checked in turn
        self.expect(name, MESH_FINITE, meshes={0: [0.0, NAN, 2.0, 3.0], last: bad_mesh})
        self.expect(name, MESH_INCREASING, meshes={0: bad_mesh, last: [0.0, NAN, 2.0, 3.0]})
        # the values come before the output points
        self.expect(name, VALUES_FINITE, values=nan_values, outs={0: [4.0], last: [NAN]})
        # the output axes are checked in turn
        self.expect(name, outside(4.0), outs={0: [4.0], last: [NAN]})
        self.expect(name, POINTS_FINITE, outs={0: [NAN], last: [4.0]})


class TestValidateOnce:
    """Every entry point checks each mesh and output axis once per axis and
    the values once, before any interpolation."""

    @pytest.fixture
    def counts(self, monkeypatch):
        # wrap every copy of the validators the package's modules hold, so a
        # check made anywhere is counted
        counts = {}
        for mod in [m for name, m in sys.modules.items() if name.startswith("ppinterp")]:
            for name in ("as_mesh1d", "as_values", "locate"):
                fn = getattr(mod, name, None)
                if fn is not None:
                    def counted(*args, _fn=fn, _name=name):
                        counts[_name] = counts.get(_name, 0) + 1
                        return _fn(*args)

                    monkeypatch.setattr(mod, name, counted)
        return counts

    def test_each_input_checked_once(self, counts):
        rng = np.random.default_rng(35)
        x, y, z = (random_mesh(rng, n) for n in (6, 5, 4))
        xo, yo, zo = (np.linspace(m[0], m[-1], 7) for m in (x, y, z))
        v1, v2, v3 = (rng.uniform(0, 1, s) for s in ((6,), (6, 5), (6, 5, 4)))
        cases = [
            (lambda: adaptive_interpolation_1d(x, v1, xo, 3, PPI), 1),
            (lambda: adaptive_interpolation_2d(x, y, v2, xo, yo, 3, DBI), 2),
            (lambda: adaptive_interpolation_3d(x, y, z, v3, xo, yo, zo, 3, PPI), 3),
            (lambda: pchip_1d(x, v1, xo), 1),
            (lambda: pchip_2d(x, y, v2, xo, yo), 2),
        ]
        for call, axes in cases:
            counts.clear()
            call()
            assert counts == {"as_mesh1d": axes, "as_values": 1, "locate": axes}
        counts.clear()
        interval_interpolants(x, v1, InterpConfig(d=3, im=PPI))
        assert counts == {"as_mesh1d": 1, "as_values": 1}


class TestPublicDefaults:
    def test_signature_defaults_are_config_field_defaults(self):
        # every InterpConfig field is a parameter of each entry point, with
        # the field's default, and required where the field has none
        want = {
            f.name: inspect.Parameter.empty if f.default is MISSING else f.default
            for f in fields(InterpConfig)
        }
        assert want["d"] is want["im"] is inspect.Parameter.empty
        for fn in (adaptive_interpolation_1d, adaptive_interpolation_2d, adaptive_interpolation_3d):
            params = inspect.signature(fn).parameters
            assert {name: params[name].default for name in want} == want, fn.__name__

    def test_wrapper_defaults_match_config(self):
        # the wrappers spell the paper's defaults out; InterpConfig is their home
        want = {name: getattr(InterpConfig, name) for name in ("st", "eps0", "eps1")}
        for fn in (adaptive_interpolation_1d, adaptive_interpolation_2d, adaptive_interpolation_3d):
            params = inspect.signature(fn).parameters
            assert {name: params[name].default for name in want} == want
