import inspect
import re
import sys
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

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
from ppinterp import interp1d, interpnd
from ppinterp.pchip import _pchip
from ppinterp.testfunctions import TEST_FUNCTIONS

from helpers import (
    mixed_points, random_grid_case, random_mesh, reorderings, signed_equal, signed_zeros,
    zero_node_mesh,
)


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


class TestValidation2D:
    def test_grid_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            adaptive_interpolation_2d([0, 1], [0, 1, 2], np.zeros((2, 2)), [0.5], [0.5], 1, DBI)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input(self, bad):
        v = np.ones((3, 3))
        bad_v = v.copy()
        bad_v[1, 2] = bad
        for x, y, values in (
            ([0, 1, 2], [0, 1, 2], bad_v),
            ([0, 1, bad], [0, 1, 2], v),
            ([0, 1, 2], [-bad, 1, 2], v),
        ):
            for interp in (lambda *a: adaptive_interpolation_2d(*a, 1, DBI), pchip_2d):
                with pytest.raises(ValueError, match="finite"):
                    interp(x, y, values, [0.5], [0.5])

    def test_out_of_hull_output_rejected(self):
        v = np.ones((3, 3))
        for xout, yout in (([2.5], [0.5]), ([0.5], [-0.5])):
            with pytest.raises(ValueError, match="outside the mesh range"):
                adaptive_interpolation_2d([0, 1, 2], [0, 1, 2], v, xout, yout, 1, DBI)
        for xout, yout in (([0.5], [np.nan]), ([np.inf], [0.5]), ([0.5], [-np.inf])):
            for interp in (lambda *a: adaptive_interpolation_2d(*a, 1, DBI), pchip_2d):
                with pytest.raises(ValueError, match="output points must be finite"):
                    interp([0, 1, 2], [0, 1, 2], v, xout, yout)

    def test_unsorted_output_permutes_result(self):
        rng = np.random.default_rng(7)
        x = random_mesh(rng, 9)
        y = random_mesh(rng, 8)
        v = rng.uniform(0.0, 2.0, (9, 8))
        xout = np.linspace(x[0], x[-1], 13)
        yout = np.linspace(y[0], y[-1], 11)
        px, py = rng.permutation(13), rng.permutation(11)
        for interp in (lambda *a: adaptive_interpolation_2d(*a, 5, PPI), pchip_2d):
            base = interp(x, y, v, xout, yout)
            got = interp(x, y, v, xout[px], yout[py])
            assert np.array_equal(got, base[np.ix_(px, py)])


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

    def test_nodes_reproduced(self):
        rng = np.random.default_rng(4)
        x = random_mesh(rng, 8)
        y = random_mesh(rng, 7)
        gx, gy = np.meshgrid(x, y, indexing="ij")
        v = 1.0 / (1.0 + gx**2 + gy**2)
        out = adaptive_interpolation_2d(x, y, v, x, y, 5, PPI)
        assert np.allclose(out, v, rtol=1e-12, atol=0)


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

    def test_positive_random_field_stays_positive(self):
        rng = np.random.default_rng(6)
        x = random_mesh(rng, 6)
        y = random_mesh(rng, 5)
        z = random_mesh(rng, 5)
        v = rng.uniform(0.0, 2.0, (6, 5, 5))
        xo = np.linspace(x[0], x[-1], 11)
        yo = np.linspace(y[0], y[-1], 9)
        zo = np.linspace(z[0], z[-1], 8)
        out = adaptive_interpolation_3d(x, y, z, v, xo, yo, zo, 5, PPI)
        assert out.min() >= -1e-12 * v.max()

    def test_unsorted_output_permutes_result(self):
        rng = np.random.default_rng(8)
        x, y, z = random_mesh(rng, 6), random_mesh(rng, 5), random_mesh(rng, 5)
        v = rng.uniform(0.0, 2.0, (6, 5, 5))
        xo = np.linspace(x[0], x[-1], 7)
        yo = np.linspace(y[0], y[-1], 6)
        zo = np.linspace(z[0], z[-1], 5)
        px, py, pz = rng.permutation(7), rng.permutation(6), rng.permutation(5)
        base = adaptive_interpolation_3d(x, y, z, v, xo, yo, zo, 4, PPI)
        got = adaptive_interpolation_3d(x, y, z, v, xo[px], yo[py], zo[pz], 4, PPI)
        assert np.array_equal(got, base[np.ix_(px, py, pz)])

    def test_grid_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            adaptive_interpolation_3d([0, 1], [0, 1], [0, 1], np.zeros((2, 2)), [0.5], [0.5], [0.5], 1, DBI)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input(self, bad):
        v = np.ones((2, 2, 2))
        bad_v = v.copy()
        bad_v[1, 0, 1] = bad
        ok = [0, 1]
        for x, y, z, values in (
            (ok, ok, ok, bad_v),
            ([0, bad], ok, ok, v),
            (ok, [-bad, 1], ok, v),
            (ok, ok, [0, bad], v),
        ):
            with pytest.raises(ValueError, match="finite"):
                adaptive_interpolation_3d(x, y, z, values, [0.5], [0.5], [0.5], 1, DBI)


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
        for method in (partial(interp1d.interpolate_lines, config=InterpConfig(d=5, im=PPI)), _pchip):
            calls = []

            def sweep(mesh, lines, points, edge, runs):
                calls.append((mesh, points, edge, runs))
                return method(mesh, lines, points, edge, runs)

            got = interpnd.tensor_sweep((x, y), v, (xo, yo[perm]), sweep)
            assert signed_equal(got, interpnd.tensor_sweep((x, y), v, (xo, yo), method)[:, perm])
            for mesh in (x, y):
                axis = [c for c in calls if c[0].size == mesh.size]
                points, edge, runs = axis[0][1:]
                assert len(axis) > 1
                assert all(c[1] is points and c[2] is edge and c[3] is runs for c in axis)
                assert np.all(points[1:] >= points[:-1])
                assert np.array_equal(edge, points.searchsorted(mesh))
                # the points of each interval x[i] <= p < x[i+1], the last
                # one taking the points at x[-1] (two or more of them here)
                owner = np.minimum(mesh.searchsorted(points, side="right") - 1, mesh.size - 2)
                assert np.count_nonzero(points == mesh[-1]) >= 2
                assert np.array_equal(runs, np.bincount(owner, minlength=mesh.size - 1))


class TestChunkMemory:
    """The chunks cap the memory of a sweep's work arrays: beyond the output,
    a large 2D call holds no more than a fixed number of float64 values per
    (line, point) pair of one chunk, so the bound follows
    ``interpnd.CHUNK_PAIRS``, not the grid."""

    VALUES_PER_PAIR = 40  # work arrays and the intermediate field

    @pytest.mark.parametrize(
        "size, call",
        [
            (2000, lambda x, v, xo: pchip_2d(x, x, v, xo, xo)),
            (1000, lambda x, v, xo: adaptive_interpolation_2d(x, x, v, xo, xo, 8, PPI)),
        ],
        ids=["pchip", "ppi"],
    )
    def test_peak_beyond_output_set_by_chunk_budget(self, size, call):
        x = np.linspace(-1.0, 1.0, 257)
        v = TEST_FUNCTIONS["f4"].sample(x, x)
        xo = np.linspace(-1.0, 1.0, size)
        tracemalloc.start()
        try:
            out = call(x, v, xo)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes < self.VALUES_PER_PAIR * 8 * interpnd.CHUNK_PAIRS


def sweep_blocks(meshes, v, outs, cfg):
    """The result of a 2D/3D call and, per sweep, the block of lines it
    received and the block it returned."""
    blocks = []

    def sweep(mesh, lines, points, edge, runs):
        out = interp1d.interpolate_lines(mesh, lines, points, edge, runs, cfg)
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


# Every public entry point as (axes, call(meshes, values, outs)).
ENTRY_POINTS = {
    "adaptive_1d": (1, lambda m, v, o: adaptive_interpolation_1d(*m, v, *o, 3, PPI)),
    "adaptive_2d": (2, lambda m, v, o: adaptive_interpolation_2d(*m, v, *o, 3, DBI)),
    "adaptive_3d": (3, lambda m, v, o: adaptive_interpolation_3d(*m, v, *o, 3, PPI)),
    "pchip_1d": (1, lambda m, v, o: pchip_1d(*m, v, *o)),
    "pchip_2d": (2, lambda m, v, o: pchip_2d(*m, v, *o)),
}
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
        axes, call = ENTRY_POINTS[name]
        grid = [np.array([0.0, 1.0, 2.0, 3.0])] * axes
        v = np.linspace(1.0, 2.0, 4 ** axes).reshape((4,) * axes)
        points = [np.array([2.5, 0.0, 1.5])] * axes
        call(grid, v, points)  # the valid call goes through
        v = v if values is None else values
        for k, mesh in (meshes or {}).items():
            grid[k] = np.array(mesh)
        for k, pts in (outs or {}).items():
            points[k] = np.array(pts)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(grid, v, points)

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
    ])
    def test_mesh(self, name, mesh, message):
        for axis in range(ENTRY_POINTS[name][0]):
            self.expect(name, message, meshes={axis: mesh})

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
    ])
    def test_output_points(self, name, pts, message):
        for axis in range(ENTRY_POINTS[name][0]):
            self.expect(name, message, outs={axis: pts})

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
    def test_wrapper_defaults_match_config(self):
        # the wrappers spell the paper's defaults out; InterpConfig is their home
        want = {name: getattr(InterpConfig, name) for name in ("st", "eps0", "eps1")}
        for fn in (adaptive_interpolation_1d, adaptive_interpolation_2d, adaptive_interpolation_3d):
            params = inspect.signature(fn).parameters
            assert {name: params[name].default for name in want} == want
