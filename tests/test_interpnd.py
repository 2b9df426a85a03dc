import numpy as np
import pytest

from ppinterp import (
    DBI,
    PPI,
    adaptive_interpolation_1d,
    adaptive_interpolation_2d,
    adaptive_interpolation_3d,
    pchip_2d,
)

from helpers import random_mesh


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
        for xout, yout in (([2.5], [0.5]), ([0.5], [-0.5]), ([0.5], [np.nan])):
            with pytest.raises(ValueError, match="outside the mesh range"):
                adaptive_interpolation_2d([0, 1, 2], [0, 1, 2], v, xout, yout, 1, DBI)

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
