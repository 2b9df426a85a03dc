import numpy as np

from ppinterp import pchip_1d, pchip_2d
from ppinterp.harness import TEST_FUNCTIONS, l2_error_continuum
from ppinterp.pchip import _end_slope

from helpers import random_mesh, signed_equal


class TestPchip1D:
    def test_monotone_data_no_overshoot(self):
        rng = np.random.default_rng(1)
        x = random_mesh(rng, 9)
        u = np.cumsum(rng.uniform(0.1, 1.0, 9))
        for i in range(8):
            s = np.linspace(x[i], x[i + 1], 1000)
            v = pchip_1d(x, u, s)
            assert np.all(np.diff(v) >= -1e-12 * (u.max() - u.min()))
            assert v.min() >= u[i] - 1e-12 and v.max() <= u[i + 1] + 1e-12

    def test_interval_range_bounded(self):
        rng = np.random.default_rng(2)
        x = random_mesh(rng, 11)
        u = rng.uniform(-4, 4, 11)
        tau = 1e-12 * (u.max() - u.min())
        for i in range(10):
            s = np.linspace(x[i], x[i + 1], 1000)
            v = pchip_1d(x, u, s)
            assert v.min() >= min(u[i], u[i + 1]) - tau
            assert v.max() <= max(u[i], u[i + 1]) + tau

    def test_affine_exact(self):
        x = np.linspace(-2, 3, 9)
        u = 0.5 * x + 4.0
        s = np.linspace(-2, 3, 101)
        assert np.allclose(pchip_1d(x, u, s), 0.5 * s + 4.0, rtol=1e-13)

    def test_nodes_exact(self):
        rng = np.random.default_rng(3)
        x = random_mesh(rng, 13)
        u = rng.uniform(1, 3, 13)
        assert np.allclose(pchip_1d(x, u, x), u, rtol=1e-13)

    def test_error_as_published(self):
        f = TEST_FUNCTIONS["f1"].func
        x = np.linspace(-1, 1, 257)
        dense = np.linspace(-1, 1, 10_000)
        err = l2_error_continuum(pchip_1d(x, f(x), dense), f(dense), dense)
        assert 1.17e-4 / 3 <= err <= 1.17e-4 * 3

    def test_matches_scipy_bit_for_bit(self):
        # pchip_1d runs the numpy sweep on a one-column block; the result
        # must equal SciPy's own 1D call, signs of zero included
        from scipy.interpolate import PchipInterpolator

        rng = np.random.default_rng(6)
        # 2-300 point meshes with 55 output points, then 2-20 point meshes
        # with 2,000 (dense output, about 100 to 2,000 per interval), every
        # node and so x[-1] among them
        for dense in [False] * 300 + [True] * 100:
            n = int(rng.integers(2, 21 if dense else 301))
            x = random_mesh(rng, n)
            u = rng.uniform(-1.0, 3.0, n)
            u[rng.random(n) < 0.3] = 0.0
            u *= 10.0 ** int(rng.integers(-8, 9))
            if dense:
                xq = np.concatenate((rng.uniform(x[0], x[-1], 2000 - n), x))
            else:
                xq = np.concatenate((rng.uniform(x[0], x[-1], 50), x[rng.integers(0, n, 5)]))
            got = pchip_1d(x, u, xq)
            want = PchipInterpolator(x, u)(xq)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_short_meshes_and_end_slopes_match_scipy(self):
        from scipy.interpolate import PchipInterpolator

        one = np.array([1.0])
        # the one-sided end slope (3*1 - 5)/2 = -1 opposes the end secant: it
        # is zeroed; (3*1 + 5)/2 = 4 > 3 with the secants changing sign: it is
        # capped at 3 times the end secant
        assert _end_slope(1.0, 1.0, one, 5 * one)[0] == 0.0
        assert _end_slope(1.0, 1.0, one, -5 * one)[0] == 3.0
        data = [
            [0.0, 1.0, 6.0], [6.0, 1.0, 0.0], [0.0, 1.0, -4.0], [-4.0, 1.0, 0.0],
            [1.0, 1.0, 1.0], [0.0, 0.0, 2.0], [2.0, -0.0, -0.0], [-0.0, -0.0, -0.0],
            [0.0, 1.0, 6.0, 1.0, 0.0], [0.0, 1.0, -4.0, 1.0, 0.0], [-4.0, 1.0, 0.0, 1.0, -4.0],
            [1.0, -1.0, 1.0, -1.0, 1.0], [3.0, 3.0, 2.0, 2.0, 5.0, 5.0], [2.0, 5.0], [-0.0, 1.0], [4.0, 4.0],
        ]
        rng = np.random.default_rng(7)
        for u in data:
            u = np.array(u)
            for x in (np.arange(u.size, dtype=float), random_mesh(rng, u.size)):
                xq = np.concatenate((x, np.linspace(x[0], x[-1], 41)))
                for scale in (1e-8, 1.0, 1e8):
                    assert signed_equal(pchip_1d(x, scale * u, xq), PchipInterpolator(x, scale * u)(xq))

    def test_signed_zeros_nodes_and_scales_match_scipy(self):
        from scipy.interpolate import PchipInterpolator

        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            x = random_mesh(rng, n)
            u = rng.uniform(-1.0, 1.0, n)
            r = rng.random(n)
            u[r < 0.25] = -0.0
            u[(r >= 0.25) & (r < 0.4)] = 0.0
            u[r > 0.85] = np.roll(u, 1)[r > 0.85]  # plateaus
            u *= 10.0 ** int(rng.choice([-8, 0, 8]))
            xq = np.concatenate((x, [x[-1], x[0]], rng.uniform(x[0], x[-1], 20)))
            got = pchip_1d(x, u, xq)
            assert signed_equal(got, PchipInterpolator(x, u)(xq))
            # no node value is written back: the nodes before x[-1] come back
            # by value (a -0.0 as +0.0), while x[-1] is evaluated on the last
            # interval and may round
            assert np.array_equal(got[: n - 1], u[:-1])
            # the intervals at x[0], the nodes and x[-1], sign bits included,
            # on a mesh that starts at 0.0 hit by -0.0 and +0.0, and with
            # the points reversed
            x0 = x - x[0]
            xq0 = np.concatenate((xq - x[0], [-0.0, 0.0]))
            for mesh, q in ((x, xq[::-1]), (x0, xq0), (x0, xq0[::-1])):
                assert signed_equal(pchip_1d(mesh, u, q), PchipInterpolator(mesh, u)(q))


class TestPchip2D:
    def test_blocks_match_scipy_axis_by_axis(self):
        from scipy.interpolate import PchipInterpolator

        rng = np.random.default_rng(9)
        # (2, 3) and (3, 2) grids, random ones, and one large enough that
        # both sweeps run in several chunks of interpnd.CHUNK_PAIRS pairs,
        # with 2 random output points per x node and 1 per y node; then one
        # grid with 30 per node on both axes (dense output)
        shapes = [(2, 3), (3, 2), (2, 2)] + [tuple(rng.integers(2, 30, 2)) for _ in range(40)] + [(181, 190)]
        grids = [(nx, ny, 2, 1) for nx, ny in shapes] + [(9, 12, 30, 30)]
        for nx, ny, kx, ky in grids:
            x, y = random_mesh(rng, nx), random_mesh(rng, ny)
            v = rng.uniform(-1.0, 2.0, (nx, ny))
            r = rng.random((nx, ny))
            v[r < 0.2] = -0.0
            v[(r >= 0.2) & (r < 0.3)] = 0.0
            v *= 10.0 ** int(rng.choice([-8, 0, 8]))
            xo = np.concatenate((x, rng.uniform(x[0], x[-1], kx * nx)))
            yo = np.concatenate((y[::-1], rng.uniform(y[0], y[-1], ky * ny)))
            along_x = PchipInterpolator(x, v, axis=0)(xo)
            assert signed_equal(pchip_2d(x, y, v, xo, yo), PchipInterpolator(y, along_x, axis=1)(yo))

    def test_constant_in_y_matches_1d(self):
        rng = np.random.default_rng(4)
        x = random_mesh(rng, 9)
        y = random_mesh(rng, 5)
        g = np.sin(x) + 2
        v = np.tile(g[:, None], (1, 5))
        xout = np.linspace(x[0], x[-1], 41)
        yout = np.linspace(y[0], y[-1], 7)
        out = pchip_2d(x, y, v, xout, yout)
        line = pchip_1d(x, g, xout)
        for j in range(7):
            assert np.allclose(out[:, j], line, rtol=1e-14)

    def test_positive_data_nonnegative(self):
        rng = np.random.default_rng(5)
        x = random_mesh(rng, 8)
        y = random_mesh(rng, 8)
        v = rng.uniform(0, 3, (8, 8))
        xo = np.linspace(x[0], x[-1], 60)
        yo = np.linspace(y[0], y[-1], 60)
        assert pchip_2d(x, y, v, xo, yo).min() >= -1e-12 * v.max()

    def test_error_as_published(self):
        from ppinterp.harness import ExperimentSpec, approximation_error

        err = approximation_error(ExperimentSpec("f4", 257, "pchip", 3))
        assert 4.19e-5 / 3 <= err <= 4.19e-5 * 3
