import numpy as np
import pytest

from ppinterp import DBI, PPI, InterpConfig, adaptive_interpolation_1d, interval_interpolants
from ppinterp.interp1d import interpolate_lines
from ppinterp.interpnd import locate

from helpers import mixed_points, random_mesh, reorderings, signed_equal, signed_zeros


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


class TestValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            adaptive_interpolation_1d([0, 1, 2], [1, 2], [0.5], 3, DBI)

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="at least 2"):
            adaptive_interpolation_1d([0.0], [1.0], [0.0], 3, DBI)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input(self, bad):
        for x, u in (([0, 1, 2], [1, bad, 2]), ([0, 1, bad], [1, 2, 3]), ([-bad, 1, 2], [1, 2, 3])):
            with pytest.raises(ValueError, match="finite"):
                adaptive_interpolation_1d(x, u, [1.5], 1, DBI)
            with pytest.raises(ValueError, match="finite"):
                interval_interpolants(x, u, InterpConfig(d=1, im=PPI))

    def test_out_of_range_names_value(self):
        with pytest.raises(ValueError, match="1.5"):
            adaptive_interpolation_1d([0, 1], [1, 2], [0.5, 1.5], 1, DBI)

    def test_out_of_range_value_printed_as_float(self):
        msg = r"^output point -0\.25 outside the mesh range \[0\.0, 1\.0\]$"
        with pytest.raises(ValueError, match=msg):
            adaptive_interpolation_1d([0, 1], [1, 2], np.array([0.5, -0.25]), 1, DBI)

    def test_nan_output_point_rejected(self):
        with pytest.raises(ValueError, match="^output points must be finite$"):
            adaptive_interpolation_1d([0, 1], [1, 2], [np.nan], 1, DBI)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_output_points(self, bad):
        # the same wording as for a non-finite mesh or values, wherever the
        # bad point sits among valid ones
        for pts in ([bad], [0.5, bad], [bad, 0.0, 1.0]):
            with pytest.raises(ValueError, match="^output points must be finite$"):
                adaptive_interpolation_1d([0, 1], [1, 2], pts, 1, DBI)

    @pytest.mark.parametrize("im", [3, True, 2.0], ids=["out-of-range", "bool", "float"])
    def test_bad_method(self, im):
        with pytest.raises(ValueError, match="im must be"):
            adaptive_interpolation_1d([0, 1], [1, 2], [0.5], 1, im)

    @pytest.mark.parametrize("st", [4, True, 3.0], ids=["out-of-range", "bool", "float"])
    def test_bad_st(self, st):
        with pytest.raises(ValueError, match="st must be"):
            adaptive_interpolation_1d([0, 1], [1, 2], [0.5], 1, DBI, st=st)

    def test_numpy_integer_method_and_st(self):
        cfg = InterpConfig(d=np.int64(3), im=np.int32(PPI), st=np.int8(1))
        assert (cfg.im, cfg.st) == (PPI, 1)

    def test_negative_eps(self):
        with pytest.raises(ValueError, match="nonnegative"):
            adaptive_interpolation_1d([0, 1], [1, 2], [0.5], 1, DBI, eps0=-0.1)

    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    def test_non_finite_eps(self, eps):
        with pytest.raises(ValueError, match="finite"):
            adaptive_interpolation_1d([0, 1], [1, 2], [0.5], 1, PPI, eps0=eps)
        with pytest.raises(ValueError, match="finite"):
            adaptive_interpolation_1d([0, 1], [1, 2], [0.5], 1, PPI, eps1=eps)

    @pytest.mark.parametrize("eps", [True, "0.1", None], ids=["bool", "str", "none"])
    def test_non_real_eps(self, eps):
        for field in ("eps0", "eps1"):
            with pytest.raises(ValueError, match="real numbers"):
                adaptive_interpolation_1d([0, 1], [1, 2], [0.5], 1, PPI, **{field: eps})

    @pytest.mark.parametrize("d", [8.0, True], ids=["float", "bool"])
    def test_non_integer_degree(self, d):
        for n in (5, 33):
            x = np.linspace(0, 1, n)
            with pytest.raises(ValueError, match="integer"):
                adaptive_interpolation_1d(x, x**2, [0.5], d, PPI)

    def test_numpy_integer_degree(self):
        x = np.linspace(0, 1, 33)
        u = np.cos(3 * x)
        xout = np.linspace(0, 1, 50)
        got = adaptive_interpolation_1d(x, u, xout, np.int64(8), PPI)
        assert np.array_equal(got, adaptive_interpolation_1d(x, u, xout, 8, PPI))

    def test_empty_output(self):
        out = adaptive_interpolation_1d([0, 1], [1, 2], [], 1, DBI)
        assert out.shape == (0,)


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

    def test_node_interpolation(self):
        x = np.linspace(-1, 1, 33)
        u = np.cos(3 * x) + 2
        for im in (DBI, PPI):
            v = adaptive_interpolation_1d(x, u, x, 8, im)
            assert np.allclose(v, u, rtol=1e-12, atol=0)

    def test_left_nodes_bitwise_exact(self):
        rng = np.random.default_rng(6)
        x = random_mesh(rng, 9)
        u = rng.uniform(1, 2, 9)
        v = adaptive_interpolation_1d(x, u, x[:-1], 4, PPI)
        assert np.array_equal(v, u[:-1])

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
    def test_permutation_equivariance(self):
        rng = np.random.default_rng(10)
        x = random_mesh(rng, 11)
        u = rng.uniform(0, 4, 11)
        xout = rng.uniform(x[0], x[-1], 60)
        perm = rng.permutation(60)
        base = adaptive_interpolation_1d(x, u, xout, 5, PPI)
        shuffled = adaptive_interpolation_1d(x, u, xout[perm], 5, PPI)
        assert np.array_equal(shuffled, base[perm])

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

    def test_unsorted_output_points(self):
        x = np.linspace(0, 1, 5)
        u = x**2
        out = adaptive_interpolation_1d(x, u, [0.9, 0.1, 0.5], 2, DBI)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(0.01, abs=1e-12)


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
        via_cfg = interpolate_lines(x, u[:, None], *locate(x, xout)[:3], cfg)[:, 0]
        via_args = adaptive_interpolation_1d(x, u, xout, 4, PPI, 2, 0.1, 0.5)
        assert np.array_equal(via_cfg, via_args)

    def test_degree_capped_by_mesh(self):
        x = np.linspace(0, 1, 4)
        u = x**3
        v = adaptive_interpolation_1d(x, u, [0.5], 8, PPI)
        assert v[0] == pytest.approx(0.125, rel=1e-12)

    def test_pieces_cover_all_intervals(self):
        x = np.linspace(0, 1, 9)
        u = np.cos(x)
        pieces = interval_interpolants(x, u, InterpConfig(d=3, im=DBI))
        assert [p.interval_index for p in pieces] == list(range(8))
