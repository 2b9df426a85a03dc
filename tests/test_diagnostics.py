import numpy as np
import pytest

from ppinterp.harness import l2_error_continuum, l2_error_grid, refine_mesh


class TestContinuumNorm:
    def test_zero_for_equal(self):
        x = np.linspace(0, 1, 100)
        assert l2_error_continuum(np.sin(x), np.sin(x), x) == 0.0

    def test_constant_difference(self):
        x = np.linspace(0, 1, 50)
        a = np.full(50, 2.0)
        b = np.full(50, 5.0)
        assert l2_error_continuum(a, b, x) == pytest.approx(3.0, rel=1e-14)

    def test_linear_difference_closed_form(self):
        x = np.linspace(0, 1, 10_000)
        err = l2_error_continuum(x, np.zeros_like(x), x)
        assert err == pytest.approx(np.sqrt(1.0 / 3.0), abs=1e-6)

    def test_symmetry(self):
        x = np.linspace(0, 2, 64)
        a, b = np.cos(x), np.sin(x)
        assert l2_error_continuum(a, b, x) == l2_error_continuum(b, a, x)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="match"):
            l2_error_continuum([1, 2], [1, 2, 3], [0, 1, 2])

    def test_2d_constant_difference(self):
        x = np.linspace(0, 1, 40)
        y = np.linspace(0, 2, 30)
        a = np.zeros((40, 30))
        b = np.full((40, 30), 1.5)
        # integral of 1.5^2 over a 1x2 box, square root
        assert l2_error_continuum(a, b, x, y) == pytest.approx(1.5 * np.sqrt(2.0), rel=1e-12)

    def test_2d_shape_mismatch(self):
        with pytest.raises(ValueError, match="match"):
            l2_error_continuum(np.zeros((3, 3)), np.zeros((3, 3)), [0, 1, 2], [0, 1])


class TestGridNorm:
    def test_zero_for_equal(self):
        assert l2_error_grid([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_mean_square_convention(self):
        assert l2_error_grid([3.0, 4.0], [0.0, 0.0]) == pytest.approx(np.sqrt(25.0 / 2.0))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        a = rng.uniform(-1, 1, 30)
        b = rng.uniform(-1, 1, 30)
        perm = rng.permutation(30)
        assert l2_error_grid(a, b) == pytest.approx(l2_error_grid(a[perm], b[perm]), rel=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            l2_error_grid([1.0], [1.0, 2.0])


class TestNormInputs:
    """The norms take their arrays through the core's validators, so a
    complex, NaN or infinite value raises instead of giving a number."""

    BAD = [
        (np.array([1.0 + 5j, 2.0, 3.0]), "^values must be real, got dtype complex128$"),
        ([np.nan, 2.0, 3.0], "^values must be finite$"),
        ([1.0, np.inf, 3.0], "^values must be finite$"),
        ([1.0, 2.0, -np.inf], "^values must be finite$"),
    ]

    @pytest.mark.parametrize("bad, message", BAD)
    def test_grid_norm_rejects(self, bad, message):
        for a, b in ((bad, [1.0, 2.0, 3.0]), ([1.0, 2.0, 3.0], bad)):
            with pytest.raises(ValueError, match=message):
                l2_error_grid(a, b)

    @pytest.mark.parametrize("bad, message", BAD)
    def test_continuum_norm_rejects(self, bad, message):
        for a, b in ((bad, [1.0, 2.0, 3.0]), ([1.0, 2.0, 3.0], bad)):
            with pytest.raises(ValueError, match=message):
                l2_error_continuum(a, b, [0.0, 1.0, 2.0])

    def test_integer_values_read_as_floats(self):
        assert l2_error_grid([3, 4], [0, 0]) == l2_error_grid([3.0, 4.0], [0.0, 0.0])
        want = l2_error_continuum([3.0, 4.0], [0.0, 0.0], [0.0, 1.0])
        assert l2_error_continuum([3, 4], [0, 0], [0, 1]) == want


class TestRefineMesh:
    def test_counts_k1(self):
        assert refine_mesh(np.linspace(0, 1, 64), 1).size == 127

    def test_counts_k3(self):
        assert refine_mesh(np.linspace(0, 1, 64), 3).size == 253

    def test_identity_k0(self):
        x = np.array([0.0, 0.4, 1.0])
        assert np.array_equal(refine_mesh(x, 0), x)

    def test_preserves_original_points_exactly(self):
        rng = np.random.default_rng(3)
        x = np.sort(rng.uniform(-3, 3, 20))
        for k in (1, 2, 3):
            fine = refine_mesh(x, k)
            assert np.array_equal(fine[:: k + 1], x)
            assert np.all(np.diff(fine) > 0)

    def test_uniform_subdivision_positions(self):
        fine = refine_mesh([0.0, 1.0], 3)
        assert np.allclose(fine, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            refine_mesh([0.0, 1.0], -1)

    @pytest.mark.parametrize("k", [2.0, 1.5, True, False, None, "1"])
    def test_non_integer_k_rejected(self, k):
        with pytest.raises(ValueError, match="integer"):
            refine_mesh([0.0, 1.0], k)

    def test_numpy_integer_k_accepted(self):
        assert np.array_equal(refine_mesh([0.0, 1.0], np.int64(1)), [0.0, 0.5, 1.0])
