import numpy as np
import pytest

from ppinterp.divdiff import (
    IntervalInterpolant, as_mesh1d, build_table, divided_differences, horner, newton_eval,
)

from helpers import brute_dd, leading_dd_lagrange, make_piece, monomial_coefficients, random_mesh


class TestMeshValidation:
    def test_accepts_increasing(self):
        x = as_mesh1d([0.0, 0.5, 2.0])
        assert x.dtype == float and x.size == 3

    def test_rejects_short(self):
        with pytest.raises(ValueError, match="at least 2"):
            as_mesh1d([1.0])

    def test_rejects_nonincreasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            as_mesh1d([0.0, 1.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            as_mesh1d([0.0, 1.0, bad])
        with pytest.raises(ValueError, match="finite"):
            build_table([0.0, 1.0, 2.0], [1.0, bad, 2.0], 2)

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            as_mesh1d([[0.0, 1.0]])


class TestBuildTable:
    def test_two_point_slope(self):
        t = build_table([0.0, 1.0], [3.0, 5.0], 1)
        assert t.entries[0, 1] == 2.0

    def test_quadratic_leading_coefficient(self):
        x = np.array([0.0, 1.0, 2.0])
        t = build_table(x, x**2, 2)
        assert t.entries[0, 2] == 1.0

    def test_matches_direct_recursion(self):
        rng = np.random.default_rng(7)
        x = random_mesh(rng, 5)
        u = rng.uniform(-4, 4, 5)
        t = build_table(x, u, 4)
        for i in range(5):
            for j in range(5 - i):
                want = brute_dd(x, u, i, j)
                got = t.entries[i, j]
                assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    def test_recurrence_identity(self):
        rng = np.random.default_rng(11)
        x = random_mesh(rng, 9)
        u = rng.uniform(-2, 2, 9)
        t = build_table(x, u, 8)
        for i in range(9):
            for j in range(1, 9 - i):
                lhs = t.entries[i, j] * (x[i + j] - x[i])
                rhs = t.entries[i + 1, j - 1] - t.entries[i, j - 1]
                assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(t.entries[i, j - 1]))

    def test_zero_order_is_values(self):
        u = [1.0, -2.0, 7.0]
        t = build_table([0, 1, 2], u, 2)
        assert list(t.entries[:, 0]) == u

    def test_order_capped_by_mesh(self):
        t = build_table([0, 1, 2], [0, 1, 4], 9)
        assert t.entries.shape == (3, 3)

    def test_invalid_region_is_nan(self):
        # Every entry with i + j >= n is NaN and every other one finite, for
        # one line and for an (n, lines) block, with d past n-1 too: the
        # stencil engine reads a candidate past either mesh end as that NaN.
        # The block's table is column-major, (order, point, line), and each
        # line's slab is that line's build_table entries transposed.
        t = build_table([0, 1, 2], [0, 1, 4], 2)
        assert np.isnan(t.entries[2, 1]) and np.isnan(t.entries[1, 2])
        rng = np.random.default_rng(19)
        for n in range(2, 7):
            x = random_mesh(rng, n)
            block = rng.uniform(-2.0, 2.0, (n, 3))
            block[rng.random(block.shape) < 0.3] = 0.0
            for d in range(1, n + 3):
                top = min(d, n - 1)
                i, j = np.indices((n, top + 1))
                invalid = i + j >= n
                cm = divided_differences(x, block, d)
                assert cm.shape == (top + 1, n, 3)
                for c in range(3):
                    entries = build_table(x, block[:, c], d).entries
                    assert entries.shape == (n, top + 1)
                    assert np.isnan(entries[invalid]).all()
                    assert np.isfinite(entries[~invalid]).all()
                    assert (cm[:, :, c].T.view(np.int64) == entries.view(np.int64)).all()

    @pytest.mark.parametrize("values", [[1, 2], [[1, 2], [3, 4], [5, 6]]], ids=["short", "block"])
    def test_length_mismatch(self, values):
        # one line of values, one per mesh point: an (n, lines) block is refused
        with pytest.raises(ValueError, match="does not match"):
            build_table([0, 1, 2], values, 1)

    def test_nonincreasing_mesh(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            build_table([0, 1, 0.5], [1, 2, 3], 1)

    @pytest.mark.parametrize("degree", [0, 2.5, True], ids=["zero", "float", "bool"])
    def test_bad_degree(self, degree):
        with pytest.raises(ValueError, match="max_degree"):
            build_table([0, 1], [1, 2], degree)

    def test_numpy_integer_degree_accepted(self):
        assert build_table([0, 1, 2], [1, 2, 4], np.int64(2)).entries[0, 2] == 0.5


class TestIntervalInterpolant:
    def test_window_must_contain_interval(self):
        with pytest.raises(ValueError, match="does not contain"):
            IntervalInterpolant(3, (0, 2), (0, 1, 2), (1.0, 2.0, 3.0))

    def test_order_must_start_with_interval(self):
        with pytest.raises(ValueError, match="start with"):
            IntervalInterpolant(0, (0, 2), (0, 2, 1), (1.0, 2.0, 3.0))

    def test_order_must_cover_window(self):
        with pytest.raises(ValueError, match="permutation"):
            IntervalInterpolant(1, (0, 2), (1, 2, 2), (1.0, 2.0, 3.0))

    @pytest.mark.parametrize("order, coeffs", [((0, 1), (1.0, 2.0, 3.0)), ((0, 1, 2), (1.0, 2.0))])
    def test_order_and_coefficients_sized_to_window(self, order, coeffs):
        # a window of three points takes three nodes and three coefficients
        with pytest.raises(ValueError, match="^insertion order / coefficients must cover the window$"):
            IntervalInterpolant(0, (0, 2), order, coeffs)


class TestNewtonEval:
    def test_linear_piece_at_left_node(self):
        x = np.array([0.0, 2.0])
        u = np.array([3.0, 7.0])
        piece = make_piece(x, u, 0, [0, 1])
        assert newton_eval(piece, x, 0.0) == 3.0

    def test_quadratic_reproduction(self):
        x = np.array([0.0, 1.0, 2.0])
        piece = make_piece(x, x**2, 0, [0, 1, 2])
        assert newton_eval(piece, x, 0.5) == pytest.approx(0.25, rel=1e-14)

    def test_matches_monomial_expansion(self):
        rng = np.random.default_rng(3)
        x = random_mesh(rng, 8)
        u = rng.uniform(-3, 3, 8)
        piece = make_piece(x, u, 3, [3, 4, 2, 5, 1, 6])  # degree 5 window
        coeffs = monomial_coefficients(x, piece)
        pts = rng.uniform(x[3], x[4], 100)
        got = newton_eval(piece, x, pts)
        want = np.polynomial.polynomial.polyval(pts, coeffs)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_insertion_order_does_not_change_polynomial(self):
        rng = np.random.default_rng(5)
        x = random_mesh(rng, 6)
        u = rng.uniform(-1, 1, 6)
        a = make_piece(x, u, 2, [2, 3, 1, 4, 0, 5])
        b = make_piece(x, u, 2, [2, 3, 4, 5, 1, 0])
        pts = np.linspace(x[2], x[3], 37)
        assert np.allclose(newton_eval(a, x, pts), newton_eval(b, x, pts), rtol=1e-12, atol=1e-13)

    def test_leading_coefficient_permutation_invariance(self):
        rng = np.random.default_rng(9)
        x = random_mesh(rng, 7)
        u = rng.uniform(-2, 2, 7)
        a = make_piece(x, u, 2, [2, 3, 1, 4, 5, 0, 6])
        b = make_piece(x, u, 2, [2, 3, 4, 1, 0, 5, 6])
        lead = leading_dd_lagrange(x, u, 0, 6)
        assert a.coefficients[-1] == pytest.approx(lead, rel=1e-12)
        assert b.coefficients[-1] == pytest.approx(lead, rel=1e-12)

    def test_zero_padded_rows_match_trimmed_pieces(self):
        # horner evaluates every column with no mask: a row padded past its
        # degree with +0 coefficients (and any node) gives its trimmed
        # piece's result bit for bit, for data with +0 and -0 zeros and for
        # points inside and outside the interval
        rng = np.random.default_rng(17)
        x = random_mesh(rng, 9)
        top = 8
        coeffs, nodes, pts, want = [], [], [], []
        for k in range(200):
            u = rng.uniform(-2.0, 2.0, 9)
            zeros = rng.random(9) < (1.0 if k % 4 == 0 else 0.4)
            u[zeros] = rng.choice([0.0, -0.0], zeros.sum())
            i = int(rng.integers(0, 8))
            order, l, r = [i, i + 1], i, i + 1
            for _ in range(int(rng.integers(0, 8))):
                if l > 0 and (r == 8 or rng.random() < 0.5):
                    l -= 1
                    order.append(l)
                elif r < 8:
                    r += 1
                    order.append(r)
            piece = make_piece(x, u, i, order)
            s = np.concatenate([np.linspace(x[i], x[i + 1], 5), rng.uniform(x[0], x[-1], 3)])
            coeffs.append(np.pad(piece.coefficients, (0, top + 1 - len(order))))
            nodes.append(x[np.pad(order, (0, top + 1 - len(order)), constant_values=i)])
            pts.append(s)
            want.append(newton_eval(piece, x, s))
        # one run of 8 points per row
        got = horner(np.array(coeffs), np.array(nodes), np.full(200, 8), np.ravel(pts))
        assert (got.reshape(200, 8).view(np.int64) == np.array(want).view(np.int64)).all()

    def test_reproduces_node_values(self):
        rng = np.random.default_rng(13)
        x = random_mesh(rng, 7)
        u = rng.uniform(1, 5, 7)
        piece = make_piece(x, u, 3, [3, 4, 2, 5, 1])
        for k in piece.insertion_order:
            assert newton_eval(piece, x, x[k]) == pytest.approx(u[k], rel=1e-12)

