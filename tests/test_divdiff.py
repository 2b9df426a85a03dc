import re

import numpy as np
import pytest

from ppinterp.config import as_mesh1d
from ppinterp.stencil import (
    IntervalInterpolant, build_table, divided_differences, horner, newton_eval, next_order, replay_chain,
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

    def test_two_slabs_give_every_order(self):
        # The stencil engine keeps two (n, lines) slabs and builds each order
        # over the older one, whose stale entries must all be overwritten;
        # every order, NaN tail included, equals the whole table's bit for bit.
        rng = np.random.default_rng(20)
        for n in range(2, 9):
            x = random_mesh(rng, n)
            block = rng.uniform(-2.0, 2.0, (n, 3))
            table = divided_differences(x, block, n - 1)
            xb = x[:, None]
            cur, nxt = np.full((2, n, 3), np.nan)
            next_order(block, xb[1:] - xb[:-1], cur)
            for j in range(1, n):
                if j > 1:
                    cur, nxt = next_order(cur, xb[j:] - xb[: n - j], nxt), cur
                assert (cur.view(np.int64) == table[j].view(np.int64)).all()

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

    def test_reads_its_inputs_only(self, monkeypatch):
        # horner accumulates in place: on the padded multi-line records of a
        # 2D sweep it leaves every input as it was, and its result shares no
        # memory with any of them
        from ppinterp import adaptive_interpolation_2d, stencil

        calls = []

        def recorded(*args):
            before = [a.tobytes() for a in args]
            res = horner(*args)
            calls.append((args, before, res))
            return res

        monkeypatch.setattr(stencil, "horner", recorded)
        rng = np.random.default_rng(19)
        x, y = random_mesh(rng, 12), random_mesh(rng, 10)
        v = rng.uniform(0.0, 2.0, (12, 10))
        v[rng.random((12, 10)) < 0.3] = 0.0
        adaptive_interpolation_2d(x, y, v, rng.uniform(x[0], x[-1], 30), rng.uniform(y[0], y[-1], 25), 8, 2)
        assert len(calls) == 2
        for args, before, res in calls:
            coeffs, runs = args[0], args[2]
            assert coeffs.shape[0] > runs.size  # several lines per interval
            assert (coeffs[:, -1] == 0.0).any()  # rows padded past their degree
            assert [a.tobytes() for a in args] == before
            assert not any(np.shares_memory(res, a) for a in args)

    # The one-interval API takes its input under the entry points' rule and
    # wording: a complex point or mesh is not cut to its real part, and a
    # NaN or infinite one raises instead of giving a silent NaN.
    BAD_INPUTS = [
        (None, np.array([0.5 + 2j]), "^output points must be real, got dtype complex128$"),
        (None, 0.5 + 2j, "^output points must be real, got dtype complex128$"),
        (None, np.nan, "^output points must be finite$"),
        (None, [0.5, np.inf], "^output points must be finite$"),
        ([0.0, np.nan, 2.0], 0.5, "^mesh coordinates must be finite$"),
        ([0.0, 1.0 + 0j, 2.0], 0.5, "^mesh coordinates must be real, got dtype complex128$"),
        ([0.0, 2.0, 1.0], 0.5, "^mesh coordinates must be strictly increasing$"),
    ]

    @pytest.mark.parametrize("mesh, points, message", BAD_INPUTS)
    def test_rejects_what_the_entry_points_reject(self, mesh, points, message):
        x = np.array([0.0, 1.0, 2.0])
        piece = make_piece(x, x**2, 0, [0, 1, 2])
        with pytest.raises(ValueError, match=message):
            newton_eval(piece, x if mesh is None else mesh, points)

    @pytest.mark.parametrize("mesh, message", [
        ([0.0, 1.0 + 0j, 2.0], "^mesh coordinates must be real, got dtype complex128$"),
        ([0.0, 1.0, np.nan], "^mesh coordinates must be finite$"),
    ])
    def test_replay_chain_rejects_the_same_meshes(self, mesh, message):
        x = np.array([0.0, 1.0, 2.0])
        piece = make_piece(x, x**2, 0, [0, 1, 2])
        with pytest.raises(ValueError, match=message):
            replay_chain(piece, build_table(x, x**2, 2), mesh)

    # A piece read with a mesh or a table it does not fit raises a
    # ValueError that names the mismatch, not numpy's IndexError from
    # inside the evaluation or the replay.
    @staticmethod
    def degree_six():
        x = np.linspace(0.0, 1.0, 9)
        u = np.abs(np.sin(7.0 * x))
        return x, u, make_piece(x, u, 0, range(7))

    def test_window_past_the_mesh(self):
        x, u, piece = self.degree_six()
        message = r"^piece window \(0, 6\) does not fit a mesh of 5 points$"
        with pytest.raises(ValueError, match=message):
            newton_eval(piece, x[:5], 0.5)
        with pytest.raises(ValueError, match=message):
            replay_chain(piece, build_table(x[:5], u[:5], 6), x[:5])

    def test_window_before_the_mesh(self):
        x = np.array([0.0, 1.0, 2.0])
        piece = IntervalInterpolant(-1, (-1, 0), (-1, 0), (1.0, 1.0))
        message = r"^piece window \(-1, 0\) does not fit a mesh of 3 points$"
        with pytest.raises(ValueError, match=message):
            newton_eval(piece, x, 0.5)

    def test_table_of_another_mesh(self):
        x, u, piece = self.degree_six()
        message = r"^table of shape \(8, 7\) does not fit 9 mesh points and degree 6$"
        with pytest.raises(ValueError, match=message):
            replay_chain(piece, build_table(x[:8], u[:8], 6), x)

    def test_table_below_the_degree(self):
        x, u, piece = self.degree_six()
        message = r"^table of shape \(9, 3\) does not fit 9 mesh points and degree 6$"
        with pytest.raises(ValueError, match=message):
            replay_chain(piece, build_table(x, u, 2), x)

    def test_rejects_points_outside_the_mesh(self):
        # the entry points' range rule and wording: no extrapolation, and
        # an outside point is named in the caller's order
        x = np.linspace(0.0, 1.0, 5)
        piece = make_piece(x, np.abs(np.sin(7.0 * x)), 1, [1, 2, 0, 3, 4])
        above = np.nextafter(1.0, 2.0)
        for points, bad in ((5.0, 5.0), ([0.5, -0.25, 2.0], -0.25), ([1.0, above], above)):
            message = rf"^output point {re.escape(str(bad))} outside the mesh range \[0.0, 1.0\]$"
            with pytest.raises(ValueError, match=message):
                newton_eval(piece, x, points)
        # the mesh's end points are inside
        assert newton_eval(piece, x, [0.0, 1.0]).shape == (2,)

    def test_reproduces_node_values(self):
        rng = np.random.default_rng(13)
        x = random_mesh(rng, 7)
        u = rng.uniform(1, 5, 7)
        piece = make_piece(x, u, 3, [3, 4, 2, 5, 1])
        for k in piece.insertion_order:
            assert newton_eval(piece, x, x[k]) == pytest.approx(u[k], rel=1e-12)

