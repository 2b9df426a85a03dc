"""Tests of ``ppinterp.stencil``, in the order the module defines its code:
the Newton form (divided-difference tables, pieces, ``horner`` and
``newton_eval``), the admissibility model (extremum classes, value bounds,
scaling factors, the lambda_bar/B+- step and the direction policy), the
engine that grows stencils for blocks of lines, checked against the
per-interval oracle in ``oracle.py``, and the readers of its record
(``replay_stencils`` and ``replay_chain``)."""

import hashlib
import itertools
import re
from dataclasses import replace

import numpy as np
import pytest

from ppinterp import adaptive_interpolation_2d, interpnd, stencil
from ppinterp.config import DBI, PPI, InterpConfig
from ppinterp.harness import TEST_FUNCTIONS
from ppinterp.stencil import (
    ExtremumClass,
    IntervalInterpolant,
    boundary_sigmas,
    build_table,
    classify_interval,
    divided_differences,
    grow_stencils,
    horner,
    interpolate_lines,
    interval_bounds,
    interval_interpolants,
    lambda_bar_step,
    newton_eval,
    next_order,
    replay_chain,
    replay_stencils,
    scaling_factors,
    select_direction,
)

import oracle
from helpers import (
    brute_dd, leading_dd_lagrange, make_piece, monomial_coefficients, random_grid_case, random_mesh,
    signed_zeros,
)
from oracle import IntervalBounds, build_stencil


# The Newton form: divided-difference tables, pieces and their evaluation.


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


# The admissibility model: classes, value bounds, scaling factors, the
# lambda_bar/B+- step and the direction policy.


class TestClassifyInterval:
    def test_opposite_outer_falling_entry(self):
        assert classify_interval(-2.0, 1.0, 3.0) is ExtremumClass.LOCAL_MAX

    def test_opposite_outer_rising_entry(self):
        assert classify_interval(2.0, -1.0, -3.0) is ExtremumClass.LOCAL_MIN

    def test_monotone_data(self):
        assert classify_interval(1.0, 1.0, 1.0) is ExtremumClass.NONE

    def test_ambiguous(self):
        assert classify_interval(1.0, -1.0, 2.0) is ExtremumClass.AMBIGUOUS

    def test_zero_outer_product_not_extremal(self):
        # zero slopes count as "same sign" for the outer product
        assert classify_interval(0.0, 1.0, -1.0) is ExtremumClass.NONE
        assert classify_interval(-1.0, 1.0, 0.0) is ExtremumClass.AMBIGUOUS

    def test_scale_invariance(self):
        # scales reach 1e+-300, where products of two slopes would underflow
        # to zero or overflow to infinity
        rng = np.random.default_rng(21)
        sigs = rng.uniform(-1, 1, (200, 3))
        scales = 10.0 ** rng.uniform(-300, 300, 200)
        for sig, scale in zip(sigs, scales):
            assert classify_interval(*sig) is classify_interval(*(sig * scale))
        base = classify_interval(*sigs.T)
        assert np.array_equal(classify_interval(*(sigs * scales[:, None]).T), base)


    # Each sign of a slope, at the magnitudes where a product of two slopes
    # underflows to zero or overflows to infinity, and zero of either sign.
    VALUES_OF_SIGN = {-1: (-1e300, -1.0, -1e-300), 0: (-0.0, 0.0), 1: (1e-300, 1.0, 1e300)}

    @staticmethod
    def rule(s_prev, s_cur, s_next):
        """The docstring's rule on the slopes' signs: opposite nonzero outer
        signs flag an extremum typed by the entry sign; otherwise an inner
        sign opposite the entry one leaves the type ambiguous."""
        if s_prev * s_next < 0:
            return ExtremumClass.LOCAL_MAX if s_prev < 0 else ExtremumClass.LOCAL_MIN
        return ExtremumClass.AMBIGUOUS if s_prev * s_cur < 0 else ExtremumClass.NONE

    def test_every_sign_triple(self):
        signs, sigmas = [], []
        for triple in itertools.product((-1, 0, 1), repeat=3):
            for sig in itertools.product(*(self.VALUES_OF_SIGN[s] for s in triple)):
                signs.append(triple)
                sigmas.append(sig)
        assert len(set(signs)) == 27
        expected = [self.rule(*triple) for triple in signs]
        assert [classify_interval(*sig) for sig in sigmas] == expected  # scalar form
        got = classify_interval(*np.array(sigmas).T)  # array form
        assert got.dtype.kind == "i"
        assert got.tolist() == [int(c) for c in expected]


class TestIntervalBounds:
    def test_no_extremum(self):
        assert interval_bounds(1.0, 2.0, ExtremumClass.NONE, 0.01, 1.0) == (0.99, 2.02)

    def test_relaxes_lower_side_only(self):
        # opposite-sign outer slopes entered falling: the dip may undershoot,
        # so the lower bound opens with eps1 while the upper keeps eps0
        assert interval_bounds(1.0, 2.0, ExtremumClass.LOCAL_MAX, 0.01, 1.0) == (0.0, 2.02)

    def test_relaxes_upper_side_only(self):
        assert interval_bounds(1.0, 2.0, ExtremumClass.LOCAL_MIN, 0.01, 1.0) == (0.99, 4.0)

    def test_ambiguous_relaxes_both(self):
        assert interval_bounds(1.0, 2.0, ExtremumClass.AMBIGUOUS, 0.01, 1.0) == (0.0, 4.0)

    def test_zero_eps_collapses_to_data(self):
        for cls in ExtremumClass:
            assert interval_bounds(-1.5, 2.5, cls, 0.0, 0.0) == (-1.5, 2.5)

    def test_negative_values(self):
        u_min, u_max = interval_bounds(-2.0, -1.0, ExtremumClass.NONE, 0.01, 1.0)
        assert u_min == pytest.approx(-2.02)
        assert u_max == pytest.approx(-0.99)

    def test_lower_bound_stays_positive_for_positive_data(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            a, b = rng.uniform(0, 10, 2)
            eps0, eps1 = rng.uniform(0, 1, 2)
            cls = rng.choice(list(ExtremumClass))
            u_min, u_max = interval_bounds(a, b, cls, eps0, eps1)
            assert u_min >= 0.0
            assert u_min <= min(a, b) and u_max >= max(a, b)


class TestScalingFactors:
    def test_dbi_is_pinned(self):
        assert scaling_factors(1.0, 2.0, -10.0, 10.0, DBI) == (0.0, 1.0)
        assert scaling_factors(5.0, 5.0, 0.0, 10.0, DBI) == (0.0, 1.0)

    def test_ppi_increasing(self):
        m_l, m_r = scaling_factors(1.0, 2.0, 0.99, 2.02, PPI)
        assert m_l == pytest.approx(-0.01)
        assert m_r == pytest.approx(1.02)

    def test_ppi_decreasing(self):
        m_l, m_r = scaling_factors(2.0, 1.0, 0.99, 2.02, PPI)
        assert m_l == pytest.approx(-0.02)
        assert m_r == pytest.approx(1.01)

    def test_degenerate_positive_w(self):
        # min(0, (0.99-1)/0.5) and max(0, (1.02-1)/0.5)
        m_l, m_r = scaling_factors(1.0, 1.0, 0.99, 1.02, PPI, degenerate_w=0.5)
        assert m_l == pytest.approx(-0.02)
        assert m_r == pytest.approx(0.04)

    def test_degenerate_positive_small_w(self):
        m_l, m_r = scaling_factors(1.0, 1.0, 0.99, 1.02, PPI, degenerate_w=0.01)
        assert m_l == pytest.approx(-1.0)
        assert m_r == pytest.approx(2.0)

    def test_degenerate_negative_w(self):
        # sides swap: min(0, (1.02-1)/-0.5) and max(0, (0.99-1)/-0.5)
        m_l, m_r = scaling_factors(1.0, 1.0, 0.99, 1.02, PPI, degenerate_w=-0.5)
        assert m_l == pytest.approx(-0.04)
        assert m_r == pytest.approx(0.02)

    def test_degenerate_enclosure_is_exact(self):
        # the degenerate factors translate back to exactly [u_min, u_max]
        u_i, u_min, u_max, w = 1.7, 1.05, 2.34, -1.98
        m_l, m_r = scaling_factors(u_i, u_i, u_min, u_max, PPI, degenerate_w=w)
        lo, hi = sorted((u_i + w * m_l, u_i + w * m_r))
        assert lo == pytest.approx(u_min) and hi == pytest.approx(u_max)

    def test_degenerate_flat_signals(self):
        with pytest.raises(ValueError, match="flat data"):
            scaling_factors(1.0, 1.0, 0.99, 1.02, PPI, degenerate_w=0.0)

    def test_degenerate_requires_w(self):
        with pytest.raises(ValueError, match="degenerate_w"):
            scaling_factors(1.0, 1.0, 0.99, 1.02, PPI)

    def test_zero_eps_recovers_dbi_factors(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a, b = rng.uniform(-5, 5, 2)
            if a == b:
                continue
            u_min, u_max = min(a, b), max(a, b)
            assert scaling_factors(a, b, u_min, u_max, PPI) == (0.0, 1.0)

    def test_factor_ordering_property(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            a, b = rng.uniform(-5, 5, 2)
            eps0, eps1 = rng.uniform(0, 2, 2)
            cls = rng.choice(list(ExtremumClass))
            u_min, u_max = interval_bounds(a, b, cls, eps0, eps1)
            if a == b:
                m_l, m_r = scaling_factors(a, b, u_min, u_max, PPI, degenerate_w=rng.uniform(0.1, 2))
                assert m_l <= 0.0 <= m_r
            else:
                m_l, m_r = scaling_factors(a, b, u_min, u_max, PPI)
                assert m_l <= 0.0 <= 1.0 <= m_r


class TestBoundarySigmas:
    def test_interior(self):
        assert boundary_sigmas([1.0, 2.0, 3.0], 1) == (1.0, 2.0, 3.0)

    def test_left_boundary_copies_own_slope(self):
        assert boundary_sigmas([2.0, 3.0], 0) == (2.0, 2.0, 3.0)

    def test_right_boundary_copies_own_slope(self):
        assert boundary_sigmas([2.0, 3.0], 1) == (2.0, 3.0, 3.0)

    def test_single_interval(self):
        assert boundary_sigmas([4.0], 0) == (4.0, 4.0, 4.0)

    @pytest.mark.parametrize(
        "slopes, i, message",
        [
            # sigma_i would wrap to the last slope while the neighbours clip
            ([1.0, 2.0, 3.0], -1, r"^interval index must be an integer in \[0, 2\], got -1$"),
            ([1.0, 2.0, 3.0], 3, r"^interval index must be an integer in \[0, 2\], got 3$"),
            ([1.0, 2.0, 3.0], 1.5, r"^interval index must be an integer in \[0, 2\], got 1.5$"),
            # a bool would index as a mask
            ([1.0, 2.0, 3.0], True, r"^interval index must be an integer in \[0, 2\], got True$"),
            ([1.0, np.nan, 3.0], 0, "^slopes must be finite$"),
            ([1.0, 2.0, np.inf], 1, "^slopes must be finite$"),
            ([-np.inf, 2.0, 3.0], 2, "^slopes must be finite$"),
        ],
        ids=["negative", "past-end", "float", "bool", "nan", "inf", "-inf"],
    )
    def test_invalid_input_rejected(self, slopes, i, message):
        with pytest.raises(ValueError, match=message):
            boundary_sigmas(slopes, i)

    def test_numpy_integer_index(self):
        assert boundary_sigmas(np.array([1.0, 2.0, 3.0]), np.int64(2)) == (2.0, 3.0, 3.0)

    @pytest.mark.parametrize("slopes", [[1.0 + 2j, 3.0, 4.0], np.array([1.0 + 2j, 3.0, 4.0])])
    def test_complex_slopes_rejected(self, slopes):
        # converting them would keep only the real parts
        with pytest.raises(ValueError, match="^slopes must be real, got dtype complex128$"):
            boundary_sigmas(slopes, 1)


def bits(values):
    """Each value's float64 bit pattern (tells -0.0 from 0.0)."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


class TestArrayPathMatchesScalar:
    """Every function runs one path of numpy arithmetic, for one interval
    (as the oracle calls it) and for arrays of lanes (as the engine and the
    replay call it); element for element, an array call gives the
    one-interval calls' results bit for bit."""

    SLOPES = (-1.5, -1e-200, -0.0, 0.0, 1e-200, 2.0)
    VALUES = (-2.5, -0.0, 0.0, 1e-300, 0.75, 3.0)
    EPS = ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (0.01, 1.0))

    def test_classify_interval(self):
        sig = np.array(list(itertools.product(self.SLOPES, repeat=3))).T
        cls = classify_interval(*sig)
        assert cls.dtype.kind == "i"
        for k, s in enumerate(sig.T.tolist()):
            scalar = classify_interval(*s)
            assert type(scalar) is ExtremumClass
            assert scalar is ExtremumClass(int(cls[k]))
        # every class is reached
        assert set(cls.tolist()) == {int(c) for c in ExtremumClass}

    def pairs(self):
        grid = itertools.product(self.VALUES, self.VALUES, ExtremumClass)
        u_i, u_ip1, cls = (np.array(col) for col in zip(*grid))
        return u_i, u_ip1, cls.astype(int)

    def test_interval_bounds(self):
        u_i, u_ip1, cls = self.pairs()
        for eps0, eps1 in self.EPS:
            lo, hi = interval_bounds(u_i, u_ip1, cls, eps0, eps1)
            scalar = [
                interval_bounds(a, b, ExtremumClass(c), eps0, eps1)
                for a, b, c in zip(u_i.tolist(), u_ip1.tolist(), cls.tolist())
            ]
            assert bits(lo) == bits([s[0] for s in scalar])
            assert bits(hi) == bits([s[1] for s in scalar])

    def test_scaling_factors(self):
        u_i, u_ip1, cls = self.pairs()
        w = np.resize([0.5, -2.0, 1e-3, -7.0], u_i.size)  # read where u_i == u_ip1
        for eps0, eps1 in self.EPS:
            u_min, u_max = interval_bounds(u_i, u_ip1, cls, eps0, eps1)
            m_l, m_r = scaling_factors(u_i, u_ip1, u_min, u_max, PPI, w)
            args = zip(u_i.tolist(), u_ip1.tolist(), u_min.tolist(), u_max.tolist(), w.tolist())
            scalar = [scaling_factors(*a, PPI, degenerate_w) for *a, degenerate_w in args]
            assert bits(m_l) == bits([s[0] for s in scalar])
            assert bits(m_r) == bits([s[1] for s in scalar])
            # DBI pins the factors to scalars whatever the lanes
            assert scaling_factors(u_i, u_ip1, u_min, u_max, DBI, w) == (0.0, 1.0)

    def check_lambda_bar_step(self, dd, length, h, t, lam, prev, lp, denom, m_l, m_r, dg):
        """The engine's call, the left and right candidates of every lane as
        ``(2, lanes)`` arrays against per-lane state, against one call per
        candidate on Python floats."""
        got = lambda_bar_step(dd, length, h, t, lam, prev, lp, denom, m_l, m_r, dg)
        lanes = h.size

        def lane(a):  # per-lane values; a scalar is shared by every lane
            return a.tolist() if isinstance(a, np.ndarray) else [a] * lanes

        state = zip(*map(lane, (h, t, lam, lp, denom, m_l, m_r, dg)),
                    *map(lane, prev or (None, None)))
        one = [[] for _ in range(2)]
        for k, (h_k, t_k, lam_k, lp_k, dn_k, ml_k, mr_k, dg_k, bm_k, bp_k) in enumerate(state):
            prev_k = None if prev is None else (bm_k, bp_k)
            for side in range(2):
                one[side].append(lambda_bar_step(
                    dd[side, k].item(), length[side, k].item(), h_k, t_k, lam_k, prev_k,
                    lp_k, dn_k, ml_k, mr_k, dg_k,
                ))
        for field in range(3):  # lambda_bar, B-, B+
            assert np.shape(got[field]) == (2, lanes)
            assert bits(got[field]) == [bits([s[field] for s in side]) for side in one]

    def test_lambda_bar_step_first(self):
        # the first step seeds (B-, B+) from (m_l, m_r): the standard seed,
        # the degenerate one, and a block that mixes them
        rng = np.random.default_rng(26)
        grid = itertools.product((-2.0, -0.0, 0.0), (0.0, 1.0, 2.5), (False, True))
        m_l, m_r, dg = (np.array(col) for col in zip(*grid))
        lanes = m_l.size
        h = rng.uniform(0.1, 2.0, lanes)
        dd = np.where(rng.random((2, lanes)) < 0.2, -0.0, rng.normal(size=(2, lanes)))
        length = h + rng.uniform(0.1, 2.0, (2, lanes))
        lp = np.where(dg, h, 1.0)
        denom = rng.choice([-3.0, -1e-3, 0.5, 7.0], lanes)
        for seeds in (dg, np.zeros(lanes, dtype=bool), np.ones(lanes, dtype=bool)):
            self.check_lambda_bar_step(dd, length, h, None, 1.0, None, lp, denom, m_l, m_r, seeds)
        # DBI's factors are scalars shared by every lane
        self.check_lambda_bar_step(dd, length, h, None, 1.0, None, lp, denom, 0.0, 1.0, dg)

    def test_lambda_bar_step_later(self):
        # later steps propagate (B-, B+), swapping them where the point added
        # one step earlier lies right of the interval (t > 0); the previous
        # bounds and lambda_bar hold signed zeros
        rng = np.random.default_rng(27)
        grid = itertools.product((-1.5, -0.0, 0.0, 0.25, 1.0, 2.0), self.VALUES, self.VALUES, self.VALUES)
        t, bm, bp, lam = (np.array(col) for col in zip(*grid))
        lanes = t.size
        h = rng.uniform(0.1, 2.0, lanes)
        dd = np.where(rng.random((2, lanes)) < 0.2, 0.0, rng.normal(size=(2, lanes)))
        dd[:, ::7] *= -0.0  # signed zeros among the divided differences too
        length = h * rng.uniform(2.0, 4.0, (2, lanes))
        lp = h * rng.uniform(1.0, 3.0, lanes)
        denom = rng.choice([-3.0, -1e-3, 0.5, 7.0], lanes)
        dg = rng.random(lanes) < 0.3
        self.check_lambda_bar_step(dd, length, h, t, lam, (bm, bp), lp, denom, -0.5, 1.5, dg)


NAN, INF = np.nan, np.inf
CLASS_ERROR = r"^extremum class must be an integer in \[0, 3\], got "
EPS_ERROR = "^eps0 and eps1 must be finite and nonnegative real numbers, got "


@pytest.mark.parametrize(
    "fn, args, message",
    [
        (interval_bounds, (1.0, NAN, 0, 0.01, 1.0), "^values must be finite$"),
        (interval_bounds, (INF, 1.0, 0, 0.01, 1.0), "^values must be finite$"),
        (interval_bounds, (np.ones(2), np.array([2.0, -INF]), 0, 0.01, 1.0), "^values must be finite$"),
        (interval_bounds, (1.0 + 2j, 1.0, 0, 0.01, 1.0), "^values must be real, got dtype complex128$"),
        (interval_bounds, (1.0, 2.0, 0, -1, 1.0), EPS_ERROR + "-1, 1.0$"),
        (interval_bounds, (1.0, 2.0, 0, 0.01, NAN), EPS_ERROR + "0.01, nan$"),
        (interval_bounds, (1.0, 2.0, 0, True, 1.0), EPS_ERROR + "True, 1.0$"),
        (interval_bounds, (1.0, 2.0, 7, 0.01, 1.0), CLASS_ERROR + "7$"),
        (interval_bounds, (1.0, 2.0, -1, 0.01, 1.0), CLASS_ERROR + "-1$"),
        (interval_bounds, (1.0, 2.0, True, 0.01, 1.0), CLASS_ERROR + "True$"),
        (interval_bounds, (1.0, 2.0, 1.0, 0.01, 1.0), CLASS_ERROR + r"1\.0$"),
        (interval_bounds, (np.ones(2), np.ones(2), np.array([0, 4]), 0.01, 1.0), CLASS_ERROR),
        (classify_interval, (NAN, 1.0, 2.0), "^slopes must be finite$"),
        (classify_interval, (1.0, INF, 2.0), "^slopes must be finite$"),
        (classify_interval, (1.0, 2.0, np.array([1.0, NAN])), "^slopes must be finite$"),
        (classify_interval, (1j, 1.0, 2.0), "^slopes must be real, got dtype complex128$"),
    ],
    ids=[
        "bounds-nan", "bounds-inf", "bounds-array-inf", "bounds-complex", "eps0-negative",
        "eps1-nan", "eps0-bool", "class-7", "class-negative", "class-bool", "class-float",
        "class-array-4", "classify-nan", "classify-inf", "classify-array-nan", "classify-complex",
    ],
)
def test_exported_model_rejects_invalid_input(fn, args, message):
    # the engine calls the unchecked cores; the exported names check
    with pytest.raises(ValueError, match=message):
        fn(*args)


def test_class_accepts_integers_of_any_kind():
    expected = (0.0, 2.02)
    for cls in (ExtremumClass.LOCAL_MAX, 1, np.int8(1), np.uint64(1)):
        assert interval_bounds(1.0, 2.0, cls, 0.01, 1.0) == expected
    lo, hi = interval_bounds(np.ones(2), np.full(2, 2.0), np.array([1, 2], dtype=np.uint8), 0.01, 1.0)
    assert lo.tolist() == [0.0, 0.99] and hi.tolist() == [2.02, 4.0]


@pytest.mark.parametrize("args", [(1.0, 2.0, 0.99, 2.02, PPI), (1.0, 1.0, 0.99, 1.02, PPI, 0.5)],
                         ids=["standard", "equal-endpoints"])
def test_scaling_factors_of_one_interval_are_scalars(args):
    # as interval_bounds and boundary_sigmas give them, not 0-d arrays
    factors = scaling_factors(*args)
    assert [type(m) for m in factors] == [np.float64, np.float64]
    assert [m.hex() for m in factors] == [float(m).hex() for m in factors]
    many = scaling_factors(*(np.full(3, a) for a in args[:4]), PPI, *args[5:])
    assert [m.shape for m in many] == [(3,), (3,)]
    assert bits(many) == [bits([m] * 3) for m in factors]


def base_candidate(table, x, i, e):
    """Divided difference, lambda_bar, bounds and length of the first
    expansion of interval i toward e."""
    l, r = min(i, e), max(i + 1, e)
    dd = table.entries[l, r - l]
    length = x[r] - x[l]
    # t = 1: the point added before the first expansion is x[i+1]
    return (dd,) + lambda_bar_step(
        dd, length, x[i + 1] - x[i], 1.0, 1.0, None, 1.0, float(table.entries[i, 1]),
        0.0, 1.0, False,
    ) + (length,)


def step_bounds(prev, lambda_bar_prev, d, t, m_l, m_r):
    """(B-, B+) of ``lambda_bar_step`` for a grown window of length ``d`` on
    an interval of length 1, where the window length over the interval's is
    ``d`` exactly."""
    return lambda_bar_step(1.0, d, 1.0, t, lambda_bar_prev, prev, 1.0, 1.0, m_l, m_r, False)[1:]


class TestGeometryFactors:
    """The bounds step pairs the grown window's length d with the position t
    of the point added one step earlier, both over the base interval length:
    replaying a stencil's second insertion must propagate the first step's
    bounds with exactly these d and t."""

    @staticmethod
    def check(x, order, d, t):
        table = build_table(x, np.sin(x), x.size - 1)
        piece = IntervalInterpolant(
            interval_index=order[0], window=(min(order), max(order)), insertion_order=order,
            coefficients=(0.0,) * len(order), denom=1.0, m_l=-0.5, m_r=1.5,
        )
        (_, lam, bm, bp), (_, _, *bounds) = replay_chain(piece, table, x)
        assert tuple(bounds) == step_bounds((bm, bp), lam, d, t, -0.5, 1.5)

    def test_uniform_insert_left(self):
        # last = 1 lies left of [2, 3]: t = -1; window (1, 4): d = 3
        self.check(np.arange(6.0), (2, 3, 1, 4), d=3.0, t=-1.0)

    def test_uniform_insert_right(self):
        # last = 4 lies right of [2, 3]: t = 2 swaps the sides; window (1, 4)
        self.check(np.arange(6.0), (2, 3, 4, 1), d=3.0, t=2.0)

    def test_nonuniform(self):
        # h = 2: last = 3 at x = 7 gives t = 3, window (0, 3) gives d = 3.5
        self.check(np.array([0.0, 1.0, 3.0, 7.0]), (1, 2, 3, 0), d=3.5, t=3.0)


class TestLambdaBar:
    def test_zero_for_affine_data(self):
        x = np.linspace(0, 5, 6)
        u = 2 * x + 1
        table = build_table(x, u, 5)
        assert base_candidate(table, x, 2, 1)[1] == 0.0
        assert base_candidate(table, x, 2, 4)[1] == 0.0

    def test_quadratic_hand_value(self):
        x = np.array([0.0, 1.0, 2.0])
        table = build_table(x, x**2, 2)
        dd, lam, bm, bp, length = base_candidate(table, x, 0, 2)
        assert (dd, length) == (1.0, 2.0)
        assert lam == pytest.approx(2.0)
        assert (bm, bp) == step_bounds(None, 1.0, 2.0, 1.0, 0.0, 1.0)

    def test_recurrence_consistency(self):
        # lambda_bar_{j+1} must equal lambda_{j+1} * lambda_bar_j with the
        # single-step ratio computed independently from the tables.
        rng = np.random.default_rng(2)
        x = random_mesh(rng, 9)
        u = rng.uniform(0.5, 2.0, 9)
        table = build_table(x, u, 8)
        i = 4
        lam, prev, length_product, last = 1.0, None, 1.0, i + 1
        denom = float(table.entries[i, 1])
        windows = [(4, 5), (3, 5), (3, 6), (2, 6), (2, 7)]
        for (pl, pr), (nl, nr) in zip(windows, windows[1:]):
            e = nl if nl < pl else nr
            dd_prev = table.entries[pl, pr - pl]
            dd_next = table.entries[nl, nr - nl]
            h, length = x[i + 1] - x[i], x[nr] - x[nl]
            lam_next, bm, bp = lambda_bar_step(
                dd_next, length, h, (x[last] - x[i]) / h, lam, prev, length_product, denom,
                -0.5, 1.5, False,
            )
            step_ratio = dd_next / dd_prev * (x[nr] - x[nl])
            assert lam_next == pytest.approx(step_ratio * lam, rel=1e-12)
            lam, prev, last = lam_next, (bm, bp), e
            length_product *= length


class TestBBoundsStep:
    def test_first_step_data_bounded(self):
        assert step_bounds(None, 1.0, 2.0, -1.0, 0.0, 1.0) == (-2.0, 2.0)

    def test_first_step_relaxed(self):
        bm, bp = step_bounds(None, 1.0, 1.0, -1.0, -0.01, 1.02)
        assert bm == pytest.approx(-1.08)
        assert bp == pytest.approx(1.04)

    def test_later_step_negative_t(self):
        bm, bp = step_bounds((-1.0, 1.0), 0.5, 2.0, -1.0, 0.0, 1.0)
        assert bm == pytest.approx(-1.5)
        assert bp == pytest.approx(0.5)

    def test_later_step_positive_t_swaps_sides(self):
        bm, bp = step_bounds((-1.0, 1.0), 0.5, 2.0, 2.0, 0.0, 1.0)
        # factor d/(-t) = -1: bounds flip around -lambda_prev
        assert bm == pytest.approx(-0.5)
        assert bp == pytest.approx(1.5)
        assert bm <= bp


def direction(st, dd_left, dd_right, mu_l, mu_r, dist_left, dist_right, lb_left, lb_right):
    """``select_direction`` from each policy's keys: a window with mu_l
    points left of the interval and mu_r right of it, and an interval at 0
    whose candidates lie dist_left and dist_right away."""
    return select_direction(
        st, (dd_left, dd_right), (lb_left, lb_right), mu_l, (0, mu_l + mu_r + 1),
        (0.0, 0.0), (-dist_left, dist_right),
    )


class TestSelectDirection:
    # select_direction is True where the left side is taken.
    def test_st1_smaller_divided_difference(self):
        assert direction(1, 0.3, 0.7, 0, 0, 1, 1, 0, 0)
        assert not direction(1, -0.9, 0.7, 0, 0, 1, 1, 0, 0)

    def test_st2_symmetry_tie_goes_by_lambda(self):
        assert not direction(2, 1, 1, 1, 1, 1, 1, 2.0, 1.0)

    def test_st2_prefers_smaller_side(self):
        assert direction(2, 1, 1, 0, 2, 1, 1, 0, 0)

    def test_st3_distance_tie_goes_by_lambda(self):
        assert direction(3, 1, 1, 0, 0, 1.0, 1.0, 0.5, 1.0)

    def test_st3_closest_point(self):
        assert direction(3, 1, 1, 0, 0, 0.3, 1.0, 0, 0)

    def test_elementwise(self):
        # one call decides many lanes, each as the scalar call would
        rng = np.random.default_rng(14)
        args = [rng.integers(-2, 3, 200).astype(float) for _ in range(8)]
        for st in (1, 2, 3):
            lanes = direction(st, *args)
            assert lanes.tolist() == [bool(direction(st, *a)) for a in zip(*args)]

    def test_single_valid_side_wins(self):
        # The left point is the closest (st=3 prefers it when both sides
        # pass), but its window is far outside the DBI bounds, so the right
        # side is taken whatever the policy.
        x = np.array([0.9, 1.0, 2.0, 4.0])
        u = np.array([5.0, 1.0, 2.0, 3.0])
        table = build_table(x, u, 2)
        piece = build_stencil(x, table, 1, wide_open_bounds(), InterpConfig(d=2, im=PPI, st=3))
        assert piece.window == (0, 2)
        for st in (1, 2, 3):
            piece = interval_interpolants(x, u, InterpConfig(d=2, im=DBI, st=st))[1]
            assert piece.window == (1, 3)


def wide_open_bounds():
    # effectively infinite admissibility: every candidate passes
    return IntervalBounds(u_min=-1e30, u_max=1e30, m_l=-1e30, m_r=1e30)


# The engine: stencils grown for blocks of lines, against the oracle.


def plateau_values(rng, n):
    """Random values with every third neighbor pair set equal, so that some
    intervals have equal endpoint values between non-flat neighbors."""
    u = rng.uniform(0, 5, n)
    u[1::3] = u[: n - 1 : 3]
    return u


class TestBuildStencil:
    def test_full_window_when_all_candidates_pass(self):
        rng = np.random.default_rng(1)
        x = random_mesh(rng, 12)
        u = np.exp(x / 4.0)  # monotone convex
        table = build_table(x, u, 9)
        for i in range(11):
            piece = build_stencil(x, table, i, wide_open_bounds(), InterpConfig(d=8, im=PPI))
            assert piece.degree == 8
            l, r = piece.window
            assert l <= i < i + 1 <= r

    def test_sharp_sign_change_halts_at_linear(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        # both 3-point windows have |lambda_bar| = 2*|dd|/|slope| > d1 = 2
        u = np.array([10.0, 1.0, 2.0, 20.0])
        piece = interval_interpolants(x, u, InterpConfig(d=3, im=DBI))[1]
        assert piece.degree == 1
        assert piece.window == (1, 2)

    def test_data_boundedness_dense(self):
        x = np.linspace(-0.2, 0.2, 17)
        u = 1.0 / (1.0 + np.exp(-200.0 * x))
        pieces = interval_interpolants(x, u, InterpConfig(d=8, im=DBI))
        rng_width = u.max() - u.min()
        for piece in pieces:
            i = piece.interval_index
            s = np.linspace(x[i], x[i + 1], 1000)
            vals = newton_eval(piece, x, s)
            lo, hi = min(u[i], u[i + 1]), max(u[i], u[i + 1])
            tau = 1e-12 * rng_width
            assert np.all(vals >= lo - tau) and np.all(vals <= hi + tau)

    def test_deterministic(self):
        # a line gives the same result whichever lane of a block it fills
        rng = np.random.default_rng(8)
        x = random_mesh(rng, 10)
        u = rng.uniform(0, 3, (10, 5))
        u[:, 3] = u[:, 1]
        xout = np.sort(rng.uniform(x[0], x[-1], 40))
        located = interpnd.locate(x, xout)[:4]
        cfg = InterpConfig(d=6, im=PPI)
        block = interpolate_lines(x, u, *located, cfg)
        for k in range(5):
            assert np.array_equal(block[:, k], interpolate_lines(x, u[:, [k]], *located, cfg)[:, 0])
        assert np.array_equal(block[:, 3], block[:, 1])

    def test_window_invariants(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(4, 12))
            x = random_mesh(rng, n)
            u = rng.uniform(-2, 4, n)
            d = int(rng.integers(1, 9))
            for piece in interval_interpolants(x, u, InterpConfig(d=d, im=PPI)):
                l, r = piece.window
                i = piece.interval_index
                assert l <= i < i + 1 <= r
                assert r - l <= d
                assert sorted(piece.insertion_order) == list(range(l, r + 1))

    def test_boundary_growth_goes_interior(self):
        x = np.linspace(0, 1, 6)
        u = np.exp(x)
        pieces = interval_interpolants(x, u, InterpConfig(d=3, im=PPI))
        assert pieces[0].window == (0, 3)
        assert pieces[-1].window == (2, 5)

    def test_degenerate_grows_past_equal_values(self):
        # equal endpoint values with curvature nearby: the degenerate branch
        # still builds a higher-degree interpolant
        x = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        u = np.array([0.0, 1.0, 1.0, 0.0, -2.0])
        piece = interval_interpolants(x, u, InterpConfig(d=3, im=PPI, eps1=1.0))[1]
        assert piece.degree >= 2
        assert piece.normalization == "degenerate"

    def test_flat_data_falls_back_to_linear(self):
        x = np.linspace(0, 4, 5)
        u = np.full(5, 3.0)
        piece = interval_interpolants(x, u, InterpConfig(d=3, im=PPI))[2]
        assert piece.degree == 1
        assert piece.normalization == "standard"
        assert newton_eval(piece, x, 2.5) == 3.0

    def test_replay_chain_bounds_hold(self):
        # The replay repeats the engine's arithmetic, so every accepted step
        # must satisfy the bounds exactly, with no slack.
        rng = np.random.default_rng(12)
        degenerate_steps = 0
        for k in range(60):
            n = int(rng.integers(5, 14))
            x = random_mesh(rng, n)
            u = plateau_values(rng, n) if k % 2 else rng.uniform(0, 5, n)
            d = int(rng.integers(2, 9))
            im = PPI if rng.random() < 0.5 else DBI
            table = build_table(x, u, min(d, n - 1))
            for piece in interval_interpolants(x, u, InterpConfig(d=d, im=im)):
                chain = replay_chain(piece, table, x)
                assert len(chain) == piece.degree - 1
                for j, lam, bm, bp in chain:
                    assert bm <= lam <= bp
                if piece.normalization == "degenerate":
                    degenerate_steps += len(chain)
        assert degenerate_steps > 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, bad):
        for x, u, message in (
            ([0, 1, 2], [1, bad, 2], "values must be finite"),
            ([0, 1, bad], [1, 2, 3], "mesh coordinates must be finite"),
            ([-bad, 1, 2], [1, 2, 3], "mesh coordinates must be finite"),
        ):
            with pytest.raises(ValueError, match=f"^{message}$"):
                interval_interpolants(x, u, InterpConfig(d=1, im=PPI))


def record(piece):
    """Every field of a piece, floats bit for bit."""
    return (
        piece.interval_index, piece.window, piece.insertion_order,
        [c.hex() for c in piece.coefficients], piece.normalization,
        piece.denom.hex(), piece.m_l.hex(), piece.m_r.hex(),
    )


def test_engine_matches_oracle():
    # The lockstep engine against the per-interval oracle on random meshes:
    # zero runs, paired plateaus (the degenerate path) and 17 decades of
    # magnitude, every record field compared bit for bit.
    rng = np.random.default_rng(2024)
    pieces = degenerate = 0
    for _ in range(3000):
        n = int(rng.integers(2, 41))
        x = random_mesh(rng, n)
        u = rng.uniform(0.0, 5.0, n)
        u[rng.random(n) < 0.3] = 0.0
        if rng.random() < 0.5:
            u[1::3] = u[: n - 1 : 3]
        u *= 10.0 ** int(rng.integers(-8, 9))
        eps0, eps1 = rng.uniform(0.0, 1.0, 2)
        cfg = InterpConfig(
            d=int(rng.choice([1, 2, 3, 5, 8, 15])), im=int(rng.choice([DBI, PPI])),
            st=int(rng.integers(1, 4)), eps0=eps0, eps1=eps1,
        )
        got = interval_interpolants(x, u, cfg)
        want = oracle.interval_interpolants(x, u, cfg)
        assert [record(p) for p in got] == [record(p) for p in want]
        pieces += len(got)
        degenerate += sum(p.normalization == "degenerate" for p in got)
    assert pieces > 50_000 and degenerate > 1_000


def edge_patterns(n):
    """Values on an n-point mesh that send stencils into the mesh ends.

    On top of a positive profile, flat data and alternating zeros: for the
    left end, the right end and both, a pair of zeros and a plateau pair
    (equal endpoint values, the degenerate path) on the end interval, a
    plateau peak on the interval next to it, and a zero at the end point.
    """
    base = 1.0 + np.sin(1.3 * np.arange(n)) ** 2
    patterns = [base, np.zeros(n), np.where(np.arange(n) % 2, base, 0.0)]
    for ends in ([0], [n - 2], [0, n - 2]):
        zeros, plateau, peak, tips = base.copy(), base.copy(), base.copy(), base.copy()
        for e in ends:
            inner = min(max(e + (1 if e == 0 else -1), 0), n - 2)
            zeros[e : e + 2] = 0.0
            plateau[e : e + 2] = base[e]
            peak[inner : inner + 2] = 3.0
            tips[e if e == 0 else n - 1] = 0.0
        patterns += [zeros, plateau, peak, tips]
    return patterns


def assert_zero_padded(st):
    """The record contract ``horner`` relies on: past its degree, every
    lane's coefficients are +0 (bit pattern 0) and its nodes repeat the
    interval's left node."""
    past = np.arange(st.coeffs.shape[1]) > st.degree[:, None]
    assert (st.coeffs.view(np.int64)[past] == 0).all()
    node_bits = st.nodes.view(np.int64)
    assert (node_bits == np.where(past, node_bits[:, :1], node_bits)).all()


def lane_records(x, block, cfg):
    """The engine's stencils for every interval of every column of
    ``block``, one list of records per column, in ``record``'s format;
    the zero padding past each degree is checked on the way."""
    st = grow_stencils(x, block, np.arange(x.size - 1), cfg)
    assert_zero_padded(st)
    lines = block.shape[1]
    records = [[] for _ in range(lines)]
    orders = x.searchsorted(st.nodes)
    for k, deg in enumerate(st.degree.tolist()):
        order = orders[k, : deg + 1].tolist()
        records[k % lines].append((
            order[0], (min(order), max(order)), tuple(order),
            [c.hex() for c in st.coeffs[k, : deg + 1].tolist()],
            "degenerate" if st.degenerate[k] else "standard",
            float(st.denom[k]).hex(), float(st.m_l[k]).hex(), float(st.m_r[k]).hex(),
        ))
    return records


def test_engine_matches_oracle_at_mesh_ends():
    # Every tiny mesh size, degree, policy and method, on uniform meshes
    # (where st=3 ties) and jittered ones, with the value patterns that
    # drive windows against both mesh ends, where the engine's candidates
    # read the table's NaN past the end and their lengths and points are
    # clipped stand-ins, so every record field must still match the oracle
    # bit for bit, in one-line calls and in 3-line blocks alike.  Degrees
    # past n-1 grow the same stencils as n-1 (the table stops there), so
    # d=10 stands for all of them.
    rng = np.random.default_rng(77)
    pieces = degenerate = spanning = 0
    for n in range(2, 8):
        patterns = edge_patterns(n)
        blocks = [np.stack(patterns[k : k + 3], axis=1) for k in range(0, len(patterns), 3)]
        for x in (np.linspace(-1.0, 1.0, n), random_mesh(rng, n)):
            for d in (*range(1, n), 10):
                for im in (DBI, PPI):
                    for st in (1, 2, 3):
                        cfg = InterpConfig(d=d, im=im, st=st)
                        want = [
                            [record(p) for p in oracle.interval_interpolants(x, u, cfg)]
                            for u in patterns
                        ]
                        for u, records in zip(patterns, want):
                            assert lane_records(x, u[:, None], cfg)[0] == records
                            pieces += len(records)
                            degenerate += sum(r[4] == "degenerate" for r in records)
                            spanning += sum(r[1] == (0, n - 1) for r in records)
                        for k, block in enumerate(blocks):
                            assert lane_records(x, block, cfg) == want[3 * k : 3 * k + 3]
    assert pieces > 20_000 and degenerate > 300 and spanning > 3_000


def test_both_finish_paths_give_the_same_record():
    # grow_stencils turns a degenerate lane left at degree 1 back into the
    # linear piece only in a call where some lane is degenerate.  Both
    # paths, under DBI (scalar scaling factors) and PPI, and d=1 (no forced
    # first step), must return the same record layout, one m_l and m_r per
    # lane, and the oracle's records.
    rng = np.random.default_rng(18)
    x = random_mesh(rng, 9)
    rising = np.exp(x / 4.0)  # distinct neighbours, no zero slope
    plateau = rising.copy()
    plateau[3:5] = 2.0  # equal endpoint values: a degenerate lane
    plateau[6:8] = 0.0  # a flat pair: falls back to the linear piece
    layouts = set()
    for d in (1, 4):
        for im in (DBI, PPI):
            cfg = InterpConfig(d=d, im=im)
            for block in (rising[:, None], plateau[:, None], np.stack([rising, plateau], 1)):
                st = grow_stencils(x, block, np.arange(8), cfg)
                lanes = 8 * block.shape[1]
                assert st.nodes.shape == st.coeffs.shape == (lanes, d + 1)
                assert all(f.shape == (lanes,) for f in st[2:])
                assert st.degree.dtype == np.intp
                layouts.add(tuple((type(f), f.dtype) for f in st))
                want = [[record(p) for p in oracle.interval_interpolants(x, u, cfg)]
                        for u in block.T]
                assert lane_records(x, block, cfg) == want
    assert len(layouts) == 1


def settle_block(rng, n, lines):
    """Values that make flat lanes (zero runs and constant stretches, with
    signed zeros), staircase lanes (equal endpoint values between a lower
    and a higher neighbour: degenerate, not flat, and their forced step
    fails under DBI) and ordinary ones, ``lines`` columns of ``n`` points."""
    block = np.empty((n, lines))
    for c in range(lines):
        kind = rng.integers(3)
        u = rng.uniform(0.5, 5.0, n)
        if kind == 0:  # zero runs and plateaus
            u[rng.random(n) < 0.5] = 0.0
            u[1::3] = u[: n - 1 : 3]
        elif kind == 1:  # a staircase: pairs of equal values, rising
            u = np.repeat(np.arange((n + 1) // 2, dtype=float), 2)[:n] + 1.0
        else:  # mostly one constant, with a bump
            u[:] = 2.0
            u[rng.integers(n)] = 3.0
        block[:, c] = signed_zeros(rng, u, 0.2)
    return block


def stencil_bits(st):
    """Every field of a record, floats as their bit patterns."""
    return [f.view(np.int64) if f.dtype == float else f for f in st]


def test_settled_flat_lanes_give_the_same_record(monkeypatch):
    # grow_stencils settles a block's flat lanes (degenerate lanes whose
    # forced first window is flat too) before growth only when they are at
    # least SETTLE_SHARE of its lanes.  With the gate forced open (0: any
    # flat lane settles) and shut (inf: none does), every field of every
    # record must be the same bit for bit, and equal the default gate's:
    # d = 1-8, DBI and PPI, st = 1-3, on one-line and four-line blocks with
    # signed zeros.  The staircases keep degenerate lanes that are not flat
    # in the settled blocks and fail their forced step, so the rewrite to
    # the linear piece after the loop still runs there.  About 1 s on a
    # 2-vCPU x86-64 guest.
    rng = np.random.default_rng(22)
    settled = staircase = 0
    for trial in range(16):
        n = int(rng.integers(3, 14))
        x = random_mesh(rng, n)
        block = settle_block(rng, n, 1 if trial % 2 else 4)
        lo, hi = block[:-1].ravel(), block[1:].ravel()  # lane k * lines + c
        equal = lo == hi
        nb_l = np.vstack([block[:1] * np.nan, block[:-2]]).ravel()
        nb_r = np.vstack([block[2:], block[:1] * np.nan]).ravel()
        flat = equal & ((nb_l == lo) | (nb_r == lo))
        for d in range(1, 9):
            for im in (DBI, PPI):
                for st in (1, 2, 3):
                    cfg = InterpConfig(d=d, im=im, st=st)
                    records = []
                    for share in (0.0, np.inf, 0.25):
                        monkeypatch.setattr(stencil, "SETTLE_SHARE", share)
                        records.append(grow_stencils(x, block, np.arange(n - 1), cfg))
                    want = stencil_bits(records[1])
                    for got in records[0], records[2]:
                        assert all(a.dtype == b.dtype and np.array_equal(a, b)
                                   for a, b in zip(stencil_bits(got), want))
                    if min(d, n - 1) >= 2:
                        settled += np.count_nonzero(flat)
                        staircase += np.count_nonzero(equal & ~flat & (records[0].degree == 1))
    assert settled > 1_000 and staircase > 100


def test_padded_records_evaluate_like_trimmed_pieces():
    # horner runs every column of the engine's records with no mask, so a
    # lane below the top degree must give, bit for bit, what its trimmed
    # piece gives: on blocks with zero runs, -0.0 data, plateaus (the
    # degenerate path) and flat lines, DBI and PPI, every st.
    rng = np.random.default_rng(4242)
    lanes = short = 0
    for trial in range(120):
        n = int(rng.integers(2, 16))
        x = random_mesh(rng, n)
        block = np.stack([
            rng.uniform(0.0, 5.0, n), plateau_values(rng, n), np.zeros(n), np.full(n, 2.0),
        ], axis=1)
        zeros = rng.random(block.shape) < 0.3
        block[zeros] = rng.choice([0.0, -0.0], zeros.sum())
        cfg = InterpConfig(
            d=int(rng.integers(1, 12)), im=(DBI, PPI)[trial % 2], st=trial // 2 % 3 + 1,
        )
        intervals = np.arange(n - 1)
        st = grow_stencils(x, block, intervals, cfg)
        assert_zero_padded(st)
        # every lane at 9 points: its interval's two ends and 7 inside, one
        # run of 9 points per interval
        t = np.linspace(0.0, 1.0, 9)
        pts = x[:-1, None] + (x[1:] - x[:-1])[:, None] * t
        got = horner(st.coeffs, st.nodes, np.full(n - 1, 9), pts.ravel())
        got = got.reshape(n - 1, 9, block.shape[1])
        for col in range(block.shape[1]):
            for k, piece in enumerate(interval_interpolants(x, block[:, col], cfg)):
                want = newton_eval(piece, x, pts[k])
                assert (got[k, :, col].view(np.int64) == want.view(np.int64)).all()
        lanes += st.degree.size
        short += np.count_nonzero(st.degree < st.coeffs.shape[1] - 1)
    assert lanes > 2_000 and short > 1_000


def test_recorded_nodes_are_mesh_values_with_signed_zeros():
    # The record holds node abscissae, and its readers recover the
    # insertion indices with one search of the mesh.  On random blocks whose
    # meshes hold a node at -0.0 or +0.0, every recorded node must be the
    # mesh value at its searched index bit for bit, the first two the
    # interval's ends, and the padding the left node's abscissa.
    rng = np.random.default_rng(2424)
    zeros = padded = 0
    for trial in range(60):
        n = int(rng.integers(3, 14))
        x = random_mesh(rng, n)
        k = int(rng.integers(n))
        x = x - x[k]  # node k becomes +0.0
        x[k] = (0.0, -0.0)[trial % 2]
        block = signed_zeros(rng, np.stack([
            rng.uniform(0.0, 5.0, n), plateau_values(rng, n), np.full(n, 2.0),
        ], axis=1), 0.3)
        cfg = InterpConfig(
            d=int(rng.integers(1, 10)), im=(DBI, PPI)[trial // 2 % 2], st=trial % 3 + 1,
        )
        intervals = np.arange(n - 1)
        st = grow_stencils(x, block, intervals, cfg)
        node_bits = st.nodes.view(np.int64)
        idx = x.searchsorted(st.nodes)
        assert (x[idx].view(np.int64) == node_bits).all()
        lanes = intervals.repeat(block.shape[1])
        assert (idx[:, 0] == lanes).all() and (idx[:, 1] == lanes + 1).all()
        past = np.arange(st.nodes.shape[1]) > st.degree[:, None]
        left = x[lanes].view(np.int64)
        assert (node_bits[past] == np.broadcast_to(left[:, None], past.shape)[past]).all()
        zeros += np.count_nonzero(st.nodes == 0.0)
        padded += np.count_nonzero(past)
    assert zeros > 300 and padded > 1_000


# Every piece that interval_interpolants builds for the inputs below, hashed
# bit for bit.  The value was recorded from the per-interval scalar engine;
# any refactoring or faster engine must reproduce it exactly.
STENCIL_DIGEST = "4eecff6c795998a9b394c5408e4373b53e59d6df4b2340d2cf684cdde95baee6"


def digest_inputs():
    """f1-f3 on uniform and jittered meshes, then plateau variants that
    reach the degenerate (equal endpoint values) normalization."""
    rng = np.random.default_rng(20231013)
    for fn in ("f1", "f2", "f3"):
        tf = TEST_FUNCTIONS[fn]
        (lo, hi), = tf.domain
        for n in (17, 65, 257):
            x = np.linspace(lo, hi, n)
            jittered = x.copy()
            jittered[1:-1] += rng.uniform(-0.3, 0.3, n - 2) * (x[1] - x[0])
            yield x, tf.func(x)
            yield jittered, tf.func(jittered)
    for fn in ("f1", "f2", "f3"):
        tf = TEST_FUNCTIONS[fn]
        (lo, hi), = tf.domain
        x = np.linspace(lo, hi, 65)
        u = tf.func(x)
        u[1::3] = u[0:-1:3]
        yield x, u


def test_stencil_digest():
    h = hashlib.sha256()
    degenerate = 0
    for x, u in digest_inputs():
        for d in (1, 2, 3, 8):
            for im in (DBI, PPI):
                for st in (1, 2, 3):
                    for p in interval_interpolants(x, u, InterpConfig(d=d, im=im, st=st)):
                        record = (
                            p.window, p.insertion_order, [c.hex() for c in p.coefficients],
                            p.denom.hex(), p.normalization, p.m_l.hex(), p.m_r.hex(),
                        )
                        h.update(repr(record).encode())
                        degenerate += p.normalization == "degenerate"
    assert degenerate > 0
    assert h.hexdigest() == STENCIL_DIGEST


# The readers of the record: replay_stencils and replay_chain.


# Every chain step replay_chain recomputes for the inputs below, hashed bit
# for bit.  The bounds test above cannot see a change in rounding; this can.
REPLAY_CHAIN_DIGEST = "9cfb421b25cbdb07e9667abc22c6bb2244fb5b43b1265f9df26c993c6e96a633"


def test_replay_chain_digest():
    rng = np.random.default_rng(90210)
    h = hashlib.sha256()
    steps = degenerate_steps = 0
    for _ in range(400):
        n = int(rng.integers(2, 31))
        x = random_mesh(rng, n)
        u = rng.uniform(0.0, 5.0, n)
        u[rng.random(n) < 0.3] = 0.0
        if rng.random() < 0.5:
            u[1::3] = u[: n - 1 : 3]
        u *= 10.0 ** int(rng.integers(-8, 9))
        eps0, eps1 = rng.uniform(0.0, 1.0, 2)
        cfg = InterpConfig(
            d=int(rng.integers(1, 12)), im=int(rng.choice([DBI, PPI])),
            st=int(rng.integers(1, 4)), eps0=eps0, eps1=eps1,
        )
        table = build_table(x, u, min(cfg.d, n - 1))
        for piece in interval_interpolants(x, u, cfg):
            chain = replay_chain(piece, table, x)
            for j, lam, bm, bp in chain:
                h.update(repr((j, float(lam).hex(), float(bm).hex(), float(bp).hex())).encode())
            steps += len(chain)
            if piece.normalization == "degenerate":
                degenerate_steps += len(chain)
    assert steps > 10_000 and degenerate_steps > 100
    assert h.hexdigest() == REPLAY_CHAIN_DIGEST


@pytest.mark.parametrize("pairs", [interpnd.CHUNK_PAIRS, 40])
def test_replay_stencils_every_lane_of_a_sweep(monkeypatch, pairs):
    # Every block of lines that 2D and 3D sweeps hand the engine, along
    # every axis, regrown and replayed in lockstep: every step of every lane
    # satisfies the bounds with no slack, the steps stop at each lane's
    # degree, and the lanes of one line equal replay_chain on that line's
    # pieces bit for bit.  Zero runs and paired plateaus reach the
    # degenerate normalization and its flat fallback; with 40 pairs the
    # blocks split into chunks of a few lines.  Both cases take about 2 s
    # on a 2-vCPU x86-64 guest, most of it in the per-block grow_stencils.
    monkeypatch.setattr(interpnd, "CHUNK_PAIRS", pairs)
    rng = np.random.default_rng(1717)
    steps = degenerate = flat = 0
    for trial in range(60):
        meshes, v, outs, cfg = random_grid_case(rng, 2 + trial % 2)
        cfg = replace(cfg, im=(DBI, PPI)[trial // 2 % 2], st=trial % 3 + 1)
        blocks = []

        def sweep(mesh, lines, points, runs, node, hits):
            blocks.append((mesh, lines))
            return interpolate_lines(mesh, lines, points, runs, node, hits, cfg)

        interpnd.tensor_sweep(meshes, v, outs, sweep)
        assert {b[0].size for b in blocks} == {m.size for m in meshes}
        for mesh, lines in blocks:
            st = grow_stencils(mesh, lines, np.arange(mesh.size - 1), cfg)
            out = replay_stencils(mesh, divided_differences(mesh, lines, cfg.d), st)
            lam, bm, bp = out
            real = ~np.isnan(lam)
            assert (np.isnan(out) == ~real).all()
            assert (real.sum(axis=0) == st.degree - 1).all()
            assert (bm[real] <= lam[real]).all() and (lam[real] <= bp[real]).all()
            c = int(rng.integers(lines.shape[1]))
            table = build_table(mesh, lines[:, c], cfg.d)
            for k, piece in enumerate(interval_interpolants(mesh, lines[:, c], cfg)):
                chain = np.array([s[1:] for s in replay_chain(piece, table, mesh)]).reshape(-1, 3)
                lane = out[:, : piece.degree - 1, k * lines.shape[1] + c].T
                assert (lane.view(np.int64) == chain.view(np.int64)).all()
            steps += np.count_nonzero(real)
            degenerate += np.count_nonzero(real[:, st.degenerate])
            flat += np.count_nonzero(st.denom == 0.0)
    assert steps > 5_000 and degenerate > 100 and flat > 0
