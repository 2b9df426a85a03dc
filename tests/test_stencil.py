import hashlib

import numpy as np
import pytest

from ppinterp.config import DBI, PPI, InterpConfig
from ppinterp.divdiff import build_table, newton_eval
from ppinterp.interp1d import interpolate_1d, interpolate_lines, interval_interpolants
from ppinterp.stencil import b_bounds_step, lambda_bar_candidate, replay_chain, select_direction
from ppinterp.testfunctions import TEST_FUNCTIONS

import oracle
from helpers import random_mesh
from oracle import IntervalBounds, build_stencil


def base_candidate(table, x, i, e):
    """Divided difference, lambda_bar, bounds and length of the first
    expansion of interval i toward e."""
    window = (min(i, e), max(i + 1, e))
    dd = table.entries[window[0], window[1] - window[0]]
    return (dd,) + lambda_bar_candidate(
        x, i, window, i + 1, dd, 1.0, None, 1.0, float(table.entries[i, 1]), 0.0, 1.0, False
    )


class TestGeometryFactors:
    """The bounds step pairs the grown window's length d with the position t
    of the point added one step earlier, both over the base interval length."""

    @staticmethod
    def step(x, i, window, e, last):
        l, r = min(window[0], e), max(window[1], e)
        _, bm, bp, length = lambda_bar_candidate(
            x, i, (l, r), last, 1.0, 0.5, (-1.0, 1.0), 1.0, 1.0, 0.0, 1.0, False
        )
        return (bm, bp), length / (x[i + 1] - x[i])

    def test_uniform_insert_left(self):
        # last = 1 lies left of [2, 3]: t = -1; window (1, 4): d = 3
        bounds, d = self.step(np.arange(6.0), 2, (1, 3), 4, 1)
        assert d == 3.0
        assert bounds == b_bounds_step((-1.0, 1.0), 0.5, 3.0, -1.0, 0.0, 1.0) == (-2.25, 0.75)

    def test_uniform_insert_right(self):
        # last = 4 lies right of [2, 3]: t = 2 swaps the sides; window (1, 4)
        bounds, d = self.step(np.arange(6.0), 2, (2, 4), 1, 4)
        assert d == 3.0
        assert bounds == b_bounds_step((-1.0, 1.0), 0.5, 3.0, 2.0, 0.0, 1.0) == (-0.75, 2.25)

    def test_nonuniform(self):
        # h = 2: last = 3 at x = 7 gives t = 3, window (0, 3) gives d = 3.5
        bounds, d = self.step(np.array([0.0, 1.0, 3.0, 7.0]), 1, (1, 3), 0, 3)
        assert d == 3.5
        assert bounds == pytest.approx((-0.5 * 3.5 / 3.0, 1.5 * 3.5 / 3.0))


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
        assert (bm, bp) == b_bounds_step(None, 1.0, 2.0, 1.0, 0.0, 1.0)

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
            lam_next, bm, bp, length = lambda_bar_candidate(
                x, i, (nl, nr), last, dd_next, lam, prev, length_product, denom, -0.5, 1.5, False
            )
            step_ratio = dd_next / dd_prev * (x[nr] - x[nl])
            assert lam_next == pytest.approx(step_ratio * lam, rel=1e-12)
            lam, prev, last = lam_next, (bm, bp), e
            length_product *= length


class TestBBoundsStep:
    def test_first_step_data_bounded(self):
        assert b_bounds_step(None, 1.0, 2.0, -1.0, 0.0, 1.0) == (-2.0, 2.0)

    def test_first_step_relaxed(self):
        bm, bp = b_bounds_step(None, 1.0, 1.0, -1.0, -0.01, 1.02)
        assert bm == pytest.approx(-1.08)
        assert bp == pytest.approx(1.04)

    def test_later_step_negative_t(self):
        bm, bp = b_bounds_step((-1.0, 1.0), 0.5, 2.0, -1.0, 0.0, 1.0)
        assert bm == pytest.approx(-1.5)
        assert bp == pytest.approx(0.5)

    def test_later_step_positive_t_swaps_sides(self):
        bm, bp = b_bounds_step((-1.0, 1.0), 0.5, 2.0, 2.0, 0.0, 1.0)
        # factor d/(-t) = -1: bounds flip around -lambda_prev
        assert bm == pytest.approx(-0.5)
        assert bp == pytest.approx(1.5)
        assert bm <= bp


class TestSelectDirection:
    # select_direction is True where the left side is taken.
    def test_st1_smaller_divided_difference(self):
        assert select_direction(1, 0.3, 0.7, 0, 0, 1, 1, 0, 0)
        assert not select_direction(1, -0.9, 0.7, 0, 0, 1, 1, 0, 0)

    def test_st2_symmetry_tie_goes_by_lambda(self):
        assert not select_direction(2, 1, 1, 1, 1, 1, 1, 2.0, 1.0)

    def test_st2_prefers_smaller_side(self):
        assert select_direction(2, 1, 1, 0, 2, 1, 1, 0, 0)

    def test_st3_distance_tie_goes_by_lambda(self):
        assert select_direction(3, 1, 1, 0, 0, 1.0, 1.0, 0.5, 1.0)

    def test_st3_closest_point(self):
        assert select_direction(3, 1, 1, 0, 0, 0.3, 1.0, 0, 0)

    def test_elementwise(self):
        # one call decides many lanes, each as the scalar call would
        rng = np.random.default_rng(14)
        args = [rng.integers(-2, 3, 200).astype(float) for _ in range(8)]
        for st in (1, 2, 3):
            lanes = select_direction(st, *args)
            assert lanes.tolist() == [bool(select_direction(st, *a)) for a in zip(*args)]

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
        xout = rng.uniform(x[0], x[-1], 40)
        cfg = InterpConfig(d=6, im=PPI)
        block = interpolate_lines(x, u, xout, cfg)
        for k in range(5):
            assert np.array_equal(block[:, k], interpolate_1d(x, u[:, k], xout, cfg))
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
