import hashlib
from dataclasses import replace

import numpy as np
import pytest

from ppinterp import interpnd
from ppinterp.config import DBI, PPI, InterpConfig
from ppinterp.divdiff import (
    IntervalInterpolant, build_table, divided_differences, horner, newton_eval,
)
from ppinterp.interp1d import interpolate_lines, interval_interpolants
from ppinterp.stencil import (
    b_bounds_step,
    grow_stencils,
    lambda_bar_step,
    replay_chain,
    replay_stencils,
    select_direction,
)
from ppinterp.testfunctions import TEST_FUNCTIONS

import oracle
from helpers import random_grid_case, random_mesh
from oracle import IntervalBounds, build_stencil


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
        assert tuple(bounds) == b_bounds_step((bm, bp), lam, d, t, -0.5, 1.5)

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
        located = interpnd.locate(x, xout)[:3]
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

        def sweep(mesh, lines, points, edge, runs):
            blocks.append((mesh, lines))
            return interpolate_lines(mesh, lines, points, edge, runs, cfg)

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
    lane's coefficients are +0 (bit pattern 0) and its order repeats the
    interval's left node."""
    past = np.arange(st.coeffs.shape[1]) > st.degree[:, None]
    assert (st.coeffs.view(np.int64)[past] == 0).all()
    assert (st.order == np.where(past, st.order[:, :1], st.order)).all()


def lane_records(x, block, cfg):
    """The engine's stencils for every interval of every column of
    ``block``, one list of records per column, in ``record``'s format;
    the zero padding past each degree is checked on the way."""
    st = grow_stencils(x, block, np.arange(x.size - 1), cfg)
    assert_zero_padded(st)
    lines = block.shape[1]
    records = [[] for _ in range(lines)]
    for k, deg in enumerate(st.degree.tolist()):
        order = st.order[k, : deg + 1].tolist()
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
                assert st.order.shape == st.coeffs.shape == (lanes, d + 1)
                assert all(f.shape == (lanes,) for f in st[2:])
                assert st.degree.dtype == np.intp
                layouts.add(tuple((type(f), f.dtype) for f in st))
                want = [[record(p) for p in oracle.interval_interpolants(x, u, cfg)]
                        for u in block.T]
                assert lane_records(x, block, cfg) == want
    assert len(layouts) == 1


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
        got = horner(st.coeffs, x[st.order], np.full(n - 1, 9), pts.ravel())
        got = got.reshape(n - 1, 9, block.shape[1])
        for col in range(block.shape[1]):
            for k, piece in enumerate(interval_interpolants(x, block[:, col], cfg)):
                want = newton_eval(piece, x, pts[k])
                assert (got[k, :, col].view(np.int64) == want.view(np.int64)).all()
        lanes += st.degree.size
        short += np.count_nonzero(st.degree < st.coeffs.shape[1] - 1)
    assert lanes > 2_000 and short > 1_000


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
