import itertools

import numpy as np
import pytest

from ppinterp.stencil import (
    ExtremumClass,
    boundary_sigmas,
    classify_interval,
    interval_bounds,
    scaling_factors,
)
from ppinterp.config import DBI, PPI
from ppinterp.stencil import lambda_bar_step


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
