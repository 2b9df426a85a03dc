"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (run with -s to see them live)."""

import time

import numpy as np

from ppinterp import (
    DBI,
    PPI,
    InterpConfig,
    adaptive_interpolation_1d,
    adaptive_interpolation_2d,
    adaptive_interpolation_3d,
    boundary_sigmas,
    build_table,
    classify_interval,
    interval_bounds,
    interval_interpolants,
    newton_eval,
    replay_chain,
)
from ppinterp.harness import ExperimentSpec, approximation_error, roundtrip_error

from helpers import brute_dd, random_mesh


def _report(name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def _within(value: float, reference: float, band: float = 3.0) -> bool:
    return reference / band <= value <= reference * band


PAPER_T1_PPI8 = {17: 4.61e-2, 33: 3.05e-3, 65: 9.92e-4, 129: 2.43e-5, 257: 9.89e-8}
PAPER_T1_PCHIP = {17: 3.99e-2, 33: 4.52e-3, 65: 2.79e-3, 129: 6.23e-4, 257: 1.17e-4}


class TestTableReproduction:
    def test_table1_f1_ppi_degree8(self):
        t0 = time.perf_counter()
        errs = {
            n: approximation_error(ExperimentSpec("f1", n, "ppi", 8))
            for n in (17, 33, 65, 129, 257)
        }
        elapsed = time.perf_counter() - t0
        in_band = all(_within(errs[n], PAPER_T1_PPI8[n]) for n in errs)
        decreasing = errs[33] > errs[65] > errs[129] > errs[257]
        detail = ", ".join(f"N={n}:{e:.2E}" for n, e in errs.items()) + f", {elapsed:.2f}s"
        _report("table1 f1 PPI d=8 within x3, decreasing, <5s",
                in_band and decreasing and elapsed < 5.0, detail)

    def test_table2_f2_dbi_equals_ppi(self):
        e_dbi = approximation_error(ExperimentSpec("f2", 257, "dbi", 8))
        e_ppi = approximation_error(ExperimentSpec("f2", 257, "ppi", 8))
        ok = (
            _within(e_dbi, 5.22e-9)
            and _within(e_ppi, 5.22e-9)
            and np.isclose(e_dbi, e_ppi, rtol=1e-3, atol=0)
        )
        _report("table2 f2 N=257 d=8 DBI=PPI ~5.22E-9", ok, f"dbi={e_dbi:.3E} ppi={e_ppi:.3E}")

    def test_table3_f3_method_insensitive(self):
        cells = [("pchip", 3)] + [(m, d) for m in ("dbi", "ppi") for d in (3, 4, 8)]
        errs = {
            (m, d): approximation_error(ExperimentSpec("f3", 257, m, d)) for m, d in cells
        }
        ok = all(abs(e - 5.2e-2) <= 0.25 * 5.2e-2 for e in errs.values())
        detail = " ".join(f"{m}{d}:{e:.2E}" for (m, d), e in errs.items())
        _report("table3 f3 N=257 all methods within 25% of 5.2E-2", ok, detail)

    def test_table4_f4_2d(self):
        e65 = approximation_error(ExperimentSpec("f4", 65, "ppi", 8))
        t0 = time.perf_counter()
        e257 = approximation_error(ExperimentSpec("f4", 257, "ppi", 8))
        elapsed = time.perf_counter() - t0
        ok = _within(e65, 3.51e-4) and _within(e257, 2.91e-8) and elapsed < 10.0
        _report("table4 f4 PPI d=8: 65^2 ~3.51E-4, 257^2 ~2.91E-8 <10s",
                ok, f"65:{e65:.3E} 257:{e257:.3E} {elapsed:.1f}s")

    def test_table5_f5_2d(self):
        e129 = approximation_error(ExperimentSpec("f5", 129, "ppi", 8))
        _report("table5 f5 129^2 PPI d=8 ~2.64E-7", _within(e129, 2.64e-7), f"{e129:.3E}")

    def test_pchip_baseline_table1(self):
        errs = {
            n: approximation_error(ExperimentSpec("f1", n, "pchip", 3))
            for n in (17, 33, 65, 129, 257)
        }
        ok = all(_within(errs[n], PAPER_T1_PCHIP[n]) for n in errs)
        detail = ", ".join(f"N={n}:{e:.2E}" for n, e in errs.items())
        _report("pchip baseline table1 column within x3", ok, detail)


def _random_instance(rng, positive=False):
    n = int(rng.integers(5, 13))
    x = random_mesh(rng, n)
    u = rng.uniform(0.0, 10.0, n) if positive else rng.uniform(-5.0, 5.0, n)
    if rng.random() < 0.25:
        j = int(rng.integers(0, n - 1))
        u[j + 1] = u[j]
    d = int(rng.integers(1, 9))
    st = int(rng.integers(1, 4))
    return x, u, d, st


def _dense_by_interval(x, samples=1000):
    """Left-closed dense samples, grouped per interval (matches the driver)."""
    blocks = [np.linspace(x[i], x[i + 1], samples, endpoint=False) for i in range(x.size - 1)]
    return np.concatenate(blocks), samples


class TestPropertySuite:
    def test_a_interval_boundedness(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            x, u, d, st = _random_instance(rng)
            eps0, eps1 = rng.uniform(0.0, 1.0, 2)
            pts, k = _dense_by_interval(x)
            tau = 1e-12 * (u.max() - u.min() + 1.0)
            v_dbi = adaptive_interpolation_1d(x, u, pts, d, DBI, st).reshape(-1, k)
            v_ppi = adaptive_interpolation_1d(x, u, pts, d, PPI, st, eps0, eps1).reshape(-1, k)
            slopes = np.diff(u) / np.diff(x)
            for i in range(x.size - 1):
                lo, hi = min(u[i], u[i + 1]), max(u[i], u[i + 1])
                assert v_dbi[i].min() >= lo - tau and v_dbi[i].max() <= hi + tau
                cls = classify_interval(*boundary_sigmas(slopes, i))
                u_min, u_max = interval_bounds(u[i], u[i + 1], cls, eps0, eps1)
                assert v_ppi[i].min() >= u_min - tau and v_ppi[i].max() <= u_max + tau
        _report("property (a) DBI/PPI interval boundedness, 100 instances", True)

    def test_b_positivity(self):
        rng = np.random.default_rng(102)
        for _ in range(100):
            x, u, d, st = _random_instance(rng, positive=True)
            eps0, eps1 = rng.uniform(0.0, 1.0, 2)
            pts, _ = _dense_by_interval(x, samples=200)
            v = adaptive_interpolation_1d(x, u, pts, d, PPI, st, eps0, eps1)
            assert v.min() >= -1e-12 * u.max()
        _report("property (b) PPI positivity for nonnegative data, 100 instances", True)

    def test_c_node_exactness(self):
        rng = np.random.default_rng(103)
        for _ in range(100):
            x, u, d, st = _random_instance(rng)
            im = PPI if rng.random() < 0.5 else DBI
            v = adaptive_interpolation_1d(x, u, x, d, im, st)
            scale = np.max(np.abs(u)) + 1e-300
            assert np.max(np.abs(v - u)) <= 1e-12 * scale
        _report("property (c) node interpolation exact to 1e-12 rel, 100 instances", True)

    def test_d_ppi_zero_eps_equals_dbi(self):
        rng = np.random.default_rng(104)
        for _ in range(100):
            x, u, d, st = _random_instance(rng, positive=True)
            pts = rng.uniform(x[0], x[-1], 40)
            a = adaptive_interpolation_1d(x, u, pts, d, PPI, st, 0.0, 0.0)
            b = adaptive_interpolation_1d(x, u, pts, d, DBI, st)
            assert np.max(np.abs(a - b)) <= 1e-14 * max(1.0, u.max())
        _report("property (d) PPI(0,0) == DBI within 1e-14, 100 instances", True)

    def test_e_affine_exactness_1d_2d_3d(self):
        rng = np.random.default_rng(105)
        for trial in range(120):
            ndim = trial % 3 + 1
            im = PPI if rng.random() < 0.5 else DBI
            d = int(rng.integers(1, 7))
            coef = rng.uniform(-2, 2, 4)
            if ndim == 1:
                x = random_mesh(rng, int(rng.integers(3, 9)))
                u = coef[0] + coef[1] * x
                pts = rng.uniform(x[0], x[-1], 25)
                got = adaptive_interpolation_1d(x, u, pts, d, im)
                want = coef[0] + coef[1] * pts
            elif ndim == 2:
                x = random_mesh(rng, int(rng.integers(3, 8)))
                y = random_mesh(rng, int(rng.integers(3, 8)))
                gx, gy = np.meshgrid(x, y, indexing="ij")
                v = coef[0] + coef[1] * gx + coef[2] * gy + coef[3] * gx * gy
                xo = np.linspace(x[0], x[-1], 7)
                yo = np.linspace(y[0], y[-1], 6)
                got = adaptive_interpolation_2d(x, y, v, xo, yo, d, im)
                ox, oy = np.meshgrid(xo, yo, indexing="ij")
                want = coef[0] + coef[1] * ox + coef[2] * oy + coef[3] * ox * oy
            else:
                x = random_mesh(rng, int(rng.integers(3, 6)))
                y = random_mesh(rng, int(rng.integers(3, 6)))
                z = random_mesh(rng, int(rng.integers(3, 6)))
                gx, gy, gz = np.meshgrid(x, y, z, indexing="ij")
                v = coef[0] + coef[1] * gx + coef[2] * gy + coef[3] * gz
                xo = np.linspace(x[0], x[-1], 5)
                yo = np.linspace(y[0], y[-1], 4)
                zo = np.linspace(z[0], z[-1], 4)
                got = adaptive_interpolation_3d(x, y, z, v, xo, yo, zo, d, im)
                ox, oy, oz = np.meshgrid(xo, yo, zo, indexing="ij")
                want = coef[0] + coef[1] * ox + coef[2] * oy + coef[3] * oz
            scale = np.max(np.abs(want)) + 1.0
            assert np.max(np.abs(got - want)) <= 1e-12 * scale
        _report("property (e) affine reproduction in 1D/2D/3D, 120 instances", True)

    def test_f_table_against_recursion_oracle(self):
        rng = np.random.default_rng(106)
        for _ in range(100):
            n = int(rng.integers(3, 10))
            x = random_mesh(rng, n)
            u = rng.uniform(-5, 5, n)
            table = build_table(x, u, n - 1)
            for i in range(n):
                for j in range(n - i):
                    want = brute_dd(x, u, i, j)
                    assert abs(table.entries[i, j] - want) <= 1e-13 * max(1.0, abs(want))
        _report("property (f) divided differences match recursion oracle, 100 instances", True)

    def test_g_chain_reverification(self):
        rng = np.random.default_rng(107)
        checked = 0
        for _ in range(100):
            x, u, d, st = _random_instance(rng, positive=True)
            im = PPI if rng.random() < 0.5 else DBI
            eps0, eps1 = rng.uniform(0.0, 1.0, 2)
            cfg = InterpConfig(d=d, im=im, st=st, eps0=eps0, eps1=eps1)
            table = build_table(x, u, min(d + 1, x.size - 1))
            for piece in interval_interpolants(x, u, cfg):
                for j, lam, bm, bp in replay_chain(piece, table, x):
                    slack = 1e-12 * (1.0 + abs(lam) + abs(bm) + abs(bp))
                    assert bm - slack <= lam <= bp + slack
                    checked += 1
        assert checked > 100
        _report("property (g) accepted stencils re-verify B- <= lambda <= B+", True,
                f"{checked} chain steps")


class TestRoundTripTrends:
    def test_ppi_error_decreases_with_degree(self):
        errs = [
            roundtrip_error(ExperimentSpec("f1", 64, "ppi", d, kind="roundtrip", refine=3))
            for d in (3, 5, 7)
        ]
        ok = errs[0] > errs[1] > errs[2]
        _report("roundtrip f1 N=253: PPI error strictly decreases d=3,5,7",
                ok, " ".join(f"{e:.3E}" for e in errs))

    def test_error_nonincreasing_with_resolution(self):
        cells = [("pchip", 3)] + [(m, d) for m in ("dbi", "ppi") for d in (3, 5, 7)]
        bad = []
        for method, d in cells:
            errs = [
                roundtrip_error(
                    ExperimentSpec("f1", 64, method, d, kind="roundtrip", refine=k)
                )
                for k in (0, 1, 3)
            ]
            if not (errs[0] >= errs[1] >= errs[2]):
                bad.append((method, d, errs))
        _report("roundtrip f1: error non-increasing over N=64,127,253 per (method, d)",
                not bad, str(bad) if bad else "7 columns checked")


class TestOscillationControl:
    def test_eps0_controls_overshoot(self):
        x = np.linspace(-0.2, 0.2, 17)
        u = 1.0 / (1.0 + np.exp(-200.0 * x))
        dense = np.linspace(-0.2, 0.2, 10_000)
        max_loose = adaptive_interpolation_1d(x, u, dense, 8, PPI, 3, 1.0, 1.0).max()
        max_default = adaptive_interpolation_1d(x, u, dense, 8, PPI, 3, 0.01, 1.0).max()
        max_tight = adaptive_interpolation_1d(x, u, dense, 8, PPI, 3, 0.0, 1.0).max()
        ok = max_default <= max_loose and max_tight <= 1.0 + 1e-12
        _report("oscillation control f2 N=17 d=8: eps0 ordering and eps0=0 cap",
                ok, f"eps0=1:{max_loose:.6f} eps0=0.01:{max_default:.6f} eps0=0:{max_tight:.15f}")
