"""Tests of ``ppinterp.harness`` and its CLI front end: the analytic test
functions, the error norms and mesh refinement, the experiment
specification, the approximation and round-trip studies, the table sweeps,
the CSV and the CLI."""

import re

import numpy as np
import pytest

from ppinterp import adaptive_interpolation_1d, PPI
from ppinterp import cli, harness
from ppinterp.cli import main
from ppinterp.harness import (
    CSV_HEADER,
    TEST_FUNCTIONS,
    ExperimentSpec,
    approximation_error,
    format_rows,
    l2_error_continuum,
    l2_error_grid,
    refine_mesh,
    roundtrip_error,
    roundtrip_meshes,
    run_experiments,
    table_sweep,
)


class TestFunctions:
    def test_f1_peak(self):
        assert TEST_FUNCTIONS["f1"].func(0.0) == 1.0

    def test_f2_midpoint(self):
        assert TEST_FUNCTIONS["f2"].func(0.0) == 0.5

    def test_f3_branch_split(self):
        f3 = TEST_FUNCTIONS["f3"].func
        # the split point itself belongs to the smooth branch
        assert f3(-0.5) == pytest.approx(1.0 - np.sin(-np.pi / 3 + np.pi / 3))
        assert abs(f3(-0.5 - 1e-9) - f3(-0.5)) > 0.5  # jump

    def test_f4_peak(self):
        assert TEST_FUNCTIONS["f4"].func(0.0, 0.0) == 1.0

    def test_f5_diagonal(self):
        assert TEST_FUNCTIONS["f5"].func(0.1, -0.1) == 0.5

    def test_f6_branches(self):
        f6 = TEST_FUNCTIONS["f6"].func
        assert f6(0.2, 0.5) == pytest.approx(0.6)  # ramp
        assert f6(0.2, 0.8) == 1.0  # plateau
        assert f6(1.5, 0.5) == 1.0  # cone center
        assert f6(1.0, 0.0) == 0.0  # background

    def test_dimensions(self):
        assert [TEST_FUNCTIONS[f"f{k}"].ndim for k in range(1, 7)] == [1, 1, 1, 2, 2, 2]

    def test_sample_takes_one_mesh_per_dimension(self):
        x = np.linspace(-1.0, 1.0, 5)
        with pytest.raises(ValueError, match=r"^f4 needs 2 mesh\(es\), got 1$"):
            TEST_FUNCTIONS["f4"].sample(x)
        with pytest.raises(ValueError, match=r"^f1 needs 1 mesh\(es\), got 2$"):
            TEST_FUNCTIONS["f1"].sample(x, x)


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

    def test_2d_constant_difference(self):
        x = np.linspace(0, 1, 40)
        y = np.linspace(0, 2, 30)
        a = np.zeros((40, 30))
        b = np.full((40, 30), 1.5)
        # integral of 1.5^2 over a 1x2 box, square root
        assert l2_error_continuum(a, b, x, y) == pytest.approx(1.5 * np.sqrt(2.0), rel=1e-12)


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


class TestNormInputs:
    """The norms take their arrays through the core's validators, so a
    complex, NaN or infinite value, or arrays whose shapes differ, raise
    instead of giving a number."""

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

    @pytest.mark.parametrize("norm, args, message", [
        (l2_error_grid, ([1.0], [1.0, 2.0]), "length mismatch: (1,) vs (2,)"),
        (l2_error_continuum, ([1, 2], [1, 2, 3], [0, 1, 2]),
         "values shape (2,) does not match mesh shape (3,)"),
        (l2_error_continuum, (np.zeros((3, 3)), np.zeros((3, 3)), [0, 1, 2], [0, 1]),
         "values shape (3, 3) does not match mesh shape (3, 2)"),
    ], ids=["grid", "continuum", "continuum-2d"])
    def test_shapes_must_match(self, norm, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            norm(*args)

    def test_grid_norm_rejects_empty_grids(self):
        # the mean of no values would be NaN
        for empty in ([], np.empty((0, 3))):
            with pytest.raises(ValueError, match="^the grids hold no values$"):
                l2_error_grid(empty, empty)

    def test_integer_values_read_as_floats(self):
        assert l2_error_grid([3, 4], [0, 0]) == l2_error_grid([3.0, 4.0], [0.0, 0.0])
        want = l2_error_continuum([3.0, 4.0], [0.0, 0.0], [0.0, 1.0])
        assert l2_error_continuum([3, 4], [0, 0], [0, 1]) == want


class TestRefineMesh:
    def test_preserves_original_points_exactly(self):
        rng = np.random.default_rng(3)
        x = np.sort(rng.uniform(-3, 3, 20))
        for k in (0, 1, 2, 3):
            fine = refine_mesh(x, k)
            assert fine.size == x.size + k * (x.size - 1)
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


class TestExperimentSpec:
    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            ExperimentSpec("f1", 17, "spline", 3)

    def test_rejects_unknown_function(self):
        with pytest.raises(ValueError, match="test function"):
            ExperimentSpec("g1", 17, "ppi", 3)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="^unknown experiment kind 'table'$"):
            ExperimentSpec("f1", 17, "ppi", 3, kind="table")

    def test_rejects_tiny_mesh(self):
        with pytest.raises(ValueError, match="at least 2"):
            ExperimentSpec("f1", 1, "ppi", 3)

    def test_pchip_held_to_the_parameter_rule(self):
        # PCHIP ignores degree/st/eps but does not accept invalid ones
        with pytest.raises(ValueError, match="degree"):
            ExperimentSpec("f1", 17, "pchip", 0)
        with pytest.raises(ValueError, match="nonnegative"):
            ExperimentSpec("f1", 17, "pchip", 3, eps0=-1.0)
        with pytest.raises(ValueError, match="st must be"):
            ExperimentSpec("f1", 17, "pchip", 3, st=4)

    @pytest.mark.parametrize("field, value", [
        ("n", 2.5), ("n", 17.0), ("n", True), ("n", "17"),
        ("refine", 2.0), ("refine", -1), ("refine", True), ("refine", None),
    ])
    def test_integer_fields_follow_the_config_rule(self, field, value):
        # the rule InterpConfig applies to d, im and st: integers only, numpy
        # integers included, bools and floats rejected at construction
        args = {"fn": "f1", "n": 17, "method": "ppi", "degree": 3, "kind": "roundtrip"}
        with pytest.raises(ValueError, match=f"^{field} must be .*integer"):
            ExperimentSpec(**{**args, field: value})

    def test_refine_only_for_roundtrip(self):
        # an approximation row has no mesh to refine; the option used to be
        # dropped silently, returning the refine=0 row
        with pytest.raises(ValueError, match="refine"):
            ExperimentSpec("f1", 17, "ppi", 3, refine=3)
        assert ExperimentSpec("f1", 17, "ppi", 3, refine=0).refine == 0

    def test_2d_roundtrip_rejected_at_construction(self, capsys):
        # the round trip maps 1D meshes only; a 2D spec used to be accepted
        # and raise only when run
        with pytest.raises(ValueError, match="1D test functions"):
            ExperimentSpec("f4", 17, "ppi", 3, kind="roundtrip")
        assert ExperimentSpec("f4", 17, "ppi", 3).kind == "approx"
        argv = ["roundtrip", "--fn", "f4", "--n", "17", "--method", "ppi", "--degree", "3"]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: round-trip experiments use the 1D test functions\n"

    def test_numpy_integer_fields_accepted(self):
        spec = ExperimentSpec("f1", np.int64(16), "ppi", 3, kind="roundtrip", refine=np.int32(1))
        assert roundtrip_meshes(spec)[0].size == 31


class TestApproximation:
    def test_f5_full_resolution_as_published(self):
        # the steep-front 2D case at the finest tabulated resolution
        err = approximation_error(ExperimentSpec("f5", 257, "ppi", 8))
        assert 5.39e-10 / 3 <= err <= 5.39e-10 * 3

    def test_row_shape(self):
        rows = run_experiments([ExperimentSpec("f1", 17, "ppi", 3)])
        assert len(rows) == 1
        n, method, degree, st, eps0, eps1, err = rows[0]
        assert (n, method, degree, st, eps0, eps1) == (17, "ppi", 3, 3, 0.01, 1.0)
        assert err > 0


class TestRoundtrip:
    def test_meshes_share_hull(self):
        ma, mr = roundtrip_meshes(ExperimentSpec("f1", 64, "ppi", 3, kind="roundtrip"))
        assert ma[0] == mr[0] and ma[-1] == mr[-1]
        assert mr.size == ma.size + 1
        assert np.allclose(mr[1:-1], 0.5 * (ma[:-1] + ma[1:]))

    def test_identity_mesh_roundtrip_is_exact(self):
        x = np.linspace(-1, 1, 33)
        u = TEST_FUNCTIONS["f1"].func(x)
        once = adaptive_interpolation_1d(x, u, x, 5, PPI)
        twice = adaptive_interpolation_1d(x, once, x, 5, PPI)
        assert l2_error_grid(twice, u) <= 1e-12 * np.max(np.abs(u))

    def test_positive_throughout(self):
        spec = ExperimentSpec("f1", 64, "ppi", 5, kind="roundtrip")
        ma, mr = roundtrip_meshes(spec)
        u = TEST_FUNCTIONS["f1"].func(ma)
        on_r = adaptive_interpolation_1d(ma, u, mr, 5, PPI)
        back = adaptive_interpolation_1d(mr, on_r, ma, 5, PPI)
        assert on_r.min() >= 0 and back.min() >= 0

    def test_2d_function_rejected(self):
        with pytest.raises(ValueError, match="1D"):
            roundtrip_error(ExperimentSpec("f4", 64, "ppi", 3, kind="roundtrip"))

    def test_row_builds_meshes_once(self, monkeypatch):
        # the N column comes from the meshes the round trip itself maps
        built = []

        def counted(spec):
            built.append(spec)
            return roundtrip_meshes(spec)

        monkeypatch.setattr(harness, "roundtrip_meshes", counted)
        specs = [ExperimentSpec("f1", 16, m, 3, kind="roundtrip", refine=k)
                 for m in ("pchip", "dbi", "ppi") for k in (0, 1, 3)]
        rows = run_experiments(specs)
        assert built == specs
        assert [row[0] for row in rows] == [16, 31, 61] * 3
        built.clear()
        assert [roundtrip_error(spec) for spec in specs] == [row[-1] for row in rows]
        assert built == specs


class TestSweeps:
    def test_table_sweep_layout(self):
        specs = table_sweep(1)
        assert len(specs) == 5 * 7
        assert {s.fn for s in specs} == {"f1"}
        assert {s.n for s in specs} == {17, 33, 65, 129, 257}

    @pytest.mark.parametrize("table_id", [7, 1.0, True], ids=["out-of-range", "float", "bool"])
    def test_table_sweep_id_range(self, table_id):
        with pytest.raises(ValueError, match="table id"):
            table_sweep(table_id)

    def test_table_sweep_numpy_integer_id(self):
        assert table_sweep(np.int64(4)) == table_sweep(4)


class TestCsv:
    def test_header_and_formatting(self):
        text = format_rows([(17, "ppi", 3, 3, 0.01, 1.0, 1.23456789e-4)])
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1] == "17,ppi,3,3,0.01,1.0,1.23457E-04"

    def test_pchip_row_leaves_params_empty(self):
        text = format_rows([(17, "pchip", 3, 3, 0.01, 1.0, 2.5e-3)])
        assert text.splitlines()[1] == "17,pchip,3,,,,2.50000E-03"

    def test_lf_endings(self):
        text = format_rows([(17, "ppi", 3, 3, 0.01, 1.0, 1e-3)])
        assert "\r" not in text and text.endswith("\n")


class TestCli:
    def test_approx_stdout_deterministic(self, capsys):
        argv = ["approx", "--fn", "f1", "--n", "17", "--method", "ppi", "--degree", "3"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert first.splitlines()[0] == CSV_HEADER

    def test_roundtrip_command(self, capsys):
        argv = [
            "roundtrip", "--fn", "f1", "--n", "16", "--refine", "1",
            "--method", "dbi", "--degree", "3",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1].startswith("31,dbi,3")

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "rows.csv"
        argv = [
            "approx", "--fn", "f2", "--n", "17", "--method", "pchip",
            "--degree", "3", "--out", str(target),
        ]
        assert main(argv) == 0
        assert capsys.readouterr().out == ""
        text = target.read_text()
        assert text.splitlines()[0] == CSV_HEADER
        assert "\r" not in text

    def test_unwritable_out_fails_before_the_sweep(self, tmp_path, capsys, monkeypatch):
        def sweep(specs):
            raise RuntimeError("the sweep ran")

        monkeypatch.setattr(cli, "run_experiments", sweep)
        target = tmp_path / "missing" / "rows.csv"
        argv = ["approx", "--fn", "f1", "--n", "17", "--method", "dbi", "--degree", "3", "--out", str(target)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and str(target) in captured.err
        assert not target.parent.exists()

    @pytest.mark.parametrize(
        "bad", [["--degree", "0"], ["--eps0", "-1"], ["--st", "4"]], ids=["degree", "eps0", "st"]
    )
    def test_bad_parameters_rejected_for_every_method(self, capsys, bad):
        # a later --degree overrides the earlier one
        errors = {}
        for method in ("ppi", "pchip"):
            argv = ["approx", "--fn", "f1", "--n", "17", "--method", method, "--degree", "3", *bad]
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error:")
            errors[method] = captured.err
        assert errors["pchip"] == errors["ppi"]

    @pytest.mark.parametrize("command", ["approx", "roundtrip"])
    def test_omitted_flags_take_config_defaults(self, capsys, command):
        argv = [command, "--fn", "f1", "--n", "17", "--method", "ppi", "--degree", "4"]
        explicit = ["--st", "3", "--eps0", "0.01", "--eps1", "1.0"]
        if command == "roundtrip":
            explicit += ["--refine", "0"]
        assert main(argv) == 0
        implicit_out = capsys.readouterr().out
        assert main(argv + explicit) == 0
        assert implicit_out == capsys.readouterr().out

    def test_programming_error_propagates(self, monkeypatch):
        # only bad parameters (ValueError) become a one-line message; a bug
        # keeps its type and traceback
        def broken(specs):
            raise RuntimeError("bug")

        monkeypatch.setattr(cli, "run_experiments", broken)
        with pytest.raises(RuntimeError, match="bug"):
            main(["approx", "--fn", "f1", "--n", "17", "--method", "ppi", "--degree", "3"])

    def test_bad_choice_rejected_by_parser(self):
        with pytest.raises(SystemExit) as exc:
            main(["approx", "--fn", "f1", "--n", "17", "--method", "mqsi", "--degree", "3"])
        assert exc.value.code == 2

    def test_table_command(self, capsys):
        assert main(["table", "--id", "3"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 35
