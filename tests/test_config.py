"""Tests of ``ppinterp.config``, what the API accepts: here the parameter
rule ``InterpConfig``, each fault with its exact message.  The array rules
(``as_mesh1d``, ``as_values``) are tested exactly through every entry point
in ``test_interpnd.py::TestValidatorMessages``, and every exported name
against the one input rule in ``test_input_rule.py``."""

import re

import numpy as np
import pytest

from ppinterp import DBI, PPI, InterpConfig, adaptive_interpolation_1d

DEGREE = "target degree d must be an integer >= 1, got "
METHOD = "im must be 1 (DBI) or 2 (PPI), got "
POLICY = "st must be 1, 2 or 3, got "
EPS = "eps0 and eps1 must be finite and nonnegative real numbers, got "
# each bad eps and its repr in the message
BAD_EPS = [(-0.1, "-0.1"), (np.nan, "nan"), (np.inf, "inf"), (True, "True"), ("0.1", "'0.1'"),
           (None, "None")]


class TestInterpConfig:
    # d, im and st must be integers (bools and floats are not), eps0 and eps1
    # finite, nonnegative real numbers (bools are not)
    @pytest.mark.parametrize("field, value, message", [
        ("d", 0, DEGREE + "0"),
        ("d", 8.0, DEGREE + "8.0"),
        ("d", True, DEGREE + "True"),
        ("im", 3, METHOD + "3"),
        ("im", True, METHOD + "True"),
        ("im", 2.0, METHOD + "2.0"),
        ("st", 4, POLICY + "4"),
        ("st", True, POLICY + "True"),
        ("st", 3.0, POLICY + "3.0"),
        *[("eps0", bad, f"{EPS}{shown}, 1.0") for bad, shown in BAD_EPS],
        *[("eps1", bad, f"{EPS}0.01, {shown}") for bad, shown in BAD_EPS],
    ])
    def test_rejects(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            InterpConfig(**{"d": 3, "im": PPI, field: value})

    @pytest.mark.parametrize("given", [
        dict(d=np.int64(8), im=np.int32(PPI), st=np.int8(1)),
        dict(d=np.uint8(8), im=np.int16(DBI), st=np.uint64(2)),
    ])
    def test_numpy_integers_accepted(self, given):
        # read as the Python integers they equal, down to the interpolant
        plain = {field: int(value) for field, value in given.items()}
        assert InterpConfig(**given) == InterpConfig(**plain)
        x = np.linspace(0.0, 1.0, 33)
        u, xout = np.cos(3.0 * x), np.linspace(0.0, 1.0, 50)
        got = adaptive_interpolation_1d(x, u, xout, **given)
        assert np.array_equal(got, adaptive_interpolation_1d(x, u, xout, **plain))
