"""Tests of ``ppinterp.config``, what the API accepts: here the mesh rule
``as_mesh1d``.  The parameter rule ``InterpConfig`` is tested through the
entry points in ``test_interpnd.py``, and every exported name against the
one input rule in ``test_input_rule.py``."""

import numpy as np
import pytest

from ppinterp.config import as_mesh1d
from ppinterp.stencil import build_table


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
