"""Analytic test functions for the experiment harness (f1-f3 1D, f4-f6 2D)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["TestFunction", "TEST_FUNCTIONS"]


def _f1(x):
    return 0.1 / (0.1 + 25.0 * x**2)


def _f2(x):
    return 1.0 / (1.0 + np.exp(-200.0 * x))


def _f3(x):
    x = np.asarray(x, dtype=float)
    left = 1.0 + (2.0 * np.exp(2.0 * np.pi * x) - 1.0 - np.exp(np.pi)) / (np.exp(np.pi) - 1.0)
    right = 1.0 - np.sin(2.0 * np.pi * x / 3.0 + np.pi / 3.0)
    return np.where(x < -0.5, left, right)


def _f4(x, y):
    return 0.1 / (0.1 + 25.0 * (x**2 + y**2))


def _f5(x, y):
    return 1.0 / (1.0 + np.exp(-np.sqrt(2.0) * 100.0 * (x + y)))


def _f6(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    diag = y - x
    r2 = (x - 1.5) ** 2 + (y - 0.5) ** 2
    # First matching branch wins.
    return np.select(
        [(diag >= 0.0) & (diag <= 0.5), diag >= 0.5, r2 <= 1.0 / 16.0],
        [2.0 * diag, np.ones_like(diag), np.cos(4.0 * np.pi * np.sqrt(r2))],
        default=0.0,
    )


@dataclass(frozen=True)
class TestFunction:
    """One analytic test case: callable plus its dimensionality and domain."""

    name: str
    ndim: int
    domain: tuple[tuple[float, float], ...]
    func: Callable

    def sample(self, *meshes):
        """Evaluate on tensor-product meshes (1 mesh per dimension)."""
        if len(meshes) != self.ndim:
            raise ValueError(f"{self.name} needs {self.ndim} mesh(es), got {len(meshes)}")
        return self.func(*np.meshgrid(*meshes, indexing="ij"))


TEST_FUNCTIONS: dict[str, TestFunction] = {
    "f1": TestFunction("f1", 1, ((-1.0, 1.0),), _f1),
    "f2": TestFunction("f2", 1, ((-0.2, 0.2),), _f2),
    "f3": TestFunction("f3", 1, ((-1.0, 1.0),), _f3),
    "f4": TestFunction("f4", 2, ((-1.0, 1.0), (-1.0, 1.0)), _f4),
    "f5": TestFunction("f5", 2, ((-0.2, 0.2), (-0.2, 0.2)), _f5),
    "f6": TestFunction("f6", 2, ((0.0, 2.0), (0.0, 2.0)), _f6),
}

