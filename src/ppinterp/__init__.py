"""High-order data-bounded (DBI) and positivity-preserving (PPI) adaptive
polynomial interpolation on 1D/2D/3D structured meshes, with a monotone cubic
Hermite baseline and an experiment harness.

The package exports the interpolation entry points and the few lower-level
pieces the acceptance suite checks directly; everything else is imported from
its module."""

from .config import DBI, PPI, InterpConfig
from .interpnd import adaptive_interpolation_1d, adaptive_interpolation_2d, adaptive_interpolation_3d
from .pchip import pchip_1d, pchip_2d
from .stencil import boundary_sigmas, build_table, classify_interval, interval_bounds, interval_interpolants
from .stencil import newton_eval, replay_chain

__version__ = "0.1.0"

__all__ = [
    "adaptive_interpolation_1d",
    "adaptive_interpolation_2d",
    "adaptive_interpolation_3d",
    "pchip_1d",
    "pchip_2d",
    "DBI",
    "PPI",
    "InterpConfig",
    "boundary_sigmas",
    "classify_interval",
    "interval_bounds",
    "build_table",
    "interval_interpolants",
    "newton_eval",
    "replay_chain",
]
