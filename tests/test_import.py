"""Cold start on numpy alone: no call of the package, PCHIP included, ever
imports SciPy, and ``import ppinterp`` loads the interpolation core alone,
not the experiment layer (``harness``) or its CLI.  Every exported name
resolves."""

import importlib
import importlib.util
import os
import pathlib
import pkgutil
import subprocess
import sys

import ppinterp

SCRIPT = """
import contextlib, io, sys
import numpy as np
import ppinterp
from ppinterp import PPI, DBI

def check(after):
    loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
    assert not loaded, f"{after} loaded {loaded}"

layer = sorted(name for name in sys.modules if name in ("ppinterp.harness", "ppinterp.cli"))
assert not layer, f"import ppinterp loaded the experiment layer {layer}"
check("import ppinterp")
x = np.linspace(0.0, 1.0, 9)
u = np.abs(np.sin(7.0 * x))
xo = np.linspace(0.0, 1.0, 13)
ppinterp.adaptive_interpolation_1d(x, u, xo, 5, PPI)
ppinterp.adaptive_interpolation_2d(x, x, np.outer(u, u), xo, xo, 5, DBI)
ppinterp.adaptive_interpolation_3d(x, x, x, u[:, None, None] * np.ones((9, 9, 9)), xo, xo, xo, 3, PPI)
pieces = ppinterp.interval_interpolants(x, u, ppinterp.InterpConfig(d=4, im=PPI))
ppinterp.replay_chain(pieces[3], ppinterp.build_table(x, u, 4), x)
check("the adaptive calls")
ppinterp.pchip_1d(x, u, xo)
check("pchip_1d")
ppinterp.pchip_2d(x, x, np.outer(u, u), xo, xo)
check("pchip_2d")
from ppinterp import cli
with contextlib.redirect_stdout(io.StringIO()):
    for method, degree in (("ppi", "8"), ("pchip", "3")):
        assert cli.main(["approx", "--fn", "f1", "--n", "17", "--method", method, "--degree", degree]) == 0
        check(f"approx --method {method}")
    for method in ("dbi", "pchip"):
        assert cli.main(["roundtrip", "--fn", "f1", "--n", "16", "--method", method, "--degree", "3"]) == 0
        check(f"roundtrip --method {method}")
print("ok")
"""


def test_scipy_never_loads():
    src = os.path.dirname(os.path.dirname(os.path.abspath(ppinterp.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_every_exported_name_resolves():
    # a name left in an __all__ after its code moved to another module fails
    modules = [ppinterp] + [
        importlib.import_module(f"ppinterp.{info.name}") for info in pkgutil.iter_modules(ppinterp.__path__)
    ]
    assert len(modules) > 2
    for module in modules:
        names = getattr(module, "__all__", ())
        assert len(set(names)) == len(names), module.__name__
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names {missing}"


MODULE_MAP = """
import sys
import ppinterp
print(" ".join(sorted(name for name in sys.modules if name.startswith("ppinterp."))))
"""


# The test files that check a gate across modules; every other test file is
# named for the module it tests.
CROSS_MODULE = {"acceptance", "output_digest", "import", "input_rule"}


def test_module_map():
    # the admissibility model (classes, bounds, scaling factors) and the
    # Newton form live in stencil, beside the engine that reads them, the
    # array rules in config and the 1D entry point in interpnd; no alias
    # module remains
    for folded in ("bounds", "divdiff", "interp1d", "diagnostics"):
        assert importlib.util.find_spec(f"ppinterp.{folded}") is None
    # each test file test_<m>.py tests the module ppinterp.<m>, so a name's
    # tests are found from the module that defines it
    named = {path.stem.removeprefix("test_") for path in pathlib.Path(__file__).parent.glob("test_*.py")}
    assert CROSS_MODULE <= named
    stray = sorted(m for m in named - CROSS_MODULE if importlib.util.find_spec(f"ppinterp.{m}") is None)
    assert not stray, f"test files named for no module: {stray}"
    src = os.path.dirname(os.path.dirname(os.path.abspath(ppinterp.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", MODULE_MAP], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    # the interpolation core is these four modules, and nothing else loads
    loaded = proc.stdout.split()
    assert loaded == [f"ppinterp.{m}" for m in ("config", "interpnd", "pchip", "stencil")]
