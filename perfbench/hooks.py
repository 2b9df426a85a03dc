"""Per-layer tracing from outside the library.

Each hook replaces a name in the module that looks it up (for example
``interp1d.build_stencil``, not ``stencil.build_stencil``), so the calls a
module makes into another layer are timed without touching ``src/``.  A hook
point that no longer exists is reported as absent and left alone.

Spans nest: a layer's self time is its span's duration minus the durations of
the spans opened inside it, so the self times of all layers add up to the
time spent inside the public calls.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, attribute, layer, kind).  Kinds: "span" times and counts the call;
# "stencil" also records the degree reached; "eval" also counts the points
# evaluated; "count" only counts; "line" times a 1D call made by a 2D/3D
# sweep and attributes it to the axis of the mesh it receives.
HOOKS = (
    ("interp1d", "build_table", "divdiff.build_table", "span"),
    ("interp1d", "build_stencil", "stencil.build_stencil", "stencil"),
    ("interp1d", "newton_eval", "divdiff.newton_eval", "eval"),
    ("interp1d", "boundary_sigmas", "bounds", "span"),
    ("interp1d", "classify_interval", "bounds", "span"),
    ("interp1d", "interval_bounds", "bounds", "span"),
    ("interp1d", "scaling_factors", "bounds", "span"),
    ("stencil", "scaling_factors", "bounds", "span"),
    ("stencil", "lambda_bar_candidate", "stencil.candidates", "count"),
    ("interpnd", "interpolate_1d", "interp1d", "line"),
)

AXES = "xyz"


class Tracer:
    """Collects self times and counts for one pass; ``reset`` between passes."""

    def __init__(self):
        self.absent = []
        self._saved = []
        self.reset()

    def reset(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.sweep_s = defaultdict(float)
        self.degree_sum = 0
        self.linear = 0
        self._stack = []
        self._axes = None
        self._quota = None

    # -- spans -----------------------------------------------------------

    def _timed(self, layer, fn, args, kwargs):
        self._stack.append(0.0)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = perf_counter() - t0
            child = self._stack.pop()
            self.self_s[layer] += dur - child
            self.counts[layer + ".calls"] += 1
            if self._stack:
                self._stack[-1] += dur
        return result, dur

    def root(self, layer, fn, args, axes=()):
        """Time one public call made by the benchmark.  ``axes`` lists the
        (input mesh, output points) of each axis of a 2D/3D call."""
        self._axes = axes
        self._quota = _line_quota(axes)
        try:
            return self._timed(layer, fn, args, {})[0]
        finally:
            self._axes = self._quota = None

    def _axis_of(self, mesh):
        """Axis whose input mesh equals ``mesh`` and still expects lines.

        Axes with equal meshes (uniform grids) are told apart by the
        documented sweep order x, y, z and the line count of each sweep."""
        mesh = np.asarray(mesh)
        for k, (m, _) in enumerate(self._axes or ()):
            if self._quota[k] > 0 and m.shape == mesh.shape and np.array_equal(m, mesh):
                self._quota[k] -= 1
                return AXES[k]
        return None

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, layer, kind):
        if kind == "count":
            def counted(*args, **kwargs):
                self.counts[layer] += 1
                return fn(*args, **kwargs)
            return counted

        def traced(*args, **kwargs):
            result, dur = self._timed(layer, fn, args, kwargs)
            if kind == "stencil":
                degree = getattr(result, "degree", None)
                if degree is not None:
                    self.degree_sum += degree
                    self.linear += degree == 1
            elif kind == "eval":
                pts = kwargs["x"] if "x" in kwargs else args[2]
                self.counts[layer + ".points"] += int(np.size(pts))
            elif kind == "line":
                axis = self._axis_of(kwargs["x"] if "x" in kwargs else args[0])
                if axis is not None:
                    self.sweep_s[axis] += dur
                    self.counts["interpnd.lines"] += 1
            return result
        return traced

    def install(self, package="ppinterp"):
        self.absent = []
        for mod_name, attr, layer, kind in HOOKS:
            try:
                mod = importlib.import_module(f"{package}.{mod_name}")
            except ImportError:
                mod = None
            fn = getattr(mod, attr, None)
            if not callable(fn):
                self.absent.append(f"{mod_name}.{attr}")
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, layer, kind))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    # -- per-pass results ----------------------------------------------------

    def times(self):
        """Per-layer seconds of this pass."""
        t = {
            "stencil.build_stencil.s": self.self_s["stencil.build_stencil"],
            "divdiff.newton_eval.s": self.self_s["divdiff.newton_eval"],
            "divdiff.build_table.s": self.self_s["divdiff.build_table"],
            "bounds.s": self.self_s["bounds"],
            "interp1d.self_s": self.self_s["interp1d"],
            "interpnd.self_s": self.self_s["interpnd"],
            "pchip.s": self.self_s["pchip"],
        }
        for axis in AXES:
            t[f"interpnd.sweep_{axis}.s"] = self.sweep_s[axis]
        return t

    def self_total(self):
        return sum(self.self_s.values())

    def counts_record(self):
        """Per-layer counts of this pass; they repeat exactly for a seed."""
        stencils = self.counts["stencil.build_stencil.calls"]
        return {
            "stencil.build_stencil.calls": stencils,
            "stencil.candidates": self.counts["stencil.candidates"],
            "stencil.degree_mean": self.degree_sum / stencils if stencils else 0.0,
            "stencil.linear_frac": self.linear / stencils if stencils else 0.0,
            "divdiff.newton_eval.calls": self.counts["divdiff.newton_eval.calls"],
            "divdiff.newton_eval.points": self.counts["divdiff.newton_eval.points"],
            "divdiff.build_table.calls": self.counts["divdiff.build_table.calls"],
            "bounds.calls": self.counts["bounds.calls"],
            "interp1d.calls": self.counts["interp1d.calls"],
            "interpnd.lines": self.counts["interpnd.lines"],
            "pchip.calls": self.counts["pchip.calls"],
        }


def _line_quota(axes):
    """Number of 1D lines each axis sweep makes: the axes swept before it
    are at their output size, the ones after it at their input size."""
    sizes_in = [np.size(m) for m, _ in axes]
    sizes_out = [np.size(o) for _, o in axes]
    return [
        int(np.prod(sizes_out[:k], dtype=np.int64) * np.prod(sizes_in[k + 1:], dtype=np.int64))
        for k in range(len(axes))
    ]
