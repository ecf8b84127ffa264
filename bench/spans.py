"""Span tracing of lightsim's layers, installed from outside the package.

`Tracer.install()` replaces every public function of each layer module
with a timing wrapper in every ``lightsim`` namespace that binds it (so
``scenarios.apply`` is traced as ``polarization.apply``), wraps the
public methods of the classes each layer defines, and wraps the scenario
runners held in ``scenarios.SCENARIOS``.  `Tracer.uninstall()` puts the
original objects back, so untraced passes run the unmodified program.

Spans nest through the call stack: a span's self time is its duration
minus the durations of the spans it directly encloses, so the self times
of all spans add up to the traced wall time of the outermost ones.
"""

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "config", "scenarios", "beams", "elements", "polarization",
          "analysis", "geomphase", "propagation", "interference", "imageio")

# Kernels reported by name, as "<layer>.<qualified name>".
KERNELS = (
    "geomphase.solid_angle",
    "analysis.topological_charge",
    "analysis.azimuthal_spectrum",
    "analysis.oam_per_photon",
    "analysis.am_ledger",
    "beams.Grid.coords",
    "beams.Grid.polar",
    "beams.laguerre_gaussian",
    "elements.apply_qplate",
    "propagation.propagate",
    "propagation.stability_metrics",
    "interference.interference_image",
    "interference.fringe_fork_count",
)

# Image writers and the bytes per pixel of the array they are given.
IMAGE_WRITERS = {"write_intensity_pgm": 2, "write_phase_pgm": 2,
                 "write_stokes_ppm": 3}


def _image_bytes(name, args):
    arr = args[1]
    if name == "write_stokes_ppm":
        arr = arr.s0
    return arr.size * IMAGE_WRITERS[name]


class Tracer:
    """Collects spans of traced lightsim calls into per-key totals."""

    def __init__(self):
        # Imported here: run.py imports this module without lightsim.
        from lightsim.errors import LightsimError
        self._error_type = LightsimError
        self._stack = []          # [key, layer, start, child seconds]
        self._undo = []           # callables that restore patched objects
        self.self_s = defaultdict(float)   # key or layer -> self seconds
        self.calls = defaultdict(int)      # key or layer -> calls
        self.errors = defaultdict(int)     # layer -> LightsimErrors raised
        self.span_s = defaultdict(float)   # scenario -> inclusive seconds
        self.solid_angle_points = 0
        self.image_bytes = 0

    def _wrap(self, layer, key, fn, scenario=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if key == "geomphase.solid_angle":
                tracer.solid_angle_points += len(args[0].points)
            elif fn.__name__ in IMAGE_WRITERS and layer == "imageio":
                tracer.image_bytes += _image_bytes(fn.__name__, args)
            frame = [key, layer, time.perf_counter(), 0.0]
            tracer._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            except tracer._error_type as exc:
                # Count an error once, in the layer of the innermost span.
                if not getattr(exc, "_bench_counted", False):
                    tracer.errors[layer] += 1
                    exc._bench_counted = True
                raise
            finally:
                duration = time.perf_counter() - frame[2]
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][3] += duration
                own = duration - frame[3]
                tracer.self_s[layer] += own
                tracer.self_s[key] += own
                tracer.calls[layer] += 1
                tracer.calls[key] += 1
                if scenario is not None:
                    tracer.span_s[scenario] += duration

        return traced

    def _patch(self, owner, attr, new):
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = new
            self._undo.append(lambda: owner.__setitem__(attr, original))
        else:
            original = vars(owner)[attr]
            setattr(owner, attr, new)
            self._undo.append(lambda: setattr(owner, attr, original))

    def install(self):
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if name == "lightsim" or name.startswith("lightsim.")}
        wrappers = {}   # id(original function) -> wrapper
        for layer in LAYERS:
            mod = modules[f"lightsim.{layer}"]
            for name, obj in vars(mod).items():
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = self._wrap(layer, f"{layer}.{name}",
                                                   obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            key = f"{layer}.{name}.{meth}"
                            self._patch(obj, meth, self._wrap(layer, key, fn))
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._patch(mod, name, wrappers[id(obj)])
        table = modules["lightsim.scenarios"].SCENARIOS
        for scenario, (schemas, runner) in list(table.items()):
            traced = self._wrap("scenarios", f"scenarios.{scenario}", runner,
                                scenario=scenario)
            self._patch(table, scenario, (schemas, traced))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()
