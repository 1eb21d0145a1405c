"""Spans and counters around every public function of twogauge's layers.

`Tracer.install()` wraps each public function and each public method (and
constructor) of each public class defined in the layer modules, and rebinds
every name that refers to the original: the defining module, every module
that imported it and the package itself. Nothing under src/ changes.

Each call is one span. A span's self time is its duration minus the time of
the spans it opened, so a layer's self times never count the same interval
twice and sum to at most the traced wall time. Spans are aggregated per
function as they close (a run makes millions); the per-layer metrics are
per-round figures taken from those aggregates.
"""

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

BENCH_DIR = str(Path(__file__).resolve().parent)

LAYERS = ("expr", "forms", "geometry", "maps", "groups", "crossed", "twocells",
          "transport", "cech", "scenario", "report", "cli")

# Named groups of functions whose outermost spans give an inclusive time.
INCLUSIVE = {
    "forms.build": ["forms.FormField.d", "forms.square_wedge", "forms.action_wedge",
                    "forms.curvature", "forms.fake_curvature_form",
                    "forms.three_curvature", "forms.FormField.map_algebra"],
    "expr.parse": ["expr.parse"],
    "groups.renormalize": ["groups.MatrixGroup.renormalize"],
    "groups.expm": ["groups.MatrixGroup.exp"],
    "transport.fake_gate": ["transport.fake_residual_on_bigon"],
    "scenario.load": ["scenario.load_scenario"],
    "report.serialize": ["report.jsonify", "report.ValidationReport.to_dict"],
    "cli.run": ["cli.run"],
}
GEOMETRY_SAMPLING = ["geometry.Bigon.value", "geometry.Bigon.d_s", "geometry.Bigon.d_t",
                     "geometry.Path.value", "geometry.Path.velocity"]
FORM_EVAL = ["forms.FormField.at", "forms.PointwiseForm.at"]
FINITE_GROUP = [f"groups.FiniteGroup.{m}" for m in ("mul", "inv", "conj", "eq", "renormalize")]

# Per-layer metrics: name -> unit. Census sizes and per-pair classify times
# come from the census workload (see wl_census.layer_counts).
CLASSIFY_PAIRS = ["GERBE-Z2.sphere", "GERBE-Z3.sphere", "GERBE-Z5.sphere",
                  "FLIP-Z3.sphere", "GERBE-Z2.tetrahedron", "GERBE-Z3.tetrahedron",
                  "GERBE-Z5.tetrahedron", "FLIP-Z3.tetrahedron", "CONJ-S3.triangle",
                  "AUT-S3.triangle", "AUT-Z5.triangle"]
UNITS = {"trace.wall_s": "s", "trace.layer_self_sum_s": "s",
         **{f"{layer}.self_s": "s" for layer in LAYERS},
         "geometry.calls": "count", "forms.eval_calls": "count",
         "forms.eval_self_s": "s", "forms.build_s": "s",
         "expr.parse_calls": "count", "expr.parse_s": "s",
         "expr.differentiate_calls": "count", "maps.calls": "count",
         "groups.renormalize_calls": "count", "groups.reprojections": "count",
         "groups.reprojections_per_renormalize": "ratio",
         "groups.renormalize_self_s": "s", "groups.expm_calls": "count",
         "groups.expm_s": "s", "groups.finite_calls": "count",
         "groups.finite_self_s": "s", "crossed.alpha_calls": "count",
         "crossed.act_algebra_calls": "count", "twocells.cells": "count",
         "transport.surface_self_s": "s", "transport.path_self_s": "s",
         "transport.fake_gate_s": "s",
         "cech.candidates": "count", "cech.cocycles": "count",
         "cech.cocycle_yield": "ratio", "cech.orbit_moves": "count",
         **{f"cech.classify_s.{pair}": "s" for pair in CLASSIFY_PAIRS},
         "scenario.load_s": "s", "report.serialize_s": "s", "cli.run_s": "s"}


class Tracer:
    def __init__(self):
        self.active = False
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)
        self._open = []              # time of child spans, one entry per open span
        self._group_depth = Counter()
        self._group_of = {key: group for group, keys in INCLUSIVE.items() for key in keys}

    def wrap(self, key, fn):
        tracer = self
        group = self._group_of.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            opened = tracer._open
            opened.append(0.0)
            if group is not None:
                tracer._group_depth[group] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                tracer.calls[key] += 1
                tracer.self_s[key] += elapsed - opened.pop()
                if opened:
                    opened[-1] += elapsed
                if group is not None:
                    tracer._group_depth[group] -= 1
                    if tracer._group_depth[group] == 0:
                        tracer.inclusive_s[group] += elapsed
        return traced

    def install(self):
        modules = {layer: importlib.import_module(f"twogauge.{layer}") for layer in LAYERS}
        holders = [m for name, m in list(sys.modules.items())
                   if name == "twogauge" or name.startswith("twogauge.")
                   or str(getattr(m, "__file__", None) or "").startswith(BENCH_DIR)]
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self.wrap(f"{layer}.{name}", obj)
                    for holder in holders:
                        for attr, value in list(vars(holder).items()):
                            if value is obj:
                                setattr(holder, attr, wrapped)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(f"{layer}.{name}", obj)

    def _wrap_class(self, prefix, cls):
        for name, member in list(vars(cls).items()):
            if name.startswith("_") and name != "__init__":
                continue
            key = f"{prefix}.{name}"
            if isinstance(member, staticmethod):
                setattr(cls, name, staticmethod(self.wrap(key, member.__func__)))
            elif isinstance(member, classmethod):
                setattr(cls, name, classmethod(self.wrap(key, member.__func__)))
            elif inspect.isfunction(member):
                setattr(cls, name, self.wrap(key, member))

    def _sum(self, table, keys):
        return sum(table.get(k, 0) for k in keys)

    def metrics(self, measurement, counts):
        """Per-round values of every metric in UNITS."""
        rounds = measurement.rounds
        calls = {k: v / rounds for k, v in self.calls.items()}
        own = {k: v / rounds for k, v in self.self_s.items()}
        incl = {k: v / rounds for k, v in self.inclusive_s.items()}

        def layer_keys(layer, table):
            return [k for k in table if k.startswith(layer + ".")]

        out = {"trace.wall_s": measurement.total_wall_s() / rounds}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self._sum(own, layer_keys(layer, own))
        out["trace.layer_self_sum_s"] = sum(out[f"{layer}.self_s"] for layer in LAYERS)
        renorm = calls.get("groups.MatrixGroup.renormalize", 0)
        project = calls.get("groups.MatrixGroup.project", 0)
        out.update({
            "geometry.calls": self._sum(calls, GEOMETRY_SAMPLING),
            "forms.eval_calls": self._sum(calls, FORM_EVAL),
            "forms.eval_self_s": self._sum(own, FORM_EVAL),
            "forms.build_s": incl.get("forms.build", 0.0),
            "expr.parse_calls": calls.get("expr.parse", 0),
            "expr.parse_s": incl.get("expr.parse", 0.0),
            "expr.differentiate_calls": calls.get("expr.differentiate", 0),
            "maps.calls": self._sum(calls, layer_keys("maps", calls)),
            "groups.renormalize_calls": renorm,
            "groups.reprojections": project,
            "groups.reprojections_per_renormalize": project / renorm if renorm else 0.0,
            "groups.renormalize_self_s": incl.get("groups.renormalize", 0.0),
            "groups.expm_calls": calls.get("groups.MatrixGroup.exp", 0),
            "groups.expm_s": incl.get("groups.expm", 0.0),
            "groups.finite_calls": self._sum(calls, FINITE_GROUP),
            "groups.finite_self_s": self._sum(own, FINITE_GROUP),
            "crossed.alpha_calls": calls.get("crossed.CrossedModule.alpha", 0),
            "crossed.act_algebra_calls": calls.get("crossed.CrossedModule.act_algebra", 0),
            "twocells.cells": calls.get("twocells.TwoCell.__init__", 0),
            "transport.surface_self_s": own.get("transport.surface_holonomy", 0.0),
            "transport.path_self_s": own.get("transport.path_holonomy", 0.0),
            "transport.fake_gate_s": incl.get("transport.fake_gate", 0.0),
            "scenario.load_s": incl.get("scenario.load", 0.0),
            "report.serialize_s": incl.get("report.serialize", 0.0),
            "cli.run_s": incl.get("cli.run", 0.0),
        })
        for name in UNITS:
            if name not in out:
                out[name] = counts.get(name, 0)
        return {name: (out[name], UNITS[name]) for name in UNITS}
