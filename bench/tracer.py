"""In-memory span tracer that wraps diracharmonic's public functions at the
places they are called from.

A layer is one function of the package.  ``install`` replaces every module
global (and, for methods, the class attribute) that binds the original
function with a wrapper, so calls made from inside the package are seen
exactly where the calling module looks the name up.  Each call records one
span: name, parent span, start and end in nanoseconds.  Spans stay in
memory and are written once, by ``Tracer.dump``, when the operation ends.

``summarize`` turns a span dump into per-layer call counts, total time and
self time (span time minus the time its direct children cover).
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time

# Layer name -> (defining module, attribute).  "Class.method" attributes are
# patched on the class; plain functions are patched in every loaded
# diracharmonic module that binds the same object.
LAYERS = {
    "charts.bandlimited_field": ("diracharmonic.charts", "bandlimited_field"),
    "charts.derivative": ("diracharmonic.charts", "DomainChart.derivative"),
    "charts.laplacian": ("diracharmonic.charts", "DomainChart.laplacian"),
    "charts.interp": ("diracharmonic.charts", "DomainChart.interp"),
    "spinors.flat_dirac": ("diracharmonic.spinors", "flat_dirac"),
    "targets.project_point": ("diracharmonic.targets", "Sphere.project_point"),
    "fields.curvature_term": ("diracharmonic.fields", "curvature_term"),
    "fields.tension": ("diracharmonic.fields", "tension"),
    "fields.dirac_along_map": ("diracharmonic.fields", "dirac_along_map"),
    "fields.el_residual": ("diracharmonic.fields", "el_residual"),
    "identities.conformal_invariance_defect": ("diracharmonic.identities",
                                               "conformal_invariance_defect"),
    "identities.self_adjointness_defect": ("diracharmonic.identities",
                                           "self_adjointness_defect"),
    "identities.weitzenboeck_defect": ("diracharmonic.identities", "weitzenboeck_defect"),
    "identities.pohozaev_defect": ("diracharmonic.identities", "pohozaev_defect"),
    "identities.energy_momentum": ("diracharmonic.identities", "energy_momentum"),
    "solutions.conformal_map_field": ("diracharmonic.solutions", "conformal_map_field"),
    "solutions.twistor_pushforward": ("diracharmonic.solutions", "twistor_pushforward"),
    "config.build_pair": ("diracharmonic.config", "build_pair"),
    "solver.solve": ("diracharmonic.solver", "solve"),
    "solver.flow_step": ("diracharmonic.solver", "flow_step"),
    "solver.dirac_project": ("diracharmonic.solver", "dirac_project"),
    "verify.run_verification": ("diracharmonic.verify", "run_verification"),
    "fieldio.write_field": ("diracharmonic.fieldio", "write_field"),
    "cli.main": ("diracharmonic.cli", "main"),
}

# Layers traced only where one calling module binds them: the solver's
# pointwise spinor projection, and the residual/energy evaluations the
# solver makes to decide convergence (applied after LAYERS, so the measure
# span encloses the fields.* spans).
SITE_LAYERS = {
    "fields.tangent_project": ("diracharmonic.solver", ("_tangent_project_spinor",)),
    "solver.measure": ("diracharmonic.solver", ("el_residual", "action", "energy")),
}

# flat_dirac calls made from solver.py: every CG matvec makes two, and every
# dirac_project makes one more for its final kernel ratio.
SOLVER_FLAT_DIRAC = "spinors.flat_dirac@solver"


class Tracer:
    def __init__(self):
        self.spans = []      # [name, parent index, start ns, end ns]
        self.stack = []
        self.bytes_written = 0
        self._clock = time.perf_counter_ns

    def wrap(self, name, fn, count_bytes=False):
        spans, stack, clock = self.spans, self.stack, self._clock

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, clock(), 0]
            spans.append(span)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
                if count_bytes:
                    self.bytes_written += os.path.getsize(args[0])

        return traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "bytes_written": self.bytes_written}, fh)


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "diracharmonic" or name.startswith("diracharmonic."))]


def install(tracer: Tracer) -> None:
    """Wrap every layer in LAYERS and SITE_LAYERS.  Imports the package."""
    importlib.import_module("diracharmonic.cli")
    modules = _package_modules()
    for name, (modname, attr) in LAYERS.items():
        owner = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, tracer.wrap(name, getattr(cls, meth)))
            continue
        original = getattr(owner, attr)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    # The solver's flat_dirac calls get their own counter name
                    # so CG matvecs can be derived from them.
                    span = (SOLVER_FLAT_DIRAC if name == "spinors.flat_dirac"
                            and mod.__name__ == "diracharmonic.solver" else name)
                    setattr(mod, key, tracer.wrap(span, original,
                                                  count_bytes=name == "fieldio.write_field"))
    for name, (modname, attrs) in SITE_LAYERS.items():
        mod = importlib.import_module(modname)
        for attr in attrs:
            setattr(mod, attr, tracer.wrap(name, getattr(mod, attr)))


def summarize(dump: dict) -> dict:
    """Per span name: calls, total_s and self_s."""
    spans = dump["spans"]
    child_ns = [0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out = {}
    for (name, _parent, start, end), inner in zip(spans, child_ns):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += (end - start) * 1e-9
        row["self_s"] += (end - start - inner) * 1e-9
    # The solver's flat_dirac calls also count as flat_dirac calls.
    if SOLVER_FLAT_DIRAC in out:
        solver_row = out[SOLVER_FLAT_DIRAC]
        row = out.setdefault("spinors.flat_dirac", {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for key in row:
            row[key] += solver_row[key]
    return out
