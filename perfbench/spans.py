"""Spans around the public functions of the package, recorded from outside.

The tracer replaces module attributes with timing wrappers and restores
them on exit.  Names that other modules imported at module level (``from
.flow import flow_endpoints`` and the like) are separate bindings, so every
binding of a wrapped function in every ``neumann_domains`` module is
rebound too; otherwise nested calls would bypass their spans and self times
would come out wrong.  Functions imported inside a function body read the
module attribute at call time and need nothing extra.

A layer is one package module.  Per layer the tracer keeps

- busy time: the duration of spans entered from outside the layer;
- self time: span durations minus the time their direct child spans cover;
- errors: spans of the layer that ended in an exception;
- counts of work, taken at layer entry so that nested calls of the same
  layer are not counted twice.
"""

import functools
import importlib
import inspect
import math
import sys
import tracemalloc
from collections import defaultdict
from time import perf_counter

import numpy as np
from neumann_domains import fem

PACKAGE = "neumann_domains"
LAYERS = ("fields", "critical", "flow", "complexes", "contours", "meshing",
          "fem", "cracked", "validate", "cli", "svg")
# the field evaluators; the other public names of fields are module functions
FIELD_METHODS = ("MorseField.value", "MorseField.gradient",
                 "MorseField.hessian")


def public_functions():
    """Qualified names of the public functions of every layer."""
    names = []
    for layer in LAYERS:
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        names += [f"{layer}.{attr}" for attr, obj in vars(mod).items()
                  if inspect.isfunction(obj) and not attr.startswith("_")
                  and obj.__module__ == mod.__name__]
    names += [f"fields.{m}" for m in FIELD_METHODS]
    return sorted(names)


class _Frame:
    __slots__ = ("layer", "child_s")

    def __init__(self, layer):
        self.layer = layer
        self.child_s = 0.0


class Tracer:
    """Installs spans on the named functions while used as a context."""

    def __init__(self, names):
        self.names = tuple(names)
        self._restore = []
        self._stack = []
        self.reset()

    # -- recording -----------------------------------------------------------

    def reset(self):
        """Clear everything recorded; called at the start of each pass."""
        self.busy_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.errors = defaultdict(int)
        self.counts = defaultdict(int)
        self.fn_total_s = defaultdict(float)
        self.fn_self_s = defaultdict(float)
        self.largest_mesh = None    # (vertices, function, args, kwargs)

    def _wrap(self, name, fn):
        layer = name.split(".", 1)[0]
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = _Frame(layer)
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(name, fn, frame, parent, t0, args, kwargs,
                              None, failed=True)
                raise
            tracer._close(name, fn, frame, parent, t0, args, kwargs, result,
                          failed=False)
            return result

        return span

    def _close(self, name, fn, frame, parent, t0, args, kwargs, result,
               failed):
        dur = perf_counter() - t0
        self._stack.pop()
        layer = frame.layer
        if parent is not None:
            parent.child_s += dur
        self.fn_total_s[name] += dur
        self.fn_self_s[name] += dur - frame.child_s
        self.self_s[layer] += dur - frame.child_s
        entered = parent is None or parent.layer != layer
        if entered:
            self.busy_s[layer] += dur
        if failed:
            self.errors[layer] += 1
        if (entered or name in _COUNT_NESTED) and not failed:
            count = _COUNTERS.get(name)
            if count is not None:
                count(self, parent, fn, args, kwargs, result)

    # -- installation --------------------------------------------------------

    def __enter__(self):
        originals = {}
        for name in self.names:
            layer, qual = name.split(".", 1)
            owner = importlib.import_module(f"{PACKAGE}.{layer}")
            *path, attr = qual.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
            wrapped = self._wrap(name, fn)
            self._restore.append((owner, attr, fn))
            setattr(owner, attr, wrapped)
            originals[id(fn)] = (fn, wrapped)
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()
        return False

    # -- results -------------------------------------------------------------

    def peak_alloc_mb(self):
        """tracemalloc peak of the pass's largest mesh_domain call, re-run.

        tracemalloc slows meshing several times over, so it runs on a
        repeat of that one call after the pass, outside every timing.
        """
        if self.largest_mesh is None:
            return 0.0
        _, fn, args, kwargs = self.largest_mesh
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 2 ** 20

    def layer_metrics(self):
        """Per-layer metrics of the pass recorded since the last reset."""
        c = self.counts
        meshing_busy = self.busy_s["meshing"]
        m = {
            "complexes.self_s": self.self_s["complexes"],
            "complexes.faces": c["complexes.faces"],
            "complexes.cusps": c["complexes.cusps"],
            "complexes.angles_s":
                self.fn_total_s["complexes.nodal_neumann_angles"],
            "critical.busy_s": self.busy_s["critical"],
            "critical.calls": c["critical.calls"],
            "critical.points": c["critical.points"],
            "flow.busy_s": self.busy_s["flow"],
            "flow.lines": c["flow.lines"],
            "flow.samples": c["flow.samples"],
            "flow.endpoint_points": c["flow.endpoint_points"],
            "fields.calls": c["fields.calls"],
            "fields.points": c["fields.points"],
            "contours.busy_s": self.busy_s["contours"],
            "contours.polylines": c["contours.polylines"],
            "meshing.busy_s": meshing_busy,
            "meshing.vertices": c["meshing.vertices"],
            "meshing.vertices_per_s": (c["meshing.vertices"] / meshing_busy
                                       if meshing_busy > 0 else 0.0),
            "fem.assemble_s": self.fn_total_s["fem.assemble_p1"],
            "fem.eigensolve_s": self.fn_self_s["fem.neumann_spectrum"],
            "fem.residual_s": self.fn_self_s["fem.restriction_residual"],
            "fem.dense_solves": c["fem.dense_solves"],
            "fem.sparse_solves": c["fem.sparse_solves"],
            "fem.max_n": c["fem.max_n"],
            "cracked.self_s": self.self_s["cracked"],
            "validate.self_s": self.self_s["validate"],
            "validate.complex_builds": c["validate.complex_builds"],
            "validate.census_calls": c["validate.census_calls"],
            "cli.self_s": self.self_s["cli"],
            "svg.busy_s": self.busy_s["svg"],
        }
        for layer in LAYERS:
            m[f"{layer}.errors"] = self.errors[layer]
        return m


# -- work counters, keyed by function, run at layer entry ---------------------

def _count_field(t, parent, fn, args, kwargs, result):
    pts = args[1] if len(args) > 1 else kwargs["pts"]
    t.counts["fields.calls"] += 1
    t.counts["fields.points"] += math.prod(np.shape(pts)[:-1])


def _count_census(t, parent, fn, args, kwargs, result):
    t.counts["critical.calls"] += 1
    t.counts["critical.points"] += len(result)
    if parent is not None and parent.layer == "validate":
        t.counts["validate.census_calls"] += 1


def _count_lines(lines, t):
    t.counts["flow.lines"] += len(lines)
    t.counts["flow.samples"] += sum(len(ln.samples) for ln in lines)


def _count_build(t, parent, fn, args, kwargs, result):
    t.counts["complexes.faces"] += len(result.faces)
    t.counts["complexes.cusps"] += sum(len(f.cusps) for f in result.faces)
    if parent is not None and parent.layer == "validate":
        t.counts["validate.complex_builds"] += 1


def _count_mesh(t, parent, fn, args, kwargs, result):
    nv = int(result.num_vertices)
    t.counts["meshing.vertices"] += nv
    if t.largest_mesh is None or nv > t.largest_mesh[0]:
        t.largest_mesh = (nv, fn, args, kwargs)


def _count_spectrum(t, parent, fn, args, kwargs, result):
    n = int(args[0].num_vertices)
    t.counts["fem.max_n"] = max(t.counts["fem.max_n"], n)
    path = "dense" if n <= fem.DENSE_LIMIT else "sparse"
    t.counts[f"fem.{path}_solves"] += 1


def _count_len(key):
    def count(t, parent, fn, args, kwargs, result):
        t.counts[key] += len(result)
    return count


# counted on every call: domain_spectrum_report calls neumann_spectrum
# from inside the fem layer, and nothing else nests a solve in a solve
_COUNT_NESTED = {"fem.neumann_spectrum"}

_COUNTERS = {
    **{f"fields.{m}": _count_field for m in FIELD_METHODS},
    "critical.find_critical_points": _count_census,
    "flow.trace_all_neumann_lines":
        lambda t, p, f, a, k, r: _count_lines([ln for g in r for ln in g], t),
    "flow.trace_neumann_lines": lambda t, p, f, a, k, r: _count_lines(r, t),
    "flow.integrate_flow": lambda t, p, f, a, k, r: _count_lines([r], t),
    "flow.flow_endpoints": _count_len("flow.endpoint_points"),
    "complexes.build_complex": _count_build,
    "contours.nodal_set": _count_len("contours.polylines"),
    "meshing.mesh_domain": _count_mesh,
    "fem.neumann_spectrum": _count_spectrum,
}
