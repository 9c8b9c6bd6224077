"""Per-layer tracing applied from outside the package.

`Tracer.install` wraps every public function binding in the ``elastic_lens``
layer modules with a span, and the point-evaluation methods of the speed
fields with a counter.  A binding imported into another module (for
instance ``cli.check_hwz``) is wrapped where it lives, so the call is timed
whichever module makes it.  A layer's span is attributed to the module that
defines the function.  Names that no longer exist are skipped; their layer
then reads as absent.

`layer_metrics` turns the recorded spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("model_core", "ray_tracer", "convexity", "elastic_sim",
          "wavefield_analysis", "inversion", "cli")
_POINT_EVAL_METHODS = ("value", "gradient", "value_and_grad")


def _sim_note(args, result):
    meta = getattr(result, "meta", None) or {}
    grid = meta.get("grid", {})
    return {"cell_steps": grid.get("nx", 0) * grid.get("ny", 0)
            * (meta.get("steps", -1) + 1)}


def _ray_note(args, result):
    status = getattr(getattr(result, "status", None), "name", None)
    return {"exited": status == "EXITED"}


def _check_note(args, result):
    st = getattr(result, "samples", None)
    if not isinstance(st, dict):
        return {"samples": 0}
    return {"samples": st.get("leaves", 0) * st.get("points_per_leaf", 0)
            * st.get("directions", 1)}


def _extract_note(args, result):
    records = list(result or [])
    return {"traces": len(args[0]) if args else 0,
            "records": len(records),
            "picked": sum(1 for r in records
                          if r.t_p is not None and r.t_s is not None),
            "flagged": sum(1 for r in records if r.flags)}


def _invert_note(args, result):
    profiles = result if isinstance(result, tuple) else (result,)
    return {"nodes": sum(len(getattr(p, "c", ())) for p in profiles)}


# small facts kept from a call's arguments and result; nothing else of a
# call is retained, so large arrays are not kept alive by the trace
_NOTES = {
    "simulate_dn": _sim_note,
    "scattering_relation": _ray_note,
    "check_hwz": _check_note,
    "check_plane_foliation": _check_note,
    "check_foliation": _check_note,
    "extract_lens": _extract_note,
    "herglotz_invert": _invert_note,
    "layer_strip_invert": _invert_note,
    "invert_both_speeds": _invert_note,
}


class Span:
    __slots__ = ("layer", "name", "parent", "start", "end", "note")

    def __init__(self, layer, name, parent):
        self.layer, self.name, self.parent = layer, name, parent
        self.start = self.end = 0.0
        self.note = None


class Tracer:
    """Spans kept in memory; a stack gives each span the span that caused it."""

    def __init__(self):
        self.spans = []
        self.point_evals = 0
        self._stack = []
        self.wrapped = {}      # layer -> number of wrapped bindings

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, func):
        layer = func.__module__.rpartition(".")[2]
        name = func.__name__
        stack, spans = self._stack, self.spans
        note = _NOTES.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = Span(layer, name, stack[-1] if stack else None)
            spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if note is not None:
                span.note = note(args, result)
            return result

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    def _count_wrapper(self, method):
        tracer = self

        @functools.wraps(method)
        def wrapper(*args, **kwargs):
            tracer.point_evals += 1
            return method(*args, **kwargs)

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self):
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"elastic_lens.{layer}")
            except ImportError:
                continue
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if getattr(obj, "__wrapped_by_tracer__", False):
                    continue
                owner = obj.__module__ or ""
                if not owner.startswith("elastic_lens.") or \
                        owner.rpartition(".")[2] not in modules:
                    continue
                setattr(mod, attr, self._span_wrapper(obj))
                layer = owner.rpartition(".")[2]
                self.wrapped[layer] = self.wrapped.get(layer, 0) + 1
        model_core = modules.get("model_core")
        base = getattr(model_core, "SpeedField", None)
        if base is not None:
            for cls in [base, *_subclasses(base)]:
                for meth in _POINT_EVAL_METHODS:
                    fn = cls.__dict__.get(meth)
                    if inspect.isfunction(fn) and \
                            not getattr(fn, "__wrapped_by_tracer__", False):
                        setattr(cls, meth, self._count_wrapper(fn))


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def _duration(span):
    return span.end - span.start


def _outermost(spans, layer, names=None):
    """Spans of `layer` not nested in another one; with `names`, spans of
    those names not nested in another span of those names."""
    def selected(span):
        return span.layer == layer and (names is None or span.name in names)

    out = []
    for s in spans:
        if not selected(s):
            continue
        p = s.parent
        while p is not None and not selected(p):
            p = p.parent
        if p is None:
            out.append(s)
    return out


def _self_times(spans):
    """Self time per layer: each span's duration minus its children's."""
    child = {}
    for s in spans:
        if s.parent is not None:
            child[id(s.parent)] = child.get(id(s.parent), 0.0) + _duration(s)
    out = {}
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + _duration(s) - child.get(id(s), 0.0)
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def _sum_note(spans, key):
    return sum(s.note[key] for s in spans if s.note)


def layer_metrics(tracer):
    """Per-layer metrics of one traced run (0 where a layer did no work)."""
    spans = tracer.spans
    selft = _self_times(spans)
    m = {}

    sims = _outermost(spans, "elastic_sim", {"simulate_dn"})
    simulate_s = sum(_duration(s) for s in sims)
    sample_s = sum(_duration(s) for s in _outermost(spans, "elastic_sim",
                                                      {"sample_material"}))
    step_loop_s = simulate_s - sum(_duration(s) for s in spans
                                   if s.name == "sample_material"
                                   and s.parent in sims)
    cell_steps = _sum_note(sims, "cell_steps")
    m["elastic_sim.simulate_s"] = (simulate_s, "s")
    m["elastic_sim.sample_material_s"] = (sample_s, "s")
    m["elastic_sim.step_loop_s"] = (step_loop_s, "s")
    m["elastic_sim.cell_steps"] = (cell_steps, "count")
    m["elastic_sim.ns_per_cell_step"] = (1e9 * _ratio(step_loop_s, cell_steps), "ns")

    m["model_core.load_s"] = (sum(_duration(s) for s in _outermost(
        spans, "model_core", {"load_model"})), "s")
    m["model_core.point_evals"] = (tracer.point_evals, "count")

    rays = [s for s in spans if s.layer == "ray_tracer"
            and s.name == "scattering_relation"]
    trace_s = sum(_duration(s) for s in _outermost(spans, "ray_tracer"))
    m["ray_tracer.trace_s"] = (trace_s, "s")
    m["ray_tracer.rays"] = (len(rays), "count")
    m["ray_tracer.ms_per_ray"] = (1e3 * _ratio(trace_s, len(rays)), "ms")
    m["ray_tracer.exited_ratio"] = (_ratio(_sum_note(rays, "exited"), len(rays)),
                                    "ratio")

    checks = _outermost(spans, "convexity")
    check_s = sum(_duration(s) for s in checks)
    samples = _sum_note(checks, "samples")
    m["convexity.check_s"] = (check_s, "s")
    m["convexity.samples"] = (samples, "count")
    m["convexity.us_per_sample"] = (1e6 * _ratio(check_s, samples), "us")

    extracts = [s for s in spans if s.name == "extract_lens"]
    m["wavefield_analysis.extract_s"] = (sum(_duration(s) for s in _outermost(
        spans, "wavefield_analysis")), "s")
    m["wavefield_analysis.traces"] = (_sum_note(extracts, "traces"), "count")
    m["wavefield_analysis.picked_ratio"] = (
        _ratio(_sum_note(extracts, "picked"), _sum_note(extracts, "records")),
        "ratio")
    m["wavefield_analysis.flagged"] = (_sum_note(extracts, "flagged"), "count")

    inversions = _outermost(spans, "inversion", {"herglotz_invert",
                                                 "layer_strip_invert",
                                                 "invert_both_speeds"})
    m["inversion.self_s"] = (selft.get("inversion", 0.0), "s")
    m["inversion.nodes"] = (_sum_note(inversions, "nodes"), "count")

    m["cli.self_s"] = (selft.get("cli", 0.0), "s")
    return m
