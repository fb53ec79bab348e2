"""Layer tracer that instruments filterbench from outside.

``Tracer.install()`` replaces every public function of each layer module,
and every public method (plus ``__call__``) of the classes those modules
define, with a wrapper.  Each binding of an original function anywhere in
the ``filterbench`` package is replaced too, so names that one module
imports from another with ``from .x import y`` are intercepted as well.
``uninstall()`` puts every original binding back.

A call that enters a layer from another layer (or from the benchmark)
records a span ``(id, name, layer, start, end, parent, op)``.  A call made
from inside the same layer is only counted: its time belongs to the
enclosing span of that layer.  The span stack is per thread; work handed to
a ``ThreadPoolExecutor`` bound in a layer module opens a span whose parent
is the span that submitted it, so the threaded suite runner keeps its
causal chain.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np

LAYERS = ("finite_topology", "filter_algebra", "pair_calculus", "geometry",
          "maps", "metric_filters", "snowflake", "flows", "suites",
          "reporting")

PACKAGE = "filterbench"


class _ThreadData:
    __slots__ = ("stack", "spans", "calls", "counters", "op")

    def __init__(self):
        self.stack = []                       # [(span id, layer)]
        self.spans = []
        self.calls = defaultdict(int)         # wrapped name -> calls
        self.counters = defaultdict(float)    # probe counters
        self.op = None


class _Local(threading.local):
    def __init__(self, registry, lock):
        self.data = _ThreadData()
        with lock:
            registry.append(self.data)


# --- probes: counters derived from arguments and results ---------------------

def _geometry_probe(counters, caller, args, kwargs, result, before):
    evals = int(np.size(result))
    dim = np.shape(args[1])[-1] if len(args) > 1 else 0
    counters["geometry.segment_evals"] += evals
    # query coordinates read plus one float64 distance written per evaluation
    counters["geometry.bytes_computed"] += evals * (dim + 1) * 8


def _flow_call_probe(counters, caller, args, kwargs, result, before):
    counters["flows.flow_evals"] += 1
    counters["flows.flow_rows"] += result.shape[0] if result.ndim > 1 else 1


def _pair_contains_probe(counters, caller, args, kwargs, result, before):
    counters["flows.pair_converged"] += bool(result[1])


def _map_call_probe(counters, caller, args, kwargs, result, before):
    counters["maps.map_evals"] += 1


def _continuity_probe(counters, caller, args, kwargs, result, before):
    # candidate maps are screened from outside finite_topology and
    # filter_algebra; pushforward's own re-check is not a candidate
    if caller not in ("filter_algebra", "finite_topology"):
        counters["finite_topology.candidate_maps"] += 1
        counters["finite_topology.continuous_maps"] += bool(result[0])


def _arc_distance_probe(counters, caller, args, kwargs, result, before):
    # ``before`` is the number of arc_points calls this call made
    counters[f"metric_filters.arc_distance.levels.{before}"] += 1


PROBES = {
    "geometry.point_segment_distance": _geometry_probe,
    "geometry.segment_projection_parameter": _geometry_probe,
    "flows.Flow.__call__": _flow_call_probe,
    "flows.flow_pair_contains": _pair_contains_probe,
    "maps.MapSpec.__call__": _map_call_probe,
    "finite_topology.is_continuous": _continuity_probe,
    "metric_filters.arc_distance": _arc_distance_probe,
}

# probes that need the number of calls to another wrapped name made inside
# the probed call (per thread)
NESTED_COUNT = {"metric_filters.arc_distance": "metric_filters.arc_points"}


class Tracer:
    """Wraps the layer modules of ``filterbench``; one instance per pass."""

    def __init__(self):
        self._lock = threading.Lock()
        self._registry: list[_ThreadData] = []
        self._local = _Local(self._registry, self._lock)
        self._ids = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []
        self.wrapped_names: list[str] = []
        self.installed = False

    # --- instrumentation ---------------------------------------------------

    def _targets(self):
        """(owner, attribute, original, wrapped name, layer) to instrument."""
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in sorted(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not name.startswith("_"):
                    yield mod, name, obj, f"{layer}.{name}", layer
                elif inspect.isclass(obj):
                    for attr, fn in sorted(vars(obj).items()):
                        public = not attr.startswith("_") or attr == "__call__"
                        if inspect.isfunction(fn) and public:
                            yield (obj, attr, fn, f"{layer}.{name}.{attr}",
                                   layer)

    def install(self) -> "Tracer":
        if self.installed:
            raise RuntimeError("tracer already installed")
        replacements = {}
        for owner, attr, fn, name, layer in self._targets():
            wrapper = self._wrap(fn, name, layer)
            replacements[id(fn)] = (fn, wrapper)
            self.wrapped_names.append(name)
            if inspect.isclass(owner):
                self._set(owner, attr, wrapper)
        replacements[id(ThreadPoolExecutor)] = (ThreadPoolExecutor,
                                                self._executor_class())
        # every module-level binding of an original, wherever it was imported
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE
                                   or mod_name.startswith(PACKAGE + ".")):
                continue
            for name, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, name, hit[1])
        self.installed = True
        return self

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        self.installed = False

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, fn, name, layer):
        local = self._local
        ids = self._ids
        clock = time.perf_counter
        probe = PROBES.get(name)
        nested = NESTED_COUNT.get(name)

        def wrapper(*args, **kwargs):
            st = local.data
            st.calls[name] += 1
            stack = st.stack
            caller = stack[-1][1] if stack else None
            before = st.calls[nested] if nested else None
            if caller == layer:
                result = fn(*args, **kwargs)
            else:
                span = next(ids)
                parent = stack[-1][0] if stack else None
                stack.append((span, layer))
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    st.spans.append((span, name, layer, start, end, parent,
                                     st.op))
            if probe is not None:
                if nested:
                    before = st.calls[nested] - before
                probe(st.counters, caller, args, kwargs, result, before)
            return result

        return functools.wraps(fn)(wrapper)

    def _executor_class(self):
        tracer = self

        class TracedExecutor(ThreadPoolExecutor):
            """Runs each submitted callable under a span parented to the
            submitting span, with an operation id derived from the
            submitter's."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self._trace_seq = itertools.count()

            def submit(self, fn, /, *args, **kwargs):
                st = tracer._local.data
                top = st.stack[-1] if st.stack else (None, None)
                op = f"{st.op}/{next(self._trace_seq)}"
                return super().submit(tracer._adopt, fn, top, op, args, kwargs)

        return TracedExecutor

    def _adopt(self, fn, top, op, args, kwargs):
        parent, layer = top
        st = self._local.data
        saved = st.op
        st.op = op
        span = next(self._ids)
        st.stack.append((span, layer))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            st.stack.pop()
            st.op = saved
            name = f"{layer}.{getattr(fn, '__qualname__', 'task')}"
            st.spans.append((span, name, layer, start, end, parent, op))

    def set_op(self, op) -> None:
        """Operation id for spans opened by the calling thread."""
        self._local.data.op = op

    # --- results -------------------------------------------------------------

    def spans(self) -> list[tuple]:
        with self._lock:
            out = [s for d in self._registry for s in d.spans]
        return sorted(out)

    def calls(self) -> dict[str, int]:
        total = defaultdict(int)
        with self._lock:
            for d in self._registry:
                for k, v in d.calls.items():
                    total[k] += v
        return dict(total)

    def counters(self) -> dict:
        total = defaultdict(float)
        with self._lock:
            for d in self._registry:
                for k, v in d.counters.items():
                    total[k] += v
        return dict(total)

    def self_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Self time per layer and per wrapped name: a span's duration minus
        the part of it covered by the union of its children's intervals."""
        spans = self.spans()
        children = defaultdict(list)
        for sid, _, _, start, end, parent, _ in spans:
            if parent is not None:
                children[parent].append((start, end))
        by_layer = defaultdict(float)
        by_name = defaultdict(float)
        for sid, name, layer, start, end, _, _ in spans:
            covered = 0.0
            cursor = start
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, cursor), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    cursor = c1
            own = (end - start) - covered
            by_layer[layer] += own
            by_name[name] += own
        return dict(by_layer), dict(by_name)

    def write_spans(self, path) -> int:
        """Write every span as a tab-separated line; returns the count."""
        spans = self.spans()
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tlayer\tstart\tend\tparent\top\n")
            for row in spans:
                fh.write("\t".join("" if v is None else str(v)
                                   for v in row) + "\n")
        return len(spans)


# --- per-layer metrics -------------------------------------------------------

COUNTED = ("pair_calculus.transpose_mask", "pair_calculus.swap_pushforward",
           "pair_calculus.compose_filters",
           "filter_algebra.check_pushforward_continuity",
           "metric_filters.arc_distance", "flows.check_flow_conditions")
TIMED = ("filter_algebra.b_polytope_vertices",
         "snowflake.separate_polynomials", "reporting.SuiteReport.to_json")

# arc_distance starts at 33 vertices and doubles towards the cap
ARC_START_VERTICES = 33


def arc_max_levels(cap: int, start: int = ARC_START_VERTICES) -> int:
    """Polyline resolutions arc_distance visits when it never stabilizes."""
    levels, k = 1, start
    while k < cap:
        k = 2 * k - 1
        levels += 1
    return levels


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer calls, self time and share of ``wall_s``, plus the named
    counts and ratios of single functions."""
    calls = tracer.calls()
    counters = tracer.counters()
    self_layer, self_name = tracer.self_times()
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = sum(v for k, v in calls.items()
                                    if k.startswith(layer + "."))
        out[f"{layer}.self_s"] = self_layer.get(layer, 0.0)
        out[f"{layer}.share"] = _ratio(out[f"{layer}.self_s"], wall_s)
    for name in COUNTED:
        out[f"{name}.calls"] = calls.get(name, 0)
    for name in TIMED:
        out[f"{name}.self_s"] = self_name.get(name, 0.0)
        out[f"{name}.share"] = _ratio(self_name.get(name, 0.0), wall_s)
    out["finite_topology.continuous_ratio"] = _ratio(
        counters.get("finite_topology.continuous_maps", 0),
        counters.get("finite_topology.candidate_maps", 0))
    arc_calls = calls.get("metric_filters.arc_distance", 0)
    out["metric_filters.arc_levels_per_call"] = _ratio(
        calls.get("metric_filters.arc_points", 0), arc_calls)
    mf = sys.modules[f"{PACKAGE}.metric_filters"]
    full = arc_max_levels(mf.ARC_SUBDIVISION_CAP)
    out["metric_filters.arc_full_depth_ratio"] = _ratio(
        counters.get(f"metric_filters.arc_distance.levels.{full}", 0),
        arc_calls)
    for key in ("geometry.segment_evals", "geometry.bytes_computed",
                "flows.flow_evals", "flows.flow_rows", "maps.map_evals"):
        out[key] = int(counters.get(key, 0))
    out["flows.pair_converged_ratio"] = _ratio(
        counters.get("flows.pair_converged", 0),
        calls.get("flows.flow_pair_contains", 0))
    return out
