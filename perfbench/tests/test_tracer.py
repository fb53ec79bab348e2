"""Tests of the benchmark's tracer and pass runner.

Run with ``python -m pytest perfbench/tests``.
"""

import inspect
import json
import sys

import numpy as np
import pytest

import run
import workloads
from filterbench import finite_topology as ft
from filterbench import geometry
from filterbench import metric_filters as mf
from filterbench import pair_calculus as pc
from filterbench import suites
from tracer import LAYERS, Tracer, arc_max_levels, layer_metrics


def _parabola():
    return mf.CurveSpec("parabola", lambda t: np.stack([t, t ** 2], axis=-1),
                        -0.5, 0.5)


def _bindings():
    """Identity of every module global and class attribute in the package."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "filterbench" or name.startswith("filterbench."):
            for attr, value in vars(mod).items():
                out[name, attr] = id(value)
                if inspect.isclass(value) and value.__module__ == name:
                    for k, v in vars(value).items():
                        out[name, attr, k] = id(v)
    return out


def test_from_imported_bindings_are_intercepted():
    original = geometry.point_polyline_distance
    with Tracer() as tracer:
        assert mf.point_polyline_distance is geometry.point_polyline_distance
        assert mf.point_polyline_distance.__wrapped__ is original
        assert (suites.segment_projection_parameter.__wrapped__
                is mf.segment_projection_parameter.__wrapped__)
        y = np.array([[0.1, 0.02], [0.2, 0.05]])
        mf.arc_distance(y, _parabola(), 0.4)
    spans = tracer.spans()
    by_id = {s[0]: s for s in spans}
    arc = [s for s in spans if s[1] == "metric_filters.arc_distance"]
    poly = [s for s in spans if s[1] == "geometry.point_polyline_distance"]
    assert len(arc) == 1 and poly
    assert all(by_id[s[5]] == arc[0] for s in poly)
    # arc_points is called inside metric_filters: counted, no span
    assert tracer.calls()["metric_filters.arc_points"] == len(poly)
    assert not [s for s in spans if s[1] == "metric_filters.arc_points"]


def test_cap_hitting_arc_distance_makes_ten_arc_points_calls():
    # resolutions 33, 65, ..., 16385: ten levels below a 2**14 cap
    assert arc_max_levels(mf.ARC_SUBDIVISION_CAP) == 10
    y = np.array([[0.1, 0.02], [0.25, 0.05], [0.3, 0.1]])
    with Tracer() as tracer:
        mf.arc_distance(y, _parabola(), 0.4, rtol=-1.0)  # never stabilizes
    assert tracer.calls()["metric_filters.arc_points"] == 10
    m = layer_metrics(tracer, wall_s=1.0)
    assert m["metric_filters.arc_levels_per_call"] == 10
    assert m["metric_filters.arc_full_depth_ratio"] == 1.0
    # one point_polyline_distance per level, one segment eval per segment
    # and query point
    segments = sum(2 ** j * 32 for j in range(10))
    assert m["geometry.segment_evals"] == segments * len(y)


def test_swap_pushforward_on_discrete_two_point_square():
    ps = pc.product_topology(ft.validate_topology(2, [[], [0], [1], [0, 1]]))
    mu = pc.principal_pair_filter(ps, pc.diagonal_mask(2))
    assert len(ps.topology.opens) == 16
    with Tracer() as tracer:
        pc.swap_pushforward(mu, ps)
    calls = tracer.calls()
    assert calls["pair_calculus.transpose_mask"] == 16
    assert calls["pair_calculus.swap_pushforward"] == 1
    assert [s[1] for s in tracer.spans()] == ["pair_calculus.swap_pushforward"]


def test_uninstall_restores_every_binding():
    before = _bindings()
    tracer = Tracer().install()
    try:
        during = _bindings()
        changed = {k for k in before if during.get(k) != before[k]}
        assert ("filterbench.metric_filters", "point_polyline_distance") \
            in changed
        assert ("filterbench.suites", "ThreadPoolExecutor") in changed
        assert ("filterbench.flows", "Flow", "__call__") in changed
        wrapped = {n.split(".")[0] for n in tracer.wrapped_names}
        assert wrapped == set(LAYERS)
    finally:
        tracer.uninstall()
    assert _bindings() == before


def test_self_time_subtracts_union_of_children():
    tracer = Tracer()
    data = tracer._local.data
    # parent [0, 10]; children from two threads overlap on [2, 4]
    data.spans += [(1, "suites.run_suite", "suites", 0.0, 10.0, None, "op"),
                   (2, "flows.a", "flows", 1.0, 4.0, 1, "op/0"),
                   (3, "flows.b", "flows", 2.0, 6.0, 1, "op/1"),
                   (4, "geometry.c", "geometry", 2.5, 3.0, 3, "op/1")]
    by_layer, by_name = tracer.self_times()
    assert by_layer["suites"] == pytest.approx(5.0)
    assert by_name["flows.b"] == pytest.approx(3.5)
    assert by_layer["flows"] == pytest.approx(6.5)
    assert by_layer["geometry"] == pytest.approx(0.5)


def _small_steps():
    flows_inputs = workloads.setup_metric_batch(4)
    finite = workloads.setup_finite_exact(4)
    return [
        ("suite:pair-composition", workloads._suite_step(
            "pair-composition", {"seed": 4, "samples": 50}, workers=2)),
        ("conditions-rotation", workloads._flow_conditions(
            "rotation", flows_inputs["flow_seeds"][1])),
        ("c4-tables", workloads._c4_tables),
        ("c4-chunk-0", workloads._c4_chunk(finite["pairs"][:8])),
        ("curve-0", workloads._curve_membership(*flows_inputs["curves"][0])),
    ]


def test_traced_and_untraced_passes_agree():
    steps = _small_steps()
    plain = run.run_pass(steps)
    with Tracer() as tracer:
        traced = run.run_pass(steps, tracer)
    assert [o.verdict for o in plain["ops"]] == \
        [o.verdict for o in traced["ops"]]
    assert all(o.verdict == "pass" for o in plain["ops"])
    assert plain["digest"] == traced["digest"]
    assert plain["reports"] == traced["reports"]
    # worker-thread spans hang off the run_suite span of the main thread
    spans = tracer.spans()
    root = [s for s in spans if s[1] == "suites.run_suite"]
    workers = [s for s in spans if s[1].endswith("<locals>.execute")]
    assert len(root) == 1 and len(workers) == 7
    assert {s[5] for s in workers} == {root[0][0]}
    assert sorted(s[6] for s in workers) == sorted(
        f"suite:pair-composition/{i}" for i in range(7))


def test_failed_operation_is_counted():
    def broken(ctx):
        raise ValueError("boom")

    p = run.run_pass([("broken", broken), ("c4-tables", workloads._c4_tables)])
    assert [o.verdict for o in p["ops"]] == ["error", "pass"]


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.per_layer_metrics())
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)
