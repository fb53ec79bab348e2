"""The three benchmark workloads.

Each workload has ``setup(seed)``, which builds every input from the seed
with plain Python and numpy and makes no call into filterbench, and
``steps(inputs)``, the fixed batch of one pass.  A step is a callable
``step(ctx) -> (ops, detail)``: ``ctx`` is a dict shared by the steps of one
pass, ``ops`` lists the operations the step completed and ``detail`` is a
deterministic summary that goes into the pass digest.  An operation is one
suite check record or one fixed-size chunk of a release-criterion loop.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from filterbench import filter_algebra as fa
from filterbench import finite_topology as ft
from filterbench import flows as fl
from filterbench import geometry
from filterbench import maps
from filterbench import metric_filters as mf
from filterbench import pair_calculus as pc
from filterbench import suites


@dataclass(frozen=True)
class Op:
    name: str
    verdict: str                 # pass | fail | inconclusive | error
    seconds: float | None = None  # None: the step's wall time


def _verdict(ok: bool, converged: bool = True) -> str:
    if not converged:
        return "inconclusive"
    return "pass" if ok else "fail"


def interleave(main: list, filler: list) -> list:
    """Spread ``filler`` evenly among ``main``, keeping the order of each.

    The machine's speed drifts over seconds, so a kind of operation run in
    one block would sample a single stretch of it; spread out, every kind
    samples the whole pass.
    """
    out = []
    for i, step in enumerate(main):
        out.append(step)
        out += filler[i * len(filler) // len(main):
                      (i + 1) * len(filler) // len(main)]
    return out


def _suite_step(name: str, config: dict, workers: int = 1):
    """Runs a named suite and writes its canonical report."""
    def step(ctx):
        report = suites.run_suite(name, suites.RunConfig(**config),
                                  workers=workers)
        text = report.to_json().encode()
        ops = [Op(r.check_id, r.verdict, r.elapsed) for r in report.records]
        return ops, {"sha256": hashlib.sha256(text).hexdigest(),
                     "bytes": len(text)}
    return step


# --- finite-exact ------------------------------------------------------------

C4_PAIRS = 2048
C4_CHUNK = 128
C4_POINTS = 3


def topologies_on_3_points(n_opens: int) -> list[list[int]]:
    """Every topology on {0, 1, 2} with ``n_opens`` opens, as sorted masks."""
    out = []
    for pick in range(1 << 6):
        masks = {0, 7} | {m for m in range(1, 7) if pick >> (m - 1) & 1}
        closed = all(a | b in masks and a & b in masks
                     for a in masks for b in masks)
        if closed and len(masks) == n_opens:
            out.append(sorted(masks))
    return out


def setup_finite_exact(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "seed": seed,
        "pairs": rng.integers(0, 1 << C4_POINTS ** 2, size=(C4_PAIRS, 2)),
    }


def _c4_tables(ctx):
    n = C4_POINTS
    discrete = [[i for i in range(n) if m >> i & 1] for m in range(1 << n)]
    ps = pc.product_topology(ft.validate_topology(n, discrete))
    principal = [pc.principal_pair_filter(ps, r) for r in range(1 << n * n)]
    swapped = [pc.swap_pushforward(mu, ps) for mu in principal]
    values = [mu.values for mu in principal]
    # swapping a principal filter gives the principal filter of the transpose
    bad = sum(sw.values != values[pc.transpose_mask(n, r)]
              for r, sw in enumerate(swapped))
    ctx.update(ps=ps, principal=principal, swapped=swapped, values=values)
    return [Op("c4-tables", _verdict(bad == 0))], bad


def _c4_chunk(pairs):
    def step(ctx):
        ps, principal, swapped, values = (ctx["ps"], ctx["principal"],
                                          ctx["swapped"], ctx["values"])
        bad = 0
        for ra, rb in pairs.tolist():
            composed = pc.compose_filters(principal[ra], principal[rb], ps)
            want = values[pc.compose_masks(C4_POINTS, ra, rb)]
            bad += composed.values != want
            lhs = pc.swap_pushforward(composed, ps)
            rhs = pc.compose_filters(swapped[rb], swapped[ra], ps)
            bad += lhs.values != rhs.values
        return [Op("c4-chunk", _verdict(bad == 0))], bad
    return step


def _polytope(opens):
    def step(ctx):
        t = ft.validate_topology(C4_POINTS, opens)
        vertices = fa.b_polytope_vertices(t, proper=True)
        integral = all(v.denominator == 1 for vert in vertices for v in vert)
        got = sorted(tuple(int(v) for v in vert) for vert in vertices)
        want = sorted(mu.values for mu in fa.enumerate_filters(t, proper=True))
        return ([Op(f"polytope-{len(opens)}-opens",
                    _verdict(integral and got == want))], len(got))
    return step


def steps_finite_exact(inputs: dict):
    config = {"seed": inputs["seed"]}
    main = [("c4-tables", _c4_tables)]
    main += [(f"suite:{name}", _suite_step(name, config))
             for name in ("finite-axioms", "finite-pushforward",
                          "pair-composition")]
    # the polytope batch is fixed: every 5-open topology and the first 6-open
    polytopes = topologies_on_3_points(5) + topologies_on_3_points(6)[:1]
    main += [(f"polytope-{i}", _polytope(opens))
             for i, opens in enumerate(polytopes)]
    pairs = inputs["pairs"]
    chunks = [(f"c4-chunk-{i // C4_CHUNK}", _c4_chunk(pairs[i:i + C4_CHUNK]))
              for i in range(0, len(pairs), C4_CHUNK)]
    return interleave(main, chunks)


# --- metric-batch ------------------------------------------------------------

FLOWS = ("translation", "rotation", "scaling")
FLOW_SAMPLES = 20_000
TRANSPORT_MAPS = ("identity2d", "rotation_quarter", "shear_half",
                  "parabolic_shear", "sine_shear")
CURVE_CHUNKS = 2
CURVE_POINTS = 300
CURVE_EPS, CURVE_MU = 0.4, 0.3
CONE_SAMPLES = 50_000
LINEAR_MAPS = 100
COMMUTATION_PROBES, COMMUTATION_SAMPLES = 10, 10_000


def _parabola(t):
    return np.stack([t, t ** 2], axis=-1)


def _unit_rows(w):
    return w / np.maximum(np.linalg.norm(w, axis=-1, keepdims=True), 1e-12)


def setup_metric_batch(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    seeds = lambda k: [int(s) for s in rng.integers(0, 2 ** 31, size=k)]
    curves = []
    for _ in range(CURVE_CHUNKS):
        t = rng.uniform(0.05 * CURVE_EPS, CURVE_EPS, CURVE_POINTS)
        on_arc = _parabola(t)
        w = _unit_rows(rng.normal(size=on_arc.shape))
        d_base = np.linalg.norm(on_arc, axis=-1)
        ys = on_arc + (0.2 * CURVE_MU * d_base)[:, None] * w
        curves.append((on_arc, ys))
    linear = []
    for i in range(LINEAR_MAPS):
        dim = 2 if i % 2 == 0 else 3
        while True:
            a = rng.uniform(-2, 2, (dim, dim))
            if abs(np.linalg.det(a)) > 0.2:
                break
        linear.append((a, rng.uniform(-1, 1, dim),
                       _unit_rows(rng.normal(size=dim)), seeds(1)[0]))
    angles = rng.uniform(0, 2 * np.pi, (COMMUTATION_PROBES, 2))
    cone_w = rng.normal(size=(CONE_SAMPLES, 2))
    cone_w[:, 0] = 0.0
    return {
        "flow_seeds": seeds(len(FLOWS)),
        "transport_seeds": seeds(len(TRANSPORT_MAPS)),
        "curves": curves,
        "cone_lam": rng.uniform(0.05, 1.0, CONE_SAMPLES),
        "cone_w": _unit_rows(cone_w),
        "linear": linear,
        "commutation": [(np.array([np.cos(a), np.sin(a)]),
                         np.array([np.cos(b), np.sin(b)]), s)
                        for (a, b), s in zip(angles,
                                             seeds(COMMUTATION_PROBES))],
    }


def _flow_conditions(name, seed):
    def step(ctx):
        rep = fl.check_flow_conditions(fl.BUILTIN_FLOWS[name],
                                       samples=FLOW_SAMPLES, seed=seed)
        ctx[f"report-{name}"] = rep
        return ([Op(f"conditions-{name}", _verdict(rep.all_pass))],
                sorted((k, bool(v)) for k, v in rep.passes.items()))
    return step


def _flow_recipe(kind, name, seed):
    def step(ctx):
        flow, rep = fl.BUILTIN_FLOWS[name], ctx[f"report-{name}"]
        if kind == "lemacon":
            out = fl.lemacon_construct(flow, 0.1, 0.5, rep,
                                       samples=FLOW_SAMPLES, seed=seed)
        elif kind == "step1":
            out = fl.step1_diagonal_check(flow, 0.01, rep,
                                          samples=FLOW_SAMPLES, seed=seed)
        else:
            out = fl.step3_composition_check(flow, 0.2, 0.5, rep,
                                             samples=FLOW_SAMPLES, seed=seed)
        verdict = _verdict(out["violations"] == 0, out["converged"])
        return ([Op(f"{kind}-{name}", verdict)],
                [out["checked"], out["violations"], out["converged"]])
    return step


def _flow_transport(mname, seed):
    def step(ctx):
        verdict, _ = fl.check_flow_transport(
            maps.BUILTIN_MAPS[mname], fl.BUILTIN_FLOWS["translation"],
            samples=2000, seed=seed)
        ok = verdict == "commute"
        return ([Op(f"transport-{mname}",
                    _verdict(ok, verdict != "inconclusive"))], verdict)
    return step


def _curve_membership(on_arc, ys):
    """Criterion 8, curve part: members satisfy the two-sided bound."""
    def step(ctx):
        cf = mf.curve_filter(mf.CurveSpec("parabola", _parabola, -0.5, 0.5))
        keep = cf.contains(CURVE_EPS, CURVE_MU, ys)
        keep &= (np.linalg.norm(ys - on_arc, axis=-1)
                 < CURVE_MU * np.linalg.norm(ys - cf.x, axis=-1))
        ok = mf.check_bound_batch(cf.x, on_arc[keep], ys[keep], CURVE_MU)
        kept, violations = int(keep.sum()), int(np.count_nonzero(~ok))
        return ([Op("curve-membership",
                    _verdict(violations == 0 and kept >= 0.9 * len(ys)))],
                [kept, violations])
    return step


def _cone_bound(lam, w):
    """Criterion 8, cone part: nearest segment points are witnesses."""
    def step(ctx):
        g = mf.ConeGenerator(np.zeros(2), np.array([1.0, 0.0]), 0.5, 0.3)
        lam_g = lam * g.eps
        ys = g.x + lam_g[:, None] * g.u + (0.3 * g.sigma * lam_g)[:, None] * w
        ys = ys[mf.v_plus_contains(g, ys)]
        t = geometry.segment_projection_parameter(ys, g.x, g.tip)
        arc = g.x + t[:, None] * (g.tip - g.x)
        witness = (np.linalg.norm(ys - arc, axis=-1)
                   < g.sigma * np.linalg.norm(ys - g.x, axis=-1))
        ok = mf.check_bound_batch(g.x, arc[witness], ys[witness], g.sigma)
        violations = int(np.count_nonzero(~ok))
        return ([Op("cone-bound", _verdict(violations == 0))],
                [int(witness.sum()), violations])
    return step


def _linear_transport(a, x, u, seed):
    """Derivative transport through a random linear map (criterion 6)."""
    def step(ctx):
        out = mf.transport_via_sequences(maps.linear_map(a), x, u,
                                         rng=np.random.default_rng(seed))
        ok = out.residual_angle < 1e-6
        return [Op("transport-linear", _verdict(ok))], ok
    return step


def _commutation(u, v, seed):
    def step(ctx):
        verdict, _ = mf.check_commutation_directional(
            u, v, samples=COMMUTATION_SAMPLES, seed=seed)
        return ([Op("commutation", _verdict(verdict == "commute",
                                            verdict != "inconclusive"))],
                verdict)
    return step


def steps_metric_batch(inputs: dict):
    main = []
    for name, seed in zip(FLOWS, inputs["flow_seeds"]):
        main.append((f"conditions-{name}", _flow_conditions(name, seed)))
        main += [(f"{kind}-{name}", _flow_recipe(kind, name, seed))
                 for kind in ("lemacon", "step1", "step3")]
    main += [(f"transport-{m}", _flow_transport(m, s))
             for m, s in zip(TRANSPORT_MAPS, inputs["transport_seeds"])]
    main += [(f"curve-{i}", _curve_membership(*c))
             for i, c in enumerate(inputs["curves"])]
    main.append(("cone-bound", _cone_bound(inputs["cone_lam"],
                                           inputs["cone_w"])))
    linear = [(f"transport-linear-{i}", _linear_transport(*m))
              for i, m in enumerate(inputs["linear"])]
    probes = [(f"commutation-{i}", _commutation(*c))
              for i, c in enumerate(inputs["commutation"])]
    return interleave(main, interleave(linear, probes))


# --- suite-all ---------------------------------------------------------------

SUITE_ALL_SAMPLES = 500
SUITE_ALL_WORKERS = 2


def setup_suite_all(seed: int) -> dict:
    return {"seed": seed}


def steps_suite_all(inputs: dict):
    config = {"seed": inputs["seed"], "samples": SUITE_ALL_SAMPLES}
    return [("suite:all", _suite_step("all", config, SUITE_ALL_WORKERS))]


WORKLOADS = {
    "finite-exact": (setup_finite_exact, steps_finite_exact),
    "metric-batch": (setup_metric_batch, steps_metric_batch),
    "suite-all": (setup_suite_all, steps_suite_all),
}
