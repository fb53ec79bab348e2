"""End-to-end acceptance battery.

One test per release criterion, at the stated sample sizes and tolerances.
These are intentionally heavier than the unit tests; each prints a single
summary line on success.
"""

import itertools
import time

import numpy as np

from filterbench import filter_algebra as fa
from filterbench import finite_topology as ft
from filterbench import flows as fl
from filterbench import metric_filters as mf
from filterbench import pair_calculus as pc
from filterbench import snowflake as sf
from filterbench.geometry import segment_projection_parameter, unit
from filterbench.maps import BUILTIN_MAPS, linear_map
from filterbench.snowflake import Polynomial
from filterbench.suites import (
    SEPARATION_PAIRS,
    RunConfig,
    make_sequence,
    run_suite,
)


def test_criterion_1_finite_axiom_suite():
    # every topology on <= 4 points, enumeration cross-checked against the
    # 16 384-family brute force, every filter support characterized
    t0 = time.perf_counter()
    rep = run_suite("finite-axioms", RunConfig(seed=1))
    elapsed = time.perf_counter() - t0
    fails = [r for r in rep.records if r.verdict == "fail"]
    assert not fails, fails
    assert elapsed < 60.0, elapsed
    print(f"criterion 1: PASS ({len(rep.records)} checks, {elapsed:.1f}s)")


def test_criterion_2_sierpinski_ground_truth():
    t = ft.validate_topology(2, [[], [0], [0, 1]])
    got = sorted(mu.values for mu in fa.enumerate_filters(t, proper=True))
    want = sorted([fa.point_filter(t, 0).values, fa.point_filter(t, 1).values])
    assert got == want
    verts = sorted(tuple(int(v) for v in vert)
                   for vert in fa.b_polytope_vertices(t, proper=True))
    assert verts == want
    print("criterion 2: PASS (exact)")


def test_criterion_3_pushforward_exhaustive():
    t0 = time.perf_counter()
    rep = run_suite("finite-pushforward", RunConfig(seed=1))
    elapsed = time.perf_counter() - t0
    fails = [r for r in rep.records if r.verdict == "fail"]
    assert not fails, fails
    total = sum(r.samples for r in rep.records)
    assert elapsed < 120.0, elapsed
    print(f"criterion 3: PASS ({total} maps, {elapsed:.1f}s)")


def test_criterion_4_pair_calculus_oracle():
    t0 = time.perf_counter()
    mismatches = 0
    checked = 0
    for n in (1, 2, 3):
        opens = [list(c) for r in range(n + 1)
                 for c in itertools.combinations(range(n), r)]
        ps = pc.product_topology(ft.validate_topology(n, opens))
        count = 1 << (n * n)
        principal = [pc.principal_pair_filter(ps, r) for r in range(count)]
        swapped = [pc.swap_pushforward(mu, ps) for mu in principal]
        for ra in range(count):
            for rb in range(count):
                checked += 1
                composed = pc.compose_filters(principal[ra], principal[rb], ps)
                if composed != principal[pc.compose_masks(n, ra, rb)]:
                    mismatches += 1
                lhs = pc.swap_pushforward(composed, ps)
                rhs = pc.compose_filters(swapped[rb], swapped[ra], ps)
                if lhs != rhs:
                    mismatches += 1
    elapsed = time.perf_counter() - t0
    assert mismatches == 0
    assert elapsed < 40.0, elapsed
    print(f"criterion 4: PASS ({checked} pairs exhaustive, {elapsed:.1f}s)")


def test_criterion_5_convergence_characterization():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    plan = [("with-direction", 500), ("without-direction", 250),
            ("divergent", 250)]
    bad = 0
    for kind, count in plan:
        for _ in range(count):
            th = rng.uniform(0, 2 * np.pi)
            u = np.array([np.cos(th), np.sin(th)])
            x = rng.uniform(-2, 2, 2)
            seq = make_sequence(kind, x, u)
            v = mf.classify_sequence(seq, x, u)
            has_dir = v.direction_limit is not None and v.matches_filter
            ok = (v.agreement
                  and v.converges_to_point == (kind != "divergent")
                  and has_dir == (kind == "with-direction"))
            bad += not ok
    elapsed = time.perf_counter() - t0
    assert bad == 0
    assert elapsed < 30.0, elapsed
    print(f"criterion 5: PASS (1000 sequences, {elapsed:.1f}s)")


def test_criterion_6_derivative_transport():
    rng = np.random.default_rng(7)
    misses = 0
    checked = 0
    for i in range(200):
        dim = 2 if i % 2 == 0 else 3
        while True:
            a = rng.uniform(-2, 2, (dim, dim))
            if abs(np.linalg.det(a)) > 0.2:
                break
        spec = linear_map(a, name=f"random{i}")
        for _ in range(10):
            u = unit(rng.normal(size=dim))
            out = mf.transport_via_sequences(spec, rng.uniform(-1, 1, dim), u,
                                             rng=rng)
            checked += 1
            misses += out.residual_angle >= 1e-6
    for name, spec in sorted(BUILTIN_MAPS.items()):
        if name in ("identity2d", "rotation_quarter", "shear_half"):
            continue
        for _ in range(10):
            u = unit(rng.normal(size=spec.dim))
            out = mf.transport_via_sequences(spec, rng.uniform(-1, 1, spec.dim),
                                             u, rng=rng)
            checked += 1
            misses += out.residual_angle >= 1e-6
    assert misses == 0
    print(f"criterion 6: PASS ({checked} transports)")


def test_criterion_7_commutation():
    rng = np.random.default_rng(3)
    counterexamples = 0
    for i in range(50):
        th1, th2 = rng.uniform(0, 2 * np.pi, 2)
        u = np.array([np.cos(th1), np.sin(th1)])
        v = np.array([np.cos(th2), np.sin(th2)])
        verdict, _ = mf.check_commutation_directional(u, v, samples=10_000,
                                                      seed=1000 + i)
        assert verdict in ("commute", "inconclusive")
        counterexamples += verdict == "counterexample"
    assert counterexamples == 0
    print("criterion 7: PASS (50 pairs x 10^4 samples)")


def test_criterion_8_bound_invariant():
    rng = np.random.default_rng(8)
    total = 0
    violations = 0

    # cone generators: witnesses are nearest segment points
    g = mf.ConeGenerator(np.zeros(2), np.array([1.0, 0.0]), 0.5, 0.3)
    lam = rng.uniform(0.05 * g.eps, g.eps, 50_000)
    w = rng.normal(size=(len(lam), 2))
    w[:, 0] = 0.0
    w = w / np.maximum(np.linalg.norm(w, axis=-1, keepdims=True), 1e-12)
    ys = g.x + lam[:, None] * g.u + (0.3 * g.sigma * lam)[:, None] * w
    keep = mf.v_plus_contains(g, ys)
    ys = ys[keep]
    t = segment_projection_parameter(ys, g.x, g.tip)
    arc = g.x + t[:, None] * (g.tip - g.x)
    witness_ok = np.linalg.norm(ys - arc, axis=-1) \
        < g.sigma * np.linalg.norm(ys - g.x, axis=-1)
    ys, arc = ys[witness_ok], arc[witness_ok]
    ok = mf.check_bound_batch(g.x, arc, ys, g.sigma)
    total += len(ys)
    violations += int(np.count_nonzero(~ok))

    # curve generators: witnesses are the construction points on the arc
    curve = mf.CurveSpec("parabola",
                         lambda t: np.stack([t, t ** 2], axis=-1), -0.5, 0.5)
    cf = mf.curve_filter(curve)
    eps, mu = 0.4, 0.3
    tt = rng.uniform(0.05 * eps, eps, 50_000)
    on_arc = curve.fn(tt)
    w = rng.normal(size=(len(tt), 2))
    w = w / np.maximum(np.linalg.norm(w, axis=-1, keepdims=True), 1e-12)
    d_base = np.linalg.norm(on_arc - cf.x, axis=-1)
    ys = on_arc + (0.2 * mu * d_base)[:, None] * w
    keep, converged = cf.membership(eps, mu, ys)
    assert converged  # no point left undecided at the subdivision cap
    witness_ok = np.linalg.norm(ys - on_arc, axis=-1) \
        < mu * np.linalg.norm(ys - cf.x, axis=-1)
    keep &= witness_ok
    ok = mf.check_bound_batch(cf.x, on_arc[keep], ys[keep], mu)
    total += int(np.count_nonzero(keep))
    violations += int(np.count_nonzero(~ok))

    assert violations == 0
    assert total >= 90_000
    print(f"criterion 8: PASS ({total} witnesses)")


def test_criterion_9_snowflake_separation():
    t0 = time.perf_counter()
    assert len(SEPARATION_PAIRS) == 20
    for c1, c2, m in SEPARATION_PAIRS:
        out = sf.separate_polynomials(Polynomial.from_coeffs(c1),
                                      Polynomial.from_coeffs(c2), m)
        assert out != "equal"
        assert out["verified"], (c1, c2, m)
    rng = np.random.default_rng(9)
    for i in range(20):
        m = 2 + i % 2
        deg = 1 + int(rng.integers(0, m))
        coeffs = [0] + [int(rng.integers(-3, 4)) for _ in range(deg)]
        if all(c == 0 for c in coeffs[1:]):
            coeffs[1] = 1
        p = Polynomial.from_coeffs(coeffs)
        assert sf.separate_polynomials(p, Polynomial.from_coeffs(coeffs),
                                       m) == "equal"
    dim = sf.box_counting_dimension(2)["dimension"]
    elapsed = time.perf_counter() - t0
    assert abs(dim - 2) <= 0.2, dim
    assert elapsed < 0.8, elapsed
    print(f"criterion 9: PASS (20+20 pairs, dimension {dim:.2f}, "
          f"{elapsed:.2f}s)")


def test_criterion_10_flow_theorems():
    t0 = time.perf_counter()
    for name in ("translation", "rotation", "scaling"):
        flow = fl.BUILTIN_FLOWS[name]
        rep = fl.check_flow_conditions(flow, samples=1000, seed=10)
        assert rep.all_pass, (name, rep.passes)
        lc = fl.lemacon_construct(flow, 0.1, 0.5, rep, samples=100_000,
                                  seed=10)
        assert lc["violations"] == 0 and lc["converged"], (name, lc)
        s1 = fl.step1_diagonal_check(flow, 0.01, rep, samples=100_000, seed=10)
        assert s1["violations"] == 0 and s1["converged"], (name, s1)
        s3 = fl.step3_composition_check(flow, 0.2, 0.5, rep, samples=100_000,
                                        seed=10)
        assert s3["violations"] == 0 and s3["converged"], (name, s3)
    for mname in ("identity2d", "rotation_quarter", "shear_half",
                  "parabolic_shear", "sine_shear"):
        verdict, witness = fl.check_flow_transport(
            BUILTIN_MAPS[mname], fl.BUILTIN_FLOWS["translation"],
            samples=2000, seed=10)
        assert verdict == "commute", (mname, verdict, witness)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, elapsed
    print(f"criterion 10: PASS (3 flows x 10^5, 5 transports, {elapsed:.0f}s)")


def test_criterion_11_determinism():
    t0 = time.perf_counter()
    cfg = RunConfig(seed=123, samples=500)
    single = run_suite("all", cfg, workers=1).to_json()
    multi = run_suite("all", cfg, workers=4).to_json()
    elapsed = time.perf_counter() - t0
    assert single == multi
    assert elapsed < 7.0, elapsed
    print(f"criterion 11: PASS (byte-identical, {len(single)} bytes, "
          f"{elapsed:.1f}s)")
