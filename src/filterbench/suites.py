"""Named verification suites.

Each suite is a list of independent, seeded checks producing CheckRecords.
Checks may execute on several worker threads; records are assembled in
check-id order and each check derives its own RNG seed from (config seed,
check id), so reports are byte-identical for equal (suite, config)
regardless of worker count.

Within one run, each suite flow's conditions report is computed once,
seeded from the report id ``flow-report-<name>``, and shared by the checks
that take it as input.  The ``trad2`` suite runs no checks of its own: its
records are the flow-theorem records of ``flows`` (TRAD2_CHECKS) under
``trad2-`` ids, and ``all`` runs each of those checks once.
"""

from __future__ import annotations

import itertools
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import filter_algebra as fa
from . import finite_topology as ft
from . import flows as fl
from . import metric_filters as mf
from . import pair_calculus as pc
from . import snowflake as sf
from .errors import ConfigInvalid, UnknownSuite
from .geometry import segment_projection_parameter, unit
from .maps import BUILTIN_MAPS, linear_map
from .reporting import SuiteReport, record
from .snowflake import Polynomial

SUITE_NAMES = ("finite-axioms", "finite-pushforward", "pair-composition",
               "cones", "derivative", "snowflake", "flows", "trad2", "all")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    samples: int = 2000
    tol: float = 1e-9
    proper: bool = True

    def __post_init__(self):
        if self.samples < 1:
            raise ConfigInvalid("samples must be >= 1")
        if not self.tol > 0:
            raise ConfigInvalid("tol must be positive")

    def as_dict(self) -> dict:
        return {"seed": self.seed, "samples": self.samples,
                "tol": self.tol, "proper": self.proper}


def _check_seed(config: RunConfig, check_id: str) -> int:
    return (config.seed * 1_000_003 + zlib.crc32(check_id.encode())) % 2 ** 32


# --- finite-topology oracles -------------------------------------------------

def bruteforce_topologies(n: int) -> set[tuple[int, ...]]:
    """All topologies on n points by scanning every family of subsets."""
    subsets = list(range(1 << n))
    full = (1 << n) - 1
    out = set()
    for bits in range(1 << len(subsets)):
        masks = {s for s in subsets if bits >> s & 1}
        if 0 in masks and full in masks and ft.is_closed_family(n, masks):
            out.add(tuple(sorted(masks)))
    return out


def _support_characterization_ok(t: ft.FiniteTopology,
                                 mu: fa.IndicatorFilter) -> bool:
    """Support is nonempty, intersection-closed and upward-closed in tau."""
    sup = set(fa.support(mu))
    if (1 << t.n) - 1 not in sup:
        return False
    for a in sup:
        for b in sup:
            if a & b in t.opens and a & b not in sup:
                return False
        for d in t.opens:
            if a & d == a and d not in sup:
                return False
    return True


# --- suite: finite-axioms ----------------------------------------------------

def _finite_axioms_tasks():
    def enum_crosscheck(n):
        def run(config, seed):
            fast = {tuple(sorted(t.opens)) for t in ft.enumerate_topologies(n)}
            slow = bruteforce_topologies(n)
            return record(f"enumeration-crosscheck-n{n}", "sec:2.1",
                          fast == slow,
                          witness={"fast": len(fast), "bruteforce": len(slow)},
                          seed=seed, samples=len(slow))
        return run

    def filter_axioms(n):
        def run(config, seed):
            bad = []
            count = 0
            for t in ft.enumerate_topologies(n):
                for mu in fa.enumerate_filters(t, proper=config.proper):
                    count += 1
                    try:
                        fa.check_filter_axioms(t, mu.values,
                                               proper=config.proper)
                    except Exception as e:  # pragma: no cover - engine bug
                        bad.append({"opens": t.opens, "values": mu.values,
                                    "error": str(e)})
                        continue
                    if not _support_characterization_ok(t, mu):
                        bad.append({"opens": t.opens, "values": mu.values,
                                    "error": "support characterization"})
            return record(f"filter-axioms-n{n}", "prop:prop23", not bad,
                          witness=bad[:3] or {"filters": count},
                          seed=seed, samples=count)
        return run

    def sierpinski_filters(config, seed):
        t = ft.validate_topology(2, [[], [0], [0, 1]])
        got = {mu.values for mu in fa.enumerate_filters(t, proper=True)}
        want = {ft.point_filter(t, 0).values, ft.point_filter(t, 1).values}
        return record("sierpinski-proper-filters", "def:dfilta", got == want,
                      witness={"got": sorted(got)}, seed=seed, samples=len(got))

    def sierpinski_vertices(config, seed):
        t = ft.validate_topology(2, [[], [0], [0, 1]])
        verts = {tuple(int(v) for v in vert)
                 for vert in fa.b_polytope_vertices(t, proper=True)}
        filters = {mu.values for mu in fa.enumerate_filters(t, proper=True)}
        return record("sierpinski-b-vertices", "def:dfiltbc", verts == filters,
                      witness={"vertices": sorted(verts)}, seed=seed,
                      samples=len(verts))

    tasks = [(f"enumeration-crosscheck-n{n}", enum_crosscheck(n))
             for n in (1, 2, 3, 4)]
    tasks += [(f"filter-axioms-n{n}", filter_axioms(n)) for n in (1, 2, 3, 4)]
    tasks += [("sierpinski-proper-filters", sierpinski_filters),
              ("sierpinski-b-vertices", sierpinski_vertices)]
    return tasks


# --- suite: finite-pushforward -----------------------------------------------

def _pushforward_tasks():
    def exhaustive(pair):
        a, b = pair

        def run(config, seed):
            bad = []
            count = 0
            sources = [t for t in ft.enumerate_topologies(a) if ft.is_t0(t)[0]]
            targets = [t for t in ft.enumerate_topologies(b) if ft.is_t0(t)[0]]
            for src in sources:
                for tgt in targets:
                    for image in itertools.product(range(b), repeat=a):
                        f = ft.PointMap(src, tgt, image)
                        if not ft.is_continuous(f)[0]:
                            continue
                        count += 1
                        ok, witness = fa.check_pushforward_continuity(f)
                        if not ok:
                            bad.append({"src": src.opens, "tgt": tgt.opens,
                                        "image": image,
                                        "witness": sorted(witness)})
            return record(f"pushforward-continuity-{a}to{b}", "prop:prop26",
                          not bad, witness=bad[:3] or {"maps": count},
                          seed=seed, samples=count)
        return run

    return [(f"pushforward-continuity-{a}to{b}", exhaustive((a, b)))
            for a in (1, 2, 3) for b in (1, 2, 3)]


# --- suite: pair-composition -------------------------------------------------

def _discrete(n):
    return ft.validate_topology(
        n, [list(c) for r in range(n + 1)
            for c in itertools.combinations(range(n), r)])


def _pair_composition_tasks():
    def mask_set_n2(config, seed):
        bad = 0
        for ra in range(16):
            for rb in range(16):
                via_mask = pc.relation_pairs(2, pc.compose_masks(2, ra, rb))
                via_sets = pc.compose_sets(pc.relation_pairs(2, ra),
                                           pc.relation_pairs(2, rb))
                bad += via_mask != via_sets
        return record("mask-set-compose-n2-exhaustive", "sec:1:step8",
                      bad == 0, witness={"mismatches": bad}, seed=seed,
                      samples=256)

    def mask_set_n3(config, seed):
        rng = np.random.default_rng(seed)
        bad = 0
        for _ in range(config.samples):
            ra = int(rng.integers(0, 1 << 9))
            rb = int(rng.integers(0, 1 << 9))
            via_mask = pc.relation_pairs(3, pc.compose_masks(3, ra, rb))
            via_sets = pc.compose_sets(pc.relation_pairs(3, ra),
                                       pc.relation_pairs(3, rb))
            bad += via_mask != via_sets
        return record("mask-set-compose-n3-sampled", "sec:1:step8", bad == 0,
                      witness={"mismatches": bad}, seed=seed,
                      samples=config.samples)

    def principal_n2(config, seed):
        ps = pc.product_topology(_discrete(2))
        bad = 0
        for ra in range(16):
            for rb in range(16):
                mu = pc.principal_pair_filter(ps, ra)
                nu = pc.principal_pair_filter(ps, rb)
                fast = pc.compose_filters(mu, nu, ps)
                slow = pc.compose_filters_bruteforce(mu, nu, ps)
                want = pc.principal_pair_filter(ps, pc.compose_masks(2, ra, rb))
                bad += fast.values != slow.values or fast.values != want.values
        return record("principal-compose-discrete2-exhaustive", "sec:1:step8",
                      bad == 0, witness={"mismatches": bad}, seed=seed,
                      samples=256)

    def principal_n3(config, seed):
        rng = np.random.default_rng(seed)
        ps = pc.product_topology(_discrete(3))
        cache = {}

        def principal(r):
            if r not in cache:
                cache[r] = pc.principal_pair_filter(ps, r).values
            return cache[r]

        bad = 0
        n = min(config.samples, 2000)
        for _ in range(n):
            ra = int(rng.integers(0, 512))
            rb = int(rng.integers(0, 512))
            mu = pc.principal_pair_filter(ps, ra)
            nu = pc.principal_pair_filter(ps, rb)
            out = pc.compose_filters(mu, nu, ps)
            bad += out.values != principal(pc.compose_masks(3, ra, rb))
        return record("principal-compose-discrete3-sampled", "sec:1:step8",
                      bad == 0, witness={"mismatches": bad}, seed=seed,
                      samples=n)

    def swap_interplay(config, seed):
        ps = pc.product_topology(_discrete(2))
        bad = 0
        for ra in range(16):
            for rb in range(16):
                mu = pc.principal_pair_filter(ps, ra)
                nu = pc.principal_pair_filter(ps, rb)
                lhs = pc.swap_pushforward(pc.compose_filters(mu, nu, ps), ps)
                rhs = pc.compose_filters(pc.swap_pushforward(nu, ps),
                                         pc.swap_pushforward(mu, ps), ps)
                bad += lhs.values != rhs.values
        return record("swap-interplay-discrete2-exhaustive", "sec:1:step9",
                      bad == 0, witness={"mismatches": bad}, seed=seed,
                      samples=256)

    def uniformity_diagonal(config, seed):
        ps = pc.product_topology(_discrete(3))
        rep = pc.check_uniformity(pc.diagonal_filter(ps), ps)
        return record("uniformity-diagonal-discrete3", "def:def29",
                      rep.is_uniformity, witness={"axioms": [
                          rep.axiom_a, rep.axiom_b, rep.axiom_c]}, seed=seed,
                      samples=1)

    def uniformity_asymmetric(config, seed):
        ps = pc.product_topology(_discrete(2))
        r = pc.relation_mask(2, [(0, 1), (0, 0), (1, 1)])
        rep = pc.check_uniformity(pc.principal_pair_filter(ps, r), ps)
        # the open diagonal witnesses failure of both (a) and (c)
        ok = (not rep.axiom_a) and (not rep.axiom_c)
        return record("uniformity-asymmetric-witness", "def:def29", ok,
                      witness={"axiom_a_witness": rep.axiom_a_witness},
                      seed=seed, samples=1)

    return [
        ("mask-set-compose-n2-exhaustive", mask_set_n2),
        ("mask-set-compose-n3-sampled", mask_set_n3),
        ("principal-compose-discrete2-exhaustive", principal_n2),
        ("principal-compose-discrete3-sampled", principal_n3),
        ("swap-interplay-discrete2-exhaustive", swap_interplay),
        ("uniformity-diagonal-discrete3", uniformity_diagonal),
        ("uniformity-asymmetric-witness", uniformity_asymmetric),
    ]


# --- suite: cones ------------------------------------------------------------

def _sample_cone_members(g: mf.ConeGenerator, n: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Points in the cone, built along the segment with transverse slack."""
    lam = rng.uniform(0.05 * g.eps, g.eps, n)
    w = rng.normal(size=(n, len(g.x)))
    w -= (w @ g.u)[:, None] * g.u
    w /= np.maximum(np.linalg.norm(w, axis=-1, keepdims=True), 1e-12)
    r = 0.3 * g.sigma * lam
    return g.x + lam[:, None] * g.u + r[:, None] * w


def _cones_tasks():
    def membership_examples(config, seed):
        g = mf.ConeGenerator(np.zeros(2), np.array([1.0, 0.0]), 0.5, 0.3)
        checks = [
            bool(mf.v_plus_contains(g, np.array([0.5, 0.1]))),
            not bool(mf.v_plus_contains(g, np.zeros(2))),
            not bool(mf.v_plus_contains(g, np.array([-0.5, 0.0]))),
        ]
        return record("cone-membership-examples", "sec:1:step7", all(checks),
                      witness={"checks": checks}, seed=seed, samples=3)

    def monotonicity(config, seed):
        rng = np.random.default_rng(seed)
        small = mf.ConeGenerator(np.zeros(2), np.array([1.0, 0.0]), 0.2, 0.2)
        large = mf.ConeGenerator(np.zeros(2), np.array([1.0, 0.0]), 0.5, 0.4)
        y = rng.uniform(-1, 1, (config.samples, 2))
        inside_small = mf.v_plus_contains(small, y)
        inside_large = mf.v_plus_contains(large, y)
        bad = int(np.count_nonzero(inside_small & ~inside_large))
        return record("cone-monotonicity", "sec:1:step7", bad == 0,
                      witness={"violations": bad}, seed=seed,
                      samples=config.samples)

    def envelope(config, seed):
        rng = np.random.default_rng(seed)
        g = mf.ConeGenerator(np.zeros(2), np.array([1.0, 0.0]), 0.3, 0.4)
        y = rng.uniform(-1, 1, (config.samples, 2))
        inside = mf.v_plus_contains(g, y)
        d = np.linalg.norm(y - g.x, axis=-1)
        bad = int(np.count_nonzero(
            inside & (d >= mf.envelope_radius(g.eps, g.sigma))))
        return record("cone-envelope-bound", "sec:1:step7", bad == 0,
                      witness={"violations": bad}, seed=seed,
                      samples=config.samples)

    def bound_invariant(config, seed):
        rng = np.random.default_rng(seed)
        g = mf.ConeGenerator(np.zeros(2), np.array([1.0, 0.0]), 0.5, 0.3)
        ys = _sample_cone_members(g, config.samples, rng)
        inside = mf.v_plus_contains(g, ys)
        ys = ys[inside]
        t = segment_projection_parameter(ys, g.x, g.tip)
        arc_pts = g.x + t[:, None] * (g.tip - g.x)
        ok = mf.check_bound_batch(g.x, arc_pts, ys, g.sigma)
        bad = int(np.count_nonzero(~ok))
        return record("bound-invariant-cones", "eq:bound", bad == 0,
                      witness={"violations": bad}, seed=seed,
                      samples=int(len(ys)))

    def commutation(config, seed):
        rng = np.random.default_rng(seed)
        worst = "commute"
        pairs = 10
        for i in range(pairs):
            th1, th2 = rng.uniform(0, 2 * np.pi, 2)
            u = np.array([np.cos(th1), np.sin(th1)])
            v = np.array([np.cos(th2), np.sin(th2)])
            verdict, witness = mf.check_commutation_directional(
                u, v, samples=config.samples, seed=seed + i)
            if verdict == "counterexample":
                return record("pair-commutation", "sec:1:step9", False,
                              witness={"u": u, "v": v, "pair": witness},
                              seed=seed, samples=pairs * config.samples)
            if verdict == "inconclusive":
                worst = "inconclusive"
        return record("pair-commutation", "sec:1:step9", True,
                      witness={"verdict": worst}, seed=seed,
                      samples=pairs * config.samples,
                      inconclusive=worst == "inconclusive")

    def entourage_certificate(config, seed):
        rng = np.random.default_rng(seed)
        s = 0.25
        eps, sigma = mf.uniformity_refinement_certificate(s)
        u = unit(np.array([1.0, 1.0]))
        pf = mf.PairDirectionalFilter(u)
        x = rng.uniform(-1, 1, (config.samples, 2))
        y = x + rng.normal(scale=0.05, size=x.shape)
        member = pf.contains(eps, sigma, x, y)
        inside = mf.metric_uniformity_contains(s, x[member], y[member])
        bad = int(np.count_nonzero(~inside))
        return record("entourage-refinement-certificate", "def:def29",
                      bad == 0, witness={"violations": bad}, seed=seed,
                      samples=config.samples)

    return [
        ("cone-membership-examples", membership_examples),
        ("cone-monotonicity", monotonicity),
        ("cone-envelope-bound", envelope),
        ("bound-invariant-cones", bound_invariant),
        ("pair-commutation", commutation),
        ("entourage-refinement-certificate", entourage_certificate),
    ]


# --- suite: derivative -------------------------------------------------------

def make_sequence(kind: str, x, u, rng: np.random.Generator,
                  n: int = 2000) -> np.ndarray:
    h = np.arange(1, n + 1, dtype=float)
    x = np.asarray(x, float)
    u = np.asarray(u, float)
    perp = np.array([-u[1], u[0]])
    if kind == "with-direction":
        return x + (1.0 / h)[:, None] * u + (1.0 / h ** 2)[:, None] * perp
    if kind == "without-direction":
        signs = np.where(h % 2 == 0, 1.0, -1.0)
        return x + (signs / h)[:, None] * u
    if kind == "divergent":
        # bounce between two fixed points, never settling
        a = x + u
        b = x - u
        return np.where((h % 2 == 0)[:, None], a, b)
    raise ValueError(kind)


def _derivative_tasks():
    def classification(config, seed):
        rng = np.random.default_rng(seed)
        total = max(4, config.samples // 2)
        counts = {"with-direction": total // 2,
                  "without-direction": total // 4,
                  "divergent": total - total // 2 - total // 4}
        bad = []
        for kind, cnt in sorted(counts.items()):
            for i in range(cnt):
                th = rng.uniform(0, 2 * np.pi)
                u = np.array([np.cos(th), np.sin(th)])
                x = rng.uniform(-1, 1, 2)
                seq = make_sequence(kind, x, u, rng)
                v = mf.classify_sequence(seq, x, u)
                expect_conv = kind != "divergent"
                expect_dir = kind == "with-direction"
                has_dir = v.direction_limit is not None and v.matches_filter
                if not v.agreement or v.converges_to_point != expect_conv \
                        or has_dir != expect_dir:
                    bad.append({"kind": kind, "x": x, "u": u,
                                "converges": v.converges_to_point,
                                "matches": v.matches_filter,
                                "agreement": v.agreement})
        return record("sequence-classification", "sec:1:step7", not bad,
                      witness=bad[:3] or {"sequences": total}, seed=seed,
                      samples=total)

    def transport_linear(config, seed):
        rng = np.random.default_rng(seed)
        count = max(4, min(config.samples // 10, 200))
        worst = 0.0
        bad = []
        for i in range(count):
            dim = 2 if i % 2 == 0 else 3
            while True:
                a = rng.uniform(-2, 2, (dim, dim))
                if abs(np.linalg.det(a)) > 0.2:
                    break
            spec = linear_map(a, name=f"random{i}")
            u = unit(rng.normal(size=dim))
            x = rng.uniform(-1, 1, dim)
            out = mf.transport_via_sequences(spec, x, u, rng=rng)
            worst = max(worst, out.residual_angle)
            if out.residual_angle >= 1e-6:
                bad.append({"matrix": a, "u": u, "x": x,
                            "residual": out.residual_angle})
        return record("transport-linear-random", "thm:trad1", not bad,
                      witness=bad[:3] or {"worst_residual": worst},
                      seed=seed, samples=count)

    def transport_nonlinear(config, seed):
        rng = np.random.default_rng(seed)
        worst = 0.0
        bad = []
        count = 0
        for name, spec in sorted(BUILTIN_MAPS.items()):
            for _ in range(10):
                u = unit(rng.normal(size=spec.dim))
                x = rng.uniform(-1, 1, spec.dim)
                out = mf.transport_via_sequences(spec, x, u, rng=rng)
                count += 1
                worst = max(worst, out.residual_angle)
                if out.residual_angle >= 1e-6:
                    bad.append({"map": name, "u": u, "x": x,
                                "residual": out.residual_angle})
        return record("transport-nonlinear-builtins", "thm:trad1", not bad,
                      witness=bad[:3] or {"worst_residual": worst},
                      seed=seed, samples=count)

    return [
        ("sequence-classification", classification),
        ("transport-linear-random", transport_linear),
        ("transport-nonlinear-builtins", transport_nonlinear),
    ]


# --- suite: snowflake --------------------------------------------------------

SEPARATION_PAIRS = [
    ([0, 1], [0, 2], 2), ([0, 1], [0, 1, 1], 2), ([0, 0, 1], [0, 0, 2], 2),
    ([0, 1], [0, -1], 2), ([0, 1, 1], [0, 1, 2], 2), ([0, 2], [0, 2, 1], 2),
    ([0, 1], [0, 3], 2), ([0, 0, 1], [0, 1, 1], 2), ([0, 1, -1], [0, 1, 1], 2),
    ([0, 5], [0, 5, 5], 2),
    ([0, 1], [0, 2], 3), ([0, 1], [0, 1, 0, 1], 3), ([0, 0, 0, 1], [0, 0, 0, 2], 3),
    ([0, 1, 1], [0, 1, 2], 3), ([0, 1], [0, -1], 3), ([0, 0, 1], [0, 0, 2], 3),
    ([0, 2, 0, 1], [0, 2, 0, 2], 3), ([0, 1, 1, 1], [0, 1, 1, 2], 3),
    ([0, 3], [0, 3, 1], 3), ([0, 1, 0, 1], [0, 1, 1, 1], 3),
]

DERIVABILITY_TRIPLES = [
    ("identity", [0, 1], 2, 0.0), ("identity", [0, 1, 1], 2, 0.0),
    ("identity", [0, 2], 2, 0.5), ("identity", [0, 1], 3, 0.0),
    ("double", [0, 1], 2, 0.0), ("double", [0, 1, 1], 2, 0.0),
    ("double", [0, 1], 3, 0.2), ("double", [0, 0, 1], 2, 0.0),
    ("affine_square", [0, 1], 2, 0.0), ("affine_square", [0, 0, 1], 2, 0.0),
    ("affine_square", [0, 1, 1], 2, 0.0), ("affine_square", [0, 1], 3, 0.0),
    ("cubic", [0, 1], 2, 0.5), ("cubic", [0, 1], 3, 0.5),
    ("cubic", [0, 1, 1], 2, 0.3),
    ("sine", [0, 1], 2, 0.3), ("sine", [0, 1, 1], 2, 0.0),
    ("expm1", [0, 1], 2, 0.0), ("expm1", [0, 1, 1], 2, 0.0),
    ("expm1", [0, 1], 3, 0.1),
]


def _snowflake_tasks():
    def axioms(m):
        def run(config, seed):
            rng = np.random.default_rng(seed)
            sp = sf.SnowflakeSpace(m)
            worst = sf.check_metric_axioms(
                sp.distance, lambda n: rng.uniform(-5, 5, n), config.samples)
            return record(f"metric-axioms-snowflake-m{m}", "sec:2.3",
                          worst >= -config.tol, witness={"worst_slack": worst},
                          seed=seed, samples=config.samples)
        return run

    def mixed_axioms(config, seed):
        rng = np.random.default_rng(seed)
        sp = sf.MixedProductSpace(2)
        worst = sf.check_metric_axioms(
            sp.distance, lambda n: rng.uniform(-3, 3, (n, 2)), config.samples)
        return record("metric-axioms-mixed-product", "sec:2.3",
                      worst >= -config.tol, witness={"worst_slack": worst},
                      seed=seed, samples=config.samples)

    def separation_distinct(config, seed):
        bad = []
        for c1, c2, m in SEPARATION_PAIRS:
            out = sf.separate_polynomials(Polynomial.from_coeffs(c1),
                                          Polynomial.from_coeffs(c2), m)
            if out == "equal" or not out["verified"]:
                bad.append({"p1": c1, "p2": c2, "m": m})
        return record("separation-distinct-pairs", "sec:2.3:prop", not bad,
                      witness=bad or {"pairs": len(SEPARATION_PAIRS)},
                      seed=seed, samples=len(SEPARATION_PAIRS))

    def separation_equal(config, seed):
        rng = np.random.default_rng(seed)
        bad = []
        for i in range(20):
            m = 2 + i % 2
            deg = 1 + int(rng.integers(0, m))
            coeffs = [0] + [int(rng.integers(-3, 4)) for _ in range(deg)]
            if all(c == 0 for c in coeffs[1:]):
                coeffs[1] = 1
            p = Polynomial.from_coeffs(coeffs)
            q = Polynomial.from_coeffs(coeffs)
            if sf.separate_polynomials(p, q, m) != "equal":
                bad.append({"coeffs": coeffs, "m": m})
        return record("separation-equal-pairs", "sec:2.3:prop", not bad,
                      witness=bad or {"pairs": 20}, seed=seed, samples=20)

    def derivability(config, seed):
        bad = []
        for fname, coeffs, m, x in DERIVABILITY_TRIPLES:
            out = sf.check_poly_derivable(sf.BUILTIN_FUNCS[fname], x,
                                          Polynomial.from_coeffs(coeffs), m)
            if not out["matches"]:
                bad.append({"f": fname, "p": coeffs, "m": m, "x": x,
                            "ratios": out["ratios"]})
        return record("derivability-oracle-battery", "sec:2.3:thm", not bad,
                      witness=bad[:3] or {"triples": len(DERIVABILITY_TRIPLES)},
                      seed=seed, samples=len(DERIVABILITY_TRIPLES))

    def dimension(m):
        def run(config, seed):
            out = sf.box_counting_dimension(m)
            ok = abs(out["dimension"] - m) <= 0.2
            return record(f"box-dimension-m{m}", "sec:2.3:dim", ok,
                          witness={"estimate": out["dimension"]}, seed=seed,
                          samples=out["grid"])
        return run

    tasks = [(f"metric-axioms-snowflake-m{m}", axioms(m)) for m in (2, 3, 4)]
    tasks += [
        ("metric-axioms-mixed-product", mixed_axioms),
        ("separation-distinct-pairs", separation_distinct),
        ("separation-equal-pairs", separation_equal),
        ("derivability-oracle-battery", derivability),
        ("box-dimension-m2", dimension(2)),
        ("box-dimension-m3", dimension(3)),
    ]
    return tasks


# --- suite: flows ------------------------------------------------------------

FLOW_NAMES = ("translation", "rotation", "scaling")
TRANSPORT_MAPS = ("identity2d", "rotation_quarter", "shear_half",
                  "parabolic_shear", "sine_shear")


# thm:trad2 reuses these flows records under "trad2-" ids
TRAD2_CHECKS = tuple(
    [f"{kind}-{name}" for name in FLOW_NAMES
     for kind in ("lemacon", "step1", "step3")]
    + ["pushforward-conditions"]
    + [f"transport-{mname}" for mname in TRANSPORT_MAPS])


def _flows_tasks():
    tasks = []
    # one conditions report per flow, seeded from its report id and shared
    # by the conditions, lemacon, step1 and step3 checks of that flow; each
    # run_suite call builds its own task list, so no report outlives its run
    reports = {}
    locks = {name: threading.Lock() for name in FLOW_NAMES}

    def report(name, config):
        with locks[name]:
            if name not in reports:
                seed = _check_seed(config, f"flow-report-{name}")
                reports[name] = seed, fl.check_flow_conditions(
                    fl.BUILTIN_FLOWS[name], samples=min(config.samples, 2000),
                    seed=seed)
            return reports[name]

    def conditions(name):
        def run(config, seed):
            rep_seed, rep = report(name, config)
            return record(f"conditions-{name}", "sec:2.4:conditions",
                          rep.all_pass,
                          witness={"passes": rep.passes,
                                   "c_constant": rep.c_constant,
                                   "converged": rep.converged},
                          seed=rep_seed, samples=min(config.samples, 2000),
                          inconclusive=not rep.converged)
        return run

    def reversal(name):
        def run(config, seed):
            rng = np.random.default_rng(seed)
            flow = fl.BUILTIN_FLOWS[name]
            x = rng.uniform(-1, 1, (min(config.samples, 5000), 2))
            y = x + rng.normal(scale=0.02, size=x.shape)
            fwd_of_rev, c1 = fl.flow_pair_contains(flow.reversed(), 0.1, 0.3,
                                                   x, y)
            bwd, c2 = fl.flow_pair_contains(flow, 0.1, 0.3, x, y, sign="-")
            ok = bool(np.array_equal(fwd_of_rev, bwd))
            return record(f"reversal-identity-{name}", "sec:2.4:reversal", ok,
                          witness={"disagreements":
                                   int(np.count_nonzero(fwd_of_rev != bwd))},
                          seed=seed, samples=len(x),
                          inconclusive=not (c1 and c2))
        return run

    def pair_agreement(config, seed):
        rng = np.random.default_rng(seed)
        u = np.array([1.0, 0.0])
        flow = fl.translation_flow(u)
        pf = mf.PairDirectionalFilter(u)
        n = max(config.samples, 10_000)
        x = rng.uniform(-1, 1, (n, 2))
        y = x + rng.normal(scale=0.05, size=x.shape)
        via_flow, conv = fl.flow_pair_contains(flow, 0.1, 0.3, x, y)
        via_pair = pf.contains(0.1, 0.3, x, y)
        bad = int(np.count_nonzero(via_flow != via_pair))
        return record("translation-pair-agreement", "sec:2.4", bad == 0,
                      witness={"disagreements": bad}, seed=seed, samples=n,
                      inconclusive=not conv)

    def recipe(kind, anchor, check, name):
        def run(config, seed):
            out = check(fl.BUILTIN_FLOWS[name], report=report(name, config)[1],
                        samples=config.samples, seed=seed)
            return record(f"{kind}-{name}", anchor, out["violations"] == 0,
                          witness=out, seed=seed, samples=out["checked"],
                          inconclusive=not out["converged"])
        return run

    def pushforward_conditions(config, seed):
        pushed = fl.pushforward_flow(BUILTIN_MAPS["shear_half"],
                                     fl.BUILTIN_FLOWS["rotation"])
        rep = fl.check_flow_conditions(pushed,
                                       samples=min(config.samples, 1000),
                                       seed=seed)
        ok = rep.passes["a"] and rep.passes["b"] and rep.passes["d"]
        return record("pushforward-conditions", "lem:lem2", ok,
                      witness={"passes": rep.passes}, seed=seed,
                      samples=min(config.samples, 1000))

    def transport(mname):
        def run(config, seed):
            verdict, witness = fl.check_flow_transport(
                BUILTIN_MAPS[mname], fl.BUILTIN_FLOWS["translation"],
                samples=min(config.samples, 2000), seed=seed)
            return record(f"transport-{mname}", "lem:lem3",
                          verdict != "counterexample",
                          witness={"verdict": verdict, "pair": witness},
                          seed=seed, samples=min(config.samples, 2000),
                          inconclusive=verdict == "inconclusive")
        return run

    for name in FLOW_NAMES:
        tasks.append((f"conditions-{name}", conditions(name)))
        tasks.append((f"reversal-identity-{name}", reversal(name)))
    tasks.append(("translation-pair-agreement", pair_agreement))
    recipes = (
        ("lemacon", "lem:lemacon",
         partial(fl.lemacon_construct, eps=0.1, mu=0.5)),
        ("step1", "thm:trad2:step1",
         partial(fl.step1_diagonal_check, eps_target=0.01)),
        ("step3", "thm:trad2:step3",
         partial(fl.step3_composition_check, eps=0.2, mu=0.5)))
    for name in FLOW_NAMES:
        for kind, anchor, check in recipes:
            tasks.append((f"{kind}-{name}", recipe(kind, anchor, check, name)))
    tasks.append(("pushforward-conditions", pushforward_conditions))
    for mname in TRANSPORT_MAPS:
        tasks.append((f"transport-{mname}", transport(mname)))
    return tasks


# --- registry and runner -----------------------------------------------------

def _suite_tasks(name: str):
    if name == "finite-axioms":
        return _finite_axioms_tasks()
    if name == "finite-pushforward":
        return _pushforward_tasks()
    if name == "pair-composition":
        return _pair_composition_tasks()
    if name == "cones":
        return _cones_tasks()
    if name == "derivative":
        return _derivative_tasks()
    if name == "snowflake":
        return _snowflake_tasks()
    if name == "flows":
        return _flows_tasks()
    if name == "trad2":
        return [task for task in _flows_tasks() if task[0] in TRAD2_CHECKS]
    if name == "all":
        # trad2 records are relabelled flows records, so trad2 is not run
        return [task for sub in SUITE_NAMES if sub not in ("trad2", "all")
                for task in _suite_tasks(sub)]
    raise UnknownSuite(f"unknown suite {name!r}; choose from {SUITE_NAMES}")


def run_suite(name: str, config: RunConfig | None = None,
              workers: int = 1) -> SuiteReport:
    config = config or RunConfig()
    tasks = _suite_tasks(name)

    def execute(task):
        check_id, fn = task
        seed = _check_seed(config, check_id)
        t0 = time.perf_counter()
        rec = fn(config, seed)
        object.__setattr__(rec, "elapsed", time.perf_counter() - t0)
        return rec

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(execute, tasks))
    else:
        records = [execute(t) for t in tasks]
    if name in ("trad2", "all"):
        trad2 = [replace(r, check_id=f"trad2-{r.check_id}") for r in records
                 if r.check_id in TRAD2_CHECKS]
        records = trad2 if name == "trad2" else records + trad2
    return SuiteReport(name, config.as_dict(), tuple(records)).sorted()
