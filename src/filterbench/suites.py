"""Named verification suites.

A suite is one table of ``(check_id, anchor, body)`` entries, so each check
is declared once; parameterised bodies are bound with functools.partial.  A
body takes ``(config, seed)`` and returns an Outcome: the verdict inputs,
witness and sample count.  The runner derives the seed from (config seed,
check id), times the body and builds the CheckRecord.  Checks may run on
several worker threads; records are sorted by check id, so reports are
byte-identical for equal (suite, config) regardless of worker count.

Within one run, each suite flow's conditions report is computed once,
seeded from the report id ``flow-report-<name>``, and shared by the checks
that read it; a ``conditions-*`` record carries that report seed.  The
``trad2`` suite runs no checks of its own: its records are the flow-theorem
records of ``flows`` (TRAD2_CHECKS) under ``trad2-`` ids, and ``all`` runs
each of those checks once.
"""

from __future__ import annotations

import itertools
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from functools import cache, partial
from typing import NamedTuple

import numpy as np

from . import filter_algebra as fa
from . import finite_topology as ft
from . import flows as fl
from . import metric_filters as mf
from . import pair_calculus as pc
from . import snowflake as sf
from .errors import ConfigInvalid, UnknownSuite
from .geometry import segment_projection_parameter, unit
from .maps import BUILTIN_MAPS, MapSpec, linear_map
from .reporting import CheckRecord, SuiteReport, record
from .snowflake import Polynomial


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
        return asdict(self)


class Outcome(NamedTuple):
    """What a check body returns: the parts of its record that vary."""

    ok: bool
    witness: object = None
    samples: int = 0
    inconclusive: bool = False
    seed: int | None = None     # set only by a check that reports another seed

    def record(self, check_id: str, anchor: str, check_seed: int,
               elapsed: float = 0.0) -> CheckRecord:
        return record(check_id, anchor, self.ok, witness=self.witness,
                      seed=check_seed if self.seed is None else self.seed,
                      samples=self.samples, elapsed=elapsed,
                      inconclusive=self.inconclusive)


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
    sup = set(mu.support())
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

def _enumeration_crosscheck(n, config, seed):
    fast = {tuple(sorted(t.opens)) for t in ft.enumerate_topologies(n)}
    slow = bruteforce_topologies(n)
    return Outcome(fast == slow, {"fast": len(fast), "bruteforce": len(slow)},
                   len(slow))


def _filter_axioms(n, config, seed):
    bad = []
    count = 0
    for t in ft.enumerate_topologies(n):
        for mu in fa.enumerate_filters(t, proper=config.proper):
            count += 1
            try:
                fa.check_filter_axioms(t, mu.values, proper=config.proper)
            except Exception as e:  # pragma: no cover - engine bug
                bad.append({"opens": t.opens, "values": mu.values,
                            "error": str(e)})
                continue
            if not _support_characterization_ok(t, mu):
                bad.append({"opens": t.opens, "values": mu.values,
                            "error": "support characterization"})
    return Outcome(not bad, bad[:3] or {"filters": count}, count)


def _sierpinski_filters(config, seed):
    t = ft.validate_topology(2, [[], [0], [0, 1]])
    got = {mu.values for mu in fa.enumerate_filters(t, proper=True)}
    want = {fa.point_filter(t, 0).values, fa.point_filter(t, 1).values}
    return Outcome(got == want, {"got": sorted(got)}, len(got))


def _sierpinski_vertices(config, seed):
    t = ft.validate_topology(2, [[], [0], [0, 1]])
    verts = {tuple(int(v) for v in vert)
             for vert in fa.b_polytope_vertices(t, proper=True)}
    filters = {mu.values for mu in fa.enumerate_filters(t, proper=True)}
    return Outcome(verts == filters, {"vertices": sorted(verts)}, len(verts))


def _finite_axioms_checks():
    return [
        *[(f"enumeration-crosscheck-n{n}", "sec:2.1",
           partial(_enumeration_crosscheck, n)) for n in (1, 2, 3, 4)],
        *[(f"filter-axioms-n{n}", "prop:prop23", partial(_filter_axioms, n))
          for n in (1, 2, 3, 4)],
        ("sierpinski-proper-filters", "def:dfilta", _sierpinski_filters),
        ("sierpinski-b-vertices", "def:dfiltbc", _sierpinski_vertices),
    ]


# --- suite: finite-pushforward -----------------------------------------------

def _pushforward_continuity(a, b, config, seed):
    bad = []
    count = 0
    sources = list(ft.enumerate_topologies(a, t0_only=True))
    targets = list(ft.enumerate_topologies(b, t0_only=True))
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
                                "image": image, "witness": sorted(witness)})
    return Outcome(not bad, bad[:3] or {"maps": count}, count)


def _pushforward_checks():
    return [(f"pushforward-continuity-{a}to{b}", "prop:prop26",
             partial(_pushforward_continuity, a, b))
            for a in (1, 2, 3) for b in (1, 2, 3)]


# --- suite: pair-composition -------------------------------------------------

def _pair_mismatches(mismatch, pairs, samples) -> Outcome:
    bad = sum(mismatch(ra, rb) for ra, rb in pairs)
    return Outcome(bad == 0, {"mismatches": bad}, samples)


def _all_pairs_n2():
    """Every pair of relations on 2 points."""
    return itertools.product(range(16), repeat=2)


def _sampled_pairs_n3(seed, count):
    """count random pairs of relations on 3 points, drawn ra then rb."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield int(rng.integers(0, 512)), int(rng.integers(0, 512))


def _mask_set_mismatch(n, ra, rb):
    via_mask = pc.relation_pairs(n, pc.compose_masks(n, ra, rb))
    return via_mask != pc.compose_sets(pc.relation_pairs(n, ra),
                                       pc.relation_pairs(n, rb))


def _mask_set_n2(config, seed):
    return _pair_mismatches(partial(_mask_set_mismatch, 2), _all_pairs_n2(),
                            256)


def _mask_set_n3(config, seed):
    return _pair_mismatches(partial(_mask_set_mismatch, 3),
                            _sampled_pairs_n3(seed, config.samples),
                            config.samples)


def _principal_n2(config, seed):
    ps = pc.product_topology(ft.validate_topology(2, range(4)))

    def mismatch(ra, rb):
        mu = pc.principal_pair_filter(ps, ra)
        nu = pc.principal_pair_filter(ps, rb)
        fast = pc.compose_filters(mu, nu, ps)
        slow = pc.compose_filters_bruteforce(mu, nu, ps)
        want = pc.principal_pair_filter(ps, pc.compose_masks(2, ra, rb))
        return fast.values != slow.values or fast.values != want.values
    return _pair_mismatches(mismatch, _all_pairs_n2(), 256)


def _principal_n3(config, seed):
    ps = pc.product_topology(ft.validate_topology(3, range(8)))
    principal = cache(lambda r: pc.principal_pair_filter(ps, r).values)

    def mismatch(ra, rb):
        mu = pc.principal_pair_filter(ps, ra)
        nu = pc.principal_pair_filter(ps, rb)
        out = pc.compose_filters(mu, nu, ps)
        return out.values != principal(pc.compose_masks(3, ra, rb))
    n = min(config.samples, 2000)
    return _pair_mismatches(mismatch, _sampled_pairs_n3(seed, n), n)


def _swap_interplay(config, seed):
    ps = pc.product_topology(ft.validate_topology(2, range(4)))

    def mismatch(ra, rb):
        mu = pc.principal_pair_filter(ps, ra)
        nu = pc.principal_pair_filter(ps, rb)
        lhs = pc.swap_pushforward(pc.compose_filters(mu, nu, ps), ps)
        rhs = pc.compose_filters(pc.swap_pushforward(nu, ps),
                                 pc.swap_pushforward(mu, ps), ps)
        return lhs.values != rhs.values
    return _pair_mismatches(mismatch, _all_pairs_n2(), 256)


def _uniformity_diagonal(config, seed):
    ps = pc.product_topology(ft.validate_topology(3, range(8)))
    rep = pc.check_uniformity(pc.diagonal_filter(ps), ps)
    return Outcome(rep.is_uniformity,
                   {"axioms": [rep.axiom_a, rep.axiom_b, rep.axiom_c]}, 1)


def _uniformity_asymmetric(config, seed):
    ps = pc.product_topology(ft.validate_topology(2, range(4)))
    r = pc.relation_mask(2, [(0, 1), (0, 0), (1, 1)])
    rep = pc.check_uniformity(pc.principal_pair_filter(ps, r), ps)
    # the open diagonal witnesses failure of both (a) and (c)
    ok = (not rep.axiom_a) and (not rep.axiom_c)
    return Outcome(ok, {"axiom_a_witness": rep.axiom_a_witness}, 1)


def _pair_composition_checks():
    return [
        ("mask-set-compose-n2-exhaustive", "sec:1:step8", _mask_set_n2),
        ("mask-set-compose-n3-sampled", "sec:1:step8", _mask_set_n3),
        ("principal-compose-discrete2-exhaustive", "sec:1:step8",
         _principal_n2),
        ("principal-compose-discrete3-sampled", "sec:1:step8", _principal_n3),
        ("swap-interplay-discrete2-exhaustive", "sec:1:step9",
         _swap_interplay),
        ("uniformity-diagonal-discrete3", "def:def29", _uniformity_diagonal),
        ("uniformity-asymmetric-witness", "def:def29",
         _uniformity_asymmetric),
    ]


# --- suite: cones ------------------------------------------------------------

def _cone_membership_examples(config, seed):
    g = mf.ConeGenerator(np.zeros(2), np.array([1.0, 0.0]), 0.5, 0.3)
    checks = [
        bool(mf.v_plus_contains(g, np.array([0.5, 0.1]))),
        not bool(mf.v_plus_contains(g, np.zeros(2))),
        not bool(mf.v_plus_contains(g, np.array([-0.5, 0.0]))),
    ]
    return Outcome(all(checks), {"checks": checks}, 3)


def _cone_monotonicity(config, seed):
    rng = np.random.default_rng(seed)
    small = mf.ConeGenerator(np.zeros(2), np.array([1.0, 0.0]), 0.2, 0.2)
    large = mf.ConeGenerator(np.zeros(2), np.array([1.0, 0.0]), 0.5, 0.4)
    y = rng.uniform(-1, 1, (config.samples, 2))
    inside_small = mf.v_plus_contains(small, y)
    inside_large = mf.v_plus_contains(large, y)
    bad = int(np.count_nonzero(inside_small & ~inside_large))
    return Outcome(bad == 0, {"violations": bad}, config.samples)


def _cone_envelope(config, seed):
    rng = np.random.default_rng(seed)
    g = mf.ConeGenerator(np.zeros(2), np.array([1.0, 0.0]), 0.3, 0.4)
    y = rng.uniform(-1, 1, (config.samples, 2))
    inside = mf.v_plus_contains(g, y)
    d = np.linalg.norm(y - g.x, axis=-1)
    bad = int(np.count_nonzero(
        inside & (d >= mf.envelope_radius(g.eps, g.sigma))))
    return Outcome(bad == 0, {"violations": bad}, config.samples)


def _bound_invariant(config, seed):
    rng = np.random.default_rng(seed)
    g = mf.ConeGenerator(np.zeros(2), np.array([1.0, 0.0]), 0.5, 0.3)
    ys = mf.sample_cone_members(g, config.samples, rng)
    inside = mf.v_plus_contains(g, ys)
    ys = ys[inside]
    t = segment_projection_parameter(ys, g.x, g.tip)
    arc_pts = g.x + t[:, None] * (g.tip - g.x)
    ok = mf.check_bound_batch(g.x, arc_pts, ys, g.sigma)
    bad = int(np.count_nonzero(~ok))
    return Outcome(bad == 0, {"violations": bad}, int(len(ys)))


def _pair_commutation(config, seed):
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
            return Outcome(False, {"u": u, "v": v, "pair": witness},
                           pairs * config.samples)
        if verdict == "inconclusive":
            worst = "inconclusive"
    return Outcome(True, {"verdict": worst}, pairs * config.samples,
                   inconclusive=worst == "inconclusive")


def _entourage_certificate(config, seed):
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
    return Outcome(bad == 0, {"violations": bad}, config.samples)


def _cones_checks():
    return [
        ("cone-membership-examples", "sec:1:step7", _cone_membership_examples),
        ("cone-monotonicity", "sec:1:step7", _cone_monotonicity),
        ("cone-envelope-bound", "sec:1:step7", _cone_envelope),
        ("bound-invariant-cones", "eq:bound", _bound_invariant),
        ("pair-commutation", "sec:1:step9", _pair_commutation),
        ("entourage-refinement-certificate", "def:def29",
         _entourage_certificate),
    ]


# --- suite: derivative -------------------------------------------------------

def make_sequence(kind: str, x, u) -> np.ndarray:
    """The first 2000 terms of a sequence of the given kind at x along u."""
    h = np.arange(1, 2001, dtype=float)
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


def _sequence_classification(config, seed):
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
            seq = make_sequence(kind, x, u)
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
    return Outcome(not bad, bad[:3] or {"sequences": total}, total)


def _transport_residuals(cases, rng) -> Outcome:
    """thm:trad1 on each (spec, u, x, label) case: the transported direction
    agrees with the Jacobian's within TRANSPORT_TOL."""
    worst = 0.0
    bad = []
    count = 0
    for spec, u, x, label in cases:
        out = mf.transport_via_sequences(spec, x, u, rng=rng)
        count += 1
        worst = max(worst, out.residual_angle)
        if out.residual_angle >= mf.TRANSPORT_TOL:
            bad.append({**label, "u": u, "x": x,
                        "residual": out.residual_angle})
    return Outcome(not bad, bad[:3] or {"worst_residual": worst}, count)


def _transport_linear(config, seed):
    rng = np.random.default_rng(seed)

    def cases():
        for i in range(max(4, min(config.samples // 10, 200))):
            dim = 2 if i % 2 == 0 else 3
            while True:
                a = rng.uniform(-2, 2, (dim, dim))
                if abs(np.linalg.det(a)) > 0.2:
                    break
            yield (linear_map(a, name=f"random{i}"), unit(rng.normal(size=dim)),
                   rng.uniform(-1, 1, dim), {"matrix": a})
    return _transport_residuals(cases(), rng)


def _transport_nonlinear(config, seed):
    rng = np.random.default_rng(seed)
    cases = ((spec, unit(rng.normal(size=spec.dim)),
              rng.uniform(-1, 1, spec.dim), {"map": name})
             for name, spec in sorted(BUILTIN_MAPS.items()) for _ in range(10))
    return _transport_residuals(cases, rng)


def _derivative_checks():
    return [
        ("sequence-classification", "sec:1:step7", _sequence_classification),
        ("transport-linear-random", "thm:trad1", _transport_linear),
        ("transport-nonlinear-builtins", "thm:trad1", _transport_nonlinear),
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


def _metric_axioms(space, sample, config, seed):
    rng = np.random.default_rng(seed)
    worst = sf.check_metric_axioms(space().distance, partial(sample, rng),
                                   config.samples)
    return Outcome(worst >= -config.tol, {"worst_slack": worst},
                   config.samples)


def _separation_distinct(config, seed):
    bad = []
    for c1, c2, m in SEPARATION_PAIRS:
        out = sf.separate_polynomials(Polynomial.from_coeffs(c1),
                                      Polynomial.from_coeffs(c2), m)
        if out == "equal" or not out["verified"]:
            bad.append({"p1": c1, "p2": c2, "m": m})
    return Outcome(not bad, bad or {"pairs": len(SEPARATION_PAIRS)},
                   len(SEPARATION_PAIRS))


def _separation_equal(config, seed):
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
    return Outcome(not bad, bad or {"pairs": 20}, 20)


def _derivability(config, seed):
    bad = []
    for fname, coeffs, m, x in DERIVABILITY_TRIPLES:
        out = sf.check_poly_derivable(sf.BUILTIN_FUNCS[fname], x,
                                      Polynomial.from_coeffs(coeffs), m)
        if not out["matches"]:
            bad.append({"f": fname, "p": coeffs, "m": m, "x": x,
                        "ratios": out["ratios"]})
    return Outcome(not bad,
                   bad[:3] or {"triples": len(DERIVABILITY_TRIPLES)},
                   len(DERIVABILITY_TRIPLES))


def _box_dimension(m, config, seed):
    out = sf.box_counting_dimension(m)
    return Outcome(abs(out["dimension"] - m) <= 0.2,
                   {"estimate": out["dimension"]}, out["grid"])


def _snowflake_checks():
    return [
        *[(f"metric-axioms-snowflake-m{m}", "sec:2.3",
           partial(_metric_axioms, partial(sf.SnowflakeSpace, m),
                   lambda rng, n: rng.uniform(-5, 5, n))) for m in (2, 3, 4)],
        ("metric-axioms-mixed-product", "sec:2.3",
         partial(_metric_axioms, partial(sf.MixedProductSpace, 2),
                 lambda rng, n: rng.uniform(-3, 3, (n, 2)))),
        ("separation-distinct-pairs", "sec:2.3:prop", _separation_distinct),
        ("separation-equal-pairs", "sec:2.3:prop", _separation_equal),
        ("derivability-oracle-battery", "sec:2.3:thm", _derivability),
        *[(f"box-dimension-m{m}", "sec:2.3:dim", partial(_box_dimension, m))
          for m in (2, 3)],
    ]


# --- suite: flows ------------------------------------------------------------

FLOW_NAMES = ("translation", "rotation", "scaling")
TRANSPORT_MAPS = ("identity2d", "rotation_quarter", "shear_half",
                  "parabolic_shear", "sine_shear")
# samples a flow's conditions report reads at most
REPORT_SAMPLES = 2000
# thm:trad2 recipes: kind -> (anchor, recipe, parameters)
FLOW_RECIPES = {
    "lemacon": ("lem:lemacon", fl.lemacon_construct, {"eps": 0.1, "mu": 0.5}),
    "step1": ("thm:trad2:step1", fl.step1_diagonal_check,
              {"eps_target": 0.01}),
    "step3": ("thm:trad2:step3", fl.step3_composition_check,
              {"eps": 0.2, "mu": 0.5}),
}


# thm:trad2 reuses these flows records under "trad2-" ids
TRAD2_CHECKS = tuple(
    [f"{kind}-{name}" for name in FLOW_NAMES
     for kind in ("lemacon", "step1", "step3")]
    + ["pushforward-conditions"]
    + [f"transport-{mname}" for mname in TRANSPORT_MAPS])


def recipe_outcome(out: dict) -> Outcome:
    """A thm:trad2 recipe passes with no violations; a row left undecided
    makes it inconclusive."""
    return Outcome(out["violations"] == 0, out, out["checked"],
                   inconclusive=not out["converged"])


def flow_transport(spec: MapSpec, flow: fl.Flow, samples: int,
                   seed: int) -> Outcome:
    """lem:lem3 on min(samples, 2000) pairs: a counterexample fails and an
    undecided probe is inconclusive."""
    samples = min(samples, 2000)
    verdict, witness = fl.check_flow_transport(spec, flow, samples, seed)
    return Outcome(verdict != "counterexample",
                   {"verdict": verdict, "pair": witness}, samples,
                   inconclusive=verdict == "inconclusive")


def _flow_reports():
    """A run's report table: report(name, config) is the (seed, conditions
    report) of a suite flow, computed on first use from the report id
    flow-report-<name>."""
    reports = {}
    locks = {name: threading.Lock() for name in FLOW_NAMES}

    def report(name, config):
        with locks[name]:
            if name not in reports:
                rep_seed = _check_seed(config, f"flow-report-{name}")
                reports[name] = rep_seed, fl.check_flow_conditions(
                    fl.BUILTIN_FLOWS[name],
                    samples=min(config.samples, REPORT_SAMPLES), seed=rep_seed)
            return reports[name]
    return report


def _conditions(report, name, config, seed):
    rep_seed, rep = report(name, config)
    return Outcome(rep.all_pass,
                   {"passes": rep.passes, "c_constant": rep.c_constant,
                    "converged": rep.converged},
                   min(config.samples, REPORT_SAMPLES),
                   inconclusive=not rep.converged,
                   seed=rep_seed)


def _reversal_identity(name, config, seed):
    rng = np.random.default_rng(seed)
    flow = fl.BUILTIN_FLOWS[name]
    x = rng.uniform(-1, 1, (min(config.samples, 5000), 2))
    y = x + rng.normal(scale=0.02, size=x.shape)
    fwd_of_rev, c1 = fl.flow_pair_contains(flow.reversed(), 0.1, 0.3, x, y)
    bwd, c2 = fl.flow_pair_contains(flow, 0.1, 0.3, x, y, sign="-")
    return Outcome(bool(np.array_equal(fwd_of_rev, bwd)),
                   {"disagreements": int(np.count_nonzero(fwd_of_rev != bwd))},
                   len(x), inconclusive=not (c1 and c2))


def _translation_pair_agreement(config, seed):
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
    return Outcome(bad == 0, {"disagreements": bad}, n,
                   inconclusive=not conv)


def _recipe(report, name, recipe, params, config, seed):
    return recipe_outcome(recipe(fl.BUILTIN_FLOWS[name],
                                 report=report(name, config)[1],
                                 samples=config.samples, seed=seed, **params))


def _pushforward_conditions(config, seed):
    pushed = fl.pushforward_flow(BUILTIN_MAPS["shear_half"],
                                 fl.BUILTIN_FLOWS["rotation"])
    rep = fl.check_flow_conditions(pushed, samples=min(config.samples, 1000),
                                   seed=seed)
    ok = rep.passes["a"] and rep.passes["b"] and rep.passes["d"]
    return Outcome(ok, {"passes": rep.passes}, min(config.samples, 1000))


def _transport(mname, config, seed):
    return flow_transport(BUILTIN_MAPS[mname], fl.BUILTIN_FLOWS["translation"],
                          config.samples, seed)


def _flows_checks():
    # each call builds its own report table, so no report outlives its run
    report = _flow_reports()
    return [
        *[check for name in FLOW_NAMES for check in (
            (f"conditions-{name}", "sec:2.4:conditions",
             partial(_conditions, report, name)),
            (f"reversal-identity-{name}", "sec:2.4:reversal",
             partial(_reversal_identity, name)))],
        ("translation-pair-agreement", "sec:2.4", _translation_pair_agreement),
        *[(f"{kind}-{name}", anchor,
           partial(_recipe, report, name, recipe, params))
          for name in FLOW_NAMES
          for kind, (anchor, recipe, params) in FLOW_RECIPES.items()],
        ("pushforward-conditions", "lem:lem2", _pushforward_conditions),
        *[(f"transport-{mname}", "lem:lem3", partial(_transport, mname))
          for mname in TRANSPORT_MAPS],
    ]


# --- registry and runner -----------------------------------------------------

_SUITES = {
    "finite-axioms": _finite_axioms_checks,
    "finite-pushforward": _pushforward_checks,
    "pair-composition": _pair_composition_checks,
    "cones": _cones_checks,
    "derivative": _derivative_checks,
    "snowflake": _snowflake_checks,
    "flows": _flows_checks,
    "trad2": lambda: [c for c in _flows_checks() if c[0] in TRAD2_CHECKS],
    # trad2 records are relabelled flows records, so trad2 is not run
    "all": lambda: [c for name, checks in _SUITES.items()
                    if name not in ("trad2", "all") for c in checks()],
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, config: RunConfig | None = None,
              workers: int = 1) -> SuiteReport:
    config = config or RunConfig()
    if name not in _SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; choose from {SUITE_NAMES}")

    def execute(check):
        check_id, anchor, body = check
        seed = _check_seed(config, check_id)
        t0 = time.perf_counter()
        outcome = body(config, seed)
        return outcome.record(check_id, anchor, seed,
                              time.perf_counter() - t0)

    checks = _SUITES[name]()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(execute, checks))
    else:
        records = [execute(c) for c in checks]
    if name in ("trad2", "all"):
        trad2 = [replace(r, check_id=f"trad2-{r.check_id}") for r in records
                 if r.check_id in TRAD2_CHECKS]
        records = trad2 if name == "trad2" else records + trad2
    return SuiteReport(name, config.as_dict(), tuple(records)).sorted()
