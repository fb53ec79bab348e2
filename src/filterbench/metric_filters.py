"""Generated filters on metric spaces: cones, directional and pair filters,
curve tubes, sequence classification and derivative desk-checks.

Everything here is numerical.  Filter comparisons between generated filters
are semi-decided: certified rules (generator monotonicity, exact generator
identity, translation invariance, the triangle-inequality envelope) answer
definitively; everything else is seeded sampling with an explicit budget and
an honest ``inconclusive`` verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    CurveNotBiLipschitz,
    DegenerateTerm,
    InvalidWitness,
    NoDirectionLimit,
    NonUnitDirection,
    SingularJacobian,
)
from .geometry import (
    angle_between,
    arc_membership,
    point_polyline_distance,
    point_segment_distance,
    segment_projection_parameter,
    unit,
)
from .maps import MapSpec

UNIT_TOL = 1e-12
ARC_SUBDIVISION_CAP = 1 << 14


def euclidean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.linalg.norm(np.asarray(a, float) - np.asarray(b, float), axis=-1)


@dataclass(frozen=True)
class MetricSpace:
    """Pluggable distance; metric axioms are property-tested on samples."""

    name: str
    dim: int
    distance: Callable[[np.ndarray, np.ndarray], np.ndarray]


def euclidean_space(dim: int) -> MetricSpace:
    return MetricSpace(f"euclidean{dim}d", dim, euclidean)


# --- cone generators ---------------------------------------------------------

@dataclass(frozen=True)
class ConeGenerator:
    """V+(x, u, eps, sigma): points y != x whose distance to the segment
    x .. x + eps*u is below sigma * d(x, y)."""

    x: np.ndarray
    u: np.ndarray
    eps: float
    sigma: float

    def __post_init__(self):
        if abs(np.linalg.norm(self.u) - 1.0) > UNIT_TOL:
            raise NonUnitDirection(f"|u| = {np.linalg.norm(self.u)}")
        if not self.eps > 0:
            raise InvalidWitness("eps must be positive")
        if not 0 < self.sigma < 1:
            raise InvalidWitness("sigma must lie in (0, 1)")

    @property
    def tip(self) -> np.ndarray:
        return np.asarray(self.x, float) + self.eps * np.asarray(self.u, float)


def v_plus_contains(g: ConeGenerator, y: np.ndarray) -> np.ndarray:
    """Membership (vectorized over leading axes of y)."""
    y = np.asarray(y, dtype=float)
    d_xy = np.linalg.norm(y - g.x, axis=-1)
    d_seg = point_segment_distance(y, np.asarray(g.x, float), g.tip)
    return (d_xy > 0) & (d_seg < g.sigma * d_xy)


def cone_shape_probe(g: ConeGenerator, y: np.ndarray, margin: float = 1e-9) -> np.ndarray | None:
    """For points projecting strictly inside the segment, membership is
    equivalent to sin(angle(y - x, u)) < sigma.  Returns the boolean
    agreement array, or None where the probe does not apply."""
    y = np.asarray(y, dtype=float)
    t = segment_projection_parameter(y, np.asarray(g.x, float), g.tip)
    interior = (t > margin) & (t < 1 - margin)
    rel = y - g.x
    d = np.linalg.norm(rel, axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        cosang = np.clip(rel @ np.asarray(g.u, float) / np.where(d > 0, d, 1.0), -1, 1)
    sinang = np.sqrt(1.0 - cosang ** 2)
    predicted = (d > 0) & (sinang < g.sigma)
    actual = v_plus_contains(g, y)
    agree = np.where(interior, predicted == actual, True)
    return agree


@dataclass(frozen=True)
class DirectionalFilter:
    """mu_{x,u}: generated by the cone family V+(x, u, eps, sigma)."""

    x: np.ndarray
    u: np.ndarray
    kind: str = "directional"

    def __post_init__(self):
        if abs(np.linalg.norm(self.u) - 1.0) > UNIT_TOL:
            raise NonUnitDirection(f"|u| = {np.linalg.norm(self.u)}")

    def generator(self, eps: float, sigma: float) -> ConeGenerator:
        return ConeGenerator(np.asarray(self.x, float), np.asarray(self.u, float),
                             eps, sigma)

    def contains(self, eps: float, sigma: float, y: np.ndarray) -> np.ndarray:
        return v_plus_contains(self.generator(eps, sigma), y)


def directional_filter(x, u) -> DirectionalFilter:
    return DirectionalFilter(np.asarray(x, float), np.asarray(u, float))


def envelope_radius(eps: float, sigma: float) -> float:
    """Radius bound: every member of V+(x,u,eps,sigma) satisfies
    d(x, y) < eps / (1 - sigma) (triangle-inequality consequence)."""
    return eps / (1.0 - sigma)


# --- pair filters ------------------------------------------------------------

@dataclass(frozen=True)
class PairDirectionalFilter:
    """mu_u on X^2: (x, y) in V+(u, eps, sigma) iff d(y, x + [0,eps]u) <
    sigma d(x, y).  Translation invariant; sigma-swap gives mu_{-u}."""

    u: np.ndarray
    kind: str = "pair-directional"
    translation_invariant: bool = True

    def __post_init__(self):
        if abs(np.linalg.norm(self.u) - 1.0) > UNIT_TOL:
            raise NonUnitDirection(f"|u| = {np.linalg.norm(self.u)}")

    def contains(self, eps: float, sigma: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        rel = y - x
        d_xy = np.linalg.norm(rel, axis=-1)
        origin = np.zeros(len(np.atleast_1d(np.asarray(self.u))))
        d_seg = point_segment_distance(rel, origin, eps * np.asarray(self.u, float))
        return (d_xy > 0) & (d_seg < sigma * d_xy)

    def swapped(self) -> "PairDirectionalFilter":
        # sigma * mu_u = mu_{-u}
        return PairDirectionalFilter(-np.asarray(self.u, float))


def pair_directional_filter(u) -> PairDirectionalFilter:
    return PairDirectionalFilter(np.asarray(u, float))


def metric_uniformity_contains(s: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Membership in the entourage B(s) = {(x, y) : |x - y| < s}."""
    if not s > 0:
        raise InvalidWitness("radius must be positive")
    return euclidean(x, y) < s


def uniformity_refinement_certificate(s: float, sigma: float = 0.5) -> tuple[float, float]:
    """(eps, sigma) with V+(u, eps, sigma) inside B(s) for every unit u,
    via the envelope bound eps / (1 - sigma) <= s."""
    return s * (1.0 - sigma) / 2.0, sigma


# --- sequence classification -------------------------------------------------

DEFAULT_GENERATOR_GRID = ((0.5, 0.5), (0.1, 0.3), (0.02, 0.15), (0.004, 0.08))


@dataclass
class SequenceVerdict:
    converges_to_point: bool
    direction_limit: Optional[np.ndarray]
    matches_filter: bool
    witnesses: list = field(default_factory=list)
    direct_matches: bool = False
    generator_matches: bool = False
    agreement: bool = True


def classify_sequence(
    seq: np.ndarray,
    x,
    u,
    h_max: int | None = None,
    point_tol: float = 1e-3,
    dir_tol: float = 1e-3,
    generator_grid: Sequence[tuple[float, float]] = DEFAULT_GENERATOR_GRID,
    tail_fraction: float = 0.1,
) -> SequenceVerdict:
    """Cross-validated convergence test against mu_{x,u}.

    (i) direct: the sequence converges to x and normalized increments
    converge to u; (ii) generator: the tail lies in every sampled cone.
    Disagreement between the two flags an engine bug via ``agreement``.
    """
    seq = np.asarray(seq, dtype=float)
    x = np.asarray(x, dtype=float)
    u = unit(np.asarray(u, dtype=float))
    if h_max is not None:
        seq = seq[:h_max]
    dists = np.linalg.norm(seq - x, axis=-1)
    if np.any(dists == 0):
        raise DegenerateTerm("sequence terms must differ from the base point")
    tail_n = max(5, int(np.ceil(len(seq) * tail_fraction)))
    tail = slice(len(seq) - tail_n, len(seq))

    converges = bool(np.max(dists[tail]) < point_tol)
    dirs = (seq - x) / dists[:, None]
    dir_sum = dirs[tail].sum(axis=0)
    if np.linalg.norm(dir_sum) < 1e-12:
        # directions cancel (e.g. alternating signs): no limit possible
        mean_dir = dirs[-1]
        spread = np.pi
    else:
        mean_dir = unit(dir_sum)
        spread = float(np.max(angle_between(dirs[tail], mean_dir)))
    has_direction = converges and spread < dir_tol
    direction_limit = mean_dir if has_direction else None
    direct = has_direction and float(angle_between(mean_dir, u)) < dir_tol

    mu = directional_filter(x, u)
    generator_ok = True
    witnesses: list = []
    for eps, sigma in generator_grid:
        member = mu.contains(eps, sigma, seq[tail])
        if not bool(member.all()):
            generator_ok = False
            bad = np.nonzero(~member)[0] + (len(seq) - tail_n)
            witnesses.extend(int(i) for i in bad[:5])
            break
    return SequenceVerdict(
        converges_to_point=converges,
        direction_limit=direction_limit,
        matches_filter=direct and generator_ok,
        witnesses=witnesses,
        direct_matches=direct,
        generator_matches=generator_ok,
        agreement=direct == generator_ok,
    )


# --- curve filters -----------------------------------------------------------

@dataclass(frozen=True)
class CurveSpec:
    """Parametric curve on [a, b] with a < 0 < b; c(0) is the base point."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]  # (K,) -> (K, d)
    a: float
    b: float

    def __post_init__(self):
        if not self.a < 0 < self.b:
            raise InvalidWitness("curve domain must straddle 0")

    def __call__(self, t: np.ndarray) -> np.ndarray:
        return self.fn(np.asarray(t, dtype=float))

    @property
    def base(self) -> np.ndarray:
        return self.fn(np.zeros(1))[0]


def line_curve(x, u, a: float = -1.0, b: float = 1.0) -> CurveSpec:
    x = np.asarray(x, float)
    u = np.asarray(u, float)
    return CurveSpec("line", lambda t: x + np.asarray(t, float)[:, None] * u, a, b)


def estimate_bilipschitz(
    c: CurveSpec, samples: int = 256, lower_floor: float = 1e-6, upper_cap: float = 1e6,
) -> tuple[float, float]:
    ts = np.linspace(c.a, c.b, samples)
    pts = c(ts)
    i, j = np.triu_indices(samples, k=1)
    num = np.linalg.norm(pts[i] - pts[j], axis=-1)
    den = np.abs(ts[i] - ts[j])
    ratios = num / den
    lo, hi = float(ratios.min()), float(ratios.max())
    if lo < lower_floor or hi > upper_cap:
        raise CurveNotBiLipschitz(f"sampled constants ({lo:.3e}, {hi:.3e}) out of bounds")
    return lo, hi


def arc_points(c: CurveSpec, eps: float, sign: str, k: int) -> np.ndarray:
    if sign == "+":
        ts = np.linspace(0.0, min(eps, c.b), k)
    else:
        ts = np.linspace(max(-eps, c.a), 0.0, k)
    return c(ts)


def arc_distance(
    y: np.ndarray, c: CurveSpec, eps: float, sign: str = "+", rtol: float = 1e-9,
) -> np.ndarray:
    """Distance to the arc image, polyline approximation refined until stable
    or the subdivision cap is hit.

    The slow reference for CurveFilter, which goes through
    geometry.arc_membership instead; the two routes share no code.
    """
    k = 33
    prev = point_polyline_distance(y, arc_points(c, eps, sign, k))
    while k < ARC_SUBDIVISION_CAP:
        k = 2 * k - 1
        cur = point_polyline_distance(y, arc_points(c, eps, sign, k))
        if np.max(np.abs(cur - prev)) <= rtol * (1.0 + np.max(cur)):
            return cur
        prev = cur
    return prev


@dataclass(frozen=True)
class CurveFilter:
    """Forward or backward curve filter, generated by tubes around arcs."""

    curve: CurveSpec
    sign: str = "+"
    kind: str = "curve"

    @property
    def x(self) -> np.ndarray:
        return self.curve.base

    def membership(self, eps: float, mu: float,
                   y: np.ndarray) -> tuple[np.ndarray, bool]:
        """Membership of y (..., d) in the tube generator of (eps, mu), and
        whether every point was decided below the subdivision cap."""
        y = np.asarray(y, dtype=float)
        d_xy = np.linalg.norm(y - self.x, axis=-1)
        c = self.curve
        span = min(eps, c.b) if self.sign == "+" else min(eps, -c.a)
        arc = lambda rows: lambda ts: c(ts)[:, None]  # one arc for every row
        _, member, converged = arc_membership(
            arc, y.reshape(-1, y.shape[-1]), (mu * d_xy).ravel(), span,
            self.sign)
        return (d_xy > 0) & member.reshape(d_xy.shape), converged

    def contains(self, eps: float, mu: float, y: np.ndarray) -> np.ndarray:
        return self.membership(eps, mu, y)[0]


def curve_filter(c: CurveSpec, sign: str = "+") -> CurveFilter:
    if sign not in ("+", "-"):
        raise InvalidWitness("sign must be '+' or '-'")
    estimate_bilipschitz(c)
    return CurveFilter(c, sign)


def reversed_curve(c: CurveSpec) -> CurveSpec:
    return CurveSpec(c.name + "_reversed",
                     lambda t: c(-np.asarray(t, float)), -c.b, -c.a)


def reparametrized_curve(c: CurveSpec, phi: Callable, phi_a: float, phi_b: float) -> CurveSpec:
    """c' = c o phi for a bi-Lipschitz phi with phi(0) = 0."""
    return CurveSpec(c.name + "_reparam",
                     lambda t: c(phi(np.asarray(t, float))), phi_a, phi_b)


# --- the (bound) inequality --------------------------------------------------

def check_bound(
    x: np.ndarray, arc_point: np.ndarray, y: np.ndarray, mu: float,
) -> bool:
    """Verify 1/(1+mu) d(x, c(lam)) < d(x, y) < 1/(1-mu) d(x, c(lam)) for a
    membership witness c(lam); raises InvalidWitness if the witness fails
    d(y, c(lam)) < mu d(x, y)."""
    x = np.asarray(x, float)
    arc_point = np.asarray(arc_point, float)
    y = np.asarray(y, float)
    d_xy = float(euclidean(x, y))
    d_yc = float(euclidean(y, arc_point))
    d_xc = float(euclidean(x, arc_point))
    if not d_yc < mu * d_xy:
        raise InvalidWitness("d(y, c(lambda)) < mu d(x, y) does not hold")
    return d_xc / (1.0 + mu) < d_xy < d_xc / (1.0 - mu)


def check_bound_batch(x, arc_pts, ys, mu) -> np.ndarray:
    """Vectorized form used by the sampling suites; callers guarantee the
    membership witnesses."""
    x = np.asarray(x, float)
    d_xy = np.linalg.norm(ys - x, axis=-1)
    d_xc = np.linalg.norm(arc_pts - x, axis=-1)
    return (d_xc / (1.0 + mu) < d_xy) & (d_xy < d_xc / (1.0 - mu))


# --- derivative transport ----------------------------------------------------

@dataclass
class TransportResult:
    direction: np.ndarray
    expected: np.ndarray
    residual_angle: float


def transport_via_sequences(
    f: MapSpec,
    x,
    u,
    trials: int = 8,
    rng: np.random.Generator | None = None,
    scales: Sequence[float] = (1e-4, 1e-5, 1e-6),
    stability_tol: float = 1e-3,
) -> TransportResult:
    """Push sequences converging to mu_{x,u} through f and classify the image.

    Richardson extrapolation on the two smallest scales removes the
    first-order curvature term; the result must match Df(x) u / |Df(x) u|.
    """
    x = np.asarray(x, dtype=float)
    u = unit(np.asarray(u, dtype=float))
    jac = np.asarray(f.jacobian(x), dtype=float)
    if abs(np.linalg.det(jac)) < 1e-12:
        raise SingularJacobian(f"Df is singular at {x}")
    expected = unit(jac @ u)
    rng = rng or np.random.default_rng(0)
    fx = f(x[None])[0]

    def image_dir(t: float, w: np.ndarray) -> np.ndarray:
        y = x + t * u + t * t * w
        v = f(y[None])[0] - fx
        n = np.linalg.norm(v)
        if n == 0:
            raise NoDirectionLimit("image increment vanished")
        return v / n

    directions = []
    perturbations = [np.zeros_like(u)]
    for _ in range(max(0, trials - 1)):
        w = rng.normal(size=u.shape)
        perturbations.append(0.5 * w / max(np.linalg.norm(w), 1e-12))
    for w in perturbations:
        d_coarse = image_dir(scales[-2], w)
        d_fine = image_dir(scales[-1], w)
        ratio = scales[-2] / scales[-1]
        extrap = unit((ratio * d_fine - d_coarse) / (ratio - 1.0))
        if float(angle_between(d_fine, d_coarse)) > stability_tol:
            raise NoDirectionLimit("image directions do not stabilize")
        directions.append(extrap)
    directions = np.asarray(directions)
    spread = float(np.max(angle_between(directions, directions[0])))
    if spread > stability_tol:
        raise NoDirectionLimit("perturbed sequences disagree on the limit")
    empirical = unit(directions.sum(axis=0))
    return TransportResult(
        direction=empirical,
        expected=expected,
        residual_angle=float(angle_between(empirical, expected)),
    )


# --- pair-filter commutation (metric case) -----------------------------------

def check_commutation_directional(
    u,
    v,
    eps: float = 0.5,
    sigma: float = 0.3,
    samples: int = 10_000,
    seed: int = 0,
    box: float = 2.0,
) -> tuple[str, object]:
    """Verdict on mu_u o mu_v = mu_v o mu_u at the generator level.

    Both filters are translation invariant, so each composite generator is
    the set of pairs whose difference lies in a Minkowski sum of cone
    sections; Minkowski addition commutes, which the sampling confirms by
    re-decomposing every sampled chain in the opposite order.
    """
    mu_u = pair_directional_filter(u)
    mu_v = pair_directional_filter(v)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-box, box, size=(samples, len(np.asarray(u))))
    y = _sample_cone_targets(mu_u, x, eps, sigma, rng)
    z = _sample_cone_targets(mu_v, y, eps, sigma, rng)
    ok_uv = mu_u.contains(eps, sigma, x, y) & mu_v.contains(eps, sigma, y, z)
    # swapped decomposition of the same displacement: x -> x + (z - y) -> z
    y2 = x + (z - y)
    ok_vu = mu_v.contains(eps, sigma, x, y2) & mu_u.contains(eps, sigma, y2, z)
    valid = ok_uv
    if not bool(valid.any()):
        return "inconclusive", "no valid sampled chains"
    bad = valid & ~ok_vu
    if bool(bad.any()):
        i = int(np.nonzero(bad)[0][0])
        return "counterexample", (x[i], y[i], z[i])
    return "commute", None


def _sample_cone_targets(mu, base, eps, sigma, rng):
    """Points reachable from ``base`` inside V+(u, eps, sigma)."""
    n = len(base)
    lam = rng.uniform(0.05 * eps, eps, size=n)
    seg = base + lam[:, None] * np.asarray(mu.u, float)
    w = rng.normal(size=base.shape)
    w = w / np.linalg.norm(w, axis=-1, keepdims=True)
    # radial slack keeps d(y, segment) well below sigma * d(x, y)
    r = 0.3 * sigma * lam
    return seg + r[:, None] * w
