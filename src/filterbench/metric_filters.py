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
from typing import Callable, Optional

import numpy as np

from .errors import (
    CurveNotBiLipschitz,
    DegenerateTerm,
    DomainViolation,
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
# radians: a transported direction this close to Df(x) u passes thm:trad1
TRANSPORT_TOL = 1e-6


def euclidean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.linalg.norm(np.asarray(a, float) - np.asarray(b, float), axis=-1)


def _check_unit(u: np.ndarray) -> None:
    """Raise NonUnitDirection unless |u| is within UNIT_TOL of 1; NaN fails."""
    norm = np.linalg.norm(u)
    if not abs(norm - 1.0) <= UNIT_TOL:
        raise NonUnitDirection(f"|u| = {norm}")


def _check_length(what: str, n: int, against: str, dim: int) -> None:
    if n != dim:
        raise DomainViolation(f"{what} has length {n}, but {against} is {dim}")


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
        _check_length("x", len(self.x), "the length of u", len(self.u))
        _check_unit(self.u)
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
    _check_length("y", y.shape[-1], "the length of x", len(g.x))
    d_xy = np.linalg.norm(y - g.x, axis=-1)
    d_seg = point_segment_distance(y, np.asarray(g.x, float), g.tip)
    return (d_xy > 0) & (d_seg < g.sigma * d_xy)


def cone_shape_probe(g: ConeGenerator, y: np.ndarray) -> np.ndarray | None:
    """For points projecting strictly inside the segment, membership is
    equivalent to sin(angle(y - x, u)) < sigma.  Returns the boolean
    agreement array, or None where the probe does not apply."""
    y = np.asarray(y, dtype=float)
    t = segment_projection_parameter(y, np.asarray(g.x, float), g.tip)
    interior = (t > 1e-9) & (t < 1 - 1e-9)
    rel = y - g.x
    d = np.linalg.norm(rel, axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        cosang = np.clip(rel @ np.asarray(g.u, float) / np.where(d > 0, d, 1.0), -1, 1)
    sinang = np.sqrt(1.0 - cosang ** 2)
    predicted = (d > 0) & (sinang < g.sigma)
    actual = v_plus_contains(g, y)
    agree = np.where(interior, predicted == actual, True)
    return agree


def sample_cone_members(g: ConeGenerator, n: int,
                        rng: np.random.Generator) -> np.ndarray:
    """n points of V+(x, u, eps, sigma): lam uniform on [0.05 eps, eps],
    then a step of 0.3 sigma lam from x + lam u along a normal direction
    projected off u, which keeps every point well inside the cone."""
    lam = rng.uniform(0.05 * g.eps, g.eps, n)
    w = rng.normal(size=(n, len(g.u)))
    w -= (w @ g.u)[:, None] * g.u
    w /= np.maximum(np.linalg.norm(w, axis=-1, keepdims=True), 1e-12)
    r = 0.3 * g.sigma * lam
    return g.x + lam[:, None] * g.u + r[:, None] * w


@dataclass(frozen=True)
class DirectionalFilter:
    """mu_{x,u}: generated by the cone family V+(x, u, eps, sigma)."""

    x: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        _check_unit(self.u)

    def contains(self, eps: float, sigma: float, y: np.ndarray) -> np.ndarray:
        return v_plus_contains(ConeGenerator(self.x, self.u, eps, sigma), y)


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

    def __post_init__(self):
        _check_unit(self.u)

    def contains(self, eps: float, sigma: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """(x, y) is a member iff y - x lies in the cone at the origin."""
        cone = ConeGenerator(np.zeros(len(self.u)), self.u, eps, sigma)
        return v_plus_contains(cone, np.asarray(y, dtype=float) - np.asarray(x, dtype=float))

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


def uniformity_refinement_certificate(s: float) -> tuple[float, float]:
    """(eps, sigma) = (s / 4, 1 / 2), with V+(u, eps, sigma) inside B(s)
    for every unit u by the envelope bound eps / (1 - sigma) < s."""
    return s / 4.0, 0.5


# --- sequence classification -------------------------------------------------

GENERATOR_GRID = ((0.5, 0.5), (0.1, 0.3), (0.02, 0.15), (0.004, 0.08))
# radians: a spread of directions at or above this has no limit
DIR_TOL = 1e-3


@dataclass
class SequenceVerdict:
    converges_to_point: bool
    direction_limit: Optional[np.ndarray]
    matches_filter: bool
    witnesses: list = field(default_factory=list)
    direct_matches: bool = False
    generator_matches: bool = False
    agreement: bool = True


def classify_sequence(seq: np.ndarray, x, u) -> SequenceVerdict:
    """Cross-validated convergence test against mu_{x,u}.

    (i) direct: the sequence converges to x and normalized increments
    converge to u; (ii) generator: the tail lies in every sampled cone.
    Disagreement between the two flags an engine bug via ``agreement``.
    """
    seq = np.asarray(seq, dtype=float)
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if not 0 < np.linalg.norm(u) < np.inf:
        raise NonUnitDirection(f"direction must be finite and nonzero, u = {u}")
    u = unit(u)
    dists = np.linalg.norm(seq - x, axis=-1)
    if np.any(dists == 0):
        raise DegenerateTerm("sequence terms must differ from the base point")
    tail_n = max(5, int(np.ceil(len(seq) * 0.1)))
    tail = slice(len(seq) - tail_n, len(seq))

    converges = bool(np.max(dists[tail]) < 1e-3)
    dirs = (seq - x) / dists[:, None]
    dir_sum = dirs[tail].sum(axis=0)
    if np.linalg.norm(dir_sum) < 1e-12:
        # directions cancel (e.g. alternating signs): no limit possible
        mean_dir = dirs[-1]
        spread = np.pi
    else:
        mean_dir = unit(dir_sum)
        spread = float(np.max(angle_between(dirs[tail], mean_dir)))
    has_direction = converges and spread < DIR_TOL
    direction_limit = mean_dir if has_direction else None
    direct = has_direction and float(angle_between(mean_dir, u)) < DIR_TOL

    mu = DirectionalFilter(x, u)
    generator_ok = True
    witnesses: list = []
    for eps, sigma in GENERATOR_GRID:
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


def line_curve(x, u) -> CurveSpec:
    x = np.asarray(x, float)
    u = np.asarray(u, float)
    return CurveSpec("line", lambda t: x + np.asarray(t, float)[:, None] * u,
                     -1.0, 1.0)


def estimate_bilipschitz(c: CurveSpec) -> tuple[float, float]:
    ts = np.linspace(c.a, c.b, 256)
    pts = c(ts)
    i, j = np.triu_indices(256, k=1)
    num = np.linalg.norm(pts[i] - pts[j], axis=-1)
    den = np.abs(ts[i] - ts[j])
    ratios = num / den
    lo, hi = float(ratios.min()), float(ratios.max())
    if lo < 1e-6 or hi > 1e6:
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

def check_bound_batch(x, arc_pts, ys, mu) -> np.ndarray:
    """Per row, whether 1/(1+mu) d(x, c) < d(x, y) < 1/(1-mu) d(x, c) for
    the membership witness c = arc_pts of y = ys; raises InvalidWitness if
    a row's witness fails d(y, c) < mu d(x, y)."""
    x = np.asarray(x, float)
    d_xy = np.linalg.norm(ys - x, axis=-1)
    if np.any(np.linalg.norm(ys - arc_pts, axis=-1) >= mu * d_xy):
        raise InvalidWitness("d(y, c(lambda)) < mu d(x, y) does not hold")
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
    rng: np.random.Generator | None = None,
) -> TransportResult:
    """Push sequences converging to mu_{x,u} through f and classify the image.

    Richardson extrapolation on the scales 1e-5 and 1e-6 removes the
    first-order curvature term; the result must match Df(x) u / |Df(x) u|.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    for what, v in (("x", x), ("u", u)):
        _check_length(what, len(v), f"the dimension of map {f.name}", f.dim)
    u = unit(u)
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
    for _ in range(7):
        w = rng.normal(size=u.shape)
        perturbations.append(0.5 * w / max(np.linalg.norm(w), 1e-12))
    ratio = 1e-5 / 1e-6
    for w in perturbations:
        d_coarse = image_dir(1e-5, w)
        d_fine = image_dir(1e-6, w)
        extrap = unit((ratio * d_fine - d_coarse) / (ratio - 1.0))
        if float(angle_between(d_fine, d_coarse)) > DIR_TOL:
            raise NoDirectionLimit("image directions do not stabilize")
        directions.append(extrap)
    directions = np.asarray(directions)
    spread = float(np.max(angle_between(directions, directions[0])))
    if spread > DIR_TOL:
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
    samples: int = 10_000,
    seed: int = 0,
) -> tuple[str, object]:
    """Verdict on mu_u o mu_v = mu_v o mu_u at the generator level, on the
    generator (eps, sigma) = (0.5, 0.3) and base points in [-2, 2]^d.

    Both filters are translation invariant, so each composite generator is
    the set of pairs whose difference lies in a Minkowski sum of cone
    sections; Minkowski addition commutes, which the sampling confirms by
    re-decomposing every sampled chain in the opposite order.
    """
    mu_u = pair_directional_filter(u)
    mu_v = pair_directional_filter(v)
    eps, sigma = 0.5, 0.3
    rng = np.random.default_rng(seed)
    origin = np.zeros(len(mu_u.u))
    x = rng.uniform(-2.0, 2.0, size=(samples, len(origin)))
    # both filters are translation invariant: step by members of origin cones
    y = x + sample_cone_members(ConeGenerator(origin, mu_u.u, eps, sigma), samples, rng)
    z = y + sample_cone_members(ConeGenerator(origin, mu_v.u, eps, sigma), samples, rng)
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
