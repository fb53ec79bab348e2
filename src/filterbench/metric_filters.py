"""Generated filters on metric spaces: cones, pair filters, forward curve
tubes, sequence classification and derivative desk-checks.

The directional filter mu_{x,u} is generated by the cones V+(x, u, eps,
sigma), each decided by ``v_plus_contains``; one generator may hold a cone
per row of a batch.  Sequence classification is row-batched:
``classify_sequences`` decides B sequences, each against its own mu_{x,u},
in one pass of array operations, and ``classify_sequence`` is its one-row
call.  A row's distances, directions and direction limit carry the bits
of the per-sequence computation that ``tests/oracles.py`` keeps, and the
tests hold every verdict field to it.  A backward curve filter is the
forward filter of the reversed curve (see ``CurveFilter``).

Everything here is numerical.  Filter comparisons between generated filters
are semi-decided: certified rules (generator monotonicity, exact generator
identity, translation invariance, the triangle-inequality envelope) answer
definitively; everything else is seeded sampling with an explicit budget and
an honest ``inconclusive`` verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    ARC_CAP,
    _dot,
    angle_between,
    arc_membership,
    point_polyline_distance,
    segment_projection_parameter,  # perfbench's tracer tests read it here
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
    """Raise NonUnitDirection unless |u| is within UNIT_TOL of 1, for u (d,)
    or for every row of u (..., d); NaN fails."""
    norm = np.atleast_1d(np.linalg.norm(u, axis=-1))
    bad = ~(np.abs(norm - 1.0) <= UNIT_TOL)
    if bad.any():
        raise NonUnitDirection(f"|u| = {norm[bad][0]}")


def _check_length(what: str, n: int, against: str, dim: int) -> None:
    if n != dim:
        raise DomainViolation(f"{what} has length {n}, but {against} is {dim}")


# --- cone generators ---------------------------------------------------------

@dataclass(frozen=True)
class ConeGenerator:
    """V+(x, u, eps, sigma): points y != x whose distance to the segment
    x .. x + eps*u is below sigma * d(x, y).

    x and u are one point and direction (d,), or one per row (..., d), so
    that one generator holds a cone for each row of a batch."""

    x: np.ndarray
    u: np.ndarray
    eps: float
    sigma: float

    def __post_init__(self):
        _check_length("x", np.shape(self.x)[-1], "the length of u",
                      np.shape(self.u)[-1])
        _check_unit(self.u)
        if not self.eps > 0:
            raise InvalidWitness("eps must be positive")
        if not 0 < self.sigma < 1:
            raise InvalidWitness("sigma must lie in (0, 1)")

    @property
    def tip(self) -> np.ndarray:
        return np.asarray(self.x, float) + self.eps * np.asarray(self.u, float)


def v_plus_contains(g: ConeGenerator, y: np.ndarray) -> np.ndarray:
    """Membership (vectorized over leading axes of y; a generator of
    per-row cones broadcasts its x and u against them).

    The point of the segment closest to y is x + s u, with s = <y - x, u>
    clamped to [0, eps] since u is a unit vector.  The sums run coordinate
    by coordinate, so every operation runs along the rows."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(g.x, dtype=float)
    u = np.asarray(g.u, dtype=float)
    _check_length("y", y.shape[-1], "the length of x", x.shape[-1])
    offset = [y[..., c] - x[..., c] for c in range(x.shape[-1])]
    along = [u[..., c] for c in range(x.shape[-1])]
    d_xy = np.sqrt(_dot(offset, offset))
    s = np.clip(_dot(offset, along), 0.0, g.eps)
    across = [o - s * a for o, a in zip(offset, along)]
    d_seg = np.sqrt(_dot(across, across))
    return (d_xy > 0) & (d_seg < g.sigma * d_xy)


def sample_cone_members(g: ConeGenerator, n: int,
                        rng: np.random.Generator) -> np.ndarray:
    """n points of V+(x, u, eps, sigma): lam uniform on [0.05 eps, eps],
    then a step of 0.3 sigma lam from x + lam u along a normal direction
    projected off u, which keeps every point well inside the cone."""
    lam = rng.uniform(0.05 * g.eps, g.eps, n)
    w = rng.normal(size=(n, len(g.u)))
    along = w @ g.u
    x, u = np.asarray(g.x, dtype=float), np.asarray(g.u, dtype=float)
    # coordinate by coordinate along the rows, with the bits of the
    # broadcast form: the norm sums its squares in coordinate order
    across = [w[:, c] - along * u[c] for c in range(len(u))]
    norm = np.maximum(np.sqrt(_dot(across, across)), 1e-12)
    r = 0.3 * g.sigma * lam
    out = np.empty((n, len(u)))
    for c, a in enumerate(across):
        np.add(x[..., c] + lam * u[c], r * (a / norm), out=out[:, c])
    return out


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
    agreement: bool


def classify_sequences(seqs: np.ndarray, x, u) -> list[SequenceVerdict]:
    """Cross-validated convergence test of each sequence of seqs (B, n, d)
    against its own mu_{x,u}, for the rows of x and u (B, d).

    (i) direct: the sequence converges to x and normalized increments
    converge to u; (ii) generator: the tail lies in every sampled cone.
    Disagreement between the two flags an engine bug via ``agreement``.
    Distances to x cover every term, so a term at x raises DegenerateTerm;
    everything else reads only the tail, the last max(5, ceil(n / 10))
    terms.
    """
    seqs = np.asarray(seqs, dtype=float)
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    norm = np.linalg.norm(u, axis=-1)
    finite = (0 < norm) & (norm < np.inf)
    if not finite.all():
        raise NonUnitDirection(
            f"direction must be finite and nonzero, u = {u[~finite][0]}")
    u = unit(u)
    # a squared distance is zero exactly where the distance is, whatever
    # the order of its sum; coordinate by coordinate runs along the terms
    terms = [seqs[..., c] - x[:, c, None] for c in range(x.shape[-1])]
    if np.any(_dot(terms, terms) == 0):
        raise DegenerateTerm("sequence terms must differ from the base point")
    n = seqs.shape[1]
    tail = seqs[:, n - max(5, int(np.ceil(n * 0.1))):n]
    offsets = tail - x[:, None]
    dists = np.linalg.norm(offsets, axis=-1)

    converges = dists.max(axis=1) < 1e-3
    dirs = offsets / dists[..., None]
    dir_sum = dirs.sum(axis=1)
    # directions that cancel (e.g. alternating signs) have no limit
    cancels = np.linalg.norm(dir_sum, axis=-1) < 1e-12
    mean_dir = unit(np.where(cancels[:, None], dirs[:, -1], dir_sum))
    spread = np.where(cancels, np.pi,
                      angle_between(dirs, mean_dir[:, None]).max(axis=1))
    has_direction = converges & (spread < DIR_TOL)
    direct = has_direction & (angle_between(mean_dir, u) < DIR_TOL)

    # one cone per row: x and u broadcast against the (B, tail, d) tail
    generator_ok = np.logical_and.reduce([
        v_plus_contains(ConeGenerator(x[:, None], u[:, None], eps, sigma),
                        tail).all(axis=-1)
        for eps, sigma in GENERATOR_GRID])
    return [SequenceVerdict(
        converges_to_point=bool(conv),
        direction_limit=limit if has else None,
        matches_filter=bool(dir_ok and gen_ok),
        agreement=bool(dir_ok == gen_ok),
    ) for conv, has, limit, dir_ok, gen_ok in zip(
        converges, has_direction, mean_dir, direct, generator_ok)]


def classify_sequence(seq: np.ndarray, x, u) -> SequenceVerdict:
    """``classify_sequences`` on the one sequence seq (n, d) at x along u."""
    return classify_sequences(np.asarray(seq, float)[None],
                              np.asarray(x, float)[None],
                              np.asarray(u, float)[None])[0]


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


def arc_points(c: CurveSpec, eps: float, k: int) -> np.ndarray:
    """k vertices of the forward arc c([0, min(eps, b)]), evenly spaced in t."""
    return c(np.linspace(0.0, min(eps, c.b), k))


def arc_distance(
    y: np.ndarray, c: CurveSpec, eps: float, rtol: float = 1e-9,
) -> np.ndarray:
    """Distance to the forward arc c([0, min(eps, b)]), polyline approximation
    refined until stable or the subdivision cap is hit.

    The slow reference for CurveFilter, which goes through
    geometry.arc_membership instead; the two routes share no code.
    """
    k = 33
    prev = point_polyline_distance(y, arc_points(c, eps, k))
    while k < ARC_SUBDIVISION_CAP:
        k = 2 * k - 1
        cur = point_polyline_distance(y, arc_points(c, eps, k))
        if np.max(np.abs(cur - prev)) <= rtol * (1.0 + np.max(cur)):
            return cur
        prev = cur
    return prev


@dataclass(frozen=True)
class CurveFilter:
    """Forward curve filter at x = c(0), generated by the tubes
    {y != x : d(y, c([0, eps])) < mu d(x, y)}.

    The backward filter of c, generated by tubes around c([-eps, 0]), is the
    forward filter of the reversed curve t -> c(-t) on [-b, -a]:
    ``curve_filter(CurveSpec(name, lambda t: c(-t), -c.b, -c.a))``."""

    curve: CurveSpec

    @property
    def x(self) -> np.ndarray:
        return self.curve.base

    def membership(self, eps: float, mu: float,
                   y: np.ndarray) -> tuple[np.ndarray, bool]:
        """Membership of y (..., d) in the tube generator of (eps, mu), and
        whether every point was decided below the subdivision cap.

        Decided by geometry.arc_membership on the curve's arc, with C
        estimated once per call as twice the largest |Delta^2 c| / h^2 over
        ARC_CAP + 1 uniform vertices: a CurveSpec declares no bound, so the
        decision is only as good as that estimate, not certified."""
        y = np.asarray(y, dtype=float)
        d_xy = np.linalg.norm(y - self.x, axis=-1)
        c, eps = self.curve, min(eps, self.curve.b)
        grid = np.linspace(0.0, eps, ARC_CAP + 1)
        turn = np.linalg.norm(np.diff(c(grid), n=2, axis=0), axis=-1).max()
        # eps = 0 leaves every vertex at c(0): no turn, no curvature
        estimate = 2.0 * turn / grid[1] ** 2 if turn > 0 else 0.0
        arc = lambda rows: ((lambda ts: c(ts)[:, None]),
                            np.full(len(rows), estimate))
        _, member, converged = arc_membership(
            arc, y.reshape(-1, y.shape[-1]), (mu * d_xy).ravel(), eps)
        return (d_xy > 0) & member.reshape(d_xy.shape), converged

    def contains(self, eps: float, mu: float, y: np.ndarray) -> np.ndarray:
        return self.membership(eps, mu, y)[0]


def curve_filter(c: CurveSpec) -> CurveFilter:
    """The forward curve filter of c, once c passes the sampled bi-Lipschitz
    gate."""
    estimate_bilipschitz(c)
    return CurveFilter(c)


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
    mu_u = PairDirectionalFilter(np.asarray(u, float))
    mu_v = PairDirectionalFilter(np.asarray(v, float))
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
