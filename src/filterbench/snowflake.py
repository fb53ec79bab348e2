"""Snowflake metrics, mixed product metrics, polynomial filters and their
separation, plus order-m derivability desk-checks.

Polynomial coefficients are exact rationals; coefficient equality is exact.
Everything metric is numerical: arc distances are minimized on dense grids
with golden-section refinement, and separation witnesses are finite-scale
(a tail of on-arc points plus a generator whose aperture lies strictly
below every observed distance ratio of that tail).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, Union

import numpy as np

from .errors import (
    ConstraintViolation,
    DegenerateGenerator,
    NotLipschitz,
    TrivialDevelopment,
)

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
ARC_GRID = 2048


def snowflake_distance(m: int, x, y):
    if m < 2:
        raise ConstraintViolation("snowflake exponent must be >= 2")
    return np.abs(np.asarray(x, float) - np.asarray(y, float)) ** (1.0 / m)


@dataclass(frozen=True)
class SnowflakeSpace:
    """The real line with d(x, y) = |x - y|^(1/m)."""

    m: int

    def __post_init__(self):
        if self.m < 2:
            raise ConstraintViolation("snowflake exponent must be >= 2")

    def distance(self, x, y):
        return snowflake_distance(self.m, x, y)


@dataclass(frozen=True)
class MixedProductSpace:
    """R^2 with d((x1,y1),(x2,y2)) = |x1-x2| + |y1-y2|^(1/m): plain metric
    in the first coordinate, snowflake in the second."""

    m: int

    def __post_init__(self):
        if self.m < 2:
            raise ConstraintViolation("snowflake exponent must be >= 2")

    def distance(self, a, b):
        a = np.asarray(a, float)
        b = np.asarray(b, float)
        return (np.abs(a[..., 0] - b[..., 0])
                + np.abs(a[..., 1] - b[..., 1]) ** (1.0 / self.m))


@dataclass(frozen=True)
class Polynomial:
    """Exact-rational polynomial; coefficients constant-first."""

    coeffs: tuple

    @staticmethod
    def from_coeffs(coeffs: Sequence) -> "Polynomial":
        cs = tuple(Fraction(c) for c in coeffs)
        while len(cs) > 1 and cs[-1] == 0:
            cs = cs[:-1]
        return Polynomial(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for c in reversed(self.coeffs):
            out = out * t + float(c)
        return out

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)


def validate_generator_polynomial(p: Polynomial, m: int) -> None:
    if p.coeffs[0] != 0:
        raise ConstraintViolation("polynomial must vanish at 0")
    if not 1 <= p.degree <= m:
        raise ConstraintViolation(
            f"degree {p.degree} outside [1, {m}]")


@dataclass(frozen=True)
class PolynomialGenerator:
    """V+(x, p, eps, lam): tube of relative aperture lam around the arc
    traced by p over [0, eps]."""

    x: np.ndarray
    p: Polynomial
    eps: float
    lam: float
    m: int

    def __post_init__(self):
        validate_generator_polynomial(self.p, self.m)
        if not self.eps > 0 or not 0 < self.lam < 1:
            raise DegenerateGenerator("need eps > 0 and lam in (0, 1)")


def _golden_min(f: Callable[[float], float], lo: float, hi: float,
                iters: int = 60) -> float:
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    return min(fc, fd)


def _arc_min(point_cost: Callable[[np.ndarray], np.ndarray], eps: float) -> float:
    """Global grid scan plus local golden-section refinement of the arc
    parameter; the mixed metric is not smooth, so the scan comes first."""
    ts = np.linspace(0.0, eps, ARC_GRID)
    vals = point_cost(ts)
    i = int(np.argmin(vals))
    lo = ts[max(i - 1, 0)]
    hi = ts[min(i + 1, ARC_GRID - 1)]
    refined = _golden_min(lambda s: float(point_cost(np.array([s]))[0]), lo, hi)
    return min(float(vals[i]), refined)


def arc_distance_graph(y, x, p: Polynomial, eps: float, m: int) -> float:
    """Mixed-product distance from y to {x + (t, p(t)) : t in [0, eps]}."""
    y = np.asarray(y, float)
    x = np.asarray(x, float)

    def cost(ts):
        return (np.abs(y[0] - x[0] - ts)
                + np.abs(y[1] - x[1] - p(ts)) ** (1.0 / m))

    return _arc_min(cost, eps)


def arc_distance_line(y: float, x: float, p: Polynomial, eps: float, m: int) -> float:
    """Snowflake-line distance from y to {x + p(t) : t in [0, eps]}."""

    def cost(ts):
        return np.abs(y - x - p(ts)) ** (1.0 / m)

    return _arc_min(cost, eps)


Space = Union[SnowflakeSpace, MixedProductSpace]


def polynomial_filter_contains(g: PolynomialGenerator, y, space: Space) -> bool:
    """Membership in V+(x, p, eps, lam); the space argument selects the
    graph reading (mixed product) or the one-dimensional reading
    (snowflake line)."""
    if isinstance(space, MixedProductSpace):
        d_xy = float(space.distance(np.asarray(y, float), np.asarray(g.x, float)))
        if d_xy == 0.0:
            return False
        d_arc = arc_distance_graph(y, g.x, g.p, g.eps, space.m)
    else:
        y0 = float(np.asarray(y, float).reshape(()))
        x0 = float(np.asarray(g.x, float).reshape(()))
        d_xy = float(snowflake_distance(space.m, y0, x0))
        if d_xy == 0.0:
            return False
        d_arc = arc_distance_line(y0, x0, g.p, g.eps, space.m)
    return d_arc < g.lam * d_xy


def _tail_ratios(p1: Polynomial, p2: Polynomial, m: int, x,
                 t0: float, count: int) -> tuple[np.ndarray, np.ndarray, float]:
    """On-arc p1 points t_h = t0 / h and their distance ratios to the p2
    arc (generator horizon twice t0)."""
    x = np.asarray(x, float)
    space = MixedProductSpace(m)
    t_h = t0 / np.arange(1, count + 1, dtype=float)
    seq = np.stack([x[0] + t_h, x[1] + p1(t_h)], axis=-1)
    ratios = np.empty(count)
    for i, y in enumerate(seq):
        d_xy = float(space.distance(y, x))
        ratios[i] = arc_distance_graph(y, x, p2, 2.0 * t0, m) / d_xy
    return seq, ratios, 2.0 * t0


def separate_polynomials(p1, p2, m: int, x=(0.0, 0.0),
                         t0: float = 0.1, count: int = 64):
    """Exactly 'equal' on coefficient-equal pairs; otherwise a finite-scale
    witness: a tail of points on the p1 arc together with a generator of
    the p2 filter whose aperture sits strictly below every observed
    distance ratio, so the whole tail fails membership."""
    p1 = p1 if isinstance(p1, Polynomial) else Polynomial.from_coeffs(p1)
    p2 = p2 if isinstance(p2, Polynomial) else Polynomial.from_coeffs(p2)
    validate_generator_polynomial(p1, m)
    validate_generator_polynomial(p2, m)
    if p1 == p2:
        return "equal"
    seq, ratios, eps0 = _tail_ratios(p1, p2, m, x, t0, count)
    min_ratio = float(ratios.min())
    if min_ratio <= 0.0:
        raise ConstraintViolation(
            "distinct polynomials produced a zero distance ratio")
    lam0 = min(0.9 * min_ratio, 0.99)
    gen = PolynomialGenerator(np.asarray(x, float), p2, eps0, lam0, m)
    space = MixedProductSpace(m)
    verified = all(not polynomial_filter_contains(gen, y, space) for y in seq)
    return {
        "status": "separated",
        "sequence": seq,
        "generator": gen,
        "min_ratio": min_ratio,
        "verified": bool(verified),
    }


@dataclass(frozen=True)
class GraphEmbedding:
    fn: Callable
    lower: float
    upper: float

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return np.stack([x, self.fn(x)], axis=-1)


def graph_embed(f: Callable, m: int = 2, interval=(-1.0, 1.0),
                samples: int = 2000, seed: int = 0,
                cap: float = 1e6) -> GraphEmbedding:
    """g(x) = (x, f(x)) into the mixed product; bi-Lipschitz constants of g
    estimated by sampled difference quotients (lower bound 1 comes from
    the plain first coordinate)."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(interval[0], interval[1], samples)
    b = rng.uniform(interval[0], interval[1], samples)
    keep = np.abs(a - b) > 1e-12
    a, b = a[keep], b[keep]
    fq = np.abs(np.asarray(f(a)) - np.asarray(f(b))) / np.abs(a - b)
    if float(fq.max()) > cap:
        raise NotLipschitz(f"difference quotients exceed {cap:g}")
    space = MixedProductSpace(m)
    g = GraphEmbedding(f, 1.0, 1.0)
    gq = space.distance(g(a), g(b)) / np.abs(a - b)
    return GraphEmbedding(f, max(1.0, float(gq.min())), float(gq.max()))


@dataclass(frozen=True)
class Func1D:
    """One-dimensional map with analytic derivatives, derivs[i] = f^(i+1)."""

    name: str
    fn: Callable
    derivs: tuple

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))

    def taylor_coeffs(self, x: float, order: int) -> np.ndarray:
        """[f'(x), f''(x)/2!, ..., f^(order)(x)/order!] (no constant term)."""
        if order > len(self.derivs):
            raise ConstraintViolation(
                f"{self.name} carries only {len(self.derivs)} derivatives")
        fact = 1.0
        out = []
        for i, d in enumerate(self.derivs[:order], start=1):
            fact *= i
            out.append(float(d(x)) / fact)
        return np.array(out)


def truncated_composition(f: Func1D, x: float, p: Polynomial, m: int) -> np.ndarray:
    """Degree-m truncation of t -> f(x + p(t)) - f(x), constant-first
    coefficients (constant is 0 since p(0) = 0). Ground-truth oracle for
    check_poly_derivable."""
    a = f.taylor_coeffs(x, m)
    pc = np.array([float(c) for c in p.coeffs])
    q = np.zeros(m + 1)
    power = np.array([1.0])  # p^0
    for i, ai in enumerate(a, start=1):
        power = np.convolve(power, pc)[: m + 1]
        q[: len(power)] += ai * power
    return q


def check_poly_derivable(f: Func1D, x: float, p, m: int,
                         t0: float = 0.05, count: int = 24,
                         tol: float = 1e-3) -> dict:
    """Transports on-arc sample points through f in the graph setting and
    compares against the analytic truncation oracle q.

    The image of x + (t, p(t)) under the graph action of f is
    (t, f(x+p(t)) - f(x)); its mixed distance to the q arc is the Taylor
    residual O(t^(m+1)) snowflaked to O(t^(1+1/m)), so the membership
    ratios must shrink toward zero.
    """
    p = p if isinstance(p, Polynomial) else Polynomial.from_coeffs(p)
    validate_generator_polynomial(p, m)
    q = truncated_composition(f, x, p, m)
    if np.max(np.abs(q[1:])) < 1e-12:
        raise TrivialDevelopment(
            f"development of {f.name} at {x} along the arc is trivial")
    q_poly = Polynomial.from_coeffs(
        [Fraction(c).limit_denominator(10 ** 12) for c in np.where(
            np.abs(q) < 1e-15, 0.0, q)])
    space = MixedProductSpace(m)
    t_h = t0 / 2.0 ** np.arange(count, dtype=float)
    origin = np.zeros(2)
    ratios = np.empty(count)
    # image points (t, f(x + p(t)) - f(x)) relative to the image of x
    vals = f(x + p(t_h)) - f(x)
    imgs = np.stack([t_h, vals], axis=-1)
    for i, y in enumerate(imgs):
        d_xy = float(space.distance(y, origin))
        # the image parameter itself gives an exact distance upper bound
        # (the pure Taylor residual); the grid search loses it to the
        # square-root cusp at tiny scales
        at_param = abs(vals[i] - q_poly(t_h[i])) ** (1.0 / m)
        d_arc = min(arc_distance_graph(y, origin, q_poly, 2.0 * t0, m),
                    float(at_param))
        ratios[i] = d_arc / d_xy
    ok = bool(ratios[-1] < tol and ratios[-1] <= ratios[0] + tol)
    return {
        "oracle_coeffs": q,
        "ratios": ratios,
        "matches": ok,
    }


BUILTIN_FUNCS: dict[str, Func1D] = {
    f.name: f for f in [
        Func1D("identity", lambda y: y,
               (lambda y: np.ones_like(np.asarray(y, float)),
                lambda y: np.zeros_like(np.asarray(y, float)),
                lambda y: np.zeros_like(np.asarray(y, float)))),
        Func1D("double", lambda y: 2.0 * y,
               (lambda y: 2.0 * np.ones_like(np.asarray(y, float)),
                lambda y: np.zeros_like(np.asarray(y, float)),
                lambda y: np.zeros_like(np.asarray(y, float)))),
        Func1D("affine_square", lambda y: y + y ** 2,
               (lambda y: 1.0 + 2.0 * np.asarray(y, float),
                lambda y: 2.0 * np.ones_like(np.asarray(y, float)),
                lambda y: np.zeros_like(np.asarray(y, float)))),
        Func1D("cubic", lambda y: y + y ** 3,
               (lambda y: 1.0 + 3.0 * np.asarray(y, float) ** 2,
                lambda y: 6.0 * np.asarray(y, float),
                lambda y: 6.0 * np.ones_like(np.asarray(y, float)))),
        Func1D("sine", np.sin, (np.cos, lambda y: -np.sin(y),
                                lambda y: -np.cos(y))),
        Func1D("expm1", np.expm1, (np.exp, np.exp, np.exp)),
    ]
}


def check_metric_axioms(distance: Callable, sampler: Callable,
                        samples: int, tol: float = 1e-9) -> float:
    """Largest sampled triangle-inequality violation (negative slack)."""
    a, b, c = sampler(samples), sampler(samples), sampler(samples)
    slack = distance(a, b) + distance(b, c) - distance(a, c)
    sym = np.max(np.abs(distance(a, b) - distance(b, a)))
    if sym > tol:
        raise ConstraintViolation(f"distance asymmetric by {sym:.3e}")
    return float(np.minimum(slack, 0.0).min())


def box_counting_dimension(m: int, radii=None, grid: int = 200_000) -> dict:
    """Box-counting estimate of the dimension of [0, 1] under the snowflake
    metric, using only the distance function: greedy ball covering of a
    fine grid, then a slope fit of log N against log(1/r)."""
    sp = SnowflakeSpace(m)
    if radii is None:
        radii = np.array([0.35, 0.3, 0.25, 0.2, 0.15])
    pts = np.linspace(0.0, 1.0, grid)
    counts = []
    for r in radii:
        n = 0
        i = 0
        while i < grid:
            center = pts[i]
            n += 1
            # covered prefix: consecutive points within distance r of center
            j = np.searchsorted(sp.distance(pts[i:], center), r, side="left")
            i += max(int(j), 1)
        counts.append(n)
    logs = np.log(1.0 / radii)
    slope, _ = np.polyfit(logs, np.log(counts), 1)
    return {"radii": radii, "counts": np.array(counts),
            "dimension": float(slope), "grid": grid}
