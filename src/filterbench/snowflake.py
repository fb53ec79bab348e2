"""Snowflake metrics, mixed product metrics, polynomial filters and their
separation, plus order-m derivability desk-checks.

Polynomial coefficients are exact rationals; coefficient equality is exact.
Everything metric is numerical: arc distances come from one row-batched
kernel, `arc_distances`. It scans all rows against one shared grid of
ARC_GRID arc parameters, in blocks of ARC_ROWS rows, then refines each
row's grid minimum by golden-section search on the bracket around it, all
rows advancing together. Separation witnesses are finite-scale (a tail of
on-arc points plus a generator whose aperture lies strictly below every
observed distance ratio of that tail).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
GOLDEN_ITERS = 60
ARC_GRID = 2048
# rows per kernel block: one (ARC_ROWS, ARC_GRID) float64 temporary is 1 MiB
ARC_ROWS = 64


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

    @cached_property
    def float_coeffs(self) -> tuple[float, ...]:
        """The coefficients as floats, constant-first, converted once."""
        return tuple(float(c) for c in self.coeffs)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for c in reversed(self.float_coeffs):
            out = out * t + c
        return out


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


def _arc_cost(offsets: np.ndarray, p: Polynomial, ts, m: int,
              graph: bool) -> np.ndarray:
    """Distance from offsets y - x to the arc points at parameters ts: the
    mixed distance |dx - t| + |dy - p(t)|^(1/m) for graph offsets (..., 2),
    the snowflake distance |dy - p(t)|^(1/m) for line offsets."""
    if graph:
        return (np.abs(offsets[..., 0] - ts)
                + np.abs(offsets[..., 1] - p(ts)) ** (1.0 / m))
    return np.abs(offsets - p(ts)) ** (1.0 / m)


def _arc_block(offsets: np.ndarray, p: Polynomial, ts: np.ndarray, m: int,
               graph: bool) -> np.ndarray:
    """One block of arc_distances: grid scan, then golden-section
    refinement of every row's bracket at once."""
    # each row against the whole grid, as one (rows, ARC_GRID) array
    vals = _arc_cost(offsets[:, None], p, ts, m, graph)
    i = np.argmin(vals, axis=1)
    best = vals[np.arange(len(i)), i]
    a = ts[np.maximum(i - 1, 0)]
    b = ts[np.minimum(i + 1, ARC_GRID - 1)]
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc = _arc_cost(offsets, p, c, m, graph)
    fd = _arc_cost(offsets, p, d, m, graph)
    for _ in range(GOLDEN_ITERS):
        # left rows keep [a, d] and probe a new c; the others keep [c, b]
        # and probe a new d
        left = fc < fd
        a = np.where(left, a, c)
        b = np.where(left, d, b)
        kept = np.where(left, c, d)
        f_kept = np.where(left, fc, fd)
        s = np.where(left, b - GOLDEN * (b - a), a + GOLDEN * (b - a))
        fs = _arc_cost(offsets, p, s, m, graph)
        c = np.where(left, s, kept)
        d = np.where(left, kept, s)
        fc = np.where(left, fs, f_kept)
        fd = np.where(left, f_kept, fs)
    return np.minimum(best, np.minimum(fc, fd))


def arc_distances(offsets, p: Polynomial, eps: float, m: int) -> np.ndarray:
    """Distance from each row of offsets (y - x) to the arc traced by p
    over [0, eps]: (N, 2) offsets in the mixed product, where the arc is
    {x + (t, p(t))}, or (N,) offsets on the snowflake line, where it is
    {x + p(t)}.

    The mixed metric is not smooth, so a global grid scan over ARC_GRID
    parameters comes first; golden-section search then refines the
    bracket around each row's grid minimum.
    """
    offsets = np.asarray(offsets, float)
    graph = offsets.ndim == 2
    if not (offsets.ndim == 1 or graph and offsets.shape[1] == 2):
        raise ValueError(
            f"offsets must be (N, 2) or (N,), not {offsets.shape}")
    ts = np.linspace(0.0, eps, ARC_GRID)
    out = np.empty(len(offsets))
    for lo in range(0, len(offsets), ARC_ROWS):
        out[lo:lo + ARC_ROWS] = _arc_block(offsets[lo:lo + ARC_ROWS], p, ts,
                                           m, graph)
    return out


Space = Union[SnowflakeSpace, MixedProductSpace]


def polynomial_filter_contains(g: PolynomialGenerator, y,
                               space: Space) -> bool | np.ndarray:
    """Membership in V+(x, p, eps, lam); the space argument selects the
    graph reading (mixed product) or the one-dimensional reading
    (snowflake line).

    y is one point, giving a bool, or a batch, giving a bool array: (N, 2)
    points in the mixed product, (N,) on the line.
    """
    y = np.asarray(y, float)
    if isinstance(space, MixedProductSpace):
        x = np.asarray(g.x, float)
        single = y.ndim == 1
        rows = y.reshape(-1, 2)
        # per point, as a scalar: the array power differs in the last bit
        d_xy = np.array([float(space.distance(r, x)) for r in rows])
    else:
        x = float(np.asarray(g.x, float).reshape(()))
        single = y.ndim == 0
        rows = y.reshape(-1)
        d_xy = np.array([float(snowflake_distance(space.m, float(r), x))
                         for r in rows])
    d_arc = arc_distances(rows - x, g.p, g.eps, space.m)
    member = (d_xy != 0.0) & (d_arc < g.lam * d_xy)
    return bool(member[0]) if single else member


def _tail_ratios(p1: Polynomial, p2: Polynomial, m: int, x,
                 t0: float, count: int) -> tuple[np.ndarray, np.ndarray, float]:
    """On-arc p1 points t_h = t0 / h and their distance ratios to the p2
    arc (generator horizon twice t0)."""
    x = np.asarray(x, float)
    space = MixedProductSpace(m)
    t_h = t0 / np.arange(1, count + 1, dtype=float)
    seq = np.stack([x[0] + t_h, x[1] + p1(t_h)], axis=-1)
    d_xy = np.array([float(space.distance(y, x)) for y in seq])
    ratios = arc_distances(seq - x, p2, 2.0 * t0, m) / d_xy
    return seq, ratios, 2.0 * t0


def separate_polynomials(p1, p2, m: int):
    """Exactly 'equal' on coefficient-equal pairs; otherwise a finite-scale
    witness: the tail t_h = 0.1 / h (h = 1..64) on the p1 arc at the origin
    with a generator of the p2 filter whose aperture sits strictly below
    every observed distance ratio, so the whole tail fails membership."""
    p1 = p1 if isinstance(p1, Polynomial) else Polynomial.from_coeffs(p1)
    p2 = p2 if isinstance(p2, Polynomial) else Polynomial.from_coeffs(p2)
    validate_generator_polynomial(p1, m)
    validate_generator_polynomial(p2, m)
    if p1 == p2:
        return "equal"
    origin = np.zeros(2)
    seq, ratios, eps0 = _tail_ratios(p1, p2, m, origin, 0.1, 64)
    min_ratio = float(ratios.min())
    if min_ratio <= 0.0:
        raise ConstraintViolation(
            "distinct polynomials produced a zero distance ratio")
    lam0 = min(0.9 * min_ratio, 0.99)
    gen = PolynomialGenerator(origin, p2, eps0, lam0, m)
    space = MixedProductSpace(m)
    # an explicit membership check of the whole tail, not a reuse of ratios
    verified = not polynomial_filter_contains(gen, seq, space).any()
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


def graph_embed(f: Callable, interval=(-1.0, 1.0)) -> GraphEmbedding:
    """g(x) = (x, f(x)) into the mixed product of exponent 2; bi-Lipschitz
    constants of g estimated by difference quotients of 2000 seeded pairs
    (lower bound 1 comes from the plain first coordinate)."""
    rng = np.random.default_rng(0)
    a = rng.uniform(interval[0], interval[1], 2000)
    b = rng.uniform(interval[0], interval[1], 2000)
    keep = np.abs(a - b) > 1e-12
    a, b = a[keep], b[keep]
    fq = np.abs(np.asarray(f(a)) - np.asarray(f(b))) / np.abs(a - b)
    if float(fq.max()) > 1e6:
        raise NotLipschitz("difference quotients exceed 1e+06")
    space = MixedProductSpace(2)
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
    pc = np.array(p.float_coeffs)
    q = np.zeros(m + 1)
    power = np.array([1.0])  # p^0
    for i, ai in enumerate(a, start=1):
        power = np.convolve(power, pc)[: m + 1]
        q[: len(power)] += ai * power
    return q


def check_poly_derivable(f: Func1D, x: float, p, m: int) -> dict:
    """Transports on-arc sample points through f in the graph setting and
    compares against the analytic truncation oracle q.

    The image of x + (t, p(t)) under the graph action of f is
    (t, f(x+p(t)) - f(x)); its mixed distance to the q arc is the Taylor
    residual O(t^(m+1)) snowflaked to O(t^(1+1/m)), so the membership
    ratios at t = 0.05 / 2^h, h = 0..23, must shrink below 1e-3.
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
    t0 = 0.05
    t_h = t0 / 2.0 ** np.arange(24, dtype=float)
    origin = np.zeros(2)
    # image points (t, f(x + p(t)) - f(x)) relative to the image of x
    vals = f(x + p(t_h)) - f(x)
    imgs = np.stack([t_h, vals], axis=-1)
    d_xy = np.array([float(space.distance(y, origin)) for y in imgs])
    # the image parameter itself gives an exact distance upper bound (the
    # pure Taylor residual); the grid search loses it to the square-root
    # cusp at tiny scales. Per point, as a scalar, like d_xy.
    at_param = np.array([float(abs(v - q_poly(t)) ** (1.0 / m))
                         for v, t in zip(vals, t_h)])
    d_arc = np.minimum(arc_distances(imgs - origin, q_poly, 2.0 * t0, m),
                       at_param)
    ratios = d_arc / d_xy
    ok = bool(ratios[-1] < 1e-3 and ratios[-1] <= ratios[0] + 1e-3)
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
                        samples: int) -> float:
    """Largest sampled triangle-inequality violation (negative slack)."""
    a, b, c = sampler(samples), sampler(samples), sampler(samples)
    slack = distance(a, b) + distance(b, c) - distance(a, c)
    sym = np.max(np.abs(distance(a, b) - distance(b, a)))
    if sym > 1e-9:
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
        # a ball of radius r spans about r^m (grid - 1) grid steps; the
        # window doubles only while the whole window lies inside the ball
        w = int(r ** m * (grid - 1)) + 2
        n = 0
        i = 0
        while i < grid:
            center = pts[i]
            n += 1
            # covered prefix: consecutive points within distance r of center
            while True:
                j = int(np.searchsorted(sp.distance(pts[i:i + w], center), r,
                                        side="left"))
                if j < w or i + w >= grid:
                    break
                w *= 2
            i += max(j, 1)
        counts.append(n)
    logs = np.log(1.0 / radii)
    slope, _ = np.polyfit(logs, np.log(counts), 1)
    return {"radii": radii, "counts": np.array(counts),
            "dimension": float(slope), "grid": grid}
