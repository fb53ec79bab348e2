"""Snowflake metrics, polynomial filters in the mixed product and their
separation, plus order-m derivability desk-checks.

Polynomial filters live in one setting, the mixed product R x R_m with
d((x1,y1),(x2,y2)) = |x1-x2| + |y1-y2|^(1/m): the arc of p at x is
{x + (t, p(t)) : 0 <= t <= eps}, and a generator's exponent m fixes the
metric. Polynomial coefficients are exact rationals; coefficient equality
is exact. Everything metric is numerical: arc distances come from one
batched kernel, `arc_distances`, over jobs (offsets, p, eps, m). It scans
each job's rows against one shared grid of ARC_GRID arc parameters, then
refines every row's grid minimum by golden-section search on the bracket
around it, in one search for all rows of the jobs that share eps and m.
Each row evaluates its own polynomial by Horner's rule, so a row's
distance is bit-identical to the one its job would get alone.
`separate_polynomials_batch` and `check_poly_derivable_batch` submit all
their items at once, one arc search per exponent and phase;
`separate_polynomials` and `check_poly_derivable` are their one-item
calls. Separation witnesses are finite-scale (a tail
of on-arc points plus a generator whose aperture lies strictly below every
observed distance ratio of that tail).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ConstraintViolation,
    DegenerateGenerator,
    TrivialDevelopment,
)

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
GOLDEN_ITERS = 60
ARC_GRID = 2048
# box counting: ball radii, and points of the grid covered on [0, 1]
BOX_RADII = (0.35, 0.3, 0.25, 0.2, 0.15)
BOX_GRID = 200_000


@dataclass(frozen=True)
class SnowflakeSpace:
    """The real line with d(x, y) = |x - y|^(1/m)."""

    m: int

    def __post_init__(self):
        if self.m < 2:
            raise ConstraintViolation("snowflake exponent must be >= 2")

    def distance(self, x, y):
        return (np.abs(np.asarray(x, float) - np.asarray(y, float))
                ** (1.0 / self.m))


@dataclass(frozen=True)
class MixedProductSpace(SnowflakeSpace):
    """R x R_m, the plane with d((x1,y1),(x2,y2)) = |x1-x2| + |y1-y2|^(1/m):
    plain metric in the first coordinate, snowflake in the second. It
    takes its exponent, and the exponent's check, from SnowflakeSpace."""

    def distance(self, a, b):
        a = np.asarray(a, float)
        b = np.asarray(b, float)
        return (np.abs(a[..., 0] - b[..., 0])
                + np.abs(a[..., 1] - b[..., 1]) ** (1.0 / self.m))

    def offset_distances(self, offsets: np.ndarray) -> np.ndarray:
        """d(x + o, x) = |o1| + |o2|^(1/m) for each row o of (N, 2) offsets,
        one row at a time as scalars: the array power differs in the last
        bit."""
        return np.array([abs(dx) + abs(dy) ** (1.0 / self.m)
                         for dx, dy in offsets])


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
    """Reject an exponent m < 2 (SnowflakeSpace's rule) and a polynomial
    that does not vanish at 0 or whose degree lies outside [1, m]."""
    SnowflakeSpace(m)
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


def _arc_cost(offsets: np.ndarray, ts, pts, m: int) -> np.ndarray:
    """Mixed distance |dx - t| + |dy - p(t)|^(1/m) from offsets (..., 2),
    y - x, to the arc points (ts, pts = p(ts))."""
    return (np.abs(offsets[..., 0] - ts)
            + np.abs(offsets[..., 1] - pts) ** (1.0 / m))


def _horner(coeffs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Each row's polynomial at its own parameter: column i of coeffs
    (K, N), constant-first and zero-padded, at t[i].  Leading zeros keep
    the running value at 0, so each row gets Polynomial.__call__'s bits."""
    out = np.zeros_like(t)
    for c in coeffs[::-1]:
        out = out * t + c
    return out


def _golden_refine(offsets, coeffs, a, b, m: int) -> np.ndarray:
    """Golden-section search of each row's arc cost on its bracket [a, b],
    all rows advancing together; the smaller of the two final probes."""
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc = _arc_cost(offsets, c, _horner(coeffs, c), m)
    fd = _arc_cost(offsets, d, _horner(coeffs, d), m)
    for _ in range(GOLDEN_ITERS):
        # left rows keep [a, d] and probe a new c; the others keep [c, b]
        # and probe a new d
        left = fc < fd
        a = np.where(left, a, c)
        b = np.where(left, d, b)
        kept = np.where(left, c, d)
        f_kept = np.where(left, fc, fd)
        s = np.where(left, b - GOLDEN * (b - a), a + GOLDEN * (b - a))
        fs = _arc_cost(offsets, s, _horner(coeffs, s), m)
        c = np.where(left, s, kept)
        d = np.where(left, kept, s)
        fc = np.where(left, fs, f_kept)
        fd = np.where(left, f_kept, fs)
    return np.minimum(fc, fd)


def _grid_scan(offsets, p: Polynomial, eps: float, m: int):
    """Each row's smallest arc cost over ARC_GRID parameters on [0, eps],
    and the bracket [a, b] of grid neighbours around it.  The (rows,
    ARC_GRID) cost array lives only for this call."""
    ts = np.linspace(0.0, eps, ARC_GRID)
    vals = _arc_cost(offsets[:, None], ts, p(ts), m)
    i = np.argmin(vals, axis=1)
    return (vals[np.arange(len(i)), i], ts[np.maximum(i - 1, 0)],
            ts[np.minimum(i + 1, ARC_GRID - 1)])


def arc_distances(jobs) -> list[np.ndarray]:
    """Mixed-product distances for each job (offsets, p, eps, m): from each
    row of the (N, 2) offsets (y - x) to the arc {x + (t, p(t)) : 0 <= t
    <= eps} of R x R_m.

    The mixed metric is not smooth, so a global grid scan over ARC_GRID
    parameters comes first, one job at a time with p(ts) shared by its
    rows.  Golden-section search then refines the bracket around each row's
    grid minimum, in one search for all rows of the jobs that share eps
    and m.  Every row evaluates its own polynomial, so its distance has
    the bits a batch of its own would give.
    """
    out = [None] * len(jobs)
    searches = {}
    for k, (offsets, p, eps, m) in enumerate(jobs):
        offsets = np.asarray(offsets, float)
        if offsets.ndim != 2 or offsets.shape[1] != 2:
            raise ValueError(f"offsets must be (N, 2), not {offsets.shape}")
        out[k], a, b = _grid_scan(offsets, p, eps, m)
        searches.setdefault((eps, m), []).append(
            (k, offsets, p.float_coeffs, a, b))
    for (_, m), group in searches.items():
        ks, offsets, coeffs, a, b = zip(*group)
        sizes = [len(o) for o in offsets]
        # one zero-padded coefficient column per row
        width = max(map(len, coeffs))
        columns = np.repeat(np.array([c + (0.0,) * (width - len(c))
                                      for c in coeffs]).T, sizes, axis=1)
        refined = _golden_refine(np.concatenate(offsets), columns,
                                 np.concatenate(a), np.concatenate(b), m)
        for k, r in zip(ks, np.split(refined, np.cumsum(sizes)[:-1])):
            out[k] = np.minimum(out[k], r)
    return out


def polynomial_filter_contains(jobs) -> list[np.ndarray]:
    """Membership of each row of ys, (N, 2) points of R x R_m with m = g.m,
    in V+(x, p, eps, lam) for each job (g, ys): y belongs when y != x and
    its distance to the arc of p over [0, eps] at x is below lam d(x, y).
    One arc_distances call serves every job."""
    offsets = [np.asarray(ys, float) - g.x for g, ys in jobs]
    d_arcs = arc_distances([(o, g.p, g.eps, g.m)
                            for o, (g, _) in zip(offsets, jobs)])
    out = []
    for o, d_arc, (g, _) in zip(offsets, d_arcs, jobs):
        d_xy = MixedProductSpace(g.m).offset_distances(o)
        out.append((d_xy != 0.0) & (d_arc < g.lam * d_xy))
    return out


def _tail_ratios(pairs, x, t0: float, count: int):
    """For each (p1, p2, m): on-arc p1 points t_h = t0 / h at x and their
    distance ratios to the p2 arc (generator horizon twice t0)."""
    x = np.asarray(x, float)
    t_h = t0 / np.arange(1, count + 1, dtype=float)
    seqs = [np.stack([x[0] + t_h, x[1] + p1(t_h)], axis=-1)
            for p1, _, _ in pairs]
    d_arcs = arc_distances([(seq - x, p2, 2.0 * t0, m) for seq, (
        _, p2, m) in zip(seqs, pairs)])
    return [(seq, d_arc / MixedProductSpace(m).offset_distances(seq - x))
            for seq, d_arc, (_, _, m) in zip(seqs, d_arcs, pairs)]


def separate_polynomials_batch(pairs) -> list:
    """``separate_polynomials`` for each (p1, p2, m), with one arc search
    per exponent for the tails and one for their membership check."""
    for p1, p2, m in pairs:
        validate_generator_polynomial(p1, m)
        validate_generator_polynomial(p2, m)
    origin = np.zeros(2)
    t0 = 0.1
    out = ["equal" if p1 == p2 else None for p1, p2, _ in pairs]
    distinct = [k for k, o in enumerate(out) if o is None]
    tails = _tail_ratios([pairs[k] for k in distinct], origin, t0, 64)
    for k, (seq, ratios) in zip(distinct, tails):
        min_ratio = float(ratios.min())
        if min_ratio <= 0.0:
            raise ConstraintViolation(
                "distinct polynomials produced a zero distance ratio")
        _, p2, m = pairs[k]
        out[k] = {"status": "separated", "sequence": seq,
                  "generator": PolynomialGenerator(
                      origin, p2, 2.0 * t0, min(0.9 * min_ratio, 0.99), m),
                  "min_ratio": min_ratio}
    # an explicit membership check of each whole tail, not a reuse of ratios
    members = polynomial_filter_contains(
        [(out[k]["generator"], out[k]["sequence"]) for k in distinct])
    for k, member in zip(distinct, members):
        out[k]["verified"] = not bool(member.any())
    return out


def separate_polynomials(p1: Polynomial, p2: Polynomial, m: int):
    """Exactly 'equal' on coefficient-equal pairs; otherwise a finite-scale
    witness: the tail t_h = 0.1 / h (h = 1..64) on the p1 arc at the origin
    with a generator of the p2 filter whose aperture sits strictly below
    every observed distance ratio, so the whole tail fails membership."""
    return separate_polynomials_batch([(p1, p2, m)])[0]


@dataclass(frozen=True)
class Func1D:
    """One-dimensional map with analytic derivatives, derivs[i] = f^(i+1);
    fn takes arrays, each derivative one float."""

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


def check_poly_derivable_batch(jobs) -> list[dict]:
    """``check_poly_derivable`` for each (f, x, p, m), with one arc search
    per exponent for all image points."""
    t0 = 0.05
    t_h = t0 / 2.0 ** np.arange(24, dtype=float)
    out, arcs, bounds = [], [], []
    for f, x, p, m in jobs:
        validate_generator_polynomial(p, m)
        q = truncated_composition(f, x, p, m)
        if np.max(np.abs(q[1:])) < 1e-12:
            raise TrivialDevelopment(
                f"development of {f.name} at {x} along the arc is trivial")
        q_poly = Polynomial.from_coeffs(
            [Fraction(c).limit_denominator(10 ** 12) for c in np.where(
                np.abs(q) < 1e-15, 0.0, q)])
        # image points (t, f(x + p(t)) - f(x)) relative to the image of x
        vals = f(x + p(t_h)) - f(x)
        imgs = np.stack([t_h, vals], axis=-1)
        # the image parameter itself gives an exact distance upper bound
        # (the pure Taylor residual); the grid search loses it to the
        # square-root cusp at tiny scales. Per point, as a scalar, like d_xy.
        at_param = np.array([float(abs(v - q_poly(t)) ** (1.0 / m))
                             for v, t in zip(vals, t_h)])
        out.append({"oracle_coeffs": q})
        arcs.append((imgs, q_poly, 2.0 * t0, m))
        bounds.append((at_param, MixedProductSpace(m).offset_distances(imgs)))
    for o, d_arc, (at_param, d_xy) in zip(out, arc_distances(arcs), bounds):
        ratios = np.minimum(d_arc, at_param) / d_xy
        o["ratios"] = ratios
        o["matches"] = bool(ratios[-1] < 1e-3
                            and ratios[-1] <= ratios[0] + 1e-3)
    return out


def check_poly_derivable(f: Func1D, x: float, p: Polynomial, m: int) -> dict:
    """Transports on-arc sample points through f in the graph setting and
    compares against the analytic truncation oracle q.

    The image of x + (t, p(t)) under the graph action of f is
    (t, f(x+p(t)) - f(x)); its mixed distance to the q arc is the Taylor
    residual O(t^(m+1)) snowflaked to O(t^(1+1/m)), so the membership
    ratios at t = 0.05 / 2^h, h = 0..23, must shrink below 1e-3.
    """
    return check_poly_derivable_batch([(f, x, p, m)])[0]


BUILTIN_FUNCS: dict[str, Func1D] = {
    f.name: f for f in [
        Func1D("identity", lambda y: y,
               (lambda y: 1.0, lambda y: 0.0, lambda y: 0.0)),
        Func1D("double", lambda y: 2.0 * y,
               (lambda y: 2.0, lambda y: 0.0, lambda y: 0.0)),
        Func1D("affine_square", lambda y: y + y ** 2,
               (lambda y: 1.0 + 2.0 * y, lambda y: 2.0, lambda y: 0.0)),
        Func1D("cubic", lambda y: y + y ** 3,
               (lambda y: 1.0 + 3.0 * (y * y), lambda y: 6.0 * y,
                lambda y: 6.0)),
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


def box_counting_dimension(m: int) -> dict:
    """Box-counting estimate of the dimension of [0, 1] under the snowflake
    metric, using only the distance function: greedy ball covering of a
    grid of BOX_GRID points by balls of the BOX_RADII, then a slope fit of
    log N against log(1/r)."""
    sp = SnowflakeSpace(m)
    radii = np.array(BOX_RADII)
    grid = BOX_GRID
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
