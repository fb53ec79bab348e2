"""Slow definitions of the finite constructions and of sequence
classification, and the broadcast forms of the flow evaluators and
samplers, which the tests hold the fast routes of ``filterbench`` to.

Each is the construction as the paper states it, evaluated literally:
the closure test of one family of point sets, the opens containing each
point, the filter axioms row by row on one table, the hull of a point set
point by point, the preimage of a target open and the image hull under a
point map, continuity (every target open pulls back to an open), the
pushforward f* mu (D) = mu(f^-1 D) of one filter (Prop 2.6), the B-class
axioms on a [0, 1] table, the B-polytope vertices of ``def:dfiltbc`` by
solving every basis of its rows, and the convergence test of one sequence
against mu_{x,u} (sec:1:step7) with its cones decided by the distance to
their segment.  The translation and rotation evaluators and the orbit and
cone samplers are written as arithmetic broadcast over the coordinate
axis; the package writes them one coordinate at a time, with the same
bits.  No module of the package imports this one, so a fast route cannot
lean on the definition it is checked against;
``tests/test_reachability.py`` holds both directions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from filterbench.errors import (
    DegenerateTerm,
    FilterAxiomViolation,
    NonUnitDirection,
    NotContinuous,
    SizeLimitExceeded,
    TopologyMismatch,
)
from filterbench.filter_algebra import (
    IndicatorFilter,
    _b_polytope_system,
    _violation_message,
)
from filterbench.finite_topology import FiniteTopology, PointMap, set_of
from filterbench.flows import Flow, flow_pair_contains
from filterbench.geometry import angle_between, point_segment_distance, unit
from filterbench.metric_filters import (
    DIR_TOL,
    GENERATOR_GRID,
    ConeGenerator,
    SequenceVerdict,
)

GRADED_TOL = 1e-12
POLYTOPE_BRUTEFORCE_MAX_OPENS = 6


# --- topologies --------------------------------------------------------------

def is_closed_family(n: int, masks: set[int]) -> bool:
    """A family of point sets on n points is a topology: it holds the
    empty and the full set, and every pair of its members has its union
    and its intersection in it."""
    full = (1 << n) - 1
    if 0 not in masks or full not in masks:
        return False
    ordered = list(masks)
    for i, a in enumerate(ordered):
        for b in ordered[i + 1:]:
            if a | b not in masks or a & b not in masks:
                return False
    return True


def point_opens(t: FiniteTopology) -> tuple[int, ...]:
    """Per point p, the sum of 1 << i over the indices i of the opens that
    contain p."""
    return tuple(sum(1 << i for i, d in enumerate(t.opens) if d >> p & 1)
                 for p in range(t.n))


# --- point maps --------------------------------------------------------------

def preimage_mask(f: PointMap, target_mask: int) -> int:
    """f^-1 of the target point set ``target_mask``, as a source point set."""
    m = 0
    for i, fi in enumerate(f.image):
        if target_mask >> fi & 1:
            m |= 1 << i
    return m


def point_hull(t: FiniteTopology, mask: int) -> int:
    """The smallest open containing the point set ``mask``, one point at a
    time: the OR of the minimal opens of its points."""
    out = 0
    for p, m in enumerate(t.minimal_opens):
        if mask >> p & 1:
            out |= m
    return out


def image_hull(f: PointMap, mask: int) -> int:
    """The smallest target open containing the image of the source point
    set ``mask``."""
    image = 0
    for i, fi in enumerate(f.image):
        if mask >> i & 1:
            image |= 1 << fi
    return point_hull(f.target, image)


def is_continuous(f: PointMap) -> tuple[bool, frozenset[int] | None]:
    """True iff the preimage of every target open is a source open; on
    failure the first target open whose preimage is not."""
    for d in f.target.opens:
        if preimage_mask(f, d) not in f.source.open_index:
            return False, set_of(d)
    return True, None


def pushforward(f: PointMap, mu: IndicatorFilter) -> IndicatorFilter:
    """f* mu (A) = mu(f^{-1}(A)); requires a continuous f."""
    ok, witness = is_continuous(f)
    if not ok:
        raise NotContinuous(witness)
    if mu.topology != f.source:
        raise TopologyMismatch("filter does not live on the source topology")
    return IndicatorFilter(f.target, image_hull(f, mu.base))


# --- filter axioms -----------------------------------------------------------

def _raise_first_violation(values, eps, equalities, pairs) -> None:
    """Raise FilterAxiomViolation from the first row, equalities before
    pairs, that values violate by more than eps."""
    for rows, two_sided in ((equalities, True), (pairs, False)):
        for terms, b, axiom, witness in rows:
            excess = -b
            for i, c in terms:
                excess += c * values[i]
            if excess > eps or two_sided and -excess > eps:
                raise FilterAxiomViolation(axiom, witness, _violation_message(axiom, witness))


# --- B-class filters ---------------------------------------------------------

@dataclass(frozen=True)
class GradedFilter:
    topology: FiniteTopology
    values: tuple  # Fractions or floats in [0, 1]


def check_graded_axioms(
    t: FiniteTopology, values: Sequence, proper: bool = True
) -> GradedFilter:
    """Validate a [0,1] table; exact on int and Fraction values, within
    GRADED_TOL otherwise.  Raises FilterAxiomViolation like
    check_filter_axioms: a value outside [0, 1] (NaN included) first, then
    the first equality or pair row violated."""
    values = tuple(values)
    if len(values) != len(t.opens):
        raise TopologyMismatch("assignment length does not match number of opens")
    eps = 0 if all(isinstance(v, (Fraction, int)) for v in values) else GRADED_TOL
    if not all(-v <= eps and v - 1 <= eps for v in values):  # NaN fails both
        raise FilterAxiomViolation("A", None, "values must lie in [0, 1]")
    _raise_first_violation(values, eps, *_b_polytope_system(t, proper))
    return GradedFilter(t, values)


def box_rows(t: FiniteTopology) -> tuple:
    """The rows -v_i <= 0 and v_i <= 1 per open, in the row format of
    ``_b_polytope_system``, tagged "A" with witness None."""
    return tuple(row for i in range(len(t.opens))
                 for row in ((((i, -1),), 0, "A", None), (((i, 1),), 1, "A", None)))


def b_polytope_vertices_bruteforce(
    t: FiniteTopology, proper: bool = True
) -> list[tuple[Fraction, ...]]:
    """Vertices by solving every basis of the row system; the oracle for
    b_polytope_vertices.  A basis solution num / det is kept when
    row . num <= rhs * det on every inequality row, tested in integers.
    C(rows, dim) grows fast, hence the tighter guard."""
    k = len(t.opens)
    if k > POLYTOPE_BRUTEFORCE_MAX_OPENS:
        raise SizeLimitExceeded(
            f"brute-force vertex enumeration supports at most "
            f"{POLYTOPE_BRUTEFORCE_MAX_OPENS} opens")
    equalities, pairs = _b_polytope_system(t, proper)
    ineqs = box_rows(t) + pairs
    vertices: set[tuple[Fraction, ...]] = set()
    for combo in itertools.combinations(ineqs, k - len(equalities)):
        sol = _solve_exact(equalities + combo)
        if sol is None:
            continue
        num, det = sol
        if all(sum([a * num[i] for i, a in terms]) <= b * det
               for terms, b, _, _ in ineqs):
            vertices.add(tuple(Fraction(v, det) for v in num))
    return sorted(vertices)


def _solve_exact(rows):
    """Solve the square system of sparse integer rows, terms . v = rhs.

    Returns (num, det) with v = num / det and det > 0, or None if singular.
    Fraction-free (Bareiss) elimination: every division is exact, and num
    holds the integer Cramer numerators.
    """
    n = len(rows)
    a = []
    for terms, b, *_ in rows:
        row = [0] * n + [b]
        for i, c in terms:
            row[i] += c
        a.append(row)
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        pv = a[col][col]
        tail = a[col][col + 1:]
        for r in range(col + 1, n):  # columns up to col are not read again
            row = a[r]
            f = row[col]
            row[col + 1:] = [(x * pv - f * y) // prev for x, y in zip(row[col + 1:], tail)]
        prev = pv
    # the upper triangle of a is the eliminated system, with det = +-prev;
    # back-substitute the integer Cramer numerators det * v, again with
    # exact divisions only
    det = prev
    num = [0] * n
    for r in range(n - 1, -1, -1):
        row = a[r]
        acc = det * row[n] - sum(row[j] * num[j] for j in range(r + 1, n))
        num[r] = acc // row[r]
    if det < 0:
        return [-v for v in num], -det
    return num, det


# --- sequence classification -------------------------------------------------

def classify_sequence(seq, x, u) -> SequenceVerdict:
    """One sequence seq (n, d) against mu_{x,u}: (i) direct, the sequence
    converges to x and its normalized increments converge to u; (ii)
    generator, its tail lies in V+(x, u, eps, sigma) for each (eps, sigma)
    of GENERATOR_GRID, a point y != x being in the cone when its distance
    to the segment x .. x + eps u is below sigma d(x, y)."""
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

    d_tail = dists[tail]  # nonzero: every term differs from x
    generator_ok = all(
        np.all(point_segment_distance(seq[tail], x, x + eps * u)
               < sigma * d_tail)
        for eps, sigma in GENERATOR_GRID)
    return SequenceVerdict(
        converges_to_point=converges,
        direction_limit=direction_limit,
        matches_filter=direct and generator_ok,
        agreement=direct == generator_ok,
    )


# --- flows and samplers ------------------------------------------------------

def translation(u, t, x):
    """F(t, x) = x + t u, with t broadcast against the leading axes of x."""
    return x + t[..., None] * np.asarray(u, dtype=float)


def rotation(omega, t, x):
    """F(t, x) = R(omega t) x for points x (..., 2)."""
    c, s = np.cos(omega * t), np.sin(omega * t)
    x0, x1 = x[..., 0], x[..., 1]
    return np.stack([x0 * c - x1 * s, x0 * s + x1 * c], axis=-1)


def sample_orbit_members(flow: Flow, x, eps, mu, rng):
    """(y, member, converged): y at a uniform time on [0.2 eps, eps] along
    the orbit of x, moved by 0.25 mu times its distance from x along a
    normal unit direction, and its membership in V+(F, eps, mu)."""
    ts = rng.uniform(0.2 * eps, eps, len(x))
    on_orbit = flow(ts, x)
    d_base = np.linalg.norm(on_orbit - x, axis=-1)
    w = rng.normal(size=x.shape)
    w /= np.maximum(np.linalg.norm(w, axis=-1), 1e-12)[:, None]
    y = on_orbit + (0.25 * mu * d_base)[:, None] * w
    member, converged = flow_pair_contains(flow, eps, mu, x, y)
    return y, member, converged


def sample_cone_members(g: ConeGenerator, n: int, rng):
    """n points x + lam u + 0.3 sigma lam w of V+(x, u, eps, sigma): lam
    uniform on [0.05 eps, eps] and w a normal direction projected off u."""
    lam = rng.uniform(0.05 * g.eps, g.eps, n)
    w = rng.normal(size=(n, len(g.u)))
    w -= (w @ g.u)[:, None] * g.u
    w /= np.maximum(np.linalg.norm(w, axis=-1, keepdims=True), 1e-12)
    r = 0.3 * g.sigma * lam
    return g.x + lam[:, None] * g.u + r[:, None] * w
