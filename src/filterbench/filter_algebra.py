"""A-class and B-class filters on a finite topology.

An A-class filter is a 0/1 table over the opens satisfying

    (a) mu(X) = 1
    (b) A subset of B  implies  mu(A) <= mu(B)
    (c) mu(A|B) + mu(A&B) >= mu(A) + mu(B)

B-class filters carry the same axioms with values in [0,1].  Proper mode
(mu(empty) = 0, on by default) excludes the all-ones filter.

The axioms are stated once, as the integer row system of the B-polytope
(``_b_polytope_system``): sparse rows over the open indices, each tagged
with the axiom and the witness it encodes.  Both checkers raise from the
first row a table violates; double description and the basis-enumeration
oracle read the same rows.  All of it runs in integers; ``Fraction`` is
left only at the boundary, in returned vertices and graded values.

An ``IndicatorFilter`` stores its table as one int bitset: bit i is the
value on ``opens[i]``.  ``values`` is a read-only tuple view of it for JSON
and callers that index by position.  On that encoding the order test is a
subset test, a principal filter is the AND of the per-point masks
``FiniteTopology.point_opens``, and a pushforward is a gather through the
map's cached preimage index map.  The set-level routes
(``enumerate_filters_bruteforce``, ``b_polytope_vertices_bruteforce``)
stay as independent oracles.

B-polytope vertices come from an exact double-description method
(Motzkin; Fukuda & Prodon 1996); the oracle solves every basis by
fraction-free elimination (Bareiss 1968).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, Sequence

from .errors import (
    FilterAxiomViolation,
    IndexOutOfRange,
    NotContinuous,
    SizeLimitExceeded,
    TopologyMismatch,
    WeightSumInvalid,
)
from .finite_topology import (
    FiniteTopology,
    PointMap,
    is_continuous,
    is_t0,
    set_of,
)

ENUMERATION_MAX_OPENS = 20
GRADED_TOL = 1e-12
POLYTOPE_MAX_OPENS = 8
POLYTOPE_BRUTEFORCE_MAX_OPENS = 6
TOPOLOGY_CACHE_SIZE = 64  # entries of each per-topology cache: tau^e, axiom rows

# maps the ASCII digits of format(bits, "b") to the bytes 0 and 1
_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


@dataclass(frozen=True, repr=False)
class IndicatorFilter:
    topology: FiniteTopology
    bits: int  # bit i is the value on topology.opens[i]

    @classmethod
    def from_values(cls, topology: FiniteTopology, values: Sequence[int]) -> "IndicatorFilter":
        """Build from a 0/1 table in the canonical opens order; any other
        value, 0.9 or "1" included, is rejected, not converted."""
        bits = 0
        for i, v in enumerate(values):
            if v not in (0, 1):
                raise FilterAxiomViolation("A", None, "values must be 0 or 1")
            if v:
                bits |= 1 << i
        return cls(topology, bits)

    @property
    def values(self) -> tuple[int, ...]:
        """The 0/1 table over the opens, as a tuple view of ``bits``."""
        digits = format(self.bits, f"0{len(self.topology.opens)}b")
        return tuple(digits[::-1].encode().translate(_DIGIT_VALUES))

    def __repr__(self) -> str:
        return f"IndicatorFilter(topology={self.topology!r}, values={self.values!r})"

    def __call__(self, mask: int) -> int:
        return self.bits >> self.topology.open_index[mask] & 1

    def support(self) -> tuple[int, ...]:
        return tuple(d for i, d in enumerate(self.topology.opens) if self.bits >> i & 1)

    def minimal_support_mask(self) -> int:
        """Intersection of the support; lies in the support (axiom (c)).

        A point lies in every supported open iff the support is a subset of
        the opens containing that point."""
        m = 0
        for p, containing in enumerate(self.topology.point_opens):
            if not self.bits & ~containing:
                m |= 1 << p
        return m


def principal_filter(t: FiniteTopology, base: int) -> IndicatorFilter:
    """The filter of every open containing the point set ``base``."""
    bits = (1 << len(t.opens)) - 1
    point_opens = t.point_opens
    while base:
        low = base & -base
        bits &= point_opens[low.bit_length() - 1]
        base ^= low
    return IndicatorFilter(t, bits)


def point_filter(t: FiniteTopology, x: int) -> IndicatorFilter:
    """The filter of open neighborhoods of x: the opens containing x."""
    if not 0 <= x < t.n:
        raise IndexOutOfRange(f"point {x} out of range")
    return principal_filter(t, 1 << x)


@dataclass(frozen=True)
class GradedFilter:
    topology: FiniteTopology
    values: tuple  # Fractions or floats in [0, 1]


@dataclass(frozen=True)
class Refinement:
    topology: FiniteTopology
    assignment: tuple[tuple[IndicatorFilter, ...], ...]  # one tuple per point


def check_filter_axioms(
    topology: FiniteTopology, values: Sequence[int], proper: bool = True
) -> IndicatorFilter:
    """Validate a 0/1 assignment; raises FilterAxiomViolation with a witness."""
    values = tuple(values)
    if len(values) != len(topology.opens):
        raise TopologyMismatch("assignment length does not match number of opens")
    mu = IndicatorFilter.from_values(topology, values)  # 0/1 values meet the box rows
    _, equalities, pairs = _b_polytope_system(topology, proper)
    _raise_first_violation(mu.values, 0, (), equalities, pairs)
    return mu


def pushforward(f: PointMap, mu: IndicatorFilter) -> IndicatorFilter:
    """f* mu (A) = mu(f^{-1}(A)); requires a continuous f."""
    ok, witness = is_continuous(f)
    if not ok:
        raise NotContinuous(witness)
    if mu.topology != f.source:
        raise TopologyMismatch("filter does not live on the source topology")
    return IndicatorFilter(f.target, f.pushforward_bits(mu.bits))


def enumerate_filters(t: FiniteTopology, proper: bool = True) -> list[IndicatorFilter]:
    """All A-class filters on t, canonical order (ascending value tuples).

    On a finite topology the support of a filter is intersection-closed and
    upward closed, hence principal at its minimal member; candidates are the
    principal filters of each open set, and distinct opens have distinct
    principal filters.  The filter-axioms-n* suite checks validate every
    filter independently; the brute-force oracle is
    enumerate_filters_bruteforce.
    """
    if len(t.opens) > ENUMERATION_MAX_OPENS:
        raise SizeLimitExceeded(f"too many opens ({len(t.opens)} > {ENUMERATION_MAX_OPENS})")
    out = [principal_filter(t, base) for base in t.opens if base or not proper]
    out.sort(key=lambda mu: mu.values)
    return out


def enumerate_filters_bruteforce(t: FiniteTopology, proper: bool = True) -> list[IndicatorFilter]:
    """Scan all 2^|opens| assignments; ground-truth oracle for enumerate_filters."""
    k = len(t.opens)
    if k > 16:
        raise SizeLimitExceeded("brute-force filter enumeration supports at most 16 opens")
    out = []
    for bits in range(1 << k):
        values = tuple(bits >> i & 1 for i in range(k))
        try:
            out.append(check_filter_axioms(t, values, proper=proper))
        except FilterAxiomViolation:
            continue
    out.sort(key=lambda mu: mu.values)
    return out


def filter_leq(mu: IndicatorFilter, nu: IndicatorFilter) -> bool:
    """mu <= nu iff mu(D) <= nu(D) for every open D (nu is finer)."""
    if mu.topology != nu.topology:
        raise TopologyMismatch("filters live on different topologies")
    return not mu.bits & ~nu.bits


def is_open_in_tau_e(
    V: Sequence[IndicatorFilter], universe: Sequence[IndicatorFilter]
) -> tuple[bool, IndicatorFilter | None]:
    """Openness in the filter-space topology; witness is a mu without a separating D."""
    members = {mu.bits for mu in V}
    for mu in V:
        found = False
        for i in range(len(mu.topology.opens)):
            if not mu.bits >> i & 1:
                continue
            if all(nu.bits in members for nu in universe if nu.bits >> i & 1):
                found = True
                break
        if not found:
            return False, mu
    return True, None


def tau_e_opens(universe: Sequence[IndicatorFilter]) -> list[frozenset[int]]:
    """Every tau^e-open subset of the universe, as index sets, canonical order."""
    k = len(universe)
    if k > 12:
        raise SizeLimitExceeded("tau^e enumeration supports at most 12 filters")
    out = []
    for bits in range(1 << k):
        idx = frozenset(i for i in range(k) if bits >> i & 1)
        if is_open_in_tau_e([universe[i] for i in idx], universe)[0]:
            out.append(idx)
    return out


@dataclass(frozen=True)
class _TauE:
    universe: tuple[IndicatorFilter, ...]   # proper filters, canonical order
    index: Mapping[int, int]                # filter bits -> universe index
    opens: tuple[frozenset[int], ...]       # tau^e-opens, canonical order
    open_set: frozenset[frozenset[int]]


@lru_cache(maxsize=TOPOLOGY_CACHE_SIZE)
def _tau_e_structure(t: FiniteTopology) -> _TauE:
    """Filter universe and tau^e-opens of t, shared by every map touching t.

    Entries are immutable, so concurrent suite workers may share them."""
    universe = tuple(enumerate_filters(t, proper=True))
    opens = tuple(tau_e_opens(universe))
    return _TauE(universe,
                 MappingProxyType({mu.bits: i for i, mu in enumerate(universe)}),
                 opens, frozenset(opens))


def check_pushforward_continuity(f: PointMap) -> tuple[bool, frozenset[int] | None]:
    """Exhaustively verify that f* pulls tau^e-opens back to tau^e-opens.

    The witness (on failure, which would indicate an engine bug) is the index
    set of the offending target-side open.
    """
    ok, witness = is_continuous(f)
    if not ok:
        raise NotContinuous(witness)
    source = _tau_e_structure(f.source)
    target = _tau_e_structure(f.target)
    push = [target.index[f.pushforward_bits(mu.bits)] for mu in source.universe]
    for v_prime in target.opens:
        preimage = frozenset(i for i, j in enumerate(push) if j in v_prime)
        if preimage not in source.open_set:
            return False, v_prime
    return True, None


# --- B-class filters ---------------------------------------------------------

def check_graded_axioms(
    t: FiniteTopology, values: Sequence, proper: bool = True
) -> GradedFilter:
    """Validate a [0,1] table; exact on int and Fraction values, within
    GRADED_TOL otherwise.  Raises FilterAxiomViolation like
    check_filter_axioms."""
    values = tuple(values)
    if len(values) != len(t.opens):
        raise TopologyMismatch("assignment length does not match number of opens")
    exact = all(isinstance(v, (Fraction, int)) for v in values)
    if any(v != v for v in values):  # NaN fails every row comparison
        raise FilterAxiomViolation("A", None, _violation_message("A", None))
    _raise_first_violation(values, 0 if exact else GRADED_TOL,
                           *_b_polytope_system(t, proper))
    return GradedFilter(t, values)


def convex_combine(filters: Sequence, weights: Sequence) -> GradedFilter:
    """Pointwise convex combination of B-class (or A-class) filters."""
    if not filters:
        raise WeightSumInvalid("need at least one filter")
    t = filters[0].topology
    if any(g.topology != t for g in filters):
        raise TopologyMismatch("filters live on different topologies")
    exact = all(
        isinstance(w, (Fraction, int)) for w in weights
    ) and all(all(isinstance(v, (Fraction, int)) for v in g.values) for g in filters)
    weights = [Fraction(w) if exact else float(w) for w in weights]
    if not all(math.isfinite(w) for w in weights):
        raise WeightSumInvalid(f"weights must be finite, got {weights}")
    total = sum(weights)
    if any(w < 0 for w in weights) or abs(total - 1) > 1e-12:
        raise WeightSumInvalid(f"weights must be nonnegative and sum to 1, got {total}")
    if len(weights) != len(filters):
        raise WeightSumInvalid("one weight per filter required")
    values = tuple(
        sum(w * g.values[i] for w, g in zip(weights, filters))
        for i in range(len(t.opens))
    )
    return check_graded_axioms(t, values)


@lru_cache(maxsize=TOPOLOGY_CACHE_SIZE)
def _b_polytope_system(t: FiniteTopology, proper: bool):
    """The filter axioms as integer rows over the canonical opens order.

    Returns (box, equalities, pairs), each a tuple of rows
    (((open index, coef), ...), rhs, axiom, witness).  Box and pair rows
    mean terms . v <= rhs; equality rows fix one coordinate, terms . v = rhs.

    - box: 0 <= v_i <= 1, tagged "A" with witness None;
    - equalities: mu(X) = 1 ("A", X) and, in proper mode, mu(empty) = 0
      ("proper", 0);
    - pairs, for each pair a < b of opens: v_a - v_b <= 0 ("B", (a, b))
      when a is a subset of b, else v_a + v_b - v_{a|b} - v_{a&b} <= 0
      ("C", (a, b)); nested pairs have a zero supermodularity row.

    Opens ascend as ints, so b is never a proper subset of a.  Rows are
    immutable, so concurrent suite workers may share them.
    """
    opens = t.opens
    index = t.open_index
    box = tuple(row for i in range(len(opens))
                for row in ((((i, -1),), 0, "A", None), (((i, 1),), 1, "A", None)))
    equalities = ((((index[t.full_mask], 1),), 1, "A", t.full_mask),)
    if proper:
        equalities += ((((index[0], 1),), 0, "proper", 0),)
    pairs = []
    for i, a in enumerate(opens):
        for j in range(i + 1, len(opens)):
            b = opens[j]
            if a & b == a:
                pairs.append((((i, 1), (j, -1)), 0, "B", (a, b)))
            else:
                pairs.append((((i, 1), (j, 1), (index[a | b], -1), (index[a & b], -1)),
                              0, "C", (a, b)))
    return box, equalities, tuple(pairs)


def _raise_first_violation(values, eps, box, equalities, pairs) -> None:
    """Raise FilterAxiomViolation from the first row, in the order box,
    equalities, pairs, that values violate by more than eps."""
    for rows, two_sided in ((box, False), (equalities, True), (pairs, False)):
        for terms, b, axiom, witness in rows:
            excess = -b
            for i, c in terms:
                excess += c * values[i]
            if excess > eps or two_sided and -excess > eps:
                raise FilterAxiomViolation(axiom, witness, _violation_message(axiom, witness))


def _violation_message(axiom: str, witness) -> str:
    if axiom == "B":
        a, b = witness
        return f"mu({sorted(set_of(a))}) > mu({sorted(set_of(b))})"
    if axiom == "C":
        a, b = witness
        return f"supermodularity fails on {sorted(set_of(a))}, {sorted(set_of(b))}"
    if axiom == "proper":
        return "mu(empty) must be 0 in proper mode"
    return "values must lie in [0, 1]" if witness is None else "mu(X) must be 1"


def b_polytope_vertices(t: FiniteTopology, proper: bool = True) -> list[tuple[Fraction, ...]]:
    """Exact vertex enumeration of the B-class polytope by double description.

    Coordinates follow the canonical opens order.  The A-class filters are
    always vertices, and on every topology on at most 4 points with at most
    7 opens they are all of them.  Not so at 8: the discrete 3-point space
    also has the fractional vertex (0, 0, 0, 1/2, 0, 1/2, 1/2, 1), and so
    does every topology whose opens form the same Boolean lattice.

    The equalities fix their coordinates, the box rows give the starting
    polytope over the free ones, and each pair row cuts the current polytope
    in turn: vertices on the violated side are dropped, and every edge from
    a strictly satisfied vertex to a violated one contributes its crossing
    point.  Two vertices span an edge iff no third vertex is tight on every
    row they share.  b_polytope_vertices_bruteforce is the independent
    oracle.
    """
    k = len(t.opens)
    if k > POLYTOPE_MAX_OPENS:
        raise SizeLimitExceeded(
            f"vertex enumeration supports at most {POLYTOPE_MAX_OPENS} opens")
    _, equalities, pairs = _b_polytope_system(t, proper)
    fixed: dict[int, int] = {}
    for ((i, _),), b, _, _ in equalities:
        if fixed.setdefault(i, b) != b:
            return []                         # n = 0: X is empty, so mu(X) = 1 = 0
    free = [i for i in range(k) if i not in fixed]
    d = len(free)
    # box vertices, fixed coordinates in place; tight-set bit 2j is
    # x_free[j] >= 0, bit 2j+1 is x_free[j] <= 1
    vertices = []
    for corner in itertools.product((0, 1), repeat=d):
        x = {**fixed, **dict(zip(free, corner))}
        vertices.append((tuple(x[i] for i in range(k)),
                         sum(1 << (2 * j + c) for j, c in enumerate(corner))))
    for c, (terms, b, _, _) in enumerate(pairs, start=2 * d):
        bit = 1 << c
        slack = [sum(a * x[i] for i, a in terms) - b for x, _ in vertices]
        kept = [(x, tight | bit if s == 0 else tight)
                for (x, tight), s in zip(vertices, slack) if s <= 0]
        inside = [(v, s) for v, s in zip(vertices, slack) if s < 0]
        outside = [(v, s) for v, s in zip(vertices, slack) if s > 0]
        for (u, tu), su in inside:
            for (w, tw), sw in outside:
                common = tu & tw
                if common.bit_count() < d - 1:
                    continue
                if any(tz & common == common and z is not u and z is not w
                       for z, tz in vertices):
                    continue
                lam = Fraction(su, su - sw)
                kept.append((tuple(ui + lam * (wi - ui) for ui, wi in zip(u, w)),
                             common | bit))
        vertices = kept
        if not vertices:
            return []
    return sorted(tuple(Fraction(v) for v in x) for x, _ in vertices)


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
    box, equalities, pairs = _b_polytope_system(t, proper)
    ineqs = box + pairs
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


# --- refinements and derivability --------------------------------------------


def check_refinement(r: Refinement) -> tuple[bool, object]:
    """Verify the two refinement axioms; witness names the failing (x, mu, D)."""
    t = r.topology
    ok, pair = is_t0(t)
    if not ok:
        return False, ("not T0", pair)
    if len(r.assignment) != t.n:
        return False, ("assignment size mismatch", None)
    for x in range(t.n):
        members = r.assignment[x]
        if not members:
            return False, ("empty assignment", x)
        px = point_filter(t, x)
        for mu in members:
            if mu.topology != t:
                return False, ("topology mismatch", x)
            missing = px.bits & ~mu.bits
            if missing:
                return False, (x, mu, set_of(t.first_open(missing)))
            if mu.bits == px.bits:
                return False, (x, mu, "no open distinguishes mu from the point filter")
    return True, None


def check_derivable(
    f: PointMap, r: Refinement, r2: Refinement
) -> tuple[bool, object]:
    """True iff f* maps every member of r(x) into r2(f(x))."""
    ok, witness = is_continuous(f)
    if not ok:
        raise NotContinuous(witness)
    if any(mu.topology != f.source for members in r.assignment for mu in members):
        raise TopologyMismatch("filter does not live on the source topology")
    for x in range(f.source.n):
        targets = {mu.bits for mu in r2.assignment[f.image[x]]}
        for mu in r.assignment[x]:
            if f.pushforward_bits(mu.bits) not in targets:
                return False, (x, mu)
    return True, None


def refinement_candidates(t: FiniteTopology) -> list[list[IndicatorFilter]]:
    """Per point, the proper filters strictly finer than the point filter."""
    universe = enumerate_filters(t, proper=True)
    out = []
    for x in range(t.n):
        px = point_filter(t, x)
        out.append(
            [mu for mu in universe if filter_leq(px, mu) and mu.bits != px.bits]
        )
    return out


def search_refinement(t: FiniteTopology) -> dict:
    """Search report: which points admit strictly finer filters, and whether
    the space admits any refinement at all (every finite T0 space has a point
    with an empty candidate set, and the report documents it)."""
    candidates = refinement_candidates(t)
    empty_points = [x for x, c in enumerate(candidates) if not c]
    return {
        "candidates_per_point": [len(c) for c in candidates],
        "points_without_candidates": empty_points,
        "admits_refinement": not empty_points,
    }
