"""A-class and B-class filters on a finite topology.

An A-class filter is a 0/1 table over the opens satisfying

    (a) mu(X) = 1
    (b) A subset of B  implies  mu(A) <= mu(B)
    (c) mu(A|B) + mu(A&B) >= mu(A) + mu(B)

B-class filters carry the same axioms with values in [0,1].  Proper mode
(mu(empty) = 0, on by default) excludes the all-ones filter.

The axioms are stated once, as the integer row system of the B-polytope
(``_b_polytope_system``): sparse rows over the open indices, each tagged
with the axiom and the witness it encodes.  ``check_filter_tables``
decides a batch of tables against these rows, one row at a time for the
whole batch: bit j of an int stands for table j, so a row costs a few
big-int operations however many tables there are, and each table keeps
the first row it violates.  Double description cuts the unit cube by the
same rows.  All of it runs in integers; ``Fraction`` is left only at the
boundary, in returned vertices.

On a finite topology a filter's support is intersection-closed and upward
closed, so the filter is principal at its minimal open (Alexandrov 1937;
Barmak 2011).  An ``IndicatorFilter`` stores only that open, ``base``, and
every decision reads bases: the order test is reverse inclusion, canonical
order is descending bases, the filter at a point set is the filter at its
hull, and a pushforward is the hull of the image of ``base``.  The table
``values`` is derived on each access for output, witnesses and oracles.
``check_filter_tables`` is the one way from a table to a filter, and
``check_filter_axioms`` is its one-table call; they and
``enumerate_filters_bruteforce``, which scans every table, stay
independent of the bases.

A family of filters is an int bitset one level up: bit k stands for the
k-th proper filter in canonical order.  The filter-space topology tau^e has
one base set U_D = {mu : mu(D) = 1} per open D, so a family is tau^e-open
iff it is the union of the base sets it contains, and no family needs to be
enumerated.  Pushforward continuity (Prop 2.6) is decided on the base too:
preimages commute with unions, so f* is continuous iff the preimage of
every U_D is open.  The check reads the pushed bases from a
``finite_topology.PullTable``, which the pushforward sweep shares across
source topologies, and also holds each preimage to the definition
f* mu (D) = mu(f^-1 D), that is to U_{f^-1 D}.

B-polytope vertices come from an exact double-description method
(Motzkin; Fukuda & Prodon 1996).

The slow definitions the tests hold these routes to live in
``tests/oracles.py``, outside the package: the axiom rows applied to one
table at a time, the pushforward of one filter along a point map, the
graded (B-class) axiom check and vertex enumeration by solving every basis
(Bareiss 1968).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import (
    FilterAxiomViolation,
    IndexOutOfRange,
    NotContinuous,
    SizeLimitExceeded,
    TopologyMismatch,
    WorkbenchError,
)
from .finite_topology import FiniteTopology, PullTable, is_t0, set_of

POLYTOPE_MAX_OPENS = 8
TOPOLOGY_CACHE_SIZE = 64  # entries of each per-topology cache: tau^e base, axiom rows

# maps the ASCII digits of format(bitset, "b") to the bytes 0 and 1
_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


@dataclass(frozen=True)
class IndicatorFilter:
    """The filter of every open containing ``base``."""
    topology: FiniteTopology
    base: int  # the minimal open of the support

    @property
    def values(self) -> tuple[int, ...]:
        """The 0/1 table over the opens, for output, witnesses and oracles:
        the value on opens[i] is 1 iff that open contains ``base``."""
        k = len(self.topology.opens)
        bitset = (1 << k) - 1  # bit i stands for opens[i]
        for p, containing in enumerate(self.topology.point_opens):
            if self.base >> p & 1:
                bitset &= containing
        digits = format(bitset, f"0{k}b")
        return tuple(digits[::-1].encode().translate(_DIGIT_VALUES))

    def support(self) -> tuple[int, ...]:
        return tuple(d for d in self.topology.opens if d & self.base == self.base)


def principal_filter(t: FiniteTopology, base: int) -> IndicatorFilter:
    """The filter of every open containing the point set ``base``."""
    return IndicatorFilter(t, t.hull(base))


def point_filter(t: FiniteTopology, x: int) -> IndicatorFilter:
    """The filter of open neighborhoods of x: the opens containing x."""
    if not 0 <= x < t.n:
        raise IndexOutOfRange(f"point {x} out of range")
    return principal_filter(t, 1 << x)


@dataclass(frozen=True)
class Refinement:
    topology: FiniteTopology
    assignment: tuple[tuple[IndicatorFilter, ...], ...]  # one tuple per point


def check_filter_tables(
    topology: FiniteTopology, tables: Sequence[Sequence[int]], proper: bool = True
) -> list[IndicatorFilter | WorkbenchError]:
    """Validate a batch of 0/1 assignments in the canonical opens order.
    Per table, the result is its filter, or the error that rejects it:
    TopologyMismatch for a wrong length, else FilterAxiomViolation for a
    value other than 0 and 1 (0.9 or "1" included: nothing is converted),
    else FilterAxiomViolation with the axiom and witness of the first row
    of ``_b_polytope_system`` the table violates.

    Each row is decided for the whole batch at once.  ``cols[i]`` has bit
    j set when table j is 1 on opens[i], so the violators of a B row
    v_a <= v_b are ``cols[a] & ~cols[b]``, and a C row compares the 2-bit
    sums v_a + v_b and v_{a|b} + v_{a&b}, each held as its high bit (the
    AND) and low bit (the XOR) over the batch (Warren, Hacker's Delight,
    2nd ed. 2012).  A row's kind is read from its number of terms."""
    k = len(topology.opens)
    tables = [tuple(values) for values in tables]
    out: list = [None] * len(tables)
    cols = [0] * k
    pending = 0  # the tables no check has rejected yet
    for j, values in enumerate(tables):
        if len(values) != k:
            out[j] = TopologyMismatch("assignment length does not match number of opens")
        elif any(v not in (0, 1) for v in values):
            out[j] = FilterAxiomViolation("A", None, "values must be 0 or 1")
        else:
            bit = 1 << j
            pending |= bit
            for i, v in enumerate(values):
                if v:
                    cols[i] |= bit
    equalities, pairs = _b_polytope_system(topology, proper)
    for terms, rhs, axiom, witness in equalities + pairs:
        if len(terms) == 4:             # v_a + v_b <= v_{a|b} + v_{a&b}
            (a, _), (b, _), (u, _), (m, _) = terms
            hl, ll = cols[a] & cols[b], cols[a] ^ cols[b]
            hr, lr = cols[u] & cols[m], cols[u] ^ cols[m]
            bad = pending & ((hl & ~hr) | (~(hl ^ hr) & ll & ~lr))
        elif len(terms) == 2:           # v_a <= v_b
            (a, _), (b, _) = terms
            bad = pending & cols[a] & ~cols[b]
        else:                           # v_i = rhs
            (i, _), = terms
            bad = pending & (cols[i] if rhs == 0 else ~cols[i])
        if bad:
            pending ^= bad
            while bad:
                low = bad & -bad
                out[low.bit_length() - 1] = FilterAxiomViolation(
                    axiom, witness, _violation_message(axiom, witness))
                bad ^= low
            if not pending:
                break
    while pending:
        low = pending & -pending
        j = low.bit_length() - 1
        # the support is intersection-closed, so its first open is its
        # minimal one
        out[j] = IndicatorFilter(topology, topology.opens[tables[j].index(1)])
        pending ^= low
    return out


def check_filter_axioms(
    topology: FiniteTopology, values: Sequence[int], proper: bool = True
) -> IndicatorFilter:
    """Validate a 0/1 assignment in the canonical opens order; raises
    FilterAxiomViolation with a witness.  Any other value, 0.9 or "1"
    included, is rejected, not converted.  The one-table call of
    ``check_filter_tables``, which is the one way from a table to a
    filter."""
    result, = check_filter_tables(topology, [values], proper)
    if isinstance(result, WorkbenchError):
        raise result
    return result


def enumerate_filters(t: FiniteTopology, proper: bool = True) -> list[IndicatorFilter]:
    """All A-class filters on t, canonical order (ascending value tuples).

    Every filter is principal at its minimal open and distinct opens give
    distinct filters, so the filters are the opens themselves, the empty
    one excluded in proper mode, listed by descending base: for opens a < b
    as ints the tables first differ on the open a (no open below a holds
    either base), where the filter at a is 1 and the one at b, no subset
    of a, is 0.  filter-axioms-n* validates every filter independently;
    the brute-force oracle is enumerate_filters_bruteforce, which the
    tests run.
    """
    return [IndicatorFilter(t, base) for base in reversed(t.opens) if base or not proper]


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
    """mu <= nu iff mu(D) <= nu(D) for every open D (nu is finer), iff the
    base of nu lies in the base of mu."""
    if mu.topology != nu.topology:
        raise TopologyMismatch("filters live on different topologies")
    return not nu.base & ~mu.base


@lru_cache(maxsize=TOPOLOGY_CACHE_SIZE)
def _tau_e_base(t: FiniteTopology) -> tuple[tuple[IndicatorFilter, ...], tuple[int, ...]]:
    """The proper filters of t in canonical order and, per open D of t, the
    base set U_D = {mu : mu(D) = 1} of tau^e as a bitset over them.

    Entries are immutable, so concurrent suite workers may share them."""
    universe = tuple(enumerate_filters(t, proper=True))
    base = tuple(sum(1 << k for k, mu in enumerate(universe) if not mu.base & ~d)
                 for d in t.opens)
    return universe, base


def _tau_e_uncovered(base: Sequence[int], family: int) -> int:
    """The members of a filter family that no base set inside the family
    covers; 0 iff the family is tau^e-open."""
    covered = 0
    for u in base:
        if not u & ~family:
            covered |= u
    return family & ~covered


def check_pushforward_continuity(source: FiniteTopology,
                                 pull: PullTable) -> tuple[bool, object]:
    """Verify that f* pulls every tau^e-open back to a tau^e-open, for the
    map f from ``source`` whose preimages and pushes ``pull`` holds.

    Preimages commute with unions and every tau^e-open is a union of base
    sets U_D, so it suffices that each preimage (f*)^-1(U_D) is open; it
    is read off the pushes, as the source filters whose pushed base lies
    in D.  Then each preimage is held to the definition
    f* mu (D) = mu(f^-1 D), which makes it U_{f^-1 D}: a pushed base lies
    in D iff the base lies in f^-1 D, the right side read from the
    preimage table and the tau^e base, never from a push.

    On failure, which would indicate an engine bug, the witness is the
    first target open D, as a point set, whose preimage is not open, or
    else {"base": ..., "open": D}, the first filter base and target open
    on which the pushes and the definition disagree.
    """
    d = pull.preimage_witness(source)
    if d is not None:
        raise NotContinuous(set_of(d))
    universe, base = _tau_e_base(source)
    pushed = [pull.pushes[mu.base] for mu in universe]
    opens = pull.target.opens
    preimages = []
    for d in opens:
        preimage, bit = 0, 1
        for e in pushed:
            if not e & ~d:
                preimage |= bit
            bit <<= 1
        if _tau_e_uncovered(base, preimage):
            return False, set_of(d)
        preimages.append(preimage)
    index = source.open_index
    for d, p, preimage in zip(opens, pull.preimages, preimages):
        wrong = preimage ^ base[index[p]]
        if wrong:
            mu = universe[(wrong & -wrong).bit_length() - 1]
            return False, {"base": set_of(mu.base), "open": set_of(d)}
    return True, None


# --- B-class filters ---------------------------------------------------------

@lru_cache(maxsize=TOPOLOGY_CACHE_SIZE)
def _b_polytope_system(t: FiniteTopology, proper: bool):
    """The filter axioms as integer rows over the canonical opens order.

    Returns (equalities, pairs), each a tuple of rows
    (((open index, coef), ...), rhs, axiom, witness).  Pair rows mean
    terms . v <= rhs; equality rows fix one coordinate, terms . v = rhs.
    The box 0 <= v_i <= 1 is not a row: check_filter_tables admits only 0
    and 1, and double description starts from the unit cube.

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
    return equalities, tuple(pairs)


def _violation_message(axiom: str, witness) -> str:
    if axiom == "B":
        a, b = witness
        return f"mu({sorted(set_of(a))}) > mu({sorted(set_of(b))})"
    if axiom == "C":
        a, b = witness
        return f"supermodularity fails on {sorted(set_of(a))}, {sorted(set_of(b))}"
    if axiom == "proper":
        return "mu(empty) must be 0 in proper mode"
    return "mu(X) must be 1"


def b_polytope_vertices(t: FiniteTopology, proper: bool = True) -> list[tuple[Fraction, ...]]:
    """Exact vertex enumeration of the B-class polytope by double description.

    Coordinates follow the canonical opens order.  The A-class filters are
    always vertices, and on every topology on at most 4 points with at most
    7 opens they are all of them.  Not so at 8: the discrete 3-point space
    also has the fractional vertex (0, 0, 0, 1/2, 0, 1/2, 1/2, 1), and so
    does every topology whose opens form the same Boolean lattice.

    The equalities fix their coordinates, the unit cube over the free ones
    is the starting polytope, and each pair row cuts the current polytope
    in turn: vertices on the violated side are dropped, and every edge from
    a strictly satisfied vertex to a violated one contributes its crossing
    point.  Two vertices span an edge iff no third vertex is tight on every
    row they share.  The independent oracle, in tests/oracles.py, solves
    every basis of these rows and the cube's box rows.
    """
    k = len(t.opens)
    if k > POLYTOPE_MAX_OPENS:
        raise SizeLimitExceeded(
            f"vertex enumeration supports at most {POLYTOPE_MAX_OPENS} opens")
    equalities, pairs = _b_polytope_system(t, proper)
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


# --- refinements -------------------------------------------------------------

def check_refinement(r: Refinement) -> tuple[bool, object]:
    """Verify the two refinement axioms; witness names the failing
    (x, mu, D), mu by its 0/1 values and D the first open holding x, not mu's base."""
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
            if not filter_leq(px, mu):
                missing = next(d for d in px.support() if d & mu.base != mu.base)
                return False, (x, mu.values, set_of(missing))
            if mu.base == px.base:
                return False, (x, mu.values,
                               "no open distinguishes mu from the point filter")
    return True, None

