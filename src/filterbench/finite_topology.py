"""Finite topological spaces and continuous maps.

Open sets are stored as integer bitmasks over point indices 0..n-1; the
canonical form keeps the masks sorted ascending, so equal topologies compare
equal bit-for-bit.

Every point p has a smallest open neighbourhood, the AND of the opens
containing it (Alexandrov 1937).  ``FiniteTopology.hull`` ORs these into
the smallest open containing a point set, and ``pull_table`` takes the
hull of an image.  A filter is stored as such a smallest open (see
filter_algebra), so these two are the whole of its kernel.  The hull
reads byte tables, ``hull_tables``: per run of 8 points, the hull of each
of the run's point sets (256 for a full run), built once per object from
the minimal opens by a low-bit recurrence, so a hull costs one lookup per
8 points (the int-bitset idiom of Warren, Hacker's Delight, 2nd ed.
2012).  ``point_opens`` holds, per point, the opens containing it as an
int bitset over open indices (bit i for ``opens[i]``), built once per
object: ``is_t0`` compares them, and a point's minimal open is its lowest
member.

A map's preimages and pushes depend on its target and image only, not on
its source topology, so ``pull_table`` computes them once into a
``PullTable``: per target open its preimage, and per listed source point
set the hull of its image.  The finite-pushforward sweep
(``suites._pushforward_continuity``) builds one table per (target, image)
over all source point sets and shares it by every source topology; the
CLI's ``check map`` builds one over the source opens.  Both decide
continuity with ``PullTable.preimage_witness`` and Prop 2.6 with
``filter_algebra.check_pushforward_continuity``; a table is the only map
route.  ``PointMap`` holds a map as read from a spec file and validates
its image.  The per-map definitions of preimage, image hull, continuity
and single-filter pushforward, which the tests hold the tables to, live
in ``tests/oracles.py``.

The same correspondence runs the other way in ``enumerate_topologies``:
it picks a minimal open U_p for each point, keeps the transitive choices
(q in U_p implies U_q within U_p), and takes the unions of the U_p as the
opens, yielded in ascending order of the family bitset (bit m for open
m).  It picks the U_p one point at a time and drops a choice as soon as
it breaks transitivity with an earlier point, so of the 2^(n(n-1))
candidates, 4 096 at n = 4, it never builds the ones an early point
rules out.  The guard stays at n <= 4, since n = 5 has 2^20 candidates.
The brute-force oracle, ``suites.bruteforce_topologies``, scans subset
families for closure and shares no code with the enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .errors import (
    IndexOutOfRange,
    MissingEmptyOrFull,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
    SizeLimitExceeded,
)

ENUMERATION_MAX_POINTS = 4


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def set_of(mask: int) -> frozenset[int]:
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


@dataclass(frozen=True)
class FiniteTopology:
    """A topology on points 0..n-1; ``opens`` is the canonical sorted mask tuple."""

    n: int
    opens: tuple[int, ...]

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def open_index(self) -> Mapping[int, int]:
        """Read-only map from an open mask to its index in ``opens``."""
        return MappingProxyType({d: i for i, d in enumerate(self.opens)})

    @cached_property
    def point_opens(self) -> tuple[int, ...]:
        """Per point p, the bitset over open indices of the opens containing p.

        Read as one binary numeral per point, the last open's digit first,
        so the cost is linear in the number of opens."""
        last_first = self.opens[::-1]
        return tuple(int("".join("1" if d >> p & 1 else "0" for d in last_first), 2)
                     for p in range(self.n))

    @cached_property
    def minimal_opens(self) -> tuple[int, ...]:
        """Per point p, the smallest open containing p: a subset of, so as an
        int below, every other open containing p."""
        return tuple(self.opens[(bits & -bits).bit_length() - 1]
                     for bits in self.point_opens)

    @cached_property
    def hull_tables(self) -> tuple[tuple[int, ...], ...]:
        """Per run of 8 points, from point 0 up, the hull of each point set
        within the run: entry v of table j is the OR of the minimal opens of
        the points 8j + i for the bits i of v.  The last run may be shorter,
        and its table has one entry per point set of that run."""
        tables = []
        for start in range(0, self.n, 8):
            minimal = self.minimal_opens[start:start + 8]
            table = [0] * (1 << len(minimal))
            for v in range(1, len(table)):
                low = v & -v
                table[v] = table[v ^ low] | minimal[low.bit_length() - 1]
            tables.append(tuple(table))
        return tuple(tables)

    def hull(self, mask: int) -> int:
        """The smallest open containing the point set ``mask``: the OR of the
        minimal opens of its points, one table lookup per run of 8 points.
        Bits at n and above name no point and are ignored."""
        out = 0
        for table in self.hull_tables:
            out |= table[mask & (len(table) - 1)]
            mask >>= 8
        return out


@dataclass(frozen=True)
class PointMap:
    source: FiniteTopology
    target: FiniteTopology
    image: tuple[int, ...]

    def __post_init__(self):
        if len(self.image) != self.source.n:
            raise IndexOutOfRange("image length does not match source point count")
        for i in self.image:
            if not 0 <= i < self.target.n:
                raise IndexOutOfRange(f"target index {i} out of range")


@dataclass(frozen=True)
class PullTable:
    """What a map into ``target`` pulls back and pushes forward, whatever
    its source topology: per target open, its preimage as a source point
    set, and per listed source point set, the hull of its image."""

    target: FiniteTopology
    preimages: tuple[int, ...]
    pushes: Mapping[int, int]

    def preimage_witness(self, source: FiniteTopology) -> int | None:
        """The first target open whose preimage is not open in ``source``,
        or None: the map from ``source`` is continuous iff this is None."""
        index = source.open_index
        for d, p in zip(self.target.opens, self.preimages):
            if p not in index:
                return d
        return None


def pull_table(target: FiniteTopology, image: tuple[int, ...],
               point_sets: Iterable[int]) -> PullTable:
    """The pull table of the point map with this target and image, pushing
    the source point sets ``point_sets``.  The push of a point set is the
    OR of the minimal opens of its points' images: the hull of its image."""
    preimages = tuple(sum(1 << i for i, fi in enumerate(image) if d >> fi & 1)
                      for d in target.opens)
    minimal = [target.minimal_opens[fi] for fi in image]
    pushes = {}
    for m in point_sets:
        push = 0
        for i, u in enumerate(minimal):
            if m >> i & 1:
                push |= u
        pushes[m] = push
    return PullTable(target, preimages, MappingProxyType(pushes))


def validate_topology(n: int, family: Iterable[Iterable[int]]) -> FiniteTopology:
    """Canonicalize ``family`` into a FiniteTopology or raise a closure witness.

    ``family`` may also contain raw bitmasks.
    """
    masks = set()
    for member in family:
        if isinstance(member, int):
            m = member
        else:
            m = mask_of(member)
        if m >> n:
            raise IndexOutOfRange(f"open set {sorted(set_of(m))} has an index >= {n}")
        masks.add(m)
    return _validate_masks(n, masks)


def _validate_masks(n: int, masks: set[int]) -> FiniteTopology:
    full = (1 << n) - 1
    if 0 not in masks:
        raise MissingEmptyOrFull("the empty set must be open")
    ordered = sorted(masks)
    # closure witnesses are reported before the missing-full-set error, so a
    # family like {empty, {0}, {1}} names the union pair rather than X
    for i, a in enumerate(ordered):
        for b in ordered[i + 1:]:
            if a | b not in masks:
                raise NotClosedUnderUnion(set_of(a), set_of(b))
            if a & b not in masks:
                raise NotClosedUnderIntersection(set_of(a), set_of(b))
    if full not in masks:
        raise MissingEmptyOrFull("the full set must be open")
    return FiniteTopology(n, tuple(ordered))


def is_t0(t: FiniteTopology) -> tuple[bool, tuple[int, int] | None]:
    """True iff the open-neighborhood families of distinct points differ.

    On failure returns an indistinguishable pair (x, y).
    """
    profiles: dict[int, int] = {}
    for x, profile in enumerate(t.point_opens):
        if profile in profiles:
            return False, (profiles[profile], x)
        profiles[profile] = x
    return True, None


def enumerate_topologies(n: int, t0_only: bool = False) -> Iterator[FiniteTopology]:
    """All topologies on n points, in canonical order.

    A finite topology is fixed by the minimal open U_p of each point, and a
    choice of U_p (p in U_p) comes from a topology iff it is transitive:
    q in U_p implies U_q within U_p (Alexandrov 1937; Barmak 2011).  The
    topology is T0 iff the U_p are pairwise distinct.  So the candidates
    are the 2^(n(n-1)) choices of U_0..U_{n-1}, and the opens of a kept
    choice are the unions of the U_p over all 2^n point sets.

    Canonical order is ascending by the family bitset, bit m standing for
    the open m; every family holds the empty and the full set, so this is
    the order of the non-trivial opens' bitset, bit m-1 for open m.

    Refuses n outside 0..4: n = 5 would take 2^20 candidates.
    """
    if n > ENUMERATION_MAX_POINTS:
        raise SizeLimitExceeded(f"enumerate_topologies supports n <= {ENUMERATION_MAX_POINTS}")
    if n < 0:
        raise SizeLimitExceeded(f"enumerate_topologies needs n >= 0, got {n}")
    # choices of U_0..U_p, extended one point at a time: a U_p is dropped
    # as soon as it breaks transitivity with an earlier point q, that is
    # q in U_p but U_q not within U_p, or p in U_q but U_p not within U_q
    partial = [()]
    for p in range(n):
        partial = [u + (up,) for u in partial
                   for up in range(1 << n) if up >> p & 1
                   if not any(up >> q & 1 and uq & ~up or uq >> p & 1 and up & ~uq
                              for q, uq in enumerate(u))]
    found = []
    for u in partial:
        if t0_only and len(set(u)) < n:
            continue
        # unions[s] is the union of U_p over the points p of s
        unions = [0] * (1 << n)
        for s in range(1, 1 << n):
            low = s & -s
            unions[s] = unions[s ^ low] | u[low.bit_length() - 1]
        opens = set(unions)
        found.append((sum(1 << m for m in opens), tuple(sorted(opens))))
    found.sort()
    for _, opens in found:
        yield FiniteTopology(n, opens)
