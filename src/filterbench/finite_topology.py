"""Finite topological spaces and continuous maps.

Open sets are stored as integer bitmasks over point indices 0..n-1; the
canonical form keeps the masks sorted ascending, so equal topologies compare
equal bit-for-bit.

A family of opens is an int bitset over open indices: bit i stands for
``opens[i]``.  Filters use this encoding (see filter_algebra), and the
tables that serve it are built lazily, once per object, and then reused:
``FiniteTopology.point_opens`` holds, per point, the bitset of opens
containing it, and ``PointMap.pushforward_bits`` gathers a source bitset
through the preimage index map ``PointMap.open_preimages``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence

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


def _gather_bits(src_of: Sequence[int], width: int) -> Callable[[int], int]:
    """The map taking a ``width``-bit set to the set whose bit j is bit
    ``src_of[j]`` of the input, run as one C-level string gather."""
    # format() writes bit i at position width-1-i, and int(..., 2) reads the
    # picked characters back most significant first
    pick = operator.itemgetter(*[width - 1 - i for i in reversed(src_of)])
    spec = f"0{width}b"
    return lambda bits: int("".join(pick(format(bits, spec))), 2)


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
        """Per point p, the bitset over open indices of the opens containing p."""
        return tuple(
            sum(1 << i for i, d in enumerate(self.opens) if d >> p & 1)
            for p in range(self.n)
        )

    def first_open(self, bits: int) -> int:
        """The open of a nonempty open-index bitset that comes first in
        canonical order."""
        return self.opens[(bits & -bits).bit_length() - 1]


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

    def preimage_mask(self, target_mask: int) -> int:
        m = 0
        for i, fi in enumerate(self.image):
            if target_mask >> fi & 1:
                m |= 1 << i
        return m

    @cached_property
    def open_preimages(self) -> tuple[int | None, ...]:
        """Per target open, the index of its preimage among the source opens,
        or None where the preimage is not open."""
        index = self.source.open_index
        return tuple(index.get(self.preimage_mask(d)) for d in self.target.opens)

    @cached_property
    def pushforward_bits(self) -> Callable[[int], int]:
        """Source open-index bitset -> target bitset, bit j taken from the
        preimage of ``target.opens[j]``; needs a continuous map."""
        return _gather_bits(self.open_preimages, len(self.source.opens))


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


def is_closed_family(n: int, masks: set[int]) -> bool:
    """Closure predicate without witness construction; used by brute-force oracles."""
    full = (1 << n) - 1
    if 0 not in masks or full not in masks:
        return False
    ordered = list(masks)
    for i, a in enumerate(ordered):
        for b in ordered[i + 1:]:
            if a | b not in masks or a & b not in masks:
                return False
    return True


def is_t0(t: FiniteTopology) -> tuple[bool, tuple[int, int] | None]:
    """True iff the open-neighborhood families of distinct points differ.

    On failure returns an indistinguishable pair (x, y).
    """
    profiles: dict[tuple[bool, ...], int] = {}
    for x in range(t.n):
        profile = tuple(bool(d >> x & 1) for d in t.opens)
        if profile in profiles:
            return False, (profiles[profile], x)
        profiles[profile] = x
    return True, None


def is_continuous(f: PointMap) -> tuple[bool, frozenset[int] | None]:
    """True iff the preimage of every target open is a source open."""
    for d, i in zip(f.target.opens, f.open_preimages):
        if i is None:
            return False, set_of(d)
    return True, None


def enumerate_topologies(n: int, t0_only: bool = False) -> Iterator[FiniteTopology]:
    """All topologies on n points, deterministic canonical order.

    Brute force over every subset-family containing the empty and full set;
    refuses n > 4 (the family count grows as 2^(2^n)).
    """
    if n > ENUMERATION_MAX_POINTS:
        raise SizeLimitExceeded(f"enumerate_topologies supports n <= {ENUMERATION_MAX_POINTS}")
    full = (1 << n) - 1
    # subsets other than the mandatory empty/full masks
    optional = [m for m in range(full + 1) if m not in (0, full)]
    k = len(optional)
    for pick in range(1 << k):
        masks = {0, full}
        for j in range(k):
            if pick >> j & 1:
                masks.add(optional[j])
        if not is_closed_family(n, masks):
            continue
        t = FiniteTopology(n, tuple(sorted(masks)))
        if t0_only and not is_t0(t)[0]:
            continue
        yield t
