"""Product spaces, pair filters, composition and uniformities (finite, exact).

A pair on an n-point space is encoded as the index i*n + j; relations are
bitmasks over those n*n indices.  Pair filters reuse IndicatorFilter over the
product topology, so a single axiom checker covers everything.

A pair filter is stored by its minimal open, a relation mask (see
filter_algebra).  A principal pair filter is the filter at the hull of its
relation, composition is the hull of the composed minimal opens, and the
swap looks up the transpose of the minimal open, which is open because the
swap is a homeomorphism.  ``ProductSpace.transposed`` builds that table on
first use, from one ``transpose_mask`` call per open, and keeps it.

Metric-space pair filters (generator-based) live in metric_filters; the
functions here are the exact finite half of the calculus.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import SizeLimitExceeded, TopologyMismatch
from .filter_algebra import (IndicatorFilter, check_filter_axioms,
                             filter_leq, principal_filter)
from .finite_topology import FiniteTopology, set_of

PRODUCT_MAX_POINTS = 4


# --- relation encoding -------------------------------------------------------

def pair_index(n: int, i: int, j: int) -> int:
    return i * n + j


def relation_mask(n: int, pairs: Iterable[tuple[int, int]]) -> int:
    m = 0
    for i, j in pairs:
        m |= 1 << pair_index(n, i, j)
    return m


def relation_pairs(n: int, mask: int) -> frozenset[tuple[int, int]]:
    return frozenset(
        (k // n, k % n) for k in range(n * n) if mask >> k & 1
    )


def transpose_mask(n: int, mask: int) -> int:
    out = 0
    for k in range(n * n):
        if mask >> k & 1:
            i, j = divmod(k, n)
            out |= 1 << pair_index(n, j, i)
    return out


def diagonal_mask(n: int) -> int:
    m = 0
    for i in range(n):
        m |= 1 << pair_index(n, i, i)
    return m


def compose_sets(
    a: Iterable[tuple[int, int]], b: Iterable[tuple[int, int]]
) -> frozenset[tuple[int, int]]:
    """Relational composition {(x,z) : exists y, (x,y) in a, (y,z) in b}."""
    b_by_first: dict[int, set[int]] = {}
    for y, z in b:
        b_by_first.setdefault(y, set()).add(z)
    out = set()
    for x, y in a:
        for z in b_by_first.get(y, ()):
            out.add((x, z))
    return frozenset(out)


def compose_masks(n: int, ra: int, rb: int) -> int:
    """Bitmask relational composition; row i of the result is the union of
    the rb-rows k with (i, k) in ra.

    Bit-parallel, one product per column k: ``column`` has bit i*n set for
    every row i, so ``(ra >> k) & column`` marks the rows i holding (i, k),
    and multiplying it by rb's row k, a number below 2^n, copies that row
    into each marked row's slot without a carry into the next slot
    (Warren, Hacker's Delight, 2nd ed. 2012).  At n = 0 there is no row
    and no pair, and ``column`` would divide by zero.
    """
    if n == 0:
        return 0
    row = (1 << n) - 1
    column = ((1 << n * n) - 1) // row
    out = 0
    for k in range(n):
        out |= ((ra >> k) & column) * ((rb >> k * n) & row)
    return out


# --- product topology --------------------------------------------------------

@dataclass(frozen=True)
class ProductSpace:
    base: FiniteTopology
    topology: FiniteTopology  # on base.n ** 2 points

    @cached_property
    def transposed(self) -> Mapping[int, int]:
        """Read-only map from each open of the square to its transpose, the
        image under the homeomorphism sigma(x, y) = (y, x)."""
        n = self.base.n
        return MappingProxyType({d: transpose_mask(n, d) for d in self.topology.opens})


def product_topology(t: FiniteTopology) -> ProductSpace:
    """Opens of the square: all unions of rectangles A x B with A, B open."""
    n = t.n
    if n > PRODUCT_MAX_POINTS:
        raise SizeLimitExceeded(f"product_topology supports n <= {PRODUCT_MAX_POINTS}")
    rects = set()
    for a in t.opens:
        for b in t.opens:
            rect = 0
            for i in range(n):
                if a >> i & 1:
                    rect |= b << (i * n)
            rects.add(rect)
    # incremental union closure: after processing every rectangle, opens holds
    # exactly the unions of rectangle subsets (intersection-closure follows
    # from the rectangle identity (UAxB) & (UCxD) = U (A&C)x(B&D))
    opens = {0}
    for r in sorted(rects):
        opens |= {s | r for s in opens}
    return ProductSpace(t, FiniteTopology(n * n, tuple(sorted(opens))))


# --- pair filters ------------------------------------------------------------

def principal_pair_filter(ps: ProductSpace, rel_mask: int) -> IndicatorFilter:
    """Filter whose support is every open containing the relation."""
    return principal_filter(ps.topology, rel_mask)


def diagonal_filter(ps: ProductSpace) -> IndicatorFilter:
    """Neighbourhood filter of the diagonal."""
    return principal_pair_filter(ps, diagonal_mask(ps.base.n))


def compose_filters(
    mu: IndicatorFilter, nu: IndicatorFilter, ps: ProductSpace
) -> IndicatorFilter:
    """mu o nu (D) = 1 iff some open pair E, F in the supports has E o F in D.

    Composition is monotone in both arguments, so the minimal opens decide:
    the result is the filter at the hull of their composition.  The
    double-loop definition is kept in compose_filters_bruteforce as the
    oracle.
    """
    if mu.topology != ps.topology or nu.topology != ps.topology:
        raise TopologyMismatch("pair filters must live on the product topology")
    return principal_filter(ps.topology, compose_masks(ps.base.n, mu.base, nu.base))


def compose_filters_bruteforce(
    mu: IndicatorFilter, nu: IndicatorFilter, ps: ProductSpace
) -> IndicatorFilter:
    """Literal double loop over support pairs, read off the value tables;
    independent oracle."""
    n = ps.base.n
    opens = ps.topology.opens
    support_mu = [e for e, v in zip(opens, mu.values) if v]
    support_nu = [f for f, v in zip(opens, nu.values) if v]
    comps = {compose_masks(n, e, f) for e in support_mu for f in support_nu}
    values = tuple(1 if any(d & c == c for c in comps) else 0 for d in opens)
    return check_filter_axioms(ps.topology, values, proper=False)


def swap_pushforward(mu: IndicatorFilter, ps: ProductSpace) -> IndicatorFilter:
    """Pushforward along sigma(x, y) = (y, x); an involution."""
    return IndicatorFilter(ps.topology, ps.transposed[mu.base])


# --- uniformities ------------------------------------------------------------

@dataclass(frozen=True)
class UniformityReport:
    axiom_a: bool
    axiom_a_witness: object
    axiom_b: bool
    axiom_b_witness: object
    axiom_c: bool

    @property
    def is_uniformity(self) -> bool:
        return self.axiom_a and self.axiom_b and self.axiom_c


def _half_composition(mu: IndicatorFilter, n: int) -> tuple[bool, object]:
    """Every D in the support contains some E o E with E in the support.

    By monotonicity of composition, E = m, the minimal open, is the best
    choice, and every D contains m; on a filter m is also the first
    supported open.  So the test is m o m within m, and m is the witness.
    """
    m = mu.base
    if compose_masks(n, m, m) & ~m:
        return False, set_of(m)
    return True, None


def check_uniformity(omega: IndicatorFilter, ps: ProductSpace) -> UniformityReport:
    """Axioms (a) diagonal filter <= omega, decided on the bases, (b) half
    composition and (c) swap symmetry.  The witness of a failed (a) is the
    first open that contains the diagonal and not omega's base."""
    diagonal = diagonal_filter(ps)
    a_ok = filter_leq(diagonal, omega)
    a_wit = None if a_ok else set_of(
        next(d for d in diagonal.support() if d & omega.base != omega.base))
    b_ok, b_wit = _half_composition(omega, ps.base.n)
    c_ok = swap_pushforward(omega, ps).base == omega.base
    return UniformityReport(a_ok, a_wit, b_ok, b_wit, c_ok)

