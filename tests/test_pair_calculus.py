import dataclasses
import itertools
import random

import pytest

from filterbench import pair_calculus
from filterbench.filter_algebra import (
    IndicatorFilter,
    check_filter_axioms,
    enumerate_filters,
    filter_leq,
)
from filterbench.finite_topology import (
    PointMap,
    enumerate_topologies,
    set_of,
    validate_topology,
)
from filterbench.pair_calculus import (
    check_uniformity,
    compose_filters,
    compose_filters_bruteforce,
    compose_masks,
    compose_sets,
    diagonal_filter,
    diagonal_mask,
    pair_index,
    principal_pair_filter,
    product_topology,
    relation_mask,
    relation_pairs,
    swap_pushforward,
    transpose_mask,
)

from oracles import pushforward
from test_finite_topology import discrete, indiscrete, sierpinski


class TestProductTopology:
    def test_one_point(self):
        ps = product_topology(indiscrete(1))
        assert ps.topology.opens == (0, 1)

    def test_discrete_square_is_discrete(self):
        ps = product_topology(discrete(2))
        assert len(ps.topology.opens) == 16

    def test_sierpinski_square_closure_oracle(self):
        ps = product_topology(sierpinski())
        # independent closure: rectangles closed under union and intersection
        t = sierpinski()
        rects = set()
        for a in t.opens:
            for b in t.opens:
                r = 0
                for i in range(2):
                    if a >> i & 1:
                        r |= b << (i * 2)
                rects.add(r)
        family = set(rects)
        changed = True
        while changed:
            changed = False
            for x in list(family):
                for y in list(family):
                    for z in (x | y, x & y):
                        if z not in family:
                            family.add(z)
                            changed = True
        assert set(ps.topology.opens) == family

    def test_product_is_valid_topology(self):
        for t in (sierpinski(), discrete(2), indiscrete(2)):
            ps = product_topology(t)
            validate_topology(ps.topology.n, ps.topology.opens)


class TestComposeSets:
    def test_single_chain(self):
        assert compose_sets({(0, 1)}, {(1, 2)}) == {(0, 2)}

    def test_empty(self):
        assert compose_sets({(0, 1)}, set()) == frozenset()

    def test_diagonal_identity(self):
        delta = {(i, i) for i in range(3)}
        rel = {(0, 1), (2, 0)}
        assert compose_sets(delta, rel) == rel
        assert compose_sets(rel, delta) == rel

    def test_associativity_exhaustive_small(self):
        rels = [frozenset(s) for s in itertools.chain.from_iterable(
            itertools.combinations(list(itertools.product(range(2), repeat=2)), r)
            for r in range(5)
        )]
        for a in rels:
            for b in rels:
                for c in rels:
                    assert compose_sets(compose_sets(a, b), c) == \
                        compose_sets(a, compose_sets(b, c))

    def test_mask_compose_matches_set_compose(self):
        # every pair of relations for n <= 2 (n = 0 has only the empty one),
        # seeded random pairs for n = 3 and 4
        rng = random.Random(0)
        for n in range(5):
            relations = 1 << n * n
            if n <= 2:
                pairs = itertools.product(range(relations), repeat=2)
            else:
                pairs = [(rng.randrange(relations), rng.randrange(relations))
                         for _ in range(500)]
            for ra, rb in pairs:
                via_mask = relation_pairs(n, compose_masks(n, ra, rb))
                via_sets = compose_sets(relation_pairs(n, ra), relation_pairs(n, rb))
                assert via_mask == via_sets


class TestComposeFilters:
    def test_principal_relation_chain(self):
        t = discrete(3)
        ps = product_topology(t)
        mu = principal_pair_filter(ps, relation_mask(3, [(0, 1)]))
        nu = principal_pair_filter(ps, relation_mask(3, [(1, 2)]))
        out = compose_filters(mu, nu, ps)
        expected = principal_pair_filter(ps, relation_mask(3, [(0, 2)]))
        assert out.values == expected.values

    def test_diagonal_is_identity(self):
        t = discrete(2)
        ps = product_topology(t)
        delta = principal_pair_filter(ps, diagonal_mask(2))
        for bits in range(16):
            mu = principal_pair_filter(ps, bits)
            assert compose_filters(mu, delta, ps).values == mu.values
            assert compose_filters(delta, mu, ps).values == mu.values

    def test_matches_bruteforce_oracle_discrete2(self):
        t = discrete(2)
        ps = product_topology(t)
        for ra in range(16):
            for rb in range(16):
                mu = principal_pair_filter(ps, ra)
                nu = principal_pair_filter(ps, rb)
                fast = compose_filters(mu, nu, ps)
                slow = compose_filters_bruteforce(mu, nu, ps)
                assert fast.values == slow.values

    def test_matches_bruteforce_oracle_sierpinski_square(self):
        ps = product_topology(sierpinski())
        for ra in range(16):
            for rb in range(16):
                mu = principal_pair_filter(ps, ra)
                nu = principal_pair_filter(ps, rb)
                assert compose_filters(mu, nu, ps).values == \
                    compose_filters_bruteforce(mu, nu, ps).values

    def test_diagonal_filter_composition(self):
        t = discrete(2)
        ps = product_topology(t)
        delta = diagonal_filter(ps)
        composed = compose_filters(delta, delta, ps)
        # Omega o Omega >= Omega
        assert all(c >= o for c, o in zip(composed.values, delta.values))

    def test_results_pass_axioms(self):
        t = discrete(2)
        ps = product_topology(t)
        for ra in range(1, 16):
            for rb in range(1, 16):
                mu = principal_pair_filter(ps, ra)
                nu = principal_pair_filter(ps, rb)
                out = compose_filters(mu, nu, ps)
                check_filter_axioms(ps.topology, out.values, proper=False)


class TestSwap:
    def test_involution(self):
        ps = product_topology(sierpinski())
        for bits in range(16):
            mu = principal_pair_filter(ps, bits)
            assert swap_pushforward(swap_pushforward(mu, ps), ps).values == mu.values

    def test_transpose_of_principal(self):
        t = discrete(3)
        ps = product_topology(t)
        r = relation_mask(3, [(0, 1), (2, 2)])
        mu = principal_pair_filter(ps, r)
        expected = principal_pair_filter(ps, transpose_mask(3, r))
        assert swap_pushforward(mu, ps).values == expected.values

    def test_swap_composition_interplay(self):
        # sigma*(mu o nu) = sigma*nu o sigma*mu, exhaustive on discrete 2
        t = discrete(2)
        ps = product_topology(t)
        for ra in range(16):
            for rb in range(16):
                mu = principal_pair_filter(ps, ra)
                nu = principal_pair_filter(ps, rb)
                lhs = swap_pushforward(compose_filters(mu, nu, ps), ps)
                rhs = compose_filters(
                    swap_pushforward(nu, ps), swap_pushforward(mu, ps), ps)
                assert lhs.values == rhs.values


    def test_swap_table_is_built_once(self, monkeypatch):
        ps = product_topology(discrete(2))
        mu = principal_pair_filter(ps, relation_mask(2, [(0, 1)]))
        calls = []

        def counted(n, mask):
            calls.append(mask)
            return transpose_mask(n, mask)

        monkeypatch.setattr(pair_calculus, "transpose_mask", counted)
        swap_pushforward(mu, ps)
        assert len(calls) == len(ps.topology.opens)
        swap_pushforward(mu, ps)
        swap_pushforward(diagonal_filter(ps), ps)
        assert len(calls) == len(ps.topology.opens)


@pytest.mark.parametrize("base", [sierpinski(), discrete(2)],
                         ids=["sierpinski", "discrete2"])
class TestBitsetOracles:
    """The minimal-open routes against set-level and elementwise
    definitions, on every filter of the square."""

    @staticmethod
    def filters(ps):
        return (enumerate_filters(ps.topology, proper=True)
                + enumerate_filters(ps.topology, proper=False))

    def test_swap_matches_pushforward_along_swap_map(self, base):
        ps = product_topology(base)
        n = base.n
        sigma = PointMap(ps.topology, ps.topology, tuple(
            pair_index(n, j, i) for i in range(n) for j in range(n)))
        for mu in self.filters(ps):
            assert swap_pushforward(mu, ps) == pushforward(sigma, mu)

    def test_filter_leq_is_elementwise(self, base):
        ps = product_topology(base)
        universe = self.filters(ps)
        for mu in universe:
            for nu in universe:
                assert filter_leq(mu, nu) == all(
                    a <= b for a, b in zip(mu.values, nu.values))

    def test_values_round_trip(self, base):
        ps = product_topology(base)
        assert [f.name for f in dataclasses.fields(IndicatorFilter)] == \
            ["topology", "base"]
        for mu in self.filters(ps):
            assert len(mu.values) == len(ps.topology.opens)
            assert check_filter_axioms(ps.topology, mu.values,
                                       proper=False) == mu


class TestDiagonalFilter:
    def test_one_point_space(self):
        ps = product_topology(indiscrete(1))
        assert diagonal_filter(ps).values == (0, 1)

    def test_discrete_support(self):
        ps = product_topology(discrete(2))
        delta = diagonal_mask(2)
        for d, v in zip(ps.topology.opens, diagonal_filter(ps).values):
            assert v == (1 if d & delta == delta else 0)

    def test_sierpinski_bruteforce(self):
        ps = product_topology(sierpinski())
        delta = diagonal_mask(2)
        for d, v in zip(ps.topology.opens, diagonal_filter(ps).values):
            assert v == (1 if d & delta == delta else 0)


class TestUniformity:
    def test_principal_diagonal_discrete3(self):
        t = discrete(3)
        ps = product_topology(t)
        omega = diagonal_filter(ps)
        assert check_uniformity(omega, ps).is_uniformity
        assert filter_leq(omega, compose_filters(omega, omega, ps))

    def test_asymmetric_relation_fails_a_and_c(self):
        t = discrete(2)
        ps = product_topology(t)
        r = relation_mask(2, [(0, 1), (0, 0), (1, 1)])
        report = check_uniformity(principal_pair_filter(ps, r), ps)
        # the diagonal itself is open in the discrete square and contains
        # Delta but not (0,1), so (a) fails alongside the symmetry axiom
        assert not report.axiom_a
        assert report.axiom_a_witness == frozenset({0, 3})
        assert not report.axiom_c

    def test_axiom_b_implies_remark(self):
        t = discrete(2)
        ps = product_topology(t)
        for bits in range(1, 16):
            omega = principal_pair_filter(ps, bits)
            if check_uniformity(omega, ps).axiom_b:
                assert filter_leq(omega, compose_filters(omega, omega, ps))


def _half_composition_by_scan(mu, n):
    """Support scan: the first D in the support not containing m o m."""
    m = mu.base
    mm = compose_masks(n, m, m)
    for d in mu.support():
        if d & mm != mm:
            return False, set_of(d)
    return True, None


def _diagonal_axiom_by_scan(omega, diagonal):
    """Table scan: the first open where the diagonal filter is 1 and omega
    is 0."""
    for d, dv, ov in zip(omega.topology.opens, diagonal.values, omega.values):
        if dv and not ov:
            return False, set_of(d)
    return True, None


def test_half_composition_matches_support_scan():
    # every principal pair filter over the square of every topology on at
    # most 3 points, against the scan of the whole support for axiom (b)
    # and of the value tables for axiom (a)
    count = 0
    for n in (1, 2, 3):
        for t in enumerate_topologies(n):
            ps = product_topology(t)
            diagonal = diagonal_filter(ps)
            for r in range(1 << n * n):
                omega = principal_pair_filter(ps, r)
                ok, witness = _half_composition_by_scan(omega, n)
                report = check_uniformity(omega, ps)
                assert (report.axiom_b, report.axiom_b_witness) == (ok, witness)
                assert (report.axiom_a, report.axiom_a_witness) == \
                    _diagonal_axiom_by_scan(omega, diagonal)
                count += 1
    assert count == 14_914



class TestCommutation:
    def test_known_counterexample(self):
        ps = product_topology(discrete(3))
        mu = principal_pair_filter(ps, relation_mask(3, [(0, 1)]))
        nu = principal_pair_filter(ps, relation_mask(3, [(1, 0)]))
        # R o S = {(0,0)}, S o R = {(1,1)}: composition does not commute
        assert compose_filters(mu, nu, ps) == principal_pair_filter(
            ps, relation_mask(3, [(0, 0)]))
        assert compose_filters(nu, mu, ps) == principal_pair_filter(
            ps, relation_mask(3, [(1, 1)]))
