import dataclasses
import functools
import itertools
from fractions import Fraction

import pytest

from filterbench.errors import (
    FilterAxiomViolation,
    NotContinuous,
    SizeLimitExceeded,
    TopologyMismatch,
)
from filterbench.filter_algebra import (
    _b_polytope_system,
    _tau_e_base,
    _tau_e_uncovered,
    b_polytope_vertices,
    check_filter_axioms,
    check_pushforward_continuity,
    check_refinement,
    enumerate_filters,
    enumerate_filters_bruteforce,
    filter_leq,
    Refinement,
    point_filter,
)
from filterbench.finite_topology import (
    PointMap,
    enumerate_topologies,
    pull_table,
    validate_topology,
)

from oracles import (
    GRADED_TOL,
    POLYTOPE_BRUTEFORCE_MAX_OPENS,
    GradedFilter,
    _solve_exact,
    b_polytope_vertices_bruteforce,
    box_rows,
    check_graded_axioms,
    image_hull,
    is_continuous,
    pushforward,
)
from test_finite_topology import discrete, indiscrete, sierpinski


class TestAxioms:
    def test_point_filters_valid(self):
        t = sierpinski()
        assert check_filter_axioms(t, (0, 1, 1)).values == point_filter(t, 1).values
        assert check_filter_axioms(t, (0, 0, 1)).values == point_filter(t, 0).values

    def test_monotonicity_witness(self):
        with pytest.raises(FilterAxiomViolation) as exc:
            check_filter_axioms(sierpinski(), (1, 0, 1), proper=False)
        assert exc.value.axiom == "B"
        assert exc.value.witness == (0, 0b10)

    def test_axiom_a(self):
        with pytest.raises(FilterAxiomViolation) as exc:
            check_filter_axioms(sierpinski(), (0, 0, 0))
        assert exc.value.axiom == "A"

    def test_proper_mode(self):
        with pytest.raises(FilterAxiomViolation) as exc:
            check_filter_axioms(sierpinski(), (1, 1, 1))
        assert exc.value.axiom == "proper"
        # improper all-ones accepted with the flag off
        mu = check_filter_axioms(sierpinski(), (1, 1, 1), proper=False)
        assert mu.support() == sierpinski().opens


class TestSupport:
    def test_sierpinski_points(self):
        t = sierpinski()
        assert point_filter(t, 1).support() == (0b10, 0b11)
        assert point_filter(t, 0).support() == (0b11,)

    def test_improper_support_is_classical_filter(self):
        t = sierpinski()
        mu = check_filter_axioms(t, (1, 1, 1), proper=False)
        s = set(mu.support())
        assert t.full_mask in s
        for a in s:
            for b in t.opens:
                if a & b == a:
                    assert b in s
        for a in s:
            for b in s:
                assert a & b in s

    def test_prop_abc_every_filter_small_spaces(self):
        for n in (1, 2, 3):
            for t in enumerate_topologies(n):
                for mu in enumerate_filters(t, proper=True):
                    s = set(mu.support())
                    assert t.full_mask in s
                    for a in s:
                        for b in t.opens:
                            if a & b == a and b not in s:
                                pytest.fail("upward closure broken")
                    for a in s:
                        for b in s:
                            assert a & b in s


class TestEnumerateFilters:
    def test_sierpinski_exactly_point_filters(self):
        t = sierpinski()
        got = {mu.values for mu in enumerate_filters(t, proper=True)}
        assert got == {(0, 0, 1), (0, 1, 1)}

    def test_indiscrete_single_filter(self):
        got = enumerate_filters(indiscrete(2), proper=True)
        assert len(got) == 1
        assert got[0].values == (0, 1)

    def test_matches_bruteforce_oracle(self):
        for n in (1, 2, 3):
            for t in enumerate_topologies(n):
                for proper in (True, False):
                    fast = [mu.values for mu in enumerate_filters(t, proper)]
                    slow = [mu.values for mu in enumerate_filters_bruteforce(t, proper)]
                    assert fast == slow, (t, proper)


class TestPushforward:
    def test_identity(self):
        t = sierpinski()
        f = PointMap(t, t, (0, 1))
        for mu in enumerate_filters(t):
            assert pushforward(f, mu).values == mu.values

    def test_constant_map_gives_point_filter(self):
        s, t = discrete(3), sierpinski()
        f = PointMap(s, t, (0, 0, 0))
        for mu in enumerate_filters(s, proper=True):
            assert pushforward(f, mu).values == point_filter(t, 0).values

    def test_collapse_to_open_point(self):
        t = sierpinski()
        f = PointMap(t, t, (1, 1))
        assert pushforward(f, point_filter(t, 0)).values == point_filter(t, 1).values

    def test_point_filter_extension(self):
        # f* o(x) = o(f(x)) for every continuous map on <= 2-point spaces
        tops = list(enumerate_topologies(2, t0_only=True))
        for s in tops:
            for t in tops:
                for image in itertools.product(range(t.n), repeat=s.n):
                    f = PointMap(s, t, image)
                    if not is_continuous(f)[0]:
                        continue
                    for x in range(s.n):
                        assert pushforward(f, point_filter(s, x)).values == \
                            point_filter(t, image[x]).values

    def test_functoriality_sampled(self):
        s = discrete(2)
        t = sierpinski()
        f = PointMap(s, t, (0, 1))
        g = PointMap(t, t, (0, 1))
        gf = PointMap(s, t, (0, 1))
        for mu in enumerate_filters(s):
            assert pushforward(gf, mu).values == pushforward(g, pushforward(f, mu)).values


class TestOrder:
    def test_partial_order_small_spaces(self):
        for t in enumerate_topologies(2):
            universe = enumerate_filters(t)
            for mu in universe:
                assert filter_leq(mu, mu)
            for mu in universe:
                for nu in universe:
                    if filter_leq(mu, nu) and filter_leq(nu, mu):
                        assert mu.values == nu.values
                    for rho in universe:
                        if filter_leq(mu, nu) and filter_leq(nu, rho):
                            assert filter_leq(mu, rho)

    def test_sierpinski_comparison(self):
        t = sierpinski()
        assert filter_leq(point_filter(t, 0), point_filter(t, 1))
        assert not filter_leq(point_filter(t, 1), point_filter(t, 0))


def _tau_e_opens_by_definition(t):
    """The tau^e-opens of t, as bitsets over its proper filters, by scanning
    every family: V is open iff each member mu has an open D with
    mu(D) = 1 whose filters all lie in V."""
    tables = [mu.values for mu in enumerate_filters(t)]

    def inside(family, d):
        return all(family >> j & 1
                   for j, table in enumerate(tables) if table[d])

    return {family for family in range(1 << len(tables))
            if all(any(inside(family, d)
                       for d in range(len(t.opens)) if table[d])
                   for i, table in enumerate(tables) if family >> i & 1)}


def _union_closure(base):
    closure = {0}
    for u in base:
        closure |= {v | u for v in closure}
    return closure


def _pull(f):
    """The pull table of the map f over its source opens, as the CLI builds it."""
    return pull_table(f.target, f.image, f.source.opens)


def _continuous_maps(a, b):
    """The maps of the finite-pushforward suite from a to b points."""
    for src in enumerate_topologies(a, t0_only=True):
        for tgt in enumerate_topologies(b, t0_only=True):
            for image in itertools.product(range(b), repeat=a):
                f = PointMap(src, tgt, image)
                if is_continuous(f)[0]:
                    yield f


class TestTauE:
    def test_universe_and_empty_open(self):
        universe, base = _tau_e_base(sierpinski())
        assert _tau_e_uncovered(base, (1 << len(universe)) - 1) == 0
        assert _tau_e_uncovered(base, 0) == 0

    def test_singleton_open_point(self):
        t = sierpinski()
        universe, base = _tau_e_base(t)
        o1 = 1 << universe.index(point_filter(t, 1))
        assert _tau_e_uncovered(base, o1) == 0
        # o(0) alone is not open: the only D with o(0)(D)=1 is X, shared by o(1)
        o0 = 1 << universe.index(point_filter(t, 0))
        assert _tau_e_uncovered(base, o0) == o0

    def test_tau_e_forms_topology(self):
        for n in (1, 2, 3):
            for t in enumerate_topologies(n, t0_only=True):
                universe, base = _tau_e_base(t)
                opens = _union_closure(base)
                assert 0 in opens
                assert (1 << len(universe)) - 1 in opens
                for a in opens:
                    for b in opens:
                        assert a | b in opens
                        assert a & b in opens

    def test_base_matches_definition(self):
        for n in (1, 2, 3):
            for t in enumerate_topologies(n, t0_only=True):
                universe, base = _tau_e_base(t)
                opens = _tau_e_opens_by_definition(t)
                assert opens == _union_closure(base)
                for family in range(1 << len(universe)):
                    uncovered = _tau_e_uncovered(base, family)
                    assert (uncovered == 0) == (family in opens)
                    assert not uncovered & ~family

    def test_pushforward_continuity_identity(self):
        t = sierpinski()
        assert check_pushforward_continuity(t, _pull(PointMap(t, t, (0, 1))))[0]

    def test_pushforward_continuity_constant(self):
        s = discrete(2)
        t = sierpinski()
        assert check_pushforward_continuity(s, _pull(PointMap(s, t, (0, 0))))[0]

    @pytest.mark.parametrize("reverse", [False, True],
                             ids=["pushforward", "reversed-pushforward"])
    def test_verdict_matches_all_opens_check(self, reverse):
        """On every map of the finite-pushforward suite, and with f* followed
        by the reversal of the target's filter order (a map on filters that
        is mostly not continuous), the tau^e verdict equals that of pulling
        back every tau^e-open of the definition.  A tau^e failure names a
        target open; pushes that pass it and differ from f* fail next, on
        the definition, with a {"base", "open"} witness."""
        opens_of = functools.cache(_tau_e_opens_by_definition)
        verdicts = set()
        for a, b in itertools.product((1, 2, 3), repeat=2):
            for f in _continuous_maps(a, b):
                sources = enumerate_filters(f.source)
                targets = enumerate_filters(f.target)
                index = {nu.base: j for j, nu in enumerate(targets)}
                push = [index[image_hull(f, mu.base)] for mu in sources]
                true_push = push
                pull = _pull(f)
                if reverse:
                    push = [len(targets) - 1 - j for j in push]
                    pull = dataclasses.replace(pull, pushes={
                        mu.base: targets[j].base
                        for mu, j in zip(sources, push)})
                expected = all(
                    sum(1 << i for i, j in enumerate(push) if w >> j & 1)
                    in opens_of(f.source)
                    for w in opens_of(f.target))
                ok, witness = check_pushforward_continuity(f.source, pull)
                assert (ok or isinstance(witness, dict)) == expected
                assert ok == (expected and push == true_push)
                verdicts.add(expected)
        assert verdicts == ({True, False} if reverse else {True})

    def test_complemented_pushforward_fails(self):
        # complementing point 0 in each pushed base exchanges o(0) (base X)
        # and o(1) (base {1}), so the preimage of U_{1} = {o(1)} is {o(0)},
        # not open
        t = sierpinski()
        pull = _pull(PointMap(t, t, (0, 1)))
        pull = dataclasses.replace(pull, pushes={
            m: e ^ 0b01 for m, e in pull.pushes.items()})
        assert check_pushforward_continuity(t, pull) == (False, frozenset({1}))

    def test_push_outside_the_target_lies_in_no_preimage(self):
        # each source point set pushed to itself, as under the identity-push
        # control, along the constant map from the discrete 2-point space to
        # the one-point space: the pushes of the bases {1} and {0, 1} name
        # point 1, which the target lacks, so they lie in no preimage, and
        # the preimage of {0} is not U_X
        s, t = discrete(2), validate_topology(1, [[], [0]])
        pull = dataclasses.replace(_pull(PointMap(s, t, (0, 0))),
                                   pushes={m: m for m in s.opens})
        assert check_pushforward_continuity(s, pull) \
            == (False, {"base": {0, 1}, "open": {0}})


class TestGraded:
    def test_nan_entry_fails_axiom_a(self):
        with pytest.raises(FilterAxiomViolation) as e:
            check_graded_axioms(sierpinski(), (0.0, float("nan"), 1.0))
        assert e.value.axiom == "A"


class TestGradedTolerance:
    def test_float_table_within_tol_of_a_filter_passes(self):
        t = discrete(2)
        for proper in (True, False):
            for mu in enumerate_filters(t, proper):
                noisy = tuple(v + s * GRADED_TOL / 8
                              for v, s in zip(mu.values, (1, -1, -1, 1)))
                assert check_graded_axioms(t, noisy, proper) == GradedFilter(t, noisy)

    @pytest.mark.parametrize("proper, i, axiom, witness", [
        (False, 0, "B", (0, 0b10)),      # mu(empty) above mu({1})
        (True, 2, "C", (0b01, 0b10)),    # mu({0}) + mu({1}) above mu(X)
    ], ids=["monotonicity", "supermodularity"])
    def test_breach_by_twice_tol_matches_exact_counterpart(
            self, proper, i, axiom, witness):
        t = discrete(2)
        base = point_filter(t, 0).values  # (0, 1, 0, 1)

        def bumped(delta):
            return tuple(v + delta * (j == i) for j, v in enumerate(base))

        with pytest.raises(FilterAxiomViolation) as exact:
            check_graded_axioms(t, bumped(Fraction(1, 2)), proper)
        with pytest.raises(FilterAxiomViolation) as near:
            check_graded_axioms(t, bumped(2 * GRADED_TOL), proper)
        assert (near.value.axiom, near.value.witness) == (axiom, witness)
        assert (exact.value.axiom, exact.value.witness) == (axiom, witness)


class TestBPolytope:
    def test_sierpinski_vertices_are_proper_a_filters(self):
        t = sierpinski()
        vertices = b_polytope_vertices(t, proper=True)
        expected = sorted(
            tuple(Fraction(v) for v in mu.values) for mu in enumerate_filters(t)
        )
        assert vertices == expected

    def test_indiscrete_vertices(self):
        t = indiscrete(2)
        vertices = b_polytope_vertices(t, proper=True)
        assert vertices == [(Fraction(0), Fraction(1))]

    def test_double_description_matches_bruteforce(self):
        # every topology on <= 3 points with <= 5 opens, and the 6-open
        # topology of the benchmark's polytope batch
        tops = [t for n in (1, 2, 3) for t in enumerate_topologies(n)
                if len(t.opens) <= 5]
        tops.append(validate_topology(3, [0, 1, 2, 3, 5, 7]))
        for t in tops:
            for proper in (True, False):
                assert b_polytope_vertices(t, proper) == \
                    b_polytope_vertices_bruteforce(t, proper), (t.opens, proper)

    def test_guards(self):
        with pytest.raises(SizeLimitExceeded):
            # a chain of 7 opens on 6 points
            k = POLYTOPE_BRUTEFORCE_MAX_OPENS
            b_polytope_vertices_bruteforce(
                validate_topology(k, [(1 << i) - 1 for i in range(k + 1)]))
        with pytest.raises(SizeLimitExceeded):
            b_polytope_vertices(discrete(4))

    def test_vertices_are_a_filters_except_on_boolean_lattices(self):
        # exhaustive within the guard: every topology on <= 4 points with
        # <= 8 opens, in both modes
        exceptions = set()
        for n in (1, 2, 3, 4):
            for t in enumerate_topologies(n):
                if len(t.opens) > 8:
                    continue
                for proper in (True, False):
                    filters = sorted(tuple(Fraction(v) for v in mu.values)
                                     for mu in enumerate_filters(t, proper))
                    vertices = b_polytope_vertices(t, proper)
                    if vertices != filters:
                        assert set(filters) < set(vertices)
                        exceptions.add(t)
        # the discrete 3-point space and the six 4-point topologies whose
        # opens form the same 8-element Boolean lattice
        assert len(exceptions) == 7
        for t in exceptions:
            assert len(t.opens) == 8
            assert all(t.full_mask ^ d in t.opens for d in t.opens)

    def test_fractional_vertex_of_discrete_three_point_space(self):
        # certified without the vertex enumerators: the point is feasible,
        # and some full-rank subsystem of its tight rows has it as the
        # unique solution
        t = discrete(3)
        assert t.opens == tuple(range(8))
        half = Fraction(1, 2)
        p = (0, 0, 0, half, 0, half, half, 1)
        for proper in (True, False):
            check_graded_axioms(t, p, proper=proper)
            equalities, pairs = _b_polytope_system(t, proper)
            tight = [row for row in box_rows(t) + pairs
                     if sum(a * p[i] for i, a in row[0]) == row[1]]
            dim = len(t.opens) - len(equalities)
            certified = False
            for combo in itertools.combinations(tight, dim):
                sol = _solve_exact(equalities + combo)
                if sol is not None:
                    num, det = sol
                    assert tuple(Fraction(v, det) for v in num) == p
                    certified = True
                    break
            assert certified
            assert p in b_polytope_vertices(t, proper)


class TestRefinement:
    def test_point_filter_assignment_rejected(self):
        t = sierpinski()
        r = Refinement(t, (
            (point_filter(t, 0),),
            (point_filter(t, 1),),
        ))
        ok, witness = check_refinement(r)
        assert not ok

    def test_no_finite_refinement_small_spaces(self):
        # on every T0 space with at most 4 points some point has no proper
        # filter strictly finer than its point filter, so check_refinement
        # rejects every assignment there
        counts = {}
        for n in (1, 2, 3, 4):
            for t in enumerate_topologies(n, t0_only=True):
                universe = enumerate_filters(t, proper=True)
                counts[n, t.opens] = [
                    sum(filter_leq(px, mu) and mu != px for mu in universe)
                    for px in (point_filter(t, x) for x in range(n))]
        assert len(counts) == 1 + 3 + 19 + 219
        assert all(0 in c for c in counts.values())

    def test_sierpinski_candidate_structure(self):
        t = sierpinski()
        universe = enumerate_filters(t, proper=True)
        candidates = [
            [mu for mu in universe if filter_leq(px, mu) and mu != px]
            for px in (point_filter(t, x) for x in range(2))]
        # point 0 has o(1) as a strictly finer filter; point 1 has nothing
        assert [len(c) for c in candidates] == [1, 0]
        assert candidates[0][0] == point_filter(t, 1)


class TestBoundaryErrors:
    def test_non_continuous_map_rejected(self):
        # the swap of the Sierpinski space pulls {1} back to {0}, not open
        t = sierpinski()
        f = PointMap(t, t, (1, 0))
        for call in (lambda: pushforward(f, point_filter(t, 0)),
                     lambda: check_pushforward_continuity(t, _pull(f))):
            with pytest.raises(NotContinuous):
                call()

    def test_filter_on_another_topology_rejected(self):
        t = sierpinski()
        f = PointMap(t, t, (0, 1))
        with pytest.raises(TopologyMismatch):
            pushforward(f, point_filter(discrete(2), 0))
