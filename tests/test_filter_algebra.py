import itertools
from fractions import Fraction

import pytest

from filterbench.errors import (
    FilterAxiomViolation,
    NotContinuous,
    SizeLimitExceeded,
    TopologyMismatch,
    WeightSumInvalid,
)
from filterbench.filter_algebra import (
    GRADED_TOL,
    _b_polytope_system,
    _solve_exact,
    b_polytope_vertices,
    b_polytope_vertices_bruteforce,
    check_derivable,
    check_filter_axioms,
    check_graded_axioms,
    check_pushforward_continuity,
    check_refinement,
    convex_combine,
    enumerate_filters,
    enumerate_filters_bruteforce,
    filter_leq,
    is_open_in_tau_e,
    pushforward,
    Refinement,
    point_filter,
    search_refinement,
    tau_e_opens,
)
from filterbench.finite_topology import (
    PointMap,
    enumerate_topologies,
    validate_topology,
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
                    from filterbench.finite_topology import is_continuous
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


class TestTauE:
    def test_universe_and_empty_open(self):
        t = sierpinski()
        universe = enumerate_filters(t)
        assert is_open_in_tau_e(universe, universe)[0]
        assert is_open_in_tau_e([], universe)[0]

    def test_singleton_open_point(self):
        t = sierpinski()
        universe = enumerate_filters(t)
        o1 = point_filter(t, 1)
        assert is_open_in_tau_e([o1], universe)[0]
        # o(0) alone is not open: the only D with o(0)(D)=1 is X, shared by o(1)
        o0 = point_filter(t, 0)
        ok, witness = is_open_in_tau_e([o0], universe)
        assert not ok
        assert witness.values == o0.values

    def test_tau_e_forms_topology(self):
        for n in (1, 2, 3):
            for t in enumerate_topologies(n, t0_only=True):
                universe = enumerate_filters(t)
                opens = set(tau_e_opens(universe))
                assert frozenset() in opens
                assert frozenset(range(len(universe))) in opens
                for a in opens:
                    for b in opens:
                        assert a | b in opens
                        assert a & b in opens

    def test_pushforward_continuity_identity(self):
        t = sierpinski()
        assert check_pushforward_continuity(PointMap(t, t, (0, 1)))[0]

    def test_pushforward_continuity_constant(self):
        s = discrete(2)
        t = sierpinski()
        assert check_pushforward_continuity(PointMap(s, t, (0, 0)))[0]


class TestGraded:
    def test_convex_combination_weights_one_zero(self):
        t = sierpinski()
        g0 = check_graded_axioms(t, tuple(Fraction(v) for v in point_filter(t, 0).values))
        g1 = check_graded_axioms(t, tuple(Fraction(v) for v in point_filter(t, 1).values))
        out = convex_combine([g0, g1], [1, 0])
        assert out.values == g0.values

    def test_half_half_on_sierpinski(self):
        t = sierpinski()
        g0 = check_graded_axioms(t, tuple(Fraction(v) for v in point_filter(t, 0).values))
        g1 = check_graded_axioms(t, tuple(Fraction(v) for v in point_filter(t, 1).values))
        out = convex_combine([g0, g1], [Fraction(1, 2), Fraction(1, 2)])
        assert out.values == (Fraction(0), Fraction(1, 2), Fraction(1))

    def test_three_way_on_discrete(self):
        t = discrete(3)
        gs = [
            check_graded_axioms(t, tuple(Fraction(v) for v in point_filter(t, x).values))
            for x in range(3)
        ]
        out = convex_combine(gs, [Fraction(1, 3)] * 3)
        check_graded_axioms(t, out.values)

    def test_bad_weights(self):
        t = sierpinski()
        g = check_graded_axioms(t, (Fraction(0), Fraction(0), Fraction(1)))
        with pytest.raises(WeightSumInvalid):
            convex_combine([g, g], [0.7, 0.7])

    def test_nan_entry_fails_axiom_a(self):
        with pytest.raises(FilterAxiomViolation) as e:
            check_graded_axioms(sierpinski(), (0.0, float("nan"), 1.0))
        assert e.value.axiom == "A"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_weight(self, bad):
        t = sierpinski()
        g = check_graded_axioms(t, (Fraction(0), Fraction(0), Fraction(1)))
        with pytest.raises(WeightSumInvalid):
            convex_combine([g, g], [bad, 0.5])


class TestGradedTolerance:
    def test_float_table_within_tol_of_a_filter_passes(self):
        t = discrete(2)
        for proper in (True, False):
            for mu in enumerate_filters(t, proper):
                noisy = tuple(v + s * GRADED_TOL / 8
                              for v, s in zip(mu.values, (1, -1, -1, 1)))
                assert check_graded_axioms(t, noisy, proper).values == noisy

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
            b_polytope_vertices_bruteforce(
                validate_topology(6, [(1 << i) - 1 for i in range(7)]))
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
            box, equalities, pairs = _b_polytope_system(t, proper)
            tight = [row for row in box + pairs
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
        # every finite T0 space has a point with no strictly finer proper filter
        for n in (1, 2, 3):
            for t in enumerate_topologies(n, t0_only=True):
                report = search_refinement(t)
                assert not report["admits_refinement"]
                assert report["points_without_candidates"]

    def test_sierpinski_candidate_structure(self):
        t = sierpinski()
        report = search_refinement(t)
        # point 0 has o(1) as a strictly finer filter; point 1 has nothing
        assert report["candidates_per_point"] == [1, 0]
        assert report["points_without_candidates"] == [1]


class TestDerivable:
    def test_identity_with_same_assignment(self):
        t = sierpinski()
        r = Refinement(t, ((point_filter(t, 1),), (point_filter(t, 1),)))
        f = PointMap(t, t, (0, 1))
        assert check_derivable(f, r, r)[0]

    def test_definitional_construction(self):
        s = discrete(2)
        t = sierpinski()
        f = PointMap(s, t, (0, 1))
        r = Refinement(s, tuple((point_filter(s, x),) for x in range(2)))
        r2 = Refinement(t, tuple(
            (pushforward(f, point_filter(s, x)),) for x in range(2)
        ))
        assert check_derivable(f, r, r2)[0]

    def test_swap_breaks_asymmetric_assignment(self):
        # two disjoint Sierpinski components: opens generated by {1}, {3}
        t = validate_topology(4, [
            [], [1], [3], [1, 3], [0, 1], [2, 3], [0, 1, 3], [1, 2, 3], [0, 1, 2, 3],
        ])
        swap = PointMap(t, t, (2, 3, 0, 1))
        from filterbench.finite_topology import is_continuous
        assert is_continuous(swap)[0]
        # asymmetric: point 0 assigned o(1), point 2 assigned o(2) (its own filter)
        r = Refinement(t, (
            (point_filter(t, 1),),
            (point_filter(t, 1),),
            (point_filter(t, 2),),
            (point_filter(t, 3),),
        ))
        ok, witness = check_derivable(swap, r, r)
        assert not ok
        assert witness is not None


class TestBoundaryErrors:
    def test_non_continuous_map_rejected(self):
        # the swap of the Sierpinski space pulls {1} back to {0}, not open
        t = sierpinski()
        f = PointMap(t, t, (1, 0))
        r = Refinement(t, ((point_filter(t, 1),), (point_filter(t, 1),)))
        for call in (lambda: pushforward(f, point_filter(t, 0)),
                     lambda: check_pushforward_continuity(f),
                     lambda: check_derivable(f, r, r)):
            with pytest.raises(NotContinuous):
                call()

    def test_filter_on_another_topology_rejected(self):
        t = sierpinski()
        f = PointMap(t, t, (0, 1))
        with pytest.raises(TopologyMismatch):
            pushforward(f, point_filter(discrete(2), 0))
        r = Refinement(t, ((point_filter(t, 1),),
                           (point_filter(discrete(2), 1),)))
        with pytest.raises(TopologyMismatch):
            check_derivable(f, r, r)
