import itertools

import pytest

from filterbench.errors import (
    IndexOutOfRange,
    MissingEmptyOrFull,
    NotClosedUnderUnion,
    SizeLimitExceeded,
)
from filterbench.finite_topology import (
    FiniteTopology,
    PointMap,
    enumerate_topologies,
    is_t0,
    pull_table,
    set_of,
    validate_topology,
)
from filterbench.filter_algebra import point_filter
from filterbench.pair_calculus import product_topology
from filterbench.suites import RunConfig, bruteforce_topologies, run_suite

from oracles import (
    image_hull,
    is_closed_family,
    is_continuous,
    point_hull,
    point_opens,
    preimage_mask,
)


def sierpinski():
    return validate_topology(2, [[], [1], [0, 1]])


def discrete(n):
    return validate_topology(n, [list(s) for r in range(n + 1)
                                 for s in itertools.combinations(range(n), r)])


def indiscrete(n):
    return validate_topology(n, [[], list(range(n))])


class TestValidateTopology:
    def test_sierpinski_valid(self):
        t = sierpinski()
        assert t.n == 2
        assert t.opens == (0, 0b10, 0b11)

    def test_union_closure_witness(self):
        with pytest.raises(NotClosedUnderUnion) as exc:
            validate_topology(2, [[], [0], [1]])
        assert {frozenset(exc.value.a), frozenset(exc.value.b)} == {
            frozenset({0}), frozenset({1})}

    def test_discrete_three_points(self):
        t = discrete(3)
        assert len(t.opens) == 8

    def test_missing_full(self):
        with pytest.raises(MissingEmptyOrFull):
            validate_topology(2, [[], [0]])

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            validate_topology(2, [[], [2], [0, 1]])

    def test_idempotent(self):
        t = sierpinski()
        assert validate_topology(t.n, t.opens) == t

    def test_duplicates_collapse(self):
        t = validate_topology(2, [[], [1], [1], [0, 1]])
        assert t == sierpinski()


class TestT0:
    def test_sierpinski_is_t0(self):
        assert is_t0(sierpinski()) == (True, None)

    def test_indiscrete_witness(self):
        ok, witness = is_t0(indiscrete(2))
        assert not ok
        assert witness == (0, 1)

    def test_discrete_is_t0(self):
        assert is_t0(discrete(3))[0]

    def test_first_pair_matches_open_profiles(self):
        """The first indistinguishable pair, from per-point tuples of open
        memberships, on every topology on at most 4 points."""
        for n in (1, 2, 3, 4):
            for t in enumerate_topologies(n):
                seen, expected = {}, (True, None)
                for x in range(n):
                    profile = tuple(bool(d >> x & 1) for d in t.opens)
                    if profile in seen:
                        expected = (False, (seen[profile], x))
                        break
                    seen[profile] = x
                assert is_t0(t) == expected


def test_point_opens_match_the_definition():
    # every topology on at most 4 points, and the discrete square on 16
    # points with its 65 536 opens, where the sum of the definition takes
    # about a second
    spaces = [t for n in range(5) for t in enumerate_topologies(n)]
    spaces.append(product_topology(discrete(4)).topology)
    for t in spaces:
        assert t.point_opens == point_opens(t), t


class TestHull:
    def test_byte_tables_match_the_per_point_or(self):
        # every point set of every topology on at most 4 points (one short
        # run of 8 points, none at n = 0) and of the discrete squares on 4,
        # 9 and 16 points (a short run; a full run and a run of one; two
        # full runs).  Bits at n and above name no point.
        spaces = [t for n in range(5) for t in enumerate_topologies(n)]
        spaces += [product_topology(discrete(n)).topology for n in (2, 3, 4)]
        for t in spaces:
            for mask in range(1 << t.n):
                assert t.hull(mask) == point_hull(t, mask), (t.n, mask)
            assert t.hull(0xff << t.n) == 0


class TestContinuity:
    def test_identity(self):
        t = sierpinski()
        assert is_continuous(PointMap(t, t, (0, 1)))[0]

    def test_constant_map(self):
        ok, _ = is_continuous(PointMap(discrete(3), sierpinski(), (0, 0, 0)))
        assert ok

    def test_sierpinski_swap_not_continuous(self):
        t = sierpinski()
        ok, witness = is_continuous(PointMap(t, t, (1, 0)))
        assert not ok
        assert witness == frozenset({1})

    def test_shared_pull_tables_match_the_definition(self):
        # one table per (target, image), as the pushforward sweep shares it,
        # against is_continuous and image_hull on every map between
        # topologies on at most 3 points, T0 or not
        spaces = [t for n in (1, 2, 3) for t in enumerate_topologies(n)]
        assert len(spaces) == 1 + 4 + 29
        maps = continuous = 0
        for tgt in spaces:
            for src_n in (1, 2, 3):
                sources = [s for s in spaces if s.n == src_n]
                for image in itertools.product(range(tgt.n), repeat=src_n):
                    pull = pull_table(tgt, image, range(1 << src_n))
                    for src in sources:
                        f = PointMap(src, tgt, image)
                        maps += 1
                        ok, witness = is_continuous(f)
                        d = pull.preimage_witness(src)
                        assert (d is None, None if d is None else set_of(d)) \
                            == (ok, witness)
                        continuous += ok
                        assert pull.preimages == tuple(
                            preimage_mask(f, d) for d in tgt.opens)
                        assert dict(pull.pushes) == {
                            m: image_hull(f, m) for m in range(1 << src_n)}
        assert (maps, continuous) == (24_872, 11_310)

    def test_sweep_visits_every_continuous_map_between_t0_spaces(self):
        t0 = list(enumerate_topologies(3, t0_only=True))
        count = 0
        for tgt in t0:
            for image in itertools.product(range(3), repeat=3):
                pull = pull_table(tgt, image, range(8))
                count += sum(pull.preimage_witness(src) is None for src in t0)
        report = run_suite("finite-pushforward", RunConfig(seed=1, samples=1))
        record, = (r for r in report.records
                   if r.check_id == "pushforward-continuity-3to3")
        assert count == record.samples == 4_095
        assert record.witness == {"maps": 4_095}


class TestEnumeration:
    def test_counts(self):
        assert len(list(enumerate_topologies(1))) == 1
        assert len(list(enumerate_topologies(2))) == 4
        assert len(list(enumerate_topologies(2, t0_only=True))) == 3
        assert len(list(enumerate_topologies(3))) == 29
        assert len(list(enumerate_topologies(3, t0_only=True))) == 19
        # OEIS A000798 and A001035: counts that no shared closure test sets
        assert len(list(enumerate_topologies(4))) == 355
        assert len(list(enumerate_topologies(4, t0_only=True))) == 219

    def test_guard(self):
        with pytest.raises(SizeLimitExceeded):
            list(enumerate_topologies(5))

    def test_deterministic_and_unique(self):
        a = list(enumerate_topologies(3))
        b = list(enumerate_topologies(3))
        assert a == b
        assert len(set(a)) == len(a)

    def test_matches_independent_bruteforce(self):
        # oracle: closure filter over all 2^(2^n) subset-families, T0 by
        # is_t0, in canonical order (ascending family bitset)
        for n in range(5):
            full = (1 << n) - 1
            closed = []
            for bits in range(1 << (1 << n)):
                fam = {m for m in range(1 << n) if bits >> m & 1}
                if is_closed_family(n, fam):
                    closed.append(FiniteTopology(n, tuple(sorted(fam))))
            closed.sort(key=lambda t: sum(1 << m for m in t.opens))
            assert all(t.opens[0] == 0 and t.opens[-1] == full for t in closed)
            # the suite's oracle, which scans every family at once
            assert bruteforce_topologies(n) == {t.opens for t in closed}
            for t0_only in (False, True):
                expected = [t.opens for t in closed
                            if not t0_only or is_t0(t)[0]]
                got = [t.opens for t in enumerate_topologies(n, t0_only)]
                assert got == expected, (n, t0_only)


class TestPointFilter:
    def test_sierpinski(self):
        t = sierpinski()
        assert point_filter(t, 1).values == (0, 1, 1)
        assert point_filter(t, 0).values == (0, 0, 1)

    def test_indiscrete_not_injective(self):
        t = indiscrete(2)
        assert point_filter(t, 0) == point_filter(t, 1)

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            point_filter(sierpinski(), 2)

    def test_injective_iff_t0(self):
        # matches the "V(x) = V(y) implies x = y" characterization
        for n in (1, 2, 3):
            for t in enumerate_topologies(n):
                filters = [point_filter(t, x).values for x in range(t.n)]
                injective = len(set(filters)) == t.n
                assert injective == is_t0(t)[0]
