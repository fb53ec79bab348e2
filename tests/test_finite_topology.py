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
    is_closed_family,
    is_continuous,
    is_t0,
    validate_topology,
)
from filterbench.filter_algebra import point_filter


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

    def test_matches_independent_bruteforce_n3(self):
        # oracle: closure filter over all 2^8 subset-families
        full = 0b111
        subsets = list(range(8))
        expected = set()
        for bits in range(1 << 8):
            fam = {subsets[i] for i in range(8) if bits >> i & 1}
            if is_closed_family(3, fam):
                expected.add(tuple(sorted(fam)))
        got = {t.opens for t in enumerate_topologies(3)}
        assert got == expected
        assert all(0 in f and full in f for f in got)


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
