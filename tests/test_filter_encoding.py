"""The minimal-open encoding of IndicatorFilter against the value tables.

A filter is stored as the minimal open of its support.  Every view and
operation is compared with its definition evaluated on 0/1 value tables
that are built literally, over every topology on at most 3 points (the
order on 4), in both modes, and over the Sierpinski and discrete-2 squares.  Results are
compared as filters, with the filter check_filter_axioms builds from the
table, so a stored base that is not the minimal open fails too.  The
routes that decide on bases are also run with the tables disabled.
"""

import itertools
from types import SimpleNamespace

import pytest

from filterbench.errors import FilterAxiomViolation, TopologyMismatch
from filterbench.filter_algebra import (
    IndicatorFilter,
    Refinement,
    _b_polytope_system,
    _tau_e_base,
    check_filter_axioms,
    check_filter_tables,
    check_refinement,
    enumerate_filters,
    enumerate_filters_bruteforce,
    filter_leq,
)
from filterbench.finite_topology import (
    FiniteTopology,
    PointMap,
    enumerate_topologies,
    set_of,
)
from filterbench.pair_calculus import (
    check_uniformity,
    compose_filters,
    compose_filters_bruteforce,
    compose_masks,
    principal_pair_filter,
    product_topology,
    swap_pushforward,
    transpose_mask,
)
from filterbench.suites import RunConfig, run_suite

from oracles import (
    _raise_first_violation,
    b_polytope_vertices_bruteforce,
    is_continuous,
    preimage_mask,
    pushforward,
)
from test_finite_topology import discrete, sierpinski

SMALL = [t for n in (1, 2, 3) for t in enumerate_topologies(n)]
FOUR = list(enumerate_topologies(4))
SQUARES = {"sierpinski": product_topology(sierpinski()),
           "discrete2": product_topology(discrete(2))}


def _tables(t, proper):
    """The value table of the filter at each open E, by definition: 1 on
    the opens containing E; the empty E only in improper mode."""
    return [tuple(int(e & d == e) for d in t.opens)
            for e in t.opens if e or not proper]


def _filters(t, proper):
    return [check_filter_axioms(t, table, proper) for table in _tables(t, proper)]


@pytest.mark.parametrize("proper", [True, False], ids=["proper", "improper"])
def test_views_match_the_value_tables(proper):
    # canonical order is ascending tables, also on every topology on 4
    # points and on the discrete 3-point square (512 opens)
    topologies = SMALL + FOUR + [ps.topology for ps in SQUARES.values()]
    for t in topologies + [product_topology(discrete(3)).topology]:
        tables = _tables(t, proper)
        assert sorted(tables) == [mu.values for mu in enumerate_filters(t, proper)]
    for t in topologies:
        for table in _tables(t, proper):
            mu = check_filter_axioms(t, table, proper)
            assert mu.values == table
            assert mu.support() == tuple(d for d, v in zip(t.opens, table) if v)


@pytest.mark.parametrize("proper", [True, False], ids=["proper", "improper"])
def test_small_spaces_have_no_other_filters(proper):
    # the scan over every 0/1 table admits exactly the tables of the opens
    for t in SMALL:
        by_table = sorted(_filters(t, proper), key=lambda mu: mu.values)
        assert enumerate_filters_bruteforce(t, proper) == by_table \
            == enumerate_filters(t, proper)


@pytest.mark.parametrize("proper", [True, False], ids=["proper", "improper"])
def test_batch_matches_the_row_by_row_oracle(proper):
    # every 0/1 table of every topology on at most 3 points, in one batch
    # per topology: the filter, or the axiom and witness of the first row
    # the table violates
    checked = 0
    for t in [*enumerate_topologies(0), *SMALL]:
        tables = list(itertools.product((0, 1), repeat=len(t.opens)))
        for table, got in zip(tables, check_filter_tables(t, tables, proper),
                              strict=True):
            try:
                _raise_first_violation(table, 0, *_b_polytope_system(t, proper))
            except FilterAxiomViolation as e:
                assert type(got) is FilterAxiomViolation
                assert (got.axiom, got.witness, str(got)) \
                    == (e.axiom, e.witness, str(e))
            else:
                assert got.values == table
                checked += 1
    assert checked == sum(len(t.opens) - proper for t in SMALL) + (not proper)


def test_mixed_batch_gives_each_table_its_own_result():
    # a filter, a supermodularity failure, a 0.9 entry and a short table in
    # one batch, each as check_filter_axioms gives it alone
    t = discrete(2)
    tables = [(0, 0, 1, 1), (0, 1, 1, 1), (0, 0, 0.9, 1), (0, 1, 1)]
    got = check_filter_tables(t, tables, proper=True)
    assert got[0] == IndicatorFilter(t, 0b10)
    assert (got[1].axiom, got[1].witness) == ("C", (0b01, 0b10))
    assert (got[2].axiom, got[2].witness) == ("A", None)
    assert type(got[3]) is TopologyMismatch
    assert check_filter_axioms(t, tables[0]) == got[0]
    for table, error in zip(tables[1:], got[1:]):
        with pytest.raises(type(error)) as raised:
            check_filter_axioms(t, table)
        assert str(raised.value) == str(error)


@pytest.mark.parametrize("proper", [True, False], ids=["proper", "improper"])
def test_order_is_pointwise(proper):
    # the squares: TestBitsetOracles.test_filter_leq_is_elementwise
    for t in SMALL:
        universe = _filters(t, proper)
        for mu, nu in itertools.product(universe, repeat=2):
            assert filter_leq(mu, nu) == all(
                a <= b for a, b in zip(mu.values, nu.values))


@pytest.mark.parametrize("proper", [True, False], ids=["proper", "improper"])
def test_pushforward_is_the_pulled_back_table(proper):
    # f* mu (D) = mu(f^-1 D), on every continuous map between topologies on
    # at most 3 points
    maps = 0
    for src, tgt in itertools.product(SMALL, repeat=2):
        filters = _filters(src, proper)
        for image in itertools.product(range(tgt.n), repeat=src.n):
            f = PointMap(src, tgt, image)
            if not is_continuous(f)[0]:
                continue
            maps += 1
            index = [src.open_index[preimage_mask(f, d)] for d in tgt.opens]
            for mu in filters:
                table = tuple(mu.values[i] for i in index)
                assert pushforward(f, mu) == check_filter_axioms(tgt, table, False)
    assert maps == 11_310


@pytest.mark.parametrize("ps", SQUARES.values(), ids=SQUARES.keys())
@pytest.mark.parametrize("proper", [True, False], ids=["proper", "improper"])
def test_pair_operations_match_their_definitions(ps, proper):
    opens = ps.topology.opens
    n = ps.base.n
    swap_index = [ps.topology.open_index[transpose_mask(n, d)] for d in opens]
    universe = _filters(ps.topology, proper)
    for mu in universe:
        # sigma* mu (D) = mu(sigma^-1 D), and sigma^-1 D is the transpose
        table = tuple(mu.values[i] for i in swap_index)
        assert swap_pushforward(mu, ps) == check_filter_axioms(ps.topology, table, False)
    for mu, nu in itertools.product(universe, repeat=2):
        # (mu o nu)(D) = 1 iff E o F lies in D for some E, F in the supports
        comps = {compose_masks(n, e, f)
                 for e, a in zip(opens, mu.values) if a
                 for f, b in zip(opens, nu.values) if b}
        table = tuple(int(any(c & d == c for c in comps)) for d in opens)
        assert compose_filters(mu, nu, ps) == check_filter_axioms(ps.topology, table, False)


def test_refinement_witness_is_the_first_open_missing_from_mu():
    # mu not finer than the point filter of x: the witness is x, mu's table
    # and the first open holding x with value 0.  The earlier points get
    # the filter of the empty open, finer than every point filter, so the
    # check reaches x; on a space that is not T0 it stops before any point.
    cases = 0
    for t in (t for n in (1, 2, 3) for t in enumerate_topologies(n, t0_only=True)):
        finest = check_filter_axioms(t, (1,) * len(t.opens), proper=False)
        for x in range(t.n):
            point = [int(d >> x & 1) for d in t.opens]
            for mu, table in zip(_filters(t, True), _tables(t, True)):
                missing = [d for d, p, v in zip(t.opens, point, table) if p > v]
                if not missing:
                    continue
                cases += 1
                assignment = ((finest,),) * x + ((mu,),) * (t.n - x)
                assert check_refinement(Refinement(t, assignment)) \
                    == (False, (x, table, set_of(missing[0])))
    assert cases == 147


def test_fast_routes_read_no_value_tables(monkeypatch):
    # the mirror of the test below: with the value tables disabled, the
    # routes that decide on bases run and give the results they give intact
    def no_values(mu):
        raise AssertionError("a fast route read a value table")

    ps = SQUARES["discrete2"]
    pair_filters = [principal_pair_filter(ps, r) for r in range(1 << 4)]

    def run():
        return ([enumerate_filters(t, proper) for t in SMALL for proper in (True, False)],
                [check_uniformity(omega, ps) for omega in pair_filters],
                run_suite("finite-pushforward", RunConfig(seed=1, samples=50)).to_json())

    want = run()
    _tau_e_base.cache_clear()  # so the suite enumerates the filters again
    monkeypatch.setattr(IndicatorFilter, "values", property(no_values))
    assert run() == want


def test_oracles_read_only_value_tables(monkeypatch):
    # with the hull disabled the oracles still run, and the composition
    # oracle accepts stand-ins that carry a value table and no minimal open
    def no_hull(*args):
        raise AssertionError("an oracle reached the minimal-open kernel")

    ps = SQUARES["discrete2"]
    universe = _filters(ps.topology, proper=False)
    want = [[compose_filters(mu, nu, ps) for nu in universe] for mu in universe]
    monkeypatch.setattr(FiniteTopology, "hull", no_hull)
    monkeypatch.setattr("filterbench.finite_topology.pull_table", no_hull)
    tables = [SimpleNamespace(values=mu.values) for mu in universe]
    for row, a in zip(want, tables):
        for composed, b in zip(row, tables):
            assert compose_filters_bruteforce(a, b, ps) == composed
    for t in SMALL:
        for proper in (True, False):
            assert [mu.values for mu in enumerate_filters_bruteforce(t, proper)] \
                == sorted(_tables(t, proper))
    vertices = b_polytope_vertices_bruteforce(sierpinski(), proper=True)
    assert vertices == [(0, 0, 1), (0, 1, 1)]


@pytest.mark.parametrize("table", [(0, 1), (0, 1, 1, 1)], ids=["short", "long"])
def test_table_of_the_wrong_length_is_refused(table):
    # neither padded with 0 nor read past the last open
    with pytest.raises(TopologyMismatch):
        check_filter_axioms(sierpinski(), table, proper=False)

