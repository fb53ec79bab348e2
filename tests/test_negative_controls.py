"""Negative controls: a check that cannot fail shows nothing.

Each control mutates one engine function and runs the suite that holds the
check; the named checks must then give the control's verdict: ``fail``, or
``inconclusive`` where the mutation leaves a check nothing to count.  A
control with the engine intact (the unmutated run) must pass, so the
verdict is the mutation's doing.
"""

import dataclasses

import numpy as np
import pytest

from filterbench import filter_algebra as fa
from filterbench import finite_topology as ft
from filterbench import flows as fl
from filterbench import metric_filters as mf
from filterbench import pair_calculus as pc
from filterbench import suites
from filterbench.suites import FLOW_NAMES, RunConfig, run_suite

CONFIG = RunConfig(seed=1, samples=50)


def _reversed_composition(monkeypatch):
    compose = pc.compose_filters
    monkeypatch.setattr(pc, "compose_filters",
                        lambda mu, nu, ps: compose(nu, mu, ps))


def _swapped_compose_masks(monkeypatch):
    compose = pc.compose_masks
    monkeypatch.setattr(pc, "compose_masks",
                        lambda n, ra, rb: compose(n, rb, ra))


def _identity_swap_table(monkeypatch):
    monkeypatch.setattr(pc.ProductSpace, "transposed", property(
        lambda ps: {d: d for d in ps.topology.opens}))


def _union_only_closure(monkeypatch):
    # the closure scan's rule without its intersection half
    monkeypatch.setattr(suites, "_pair_closed", lambda has_a, has_b, has_union,
                        has_meet: ~(has_a & has_b) | has_union)


def _every_point_set_base(monkeypatch):
    # every nonempty point set as a base: one that is not open repeats the
    # filter at its hull, and its table is still a filter's
    monkeypatch.setattr(fa, "enumerate_filters", lambda t, proper=True: [
        fa.IndicatorFilter(t, b) for b in range(1 << t.n) if b or not proper])


def _identity_push(monkeypatch):
    # every source point set pushed to the same set of target points: right
    # only for maps between one-point spaces
    pull_table = ft.pull_table
    monkeypatch.setattr(ft, "pull_table", lambda target, image, point_sets:
                        dataclasses.replace(pull_table(target, image, point_sets),
                                            pushes={m: m for m in point_sets}))


def _empty_t0_enumeration(monkeypatch):
    enumerate_topologies = ft.enumerate_topologies
    monkeypatch.setattr(ft, "enumerate_topologies", lambda n, t0_only=False:
                        iter(()) if t0_only else enumerate_topologies(n))


def _every_map_discontinuous(monkeypatch):
    # the empty open's preimage is always open, so this is never right
    monkeypatch.setattr(ft.PullTable, "preimage_witness",
                        lambda pull, source: pull.target.opens[0])


def _cone_accepts_everything(monkeypatch):
    monkeypatch.setattr(mf, "v_plus_contains",
                        lambda g, y: np.ones(np.shape(y)[:-1], dtype=bool))


def _pushforward_of_reversal(monkeypatch):
    pushforward = fl.pushforward_flow
    monkeypatch.setattr(fl, "pushforward_flow", lambda f, flow, seed=0:
                        pushforward(f, flow.reversed(), seed))


def _unreversed_reversal(monkeypatch):
    # a reversal that leaves the flow as it is.  step3 may then meet a chain
    # constant too large for its aperture floor (C = 966 for scaling at seed
    # 1), which must give a failing record and not stop the run
    monkeypatch.setattr(fl.Flow, "reversed", lambda flow: flow)


def _sign_ignored(monkeypatch):
    # the backward filter read as the forward one
    contains = fl.flow_pair_contains
    monkeypatch.setattr(fl, "flow_pair_contains",
                        lambda flow, eps, mu, x, y, sign="+":
                        contains(flow, eps, mu, x, y))


PUSHFORWARD_CONTINUITY = [f"pushforward-continuity-{a}to{b}"
                          for a in (1, 2, 3) for b in (1, 2, 3)]

# (suite, mutation, the checks it acts on, the verdict it must give them)
CONTROLS = {
    "reversed-compose": ("pair-composition", _reversed_composition,
                         ["principal-compose-discrete2-exhaustive"], "fail"),
    "swapped-compose-masks": ("pair-composition", _swapped_compose_masks,
                              ["mask-set-compose-n2-exhaustive",
                               "mask-set-compose-n3-sampled"], "fail"),
    "identity-swap": ("pair-composition", _identity_swap_table,
                      ["swap-interplay-discrete2-exhaustive",
                       "uniformity-asymmetric-witness"], "fail"),
    "union-only-closure": ("finite-axioms", _union_only_closure,
                           ["enumeration-crosscheck-n3",
                            "enumeration-crosscheck-n4"], "fail"),
    "every-point-set-base": ("finite-axioms", _every_point_set_base,
                             [f"filter-axioms-n{n}" for n in (2, 3, 4)],
                             "fail"),
    "identity-push": ("finite-pushforward", _identity_push,
                      [c for c in PUSHFORWARD_CONTINUITY
                       if c != "pushforward-continuity-1to1"], "fail"),
    "empty-t0-enumeration": ("finite-pushforward", _empty_t0_enumeration,
                             PUSHFORWARD_CONTINUITY, "inconclusive"),
    "every-map-discontinuous": ("finite-pushforward", _every_map_discontinuous,
                                PUSHFORWARD_CONTINUITY, "inconclusive"),
    "cone-accepts-everything": ("derivative", _cone_accepts_everything,
                                ["sequence-classification"], "fail"),
    "pushforward-of-reversal": ("flows", _pushforward_of_reversal,
                                ["pushforward-conditions"]
                                + [f"transport-{m}" for m in (
                                    "identity2d", "rotation_quarter",
                                    "shear_half", "parabolic_shear",
                                    "sine_shear")], "fail"),
    "unreversed-reversal": ("flows", _unreversed_reversal,
                            [f"{kind}-{name}" for kind in (
                                "lemacon", "reversal-identity")
                             for name in FLOW_NAMES], "fail"),
    "sign-ignored": ("flows", _sign_ignored,
                     [f"reversal-identity-{name}" for name in FLOW_NAMES],
                     "fail"),
}


def _verdicts(suite):
    return {r.check_id: r.verdict for r in run_suite(suite, CONFIG).records}


@pytest.mark.parametrize("control", CONTROLS)
def test_mutation_fails_its_checks(control, monkeypatch):
    suite, mutate, check_ids, verdict = CONTROLS[control]
    intact = _verdicts(suite)
    assert [intact[c] for c in check_ids] == ["pass"] * len(check_ids)
    mutate(monkeypatch)
    mutated = _verdicts(suite)
    assert [mutated[c] for c in check_ids] == [verdict] * len(check_ids)
