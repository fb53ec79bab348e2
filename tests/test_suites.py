"""Suite structure: declared check ids, one conditions report per flow and
run, trad2 as a relabelling of the flows records, and a pinned report."""

import hashlib

import pytest

from filterbench import flows as fl
from filterbench import suites
from filterbench.suites import SUITE_NAMES, TRAD2_CHECKS, RunConfig, run_suite

CONFIG = RunConfig(seed=4, samples=100)


@pytest.mark.parametrize("workers", [1, 4])
def test_trad2_relabels_flows_records(workers, monkeypatch):
    calls = []
    real = fl.check_flow_conditions

    def counting(*args, **kwargs):
        calls.append(args[0].name)
        return real(*args, **kwargs)

    monkeypatch.setattr(fl, "check_flow_conditions", counting)
    every = {r.check_id: r.to_dict()
             for r in run_suite("all", CONFIG, workers).records}
    # once per suite flow, plus pushforward-conditions
    assert sorted(calls) == sorted(["translation", "rotation", "scaling",
                                    "shear(0.5)_pushforward_rotation"])
    trad2 = {r.check_id: r.to_dict()
             for r in run_suite("trad2", CONFIG, workers).records}
    assert sorted(trad2) == sorted(f"trad2-{c}" for c in TRAD2_CHECKS)
    assert len(trad2) == 15
    for check_id in TRAD2_CHECKS:
        relabelled = dict(every[check_id], check_id=f"trad2-{check_id}")
        assert every[f"trad2-{check_id}"] == relabelled
        assert trad2[f"trad2-{check_id}"] == relabelled


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_record_ids_are_the_declared_ids(name):
    declared = [check_id for check_id, _, _ in suites._SUITES[name]()]
    assert len(set(declared)) == len(declared)
    if name == "trad2":
        assert sorted(declared) == sorted(TRAD2_CHECKS)
        declared = [f"trad2-{c}" for c in declared]
    elif name == "all":
        declared += [f"trad2-{c}" for c in TRAD2_CHECKS]
    got = [r.check_id for r in
           run_suite(name, RunConfig(seed=2, samples=50), workers=2).records]
    assert len(set(got)) == len(got)
    assert sorted(got) == sorted(declared)


def test_all_report_digest_is_pinned():
    # Moving this digest changes every canonical report of suite all: it
    # needs the digest gate of ROADMAP.md (verdicts and check ids equal on
    # seeds 1-10, old and new sha256 listed) and an entry in CHANGES.md.
    text = run_suite("all", RunConfig(seed=1, samples=500), workers=2).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "4d34a5413b43c58e6880575a6ec1b0756de1c87759d953a36a17ccd37e8348f8")
