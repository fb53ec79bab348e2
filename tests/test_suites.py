"""Suite structure: one conditions report per flow and run, and trad2 as a
relabelling of the flows records."""

import pytest

from filterbench import flows as fl
from filterbench.suites import TRAD2_CHECKS, RunConfig, run_suite

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
