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


# sha256 of the flows report at samples=500 for seeds 1-10.  Pinned before
# arc membership moved to the certified chord bound, so that change, and any
# later one to the arc kernel, must leave every flows report byte-identical.
FLOWS_DIGESTS = (
    "4ce3a195c5cd0810996de9119bdb94a90b6a103f2c25a0ba71a879beffcb12e3",
    "b09ed93a37ba2db3c2a5e865c9b7b28ec1d4f826f665fbec62d16b3f4eda8a8a",
    "09a1bf33d11f725088e4323325d9fc4bd657491a30317f66cfae460be5adf0d8",
    "34a00ae936c3449117288ff6296ef097b67f698434562f44deb7926a95fe0e0f",
    "dfab96485dd07071bbff3609dc36cbbb22860265ce1e54fed5fa022239569a57",
    "f3993ae6ff5e646b3c51658c122d57d38756415c46537f494279a70d8235f7e6",
    "60230d5a52332b40caa37d59dfd5bbf9c22be72955ce9c3f7b5f4029515b8d00",
    "e50320099773bb1b9aee450ee3f47d1a76b85fa9f4727902fca8465a0b9ea77b",
    "1bb787228f066d318926787c19925f8cd30ff2f5819e8da04845c912a1f781af",
    "c49134261c870e9ab37525e7fd2914f1e3d1f8be97b3c18e1d4abee0973df3f2",
)


@pytest.mark.parametrize("seed", range(1, 11))
def test_flows_report_digests_are_pinned(seed):
    text = run_suite("flows", RunConfig(seed=seed, samples=500)).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == FLOWS_DIGESTS[seed - 1]
