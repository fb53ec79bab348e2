"""Suite structure: declared check ids, one conditions report per flow and
run, trad2 as a relabelling of the flows records, and pinned reports."""

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from filterbench import flows as fl
from filterbench import metric_filters as mf
from filterbench import snowflake as sf
from filterbench import suites
from filterbench.errors import RecipeUnsatisfiable
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


# sha256 of the exact finite reports at samples=500 for seeds 1-10, keyed by
# (suite, proper).  Pinned before filters were stored by their minimal open,
# so that change, and any later one to the finite kernels, must leave these
# reports byte-identical.  Their records hold no float (asserted below), so
# unlike the two pins above they do not depend on the CPU.
FINITE_DIGESTS = {
    ("finite-axioms", True): (
        "c298f12ed53fb11de76edce57472444c99a3defcf89e8cb784be699710113bc5",
        "e0dc4e7c5d36134d0f2f1821a4b52424442f468dbc04998c775be3220c924ea6",
        "c232202b0a336ae81f3cf2129fdf8596d3c23c3e6ef3371d20cbcfc7b66f2351",
        "38b68de58b4a9413819b8b9abd242471174c479eb763ed690e6972686c02804a",
        "ac34c4d755ddcdd06e66e74c5cab3eae99082a001425da94d7d76d7a2fc818be",
        "4a1a4fdddf933303020e8b6d0a7ee06d3408a06bcf541b054b1a66ddc519ebe6",
        "a635e5f8bce0fcc7602aec45afca505e8e47e59a24706433fb3dc5dee8734e20",
        "fe60ddbefd91b7bfff370f148d1eee897ee57664fa03e195a859d556ef15c936",
        "3cdd64a923f4617c477a9df7aee5863195816a958981a8545a4fbee48dd2a2f5",
        "67249bfa49579ca58b461023092e9c1ad46dead1958001ba82c9272df31c4a59",
    ),
    ("finite-axioms", False): (
        "f0d9c70d237ba17b6cee281d7c12cce29a43c788a41e31c026dab3e0d7616037",
        "8f18bc864506afd30c8563f84719302b5af00924bf03bd04a4f5c10ea80cc7bc",
        "2a64cc27bc2ae73e4b11385ba123266e37f66e5292c8f59942ec6c44524064c6",
        "3cd2f2d946613602a746e3e39b0765e4744d54b04f1e066301e3c53b5876342d",
        "13837e97ebe1b9740677683cdde8b69621d305077af91fe15ae840fd3de7685c",
        "c79d738b4091d0d42b918caa9b9ef43a8be3e354e484639e96977b882315a330",
        "54ea16b958332c96de2f79000399d1e1bba66a000d457209cbe50d6dd7b6d960",
        "9305014099eea8d9b88d13a14d37e4757e6d3e5310db51f60711d6760d46236b",
        "ce88e36a767a9feba96ccb68c71711e356bff868240683e529cd8c7322a664fd",
        "e9f23d6dab5eed161fcae6d61b43a4d63175a40612f8cea7788dcb11e6bb2451",
    ),
    ("finite-pushforward", True): (
        "fd98daebe6fa92415564936b0bce60f1ab50fc5b5a1abea92d1e4915a0db6955",
        "9519eb1200e52f339abe0d4bc6c4d4403f7eb6cf81a9f4e029a300cd82dd50d5",
        "d7782411811f39f69c296722ef3f57322b1893df7d04c0327ee71fa77b544845",
        "ba97c37a4d4e34b829600364fe1b20e62c414d7f57700af2d567f3a4c1d21305",
        "7b96911e6397b89d336e761b718997afdce5cf569eba3d01b97698bee9d0f270",
        "56a20829c84c3adb9066d23a804d689823c5f5345f3446520180936c6f9dc22a",
        "170d623bac0eb8f95a1926002cd615fc42793f2bb093378e90fde80fe1f0bf4b",
        "4dc049f0dcc6a5449aef3dbca570f304958f3c5a0b942cf6c1ccb38661ad14a7",
        "a5391657bd2074a6896180a18211a957d1d497b4b7ec66ba7ab8fe957b356347",
        "d323d7fd4883860bb6c97d217f9ac2635097b1e6b03bdff6b5e79495772bd0bb",
    ),
    ("pair-composition", True): (
        "7a9072a4ccaa0ec8fb09d43a70ce951e6807f01304d6d49a3b9ab5ada70c8b9d",
        "f459e48a179170d3c0cf94c999716b7512820ac5a9ffb46b18175a4b6783722e",
        "7da84e5f592fce700ff9d23ef3d5fa9f1ba61b516ce9da122f91766233c67c28",
        "f7af31fc2e5452ec3996a586d65da708cea10321c44f61025b3ef603e55ae460",
        "fb68e840b57575ba61f9cbe6898dfef65691590e4b46fa8b4690aca7acc8f5d9",
        "f2e59a3e4d2274e52dc765974588d6b19fc56b264a68d552faa0c20eb398927f",
        "1421903dcb1e6478fbdb56fc40658f616a3ad4c3dda59c97dee3f5776e8d3b0f",
        "ad632e003bfec91a9d4be53fb805616c8b473140458c780fab706f4ea460866e",
        "55037cbff0f552d3db335dd79c00d854c4841e0ea8f41feb87880d4ac2bb7aff",
        "74402e59b0fed3416a367ba1fb0a05990affcbc1555e3570a07ac30faf7a6992",
    ),
}


def _floats(node, path=""):
    if isinstance(node, float):
        yield path
    elif isinstance(node, dict):
        for k, v in node.items():
            yield from _floats(v, f"{path}.{k}")
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _floats(v, f"{path}[{i}]")


@pytest.mark.parametrize("seed", range(1, 11))
@pytest.mark.parametrize("name, proper", FINITE_DIGESTS,
                         ids=lambda v: v if isinstance(v, str) else
                         ("proper" if v else "improper"))
def test_finite_report_digests_are_pinned(name, proper, seed):
    report = run_suite(name, RunConfig(seed=seed, samples=500, proper=proper))
    text = report.to_json()
    # the one float is the tolerance the run was configured with, an input
    assert list(_floats(json.loads(text))) == [".config.tol"]
    assert hashlib.sha256(text.encode()).hexdigest() == \
        FINITE_DIGESTS[name, proper][seed - 1]


@pytest.mark.parametrize("count", [500, 2000])
def test_sampled_pairs_are_the_scalar_draws(count):
    # one batched draw gives the stream of 2 * count scalar draws, so the
    # sampled pair-composition records keep their pairs
    for seed in range(1, 11):
        rng = np.random.default_rng(seed)
        scalar = [(int(rng.integers(0, 512)), int(rng.integers(0, 512)))
                  for _ in range(count)]
        assert list(suites._sampled_pairs_n3(seed, count)) == scalar


def test_a_check_over_no_samples_does_not_pass():
    # a pass over nothing becomes inconclusive, with the body's witness
    # under "vacuous"; a failure or an inconclusive body keeps its record
    def verdict(outcome):
        r = outcome.record("c", "a", 7)
        return r.verdict, r.witness

    assert verdict(suites.Outcome(True, {"maps": 0}, 0)) == \
        ("inconclusive", {"vacuous": {"maps": 0}})
    assert verdict(suites.Outcome(True, {"maps": 1}, 1)) == ("pass", {"maps": 1})
    assert verdict(suites.Outcome(False, {"bad": 1}, 0)) == ("fail", {"bad": 1})
    assert verdict(suites.Outcome(True, "undecided", 0, inconclusive=True)) == \
        ("inconclusive", "undecided")


def test_an_unsatisfiable_recipe_fails_its_record(monkeypatch):
    # a recipe that cannot construct its constants ends its own check, not
    # the run
    def unsatisfiable(flow, **kwargs):
        raise RecipeUnsatisfiable("no aperture above the floor")

    anchor, _, params = suites.FLOW_RECIPES["step3"]
    monkeypatch.setitem(suites.FLOW_RECIPES, "step3",
                        (anchor, unsatisfiable, params))
    records = {r.check_id: r for r in run_suite("flows", CONFIG).records}
    for name in suites.FLOW_NAMES:
        rec = records[f"step3-{name}"]
        assert (rec.verdict, rec.samples) == ("fail", 0)
        assert rec.witness == {"unsatisfiable": "no aperture above the floor"}
        assert records[f"step1-{name}"].verdict == "pass"


# --- batched checks: guards against a drift back to one item at a time -----

def test_sequence_classification_classifies_in_chunks(monkeypatch):
    rows = []
    classify = mf.classify_sequences

    def counting(seqs, x, u):
        rows.append((x, u))
        return classify(seqs, x, u)

    monkeypatch.setattr(mf, "classify_sequences", counting)
    out = suites._sequence_classification(RunConfig(samples=500), 7)
    chunk = suites.SEQUENCE_BATCH_ELEMENTS // (2 * suites.SEQUENCE_TERMS)
    # 250 sequences: 125 with a direction, 62 without, 63 divergent
    assert out.ok and out.samples == 250
    assert max(len(x) for x, _ in rows) <= chunk
    assert len(rows) <= sum(math.ceil(c / chunk) for c in (125, 62, 63))
    # the rows are the scalar draws of theta, then x, sequence by sequence
    rng = np.random.default_rng(7)
    scalar = []
    for _ in range(250):
        th = rng.uniform(0, 2 * np.pi)
        scalar.append([*rng.uniform(-1, 1, 2), np.cos(th), np.sin(th)])
    assert np.hstack([np.vstack([x for x, _ in rows]),
                      np.vstack([u for _, u in rows])]).tolist() == scalar


@pytest.mark.parametrize("body, exponents", [
    (suites._separation_distinct, [2, 3, 2, 3]),  # tails, then membership
    (suites._derivability, [2, 3]),
], ids=["separation", "derivability"])
def test_snowflake_checks_search_once_per_exponent_and_phase(body, exponents,
                                                             monkeypatch):
    searched = []
    refine = sf._golden_refine

    def counting(offsets, coeffs, a, b, m):
        searched.append(m)
        return refine(offsets, coeffs, a, b, m)

    monkeypatch.setattr(sf, "_golden_refine", counting)
    assert body(CONFIG, 7).ok
    assert searched == exponents


def test_sequence_classification_memory_is_bounded():
    # the chunks keep one body's traced peak small at the CLI's default
    # 2000 samples (0.9 MiB with 8 sequences per chunk, 6.0 MiB with 65)
    config = RunConfig(samples=2000)
    suites._sequence_classification(config, 7)
    tracemalloc.start()
    try:
        suites._sequence_classification(config, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2 ** 20
