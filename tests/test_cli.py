import hashlib
import json

import numpy as np
import pytest

from filterbench import flows as fl
from filterbench.cli import main
from filterbench.errors import (
    ConfigInvalid,
    IndexOutOfRange,
    ParseError,
    SchemaViolation,
    UnknownSuite,
)
from filterbench.iofiles import RelationSpec, ingest
from filterbench.reporting import CheckRecord, SuiteReport, jsonify, record
from filterbench.suites import RunConfig, run_suite


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


SIERPINSKI = {"kind": "topology", "n": 2, "opens": [[], [0], [0, 1]]}
TRANSLATION_3D = {"kind": "flow", "name": "translation", "u": [1, 0, 0]}
NILPOTENT_3D = {"kind": "flow", "name": "linear",
                "generator": [[0, 1, 0], [0, 0, 1], [0, 0, 0]]}


class TestReporting:
    def test_round_trip(self):
        rep = run_suite("finite-axioms", RunConfig(seed=2, samples=100))
        text = rep.to_json()
        again = SuiteReport.from_json(text)
        assert again.to_json() == text

    def test_fail_requires_witness(self):
        with pytest.raises(SchemaViolation):
            CheckRecord("c", "a", "fail")

    def test_unknown_verdict_rejected(self):
        with pytest.raises(SchemaViolation):
            CheckRecord("c", "a", "maybe")

    def test_record_helper_fills_witness(self):
        rec = record("c", "a", False)
        assert rec.verdict == "fail" and rec.witness is not None

    def test_jsonify_numpy(self):
        out = jsonify({"a": np.float64(1.5), "b": np.arange(3),
                       "c": np.True_, "d": frozenset({2, 1})})
        assert out == {"a": 1.5, "b": [0, 1, 2], "c": True, "d": [1, 2]}

    def test_timings_not_in_canonical_output(self):
        rep = run_suite("finite-axioms", RunConfig(samples=100))
        assert "elapsed" not in rep.to_json()
        assert "elapsed" in rep.to_json(timings=True)


class TestSuites:
    def test_unknown_suite(self):
        with pytest.raises(UnknownSuite):
            run_suite("nope")

    def test_config_validation(self):
        with pytest.raises(ConfigInvalid):
            RunConfig(samples=0)
        with pytest.raises(ConfigInvalid):
            RunConfig(tol=0.0)

    def test_exit_code_contract(self):
        rep = run_suite("pair-composition", RunConfig(samples=200))
        assert rep.summary["fail"] == 0
        assert rep.exit_code == 0

    def test_worker_determinism_small(self):
        cfg = RunConfig(seed=11, samples=200)
        a = run_suite("cones", cfg, workers=1).to_json()
        b = run_suite("cones", cfg, workers=3).to_json()
        assert a == b


class TestIngest:
    def test_topology(self, tmp_path):
        t = ingest(write(tmp_path, "t.json", SIERPINSKI), "topology")
        assert t.n == 2 and len(t.opens) == 3

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            ingest(str(path), "topology")

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(SchemaViolation):
            ingest(write(tmp_path, "k.json", {"kind": "mystery"}), "topology")

    def test_wrong_kind_names_both_kinds(self, tmp_path):
        with pytest.raises(SchemaViolation, match="expected 'filter', got 'topology'"):
            ingest(write(tmp_path, "t.json", SIERPINSKI), "filter")

    def test_point_out_of_range_delegated(self, tmp_path):
        bad = {"kind": "topology", "n": 2, "opens": [[], [0, 5], [0, 1]]}
        with pytest.raises(IndexOutOfRange):
            ingest(write(tmp_path, "r.json", bad), "topology")

    def test_relation(self, tmp_path):
        rel = ingest(write(tmp_path, "rel.json",
                           {"kind": "relation", "n": 2, "pairs": [[0, 1]]}),
                     "relation")
        assert isinstance(rel, RelationSpec)
        assert rel.pairs == ((0, 1),)

    def test_sequence_shape_checked(self, tmp_path):
        bad = {"kind": "sequence", "x": [0, 0], "u": [1, 0],
               "points": [[1.0], [0.5]]}
        with pytest.raises(SchemaViolation):
            ingest(write(tmp_path, "s.json", bad), "sequence")

    def test_flow(self, tmp_path):
        flow = ingest(write(tmp_path, "f.json",
                            {"kind": "flow", "name": "translation",
                             "u": [1.0, 0.0]}), "flow")
        assert np.allclose(flow(0.5, np.zeros((1, 2))), [[0.5, 0.0]])

    def test_filter_axioms_enforced(self, tmp_path):
        bad = {"kind": "filter", "topology": SIERPINSKI, "values": [1, 0, 1]}
        with pytest.raises(Exception):
            ingest(write(tmp_path, "mu.json", bad), "filter")


class TestMain:
    def test_check_topology_ok(self, tmp_path, capsys):
        code = main(["check", "topology", write(tmp_path, "t.json", SIERPINSKI)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["summary"]["fail"] == 0

    @pytest.mark.parametrize("what, payload", [
        ("topology", SIERPINSKI),
        ("map", {"kind": "map", "source": SIERPINSKI, "target": SIERPINSKI,
                 "image": [0, 1]}),
        ("filter", {"kind": "filter", "topology": SIERPINSKI,
                    "values": [0, 1, 1]}),
        ("refinement", {"kind": "refinement", "topology": SIERPINSKI,
                        "assignment": [[[0, 1, 1]], [[0, 0, 1]]]}),
        ("uniformity", {"kind": "relation", "n": 2,
                        "pairs": [[0, 1], [0, 0], [1, 1]]}),
    ])
    def test_check_records_count_the_one_object(self, tmp_path, capsys, what,
                                                payload):
        main(["check", what, write(tmp_path, "spec.json", payload)])
        records = json.loads(capsys.readouterr().out)["records"]
        assert records
        assert [r["samples"] for r in records] == [1] * len(records)

    def test_noncontinuous_map_fails(self, tmp_path, capsys):
        payload = {"kind": "map", "source": SIERPINSKI, "target": SIERPINSKI,
                   "image": [1, 0]}
        code = main(["check", "map", write(tmp_path, "m.json", payload)])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["records"][0]["verdict"] == "fail"
        assert out["records"][0]["witness"] is not None

    def test_point_filter_refinement_fails(self, tmp_path, capsys):
        # o(0) = [0, 1, 1] and o(1) = [0, 0, 1]: no member is strictly finer
        payload = {"kind": "refinement", "topology": SIERPINSKI,
                   "assignment": [[[0, 1, 1]], [[0, 0, 1]]]}
        code = main(["check", "refinement", write(tmp_path, "r.json", payload)])
        rec = json.loads(capsys.readouterr().out)["records"][0]
        assert code == 1
        assert (rec["check_id"], rec["verdict"]) == ("refinement-valid", "fail")
        assert rec["witness"]["witness"] == [
            0, [0, 1, 1], "no open distinguishes mu from the point filter"]

    def test_refinement_member_that_is_no_filter_is_input_error(
            self, tmp_path, capsys):
        # [1, 0, 1] is 1 on the empty set and 0 on {0}: not monotone
        payload = {"kind": "refinement", "topology": SIERPINSKI,
                   "assignment": [[[1, 1, 1]], [[1, 0, 1]]]}
        code = main(["check", "refinement", write(tmp_path, "r.json", payload)])
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert code == 2
        assert captured.out == ""
        assert err["error"] == "FilterAxiomViolation"
        assert err["detail"] == {"axiom": "B", "witness": [0, 0b01]}
        assert "r.json.assignment[1][0]: mu([]) > mu([0])" in err["message"]

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        code = main(["check", "topology", str(tmp_path / "nope.json")])
        err = json.loads(capsys.readouterr().err)
        assert code == 2
        assert err["error"] == "ParseError"

    @pytest.mark.parametrize("argv", [
        ["check", "filter"], ["check", "refinement"],
        ["flow", "conditions"], ["flow", "lemacon"],
    ], ids=" ".join)
    def test_wrong_kind_is_input_error(self, tmp_path, capsys, argv):
        code = main([*argv, write(tmp_path, "t.json", SIERPINSKI)])
        err = json.loads(capsys.readouterr().err)
        assert code == 2
        assert err["error"] == "SchemaViolation"
        assert "got 'topology'" in err["message"]

    @pytest.mark.parametrize("command, payload, field", [
        (["flow", "conditions"],
         {"kind": "flow", "name": "rotation", "omega": "fast"}, ".omega"),
        (["check", "uniformity"],
         {"kind": "relation", "n": 2, "pairs": 5}, ".pairs"),
        (["flow", "conditions"],
         {"kind": "flow", "name": "translation", "u": "ab"}, ".u"),
        (["geom", "classify"],
         {"kind": "sequence", "x": [0, 0], "u": "q", "points": [[1, 0]]},
         ".u"),
        (["flow", "conditions"],
         {"kind": "flow", "name": "linear", "generator": [[1, 2, 3]]},
         ".generator[0]"),
        (["check", "map"],
         {"kind": "map", "source": SIERPINSKI, "target": SIERPINSKI,
          "image": ["a", 0]}, ".image[0]"),
        (["check", "topology"],
         {"kind": "topology", "n": 2, "opens": [[], ["x"], [0, 1]]},
         ".opens[1][0]"),
        (["check", "refinement"],
         {"kind": "refinement", "topology": SIERPINSKI, "assignment": [5, []]},
         ".assignment[0]"),
        (["check", "topology"],
         {"kind": "topology", "n": True, "opens": [[], [0]]}, ".n"),
    ], ids=["omega", "pairs", "translation-u", "sequence-u", "generator",
            "image-entry", "open-entry", "assignment-row", "boolean-n"])
    def test_bad_spec_field_is_input_error(self, tmp_path, capsys, command,
                                           payload, field):
        code = main([*command, write(tmp_path, "spec.json", payload)])
        err = json.loads(capsys.readouterr().err)
        assert code == 2
        assert err["error"] == "SchemaViolation"
        assert f"spec.json{field}:" in err["message"]

    def test_missing_filter_file_is_input_error(self, tmp_path, capsys):
        code = main(["check", "filter", str(tmp_path / "nope.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "ParseError"

    @pytest.mark.parametrize("values", [[0, 0.9, 1], [0, "1", 1.7]],
                             ids=["fraction", "string-and-float"])
    def test_non_binary_filter_values_fail_axiom_a(self, tmp_path, capsys,
                                                   values):
        # values are not truncated to int before the 0/1 test
        payload = {"kind": "filter", "topology": SIERPINSKI, "values": values}
        code = main(["check", "filter", write(tmp_path, "mu.json", payload)])
        rec = json.loads(capsys.readouterr().out)["records"][0]
        assert code == 1
        assert rec["verdict"] == "fail"
        assert rec["witness"]["axiom"] == "A"

    def test_suite_writes_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["suite", "finite-axioms", "--seed", "1",
                     "--samples", "100", "--out", str(out)])
        assert code == 0
        rep = SuiteReport.from_json(out.read_text())
        assert rep.suite == "finite-axioms"
        assert rep.summary["fail"] == 0

    def test_global_flags_position_independent(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["--seed", "5", "--samples", "150", "suite", "cones",
                     "--out", str(a)]) == 0
        assert main(["suite", "cones", "--seed", "5", "--samples", "150",
                     "--out", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_enumerate_filters_improper_flag(self, tmp_path, capsys):
        path = write(tmp_path, "t.json", SIERPINSKI)
        main(["enumerate", "filters", path])
        proper = json.loads(capsys.readouterr().out)
        main(["enumerate", "filters", path, "--improper-filters"])
        improper = json.loads(capsys.readouterr().out)
        n_proper = proper["records"][0]["witness"]["count"]
        n_improper = improper["records"][0]["witness"]["count"]
        assert n_proper == 2
        assert n_improper > n_proper

    def test_geom_cone(self, capsys):
        code = main(["geom", "cone", "--x", "0,0", "--u", "1,0",
                     "--y", "0.5,0.1"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["records"][0]["witness"]["member"] is True

    def test_snowflake_separate_equal(self, capsys):
        code = main(["snowflake", "separate", "--p1", "0,1", "--p2", "0,1",
                     "--m", "2"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["records"][0]["witness"]["status"] == "equal"

    def test_snowflake_separate_distinct(self, capsys):
        code = main(["snowflake", "separate", "--p1", "0,1", "--p2", "0,1,1",
                     "--m", "2"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        rec = out["records"][0]
        witness = rec["witness"]
        assert witness["status"] == "separated"
        assert rec["verdict"] == "pass"
        assert 0 < witness["generator_aperture"] < witness["min_ratio"]

    @pytest.mark.parametrize("p2", ["0,1", "0,2"], ids=["equal", "distinct"])
    def test_snowflake_separate_rejects_exponent_one(self, capsys, p2):
        code = main(["snowflake", "separate", "--p1", "0,1", "--p2", p2,
                     "--m", "1"])
        err = json.loads(capsys.readouterr().err)
        assert code == 2
        assert err["error"] == "ConstraintViolation"

    def test_check_map_on_discrete_four_points(self, tmp_path, capsys):
        # 15 proper filters, one per nonempty subset
        discrete = {"kind": "topology", "n": 4,
                    "opens": [[p for p in range(4) if m >> p & 1]
                              for m in range(16)]}
        payload = {"kind": "map", "source": discrete, "target": discrete,
                   "image": [1, 0, 3, 2]}
        code = main(["check", "map", write(tmp_path, "m.json", payload)])
        records = json.loads(capsys.readouterr().out)["records"]
        assert code == 0
        assert [(r["check_id"], r["verdict"]) for r in records] == [
            ("map-continuous", "pass"), ("pushforward-continuity", "pass")]

    def test_discrete_five_points_has_no_size_limit(self, tmp_path, capsys):
        # 32 opens: the filters are the opens, listed in linear time
        discrete = {"kind": "topology", "n": 5,
                    "opens": [[p for p in range(5) if m >> p & 1]
                              for m in range(32)]}
        payload = {"kind": "map", "source": discrete, "target": discrete,
                   "image": [1, 0, 2, 3, 4]}
        assert main(["enumerate", "filters",
                     write(tmp_path, "t.json", discrete)]) == 0
        rec, = json.loads(capsys.readouterr().out)["records"]
        assert (rec["verdict"], rec["witness"]["count"]) == ("pass", 31)
        assert main(["check", "map", write(tmp_path, "m.json", payload)]) == 0
        records = json.loads(capsys.readouterr().out)["records"]
        assert [(r["check_id"], r["verdict"]) for r in records] == [
            ("map-continuous", "pass"), ("pushforward-continuity", "pass")]

    @pytest.mark.parametrize("argv, digest", [
        (["3"],
         "3688ab7f55e100eeecb22fe749c1607f903eea209d548e391054c7ecbffad314"),
        (["4"],
         "d4e88d5415ddc9b6e9672841415039696ddf142933d0c407440ef533588a030b"),
        (["4", "--t0-only"],
         "79259630c17b2731b59bff7195c68c42e921f0fdf38ae4955ef64031df8f3dab"),
    ], ids=" ".join)
    def test_enumerate_topologies_output_is_pinned(self, capsys, argv,
                                                   digest):
        # integers only, so the bytes do not depend on the CPU
        assert main(["enumerate", "topologies", *argv]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("n, message", [
        ("-1", "enumerate_topologies needs n >= 0, got -1"),
        ("5", "enumerate_topologies supports n <= 4"),
    ], ids=["negative", "five"])
    def test_point_count_out_of_range_is_input_error(self, capsys, n,
                                                      message):
        code = main(["enumerate", "topologies", "--", n])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        err = json.loads(captured.err)
        assert (err["error"], err["message"]) == ("SizeLimitExceeded", message)

    @pytest.mark.parametrize("argv", [
        ["flow", "conditions", "rotation", "--samples", "200"],
        ["enumerate", "topologies", "3"],
        ["check", "topology", "sierpinski"],
    ], ids=["flow-conditions", "enumerate-topologies", "check-topology"])
    def test_timings_report_elapsed_times(self, argv, tmp_path, capsys):
        argv = [write(tmp_path, "t.json", SIERPINSKI) if a == "sierpinski"
                else a for a in argv]
        assert main(argv) == 0
        canonical = capsys.readouterr().out
        assert main([*argv, "--timings"]) == 0
        timed = json.loads(capsys.readouterr().out)
        assert all(r["elapsed"] > 0 for r in timed["records"])
        for r in timed["records"]:
            del r["elapsed"]
        assert timed == json.loads(canonical)

    def test_flow_lemacon(self, capsys):
        code = main(["flow", "lemacon", "translation", "--samples", "300"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["records"][0]["witness"]["violations"] == 0

    def test_flow_transport_reads_no_conditions_report(self, capsys,
                                                       monkeypatch):
        def unused(*args, **kwargs):
            raise AssertionError("flow transport computed a conditions report")

        monkeypatch.setattr(fl, "check_flow_conditions", unused)
        code = main(["flow", "transport", "shear_half", "translation"])
        rec = json.loads(capsys.readouterr().out)["records"][0]
        assert code == 0
        assert rec["verdict"] == "pass"
        assert rec["samples"] == 2000

    def test_unknown_suite_name_rejected(self):
        with pytest.raises(SystemExit):
            main(["suite", "bogus"])

    def test_workers_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["suite", "cones", "--workers", "2"])
        assert exit_info.value.code == 2
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["check", "foo", "x.json"],
                                      ["geom", "foo"]], ids=" ".join)
    def test_unknown_command_rejected_by_argparse(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", [TRANSLATION_3D, NILPOTENT_3D],
                             ids=["translation", "nilpotent"])
    @pytest.mark.parametrize("command", ["conditions", "lemacon", "step3"])
    def test_three_dimensional_flow_spec(self, tmp_path, capsys, command,
                                         spec):
        code = main(["flow", command, write(tmp_path, "f3.json", spec),
                     "--samples", "500"])
        rec = json.loads(capsys.readouterr().out)["records"][0]
        assert code == 0
        assert rec["verdict"] == "pass"

    def test_flow_and_map_dimensions_must_agree(self, tmp_path, capsys):
        code = main(["flow", "transport", "shear_half",
                     write(tmp_path, "f3.json", TRANSLATION_3D)])
        err = json.loads(capsys.readouterr().err)
        assert code == 2
        assert err["error"] == "DomainViolation"
        assert "dimension 2" in err["message"]
        assert "dimension 3" in err["message"]

    @pytest.mark.parametrize("argv, lengths", [
        (["geom", "cone", "--x", "0,0", "--u", "1,0,0", "--y", "0.5,0.1"],
         ("length 2", "is 3")),
        (["geom", "cone", "--x", "0,0", "--u", "1,0", "--y", "0.5,0.1,0"],
         ("length 3", "is 2")),
        (["geom", "transport", "parabolic_shear", "--x", "0,0,0",
          "--u", "1,0,0"], ("x has length 3", "is 2")),
        (["geom", "transport", "parabolic_shear", "--x", "0,0",
          "--u", "1,0,0"], ("u has length 3", "is 2")),
    ], ids=["cone-u", "cone-y", "transport-x", "transport-u"])
    def test_vector_of_wrong_length_is_input_error(self, capsys, argv,
                                                   lengths):
        code = main(argv)
        err = json.loads(capsys.readouterr().err)
        assert code == 2
        assert err["error"] == "DomainViolation"
        assert all(n in err["message"] for n in lengths)

    def test_zero_direction_sequence_is_input_error(self, tmp_path, capsys):
        payload = {"kind": "sequence", "x": [0, 0], "u": [0, 0],
                   "points": [[1.0 / k, 0] for k in range(1, 20)]}
        code = main(["geom", "classify", write(tmp_path, "s.json", payload)])
        err = json.loads(capsys.readouterr().err)
        assert code == 2
        assert err["error"] == "NonUnitDirection"
