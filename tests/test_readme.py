"""The README's command-line examples, run in-process through ``cli.main``
on the spec files of its "Spec files" section."""

import json
import re
import shlex
from pathlib import Path

import pytest

from filterbench.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
COMMANDS = [shlex.split(line)[1:] for line in re.search(
    r"## Command line.*?```sh\n(.*?)```", README, re.S).group(1).splitlines()
    if line.startswith("filterbench ")]
SPECS = re.search(r"## Spec files.*?```jsonc\n(.*?)```", README,
                  re.S).group(1).splitlines()
# README elides the sequence's points; the test completes them as 1/k e1
ELIDED_POINTS = "[[1, 0], ...]"
# README's relation is the asymmetric witness, which fails axioms (a), (c)
FAILING = {("check", "uniformity", "relation.json")}


def _spec(kind: str) -> dict:
    line = next(s for s in SPECS if f'"kind": "{kind}"' in s)
    if kind == "sequence":
        assert ELIDED_POINTS in line
        points = [[1.0 / k, 0.0] for k in range(1, 101)]
        line = line.replace(ELIDED_POINTS, json.dumps(points))
    return json.loads(line)


FILES = {"sierpinski.json": "topology", "topology.json": "topology",
         "relation.json": "relation", "sequence.json": "sequence"}


def test_every_spec_file_a_command_reads_is_known():
    read = {arg for argv in COMMANDS for arg in argv
            if arg.endswith(".json") and arg != "report.json"}
    assert len(COMMANDS) == 15
    assert read == set(FILES)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_command(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, kind in FILES.items():
        (tmp_path / name).write_text(json.dumps(_spec(kind)))
    code = main(argv)
    out = capsys.readouterr().out
    report = json.loads((tmp_path / "report.json").read_text()
                        if "--out" in argv else out)
    failing = tuple(argv) in FAILING
    assert code == (1 if failing else 0)
    assert (report["summary"]["fail"] > 0) == failing
