"""Structured check records and suite reports.

Reports serialize canonically: records sorted by check id, keys sorted,
compact separators, and no timing data, so equal (suite, config) runs are
byte-identical regardless of execution order or worker count.  Elapsed
times are kept in memory and written only on request, to a separate
non-canonical payload.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import SchemaViolation

VERDICTS = ("pass", "fail", "inconclusive")


def jsonify(obj):
    """Recursively convert a witness payload to plain JSON types."""
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [jsonify(v) for v in obj.tolist()]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, frozenset):
        return sorted(jsonify(v) for v in obj)
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set)):
        return [jsonify(v) for v in obj]
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return repr(obj)


@dataclass(frozen=True)
class CheckRecord:
    check_id: str
    anchor: str                 # stable label of the statement being checked
    verdict: str                # pass | fail | inconclusive
    witness: object = None      # required when verdict == fail
    seed: int = 0
    samples: int = 0
    elapsed: float = 0.0        # excluded from canonical serialization

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise SchemaViolation(f"unknown verdict {self.verdict!r}")
        if self.verdict == "fail" and self.witness is None:
            raise SchemaViolation(f"fail record {self.check_id} needs a witness")

    def to_dict(self, timings: bool = False) -> dict:
        out = {
            "check_id": self.check_id,
            "anchor": self.anchor,
            "verdict": self.verdict,
            "witness": jsonify(self.witness),
            "seed": self.seed,
            "samples": self.samples,
        }
        if timings:
            out["elapsed"] = self.elapsed
        return out

    @staticmethod
    def from_dict(d: dict) -> "CheckRecord":
        try:
            return CheckRecord(
                check_id=d["check_id"], anchor=d["anchor"],
                verdict=d["verdict"], witness=d.get("witness"),
                seed=d.get("seed", 0), samples=d.get("samples", 0),
                elapsed=d.get("elapsed", 0.0))
        except KeyError as e:
            raise SchemaViolation(f"record missing field {e}") from e


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    config: dict
    records: tuple[CheckRecord, ...]

    @property
    def summary(self) -> dict:
        counts = {v: 0 for v in VERDICTS}
        for r in self.records:
            counts[r.verdict] += 1
        return counts

    @property
    def exit_code(self) -> int:
        return 0 if self.summary["fail"] == 0 else 1

    def sorted(self) -> "SuiteReport":
        return replace(self, records=tuple(
            sorted(self.records, key=lambda r: r.check_id)))

    def to_json(self, timings: bool = False) -> str:
        normalized = self.sorted()
        payload = {
            "suite": normalized.suite,
            "config": jsonify(normalized.config),
            "summary": normalized.summary,
            "records": [r.to_dict(timings) for r in normalized.records],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"

    @staticmethod
    def from_json(text: str) -> "SuiteReport":
        payload = json.loads(text)
        for key in ("suite", "config", "records"):
            if key not in payload:
                raise SchemaViolation(f"report missing field {key!r}")
        return SuiteReport(
            suite=payload["suite"], config=payload["config"],
            records=tuple(CheckRecord.from_dict(d) for d in payload["records"]))


def record(check_id: str, anchor: str, ok, witness=None, seed: int = 0,
           samples: int = 0, elapsed: float = 0.0,
           inconclusive: bool = False) -> CheckRecord:
    """Build a record from a boolean outcome."""
    if inconclusive:
        verdict = "inconclusive"
    else:
        verdict = "pass" if ok else "fail"
    if verdict == "fail" and witness is None:
        witness = "no witness captured"
    return CheckRecord(check_id, anchor, verdict, witness, seed, samples,
                       elapsed)
