"""File ingestion: JSON spec files dispatched on their "kind" field.

Every loader reports schema problems with the offending field path;
domain-level validation (topology closure, filter axioms, ...) is
delegated to the corresponding constructors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import FilterAxiomViolation, ParseError, SchemaViolation
from .filter_algebra import IndicatorFilter, Refinement, check_filter_axioms
from .finite_topology import FiniteTopology, PointMap, validate_topology
from .flows import Flow, linear_flow, rotation_flow, scaling_flow, \
    translation_flow

@dataclass(frozen=True)
class RelationSpec:
    n: int
    pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class SequenceSpec:
    x: np.ndarray
    u: np.ndarray
    points: np.ndarray


def _field(payload: dict, name: str, where: str):
    if name not in payload:
        raise SchemaViolation(f"{where}: missing field {name!r}")
    return payload[name]


def _number(value, where: str) -> float:
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise SchemaViolation(f"{where}: expected a finite number")
    return float(value)


def _integer(value, where: str, low: int) -> int:
    """A JSON integer >= low; true and false are not integers here."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise SchemaViolation(f"{where}: expected an integer >= {low}")
    return value


def _indices(value, where: str) -> list[int]:
    """A list of point indices >= 0; the caller or the constructor checks
    them against the point count."""
    if not isinstance(value, list):
        raise SchemaViolation(f"{where}: expected a list of point indices")
    return [_integer(v, f"{where}[{i}]", 0) for i, v in enumerate(value)]


def _vector(value, where: str, dim: int | None = None) -> np.ndarray:
    if (not isinstance(value, list) or not value
            or dim is not None and len(value) != dim):
        size = "a nonempty" if dim is None else f"a length-{dim}"
        raise SchemaViolation(f"{where}: expected {size} list of numbers")
    return np.array([_number(v, f"{where}[{i}]") for i, v in enumerate(value)])


def _matrix(value, where: str, cols: int | None = None) -> np.ndarray:
    """A nonempty list of numeric rows of length cols (default: square)."""
    if not isinstance(value, list) or not value:
        raise SchemaViolation(f"{where}: expected a nonempty list of rows")
    cols = len(value) if cols is None else cols
    return np.array([_vector(row, f"{where}[{i}]", cols)
                     for i, row in enumerate(value)])


def _load_topology(payload: dict, where: str) -> FiniteTopology:
    n = _integer(_field(payload, "n", where), f"{where}.n", 1)
    opens = _field(payload, "opens", where)
    if not isinstance(opens, list):
        raise SchemaViolation(f"{where}.opens: expected a list of point lists")
    return validate_topology(n, [_indices(o, f"{where}.opens[{i}]")
                                 for i, o in enumerate(opens)])


def _load_map(payload: dict, where: str) -> PointMap:
    src = _load_topology(_field(payload, "source", where), where + ".source")
    tgt = _load_topology(_field(payload, "target", where), where + ".target")
    image = _indices(_field(payload, "image", where), f"{where}.image")
    if len(image) != src.n:
        raise SchemaViolation(
            f"{where}.image: expected a list of {src.n} point indices")
    return PointMap(src, tgt, tuple(image))


def _load_filter(payload: dict, where: str,
                 proper: bool = True) -> IndicatorFilter:
    t = _load_topology(_field(payload, "topology", where), where + ".topology")
    values = _field(payload, "values", where)
    if not isinstance(values, list) or len(values) != len(t.opens):
        raise SchemaViolation(
            f"{where}.values: expected one 0/1 entry per open "
            f"({len(t.opens)} opens)")
    return check_filter_axioms(t, tuple(values), proper=proper)


def _load_refinement(payload: dict, where: str) -> Refinement:
    t = _load_topology(_field(payload, "topology", where), where + ".topology")
    assignment = _field(payload, "assignment", where)
    if not isinstance(assignment, list) or len(assignment) != t.n:
        raise SchemaViolation(
            f"{where}.assignment: expected one filter list per point")
    rows = []
    for i, row in enumerate(assignment):
        if not isinstance(row, list):
            raise SchemaViolation(
                f"{where}.assignment[{i}]: expected a list of filters")
        filters = []
        for j, values in enumerate(row):
            if not isinstance(values, list) or len(values) != len(t.opens):
                raise SchemaViolation(
                    f"{where}.assignment[{i}][{j}]: expected "
                    f"{len(t.opens)} 0/1 entries")
            try:
                filters.append(check_filter_axioms(t, values, proper=False))
            except FilterAxiomViolation as e:
                raise FilterAxiomViolation(
                    e.axiom, e.witness,
                    f"{where}.assignment[{i}][{j}]: {e}") from None
        rows.append(tuple(filters))
    return Refinement(t, tuple(rows))


def _load_relation(payload: dict, where: str) -> RelationSpec:
    n = _integer(_field(payload, "n", where), f"{where}.n", 1)
    pairs = _field(payload, "pairs", where)
    if not isinstance(pairs, list):
        raise SchemaViolation(f"{where}.pairs: expected a list of [i, j] pairs")
    out = []
    for i, pair in enumerate(pairs):
        pair = _indices(pair, f"{where}.pairs[{i}]")
        if len(pair) != 2 or max(pair) >= n:
            raise SchemaViolation(
                f"{where}.pairs[{i}]: expected [i, j] with indices below {n}")
        out.append((pair[0], pair[1]))
    return RelationSpec(n, tuple(out))


def _load_flow(payload: dict, where: str) -> Flow:
    name = _field(payload, "name", where)
    if name == "translation":
        return translation_flow(_vector(_field(payload, "u", where),
                                        f"{where}.u"))
    if name == "rotation":
        return rotation_flow(_number(payload.get("omega", 1.0),
                                     f"{where}.omega"))
    if name == "scaling":
        return scaling_flow(_number(payload.get("rate", 1.0), f"{where}.rate"))
    if name == "linear":
        return linear_flow(_matrix(_field(payload, "generator", where),
                                   f"{where}.generator"))
    raise SchemaViolation(
        f"{where}.name: unknown flow {name!r} "
        "(translation, rotation, scaling, linear)")


def _load_sequence(payload: dict, where: str) -> SequenceSpec:
    x = _vector(_field(payload, "x", where), f"{where}.x")
    u = _vector(_field(payload, "u", where), f"{where}.u", len(x))
    points = _matrix(_field(payload, "points", where), f"{where}.points",
                     len(x))
    return SequenceSpec(x, u, points)


_LOADERS = {
    "topology": _load_topology,
    "map": _load_map,
    "filter": _load_filter,
    "refinement": _load_refinement,
    "relation": _load_relation,
    "flow": _load_flow,
    "sequence": _load_sequence,
}


def ingest(path: str, kind: str, proper: bool = True):
    """Load and validate a spec file of the given kind; returns the typed
    domain object.  A file of another kind is a SchemaViolation."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e
    except OSError as e:
        raise ParseError(f"{path}: {e.strerror}") from e
    if not isinstance(payload, dict):
        raise SchemaViolation(f"{path}: top level must be an object")
    got = payload.get("kind")
    if got != kind:
        raise SchemaViolation(f"{path}.kind: expected {kind!r}, got {got!r}")
    if kind == "filter":
        return _load_filter(payload, path, proper=proper)
    return _LOADERS[kind](payload, path)
