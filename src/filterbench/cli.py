"""Command-line workbench entry point.

Every command emits a canonical JSON report (stdout or --out) and follows
the exit-code contract: 0 iff the report contains no fail records, 2 on
input or configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import filter_algebra as fa
from . import finite_topology as ft
from . import flows as fl
from . import metric_filters as mf
from . import pair_calculus as pc
from . import snowflake as sf
from .errors import FilterAxiomViolation, SchemaViolation, WorkbenchError
from .iofiles import ingest
from .maps import BUILTIN_MAPS
from .reporting import SuiteReport, jsonify, record
from .suites import (FLOW_RECIPES, REPORT_SAMPLES, SUITE_NAMES, RunConfig,
                     flow_transport, recipe_outcome, run_suite)


def _parse_coeffs(text: str):
    return sf.Polynomial.from_coeffs([c.strip() for c in text.split(",")])


def _parse_vector(text: str) -> np.ndarray:
    return np.asarray([float(v) for v in text.split(",")], dtype=float)


def _builtin(table: dict, name: str, what: str):
    if name not in table:
        raise SchemaViolation(
            f"unknown {what} {name!r}; choose from {sorted(table)}")
    return table[name]


def _emit(report: SuiteReport, args) -> int:
    text = report.to_json(timings=args.timings)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return report.exit_code


def _single(args, name: str, records) -> int:
    config = _config(args)
    return _emit(SuiteReport(name, config.as_dict(), tuple(records)), args)


def _config(args) -> RunConfig:
    return RunConfig(seed=args.seed, samples=args.samples, tol=args.tol,
                     proper=not args.improper_filters)


# --- check -------------------------------------------------------------------

def _cmd_check(args) -> int:
    if args.what == "topology":
        t = ingest(args.file, "topology")
        t0, witness = ft.is_t0(t)
        return _single(args, "check:topology", [
            record("topology-valid", "sec:2.1", True,
                   witness={"n": t.n, "opens": len(t.opens)}),
            record("topology-t0", "sec:2.1", True,
                   witness={"t0": t0, "witness": witness},
                   inconclusive=False),
        ])
    if args.what == "map":
        f = ingest(args.file, "map")
        cont, witness = ft.is_continuous(f)
        records = [record("map-continuous", "sec:2.1", cont,
                          witness={"open_preimage_witness": witness})]
        if cont:
            ok, w = fa.check_pushforward_continuity(f)
            records.append(record("pushforward-continuity", "prop:prop26",
                                  ok, witness={"witness": w}))
        return _single(args, "check:map", records)
    if args.what == "filter":
        try:
            mu = ingest(args.file, "filter",
                        proper=not args.improper_filters)
        except FilterAxiomViolation as e:
            rec = record("filter-axioms", "def:dfilta", False,
                         witness={"axiom": e.axiom, "error": str(e)})
        else:
            rec = record("filter-axioms", "def:dfilta", True,
                         witness={"support": [sorted(ft.set_of(s))
                                              for s in mu.support()]})
        return _single(args, "check:filter", [rec])
    if args.what == "refinement":
        r = ingest(args.file, "refinement")
        ok, witness = fa.check_refinement(r)
        return _single(args, "check:refinement", [
            record("refinement-valid", "def:def27", ok,
                   witness={"witness": witness})])
    rel = ingest(args.file, "relation")
    ps = pc.product_topology(ft.validate_topology(rel.n, range(1 << rel.n)))
    omega = pc.principal_pair_filter(
        ps, pc.relation_mask(rel.n, list(rel.pairs)))
    rep = pc.check_uniformity(omega, ps)
    return _single(args, "check:uniformity", [
        record("uniformity-axioms", "def:def29", rep.is_uniformity,
               witness={"axiom_a": rep.axiom_a, "axiom_b": rep.axiom_b,
                        "axiom_c": rep.axiom_c,
                        "axiom_a_witness": rep.axiom_a_witness})])


# --- enumerate ---------------------------------------------------------------

def _cmd_enumerate(args) -> int:
    if args.what == "topologies":
        tops = list(ft.enumerate_topologies(args.n, t0_only=args.t0_only))
        witness = {"count": len(tops),
                   "opens": [[sorted(ft.set_of(o)) for o in t.opens]
                             for t in tops]}
        return _single(args, "enumerate:topologies", [
            record(f"topologies-n{args.n}", "sec:2.1", True, witness=witness,
                   samples=len(tops))])
    t = ingest(args.file, "topology")
    filters = fa.enumerate_filters(t, proper=not args.improper_filters)
    witness = {"count": len(filters),
               "values": [list(mu.values) for mu in filters]}
    return _single(args, "enumerate:filters", [
        record("filters", "def:dfilta", True, witness=witness,
               samples=len(filters))])


# --- geom --------------------------------------------------------------------

def _cmd_geom(args) -> int:
    if args.what == "classify":
        seq = ingest(args.file, "sequence")
        v = mf.classify_sequence(seq.points, seq.x, seq.u)
        return _single(args, "geom:classify", [
            record("sequence-classification", "sec:1:step7", v.agreement,
                   witness={"converges_to_point": v.converges_to_point,
                            "direction_limit": v.direction_limit,
                            "matches_filter": v.matches_filter,
                            "agreement": v.agreement},
                   samples=len(seq.points))])
    if args.what == "cone":
        g = mf.ConeGenerator(_parse_vector(args.x), _parse_vector(args.u),
                             args.eps, args.sigma)
        inside = bool(mf.v_plus_contains(g, _parse_vector(args.y)))
        return _single(args, "geom:cone", [
            record("cone-membership", "sec:1:step7", True,
                   witness={"member": inside})])
    spec = _builtin(BUILTIN_MAPS, args.map, "map")
    rng = np.random.default_rng(args.seed)
    out = mf.transport_via_sequences(spec, _parse_vector(args.x),
                                     _parse_vector(args.u), rng=rng)
    ok = out.residual_angle < mf.TRANSPORT_TOL
    return _single(args, "geom:transport", [
        record("transport-direction", "thm:trad1", ok,
               witness={"direction": out.direction,
                        "expected": out.expected,
                        "residual_angle": out.residual_angle},
               seed=args.seed)])


# --- snowflake ---------------------------------------------------------------

def _cmd_snowflake(args) -> int:
    if args.what == "separate":
        out = sf.separate_polynomials(_parse_coeffs(args.p1),
                                      _parse_coeffs(args.p2), args.m)
        if out == "equal":
            witness = {"status": "equal"}
            ok = True
        else:
            witness = {"status": out["status"],
                       "min_ratio": out["min_ratio"],
                       "generator_aperture": out["generator"].lam}
            ok = out["verified"]
        return _single(args, "snowflake:separate", [
            record("polynomial-separation", "sec:2.3:prop", ok,
                   witness=witness)])
    out = sf.check_poly_derivable(
        _builtin(sf.BUILTIN_FUNCS, args.f, "function"), args.x,
        _parse_coeffs(args.p), args.m)
    return _single(args, "snowflake:derive", [
        record("polynomial-derivability", "sec:2.3:thm", out["matches"],
               witness={"truncation": out["oracle_coeffs"],
                        "ratios": out["ratios"]})])


# --- flow --------------------------------------------------------------------

def _flow_of(args) -> fl.Flow:
    if args.flow in fl.BUILTIN_FLOWS:
        return fl.BUILTIN_FLOWS[args.flow]
    return ingest(args.flow, "flow")  # spec file path


_RECIPE_CHECK_IDS = {"lemacon": "aperture-transfer",
                     "step3": "composition-recipe"}


def _cmd_flow(args) -> int:
    config = _config(args)
    flow = _flow_of(args)
    if args.what == "conditions":
        rep = fl.check_flow_conditions(flow, samples=config.samples,
                                       seed=config.seed)
        return _single(args, "flow:conditions", [
            record("flow-conditions", "sec:2.4:conditions", rep.all_pass,
                   witness={"passes": rep.passes,
                            "identity_residual": rep.identity_residual,
                            "group_residual": rep.group_residual,
                            "m_table": {str(k): v for k, v
                                        in rep.m_table.items()},
                            "c_constant": rep.c_constant,
                            "converged": rep.converged},
                   seed=config.seed, samples=config.samples,
                   inconclusive=not rep.converged)])
    if args.what == "transport":
        out = flow_transport(_builtin(BUILTIN_MAPS, args.map, "map"), flow,
                             config.samples, config.seed)
        return _single(args, "flow:transport", [
            out.record("flow-transport", "lem:lem3", config.seed)])
    anchor, recipe, _ = FLOW_RECIPES[args.what]
    rep = fl.check_flow_conditions(
        flow, samples=min(config.samples, REPORT_SAMPLES), seed=config.seed)
    out = recipe(flow, args.eps, args.mu, rep, samples=config.samples,
                 seed=config.seed)
    return _single(args, f"flow:{args.what}", [
        recipe_outcome(out).record(_RECIPE_CHECK_IDS[args.what], anchor,
                                   config.seed)])


# --- parser ------------------------------------------------------------------

GLOBAL_FLAGS = (
    (("--seed",), dict(type=int, default=0)),
    (("--samples",), dict(type=int, default=2000)),
    (("--tol",), dict(type=float, default=1e-9)),
    (("--out",), dict(default=None, help="write the report here")),
    (("--improper-filters",), dict(action="store_true",
     help="allow filters that accept the empty set")),
    (("--workers",), dict(type=int, default=1)),
    (("--timings",), dict(action="store_true",
     help="include elapsed times (non-canonical report)")),
)


def _add_global_flags(parser: argparse.ArgumentParser, suppress: bool):
    # registered on leaves with SUPPRESS so flags work on either side of
    # the subcommand without clobbering values parsed at the root
    for names, kw in GLOBAL_FLAGS:
        kw = dict(kw)
        if suppress:
            kw["default"] = argparse.SUPPRESS
        parser.add_argument(*names, **kw)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="filterbench",
        description="Verification workbench for topological filters, "
                    "uniformities and metric-space derivatives.")
    _add_global_flags(p, suppress=False)
    sub = p.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="validate a single spec file")
    check.add_argument("what", choices=["topology", "map", "filter",
                                        "refinement", "uniformity"])
    check.add_argument("file")
    check.set_defaults(fn=_cmd_check)

    enum = sub.add_parser("enumerate", help="exhaustive enumerations")
    enum_sub = enum.add_subparsers(dest="what", required=True)
    et = enum_sub.add_parser("topologies")
    et.add_argument("n", type=int)
    et.add_argument("--t0-only", action="store_true")
    ef = enum_sub.add_parser("filters")
    ef.add_argument("file")
    enum.set_defaults(fn=_cmd_enumerate)

    suite = sub.add_parser("suite", help="run a named verification suite")
    suite.add_argument("name", choices=list(SUITE_NAMES))
    suite.set_defaults(fn=lambda args: _emit(
        run_suite(args.name, _config(args), workers=args.workers), args))

    geom = sub.add_parser("geom", help="metric-space filter checks")
    geom_sub = geom.add_subparsers(dest="what", required=True)
    gc = geom_sub.add_parser("classify")
    gc.add_argument("file")
    gk = geom_sub.add_parser("cone")
    gk.add_argument("--x", required=True)
    gk.add_argument("--u", required=True)
    gk.add_argument("--y", required=True)
    gk.add_argument("--eps", type=float, default=0.5)
    gk.add_argument("--sigma", type=float, default=0.3)
    gt = geom_sub.add_parser("transport")
    gt.add_argument("map")
    gt.add_argument("--x", required=True)
    gt.add_argument("--u", required=True)
    geom.set_defaults(fn=_cmd_geom)

    snow = sub.add_parser("snowflake", help="snowflake metric checks")
    snow_sub = snow.add_subparsers(dest="what", required=True)
    ss = snow_sub.add_parser("separate")
    ss.add_argument("--p1", required=True, help="coefficients, constant first")
    ss.add_argument("--p2", required=True)
    ss.add_argument("--m", type=int, default=2)
    sd = snow_sub.add_parser("derive")
    sd.add_argument("--f", required=True)
    sd.add_argument("--p", required=True)
    sd.add_argument("--x", type=float, default=0.0)
    sd.add_argument("--m", type=int, default=2)
    snow.set_defaults(fn=_cmd_snowflake)

    flow = sub.add_parser("flow", help="flow condition and recipe checks")
    flow_sub = flow.add_subparsers(dest="what", required=True)
    fc = flow_sub.add_parser("conditions")
    fc.add_argument("flow")
    fle = flow_sub.add_parser("lemacon")
    fs3 = flow_sub.add_parser("step3")
    for leaf, kind in ((fle, "lemacon"), (fs3, "step3")):
        params = FLOW_RECIPES[kind][2]
        leaf.add_argument("flow")
        leaf.add_argument("--eps", type=float, default=params["eps"])
        leaf.add_argument("--mu", type=float, default=params["mu"])
    ftr = flow_sub.add_parser("transport")
    ftr.add_argument("map")
    ftr.add_argument("flow")
    flow.set_defaults(fn=_cmd_flow)

    for leaf in (check, et, ef, suite, gc, gk, gt, ss, sd, fc, fle, fs3, ftr):
        _add_global_flags(leaf, suppress=True)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except WorkbenchError as e:
        sys.stderr.write(json.dumps(
            {"error": type(e).__name__, "message": str(e),
             "detail": jsonify(getattr(e, "__dict__", {}))}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
