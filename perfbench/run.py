#!/usr/bin/env python3
"""filterbench benchmark: time to verdict on three seeded workloads.

    python3 perfbench/run.py --workload finite-exact --seed 1 --seconds 25 --trace 0

Runs whole passes of the workload's fixed batch back to back, in one
process (a closed loop with one client), until the passes add up to
``--seconds``, and checks every verdict.  With ``--trace 0`` it reports
the end-to-end metrics of the untraced passes; with ``--trace 1`` it
alternates untraced and traced passes and reports per-layer metrics from
the traced ones.  The last line of standard output is one JSON object; the
lines before it are a readable table.  The exit code is 0 only when every
operation passed and every pass produced the same verdicts and reports.
"""

import os

# one BLAS/OpenMP thread per Python thread, set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_REPEATS = 3   # set-up probes before the first pass and after each
SETUP_MAX = 9       # ... until this many have run
OVERRUN = 1.25     # a run measures at most about this many times --seconds
TAIL_BEYOND = 10   # the tail percentile keeps at least this many ops beyond

# end-to-end metrics in the JSON line, each with a bound in BENCHMARK.json
END_TO_END = (("wall_s", "s"), ("ops_per_s", "1/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
# printed in the table only.  On a shared 2-core machine one operation's
# latency moves by 20-30% between runs of the same code, more than the
# widest bound allowed, so per-operation percentiles are reported but not
# gated; fail_frac is 0 on a correct run.
TABLE_ONLY = (("op_p50_ms", "ms"), ("op_tail_ms", "ms"), ("fail_frac", "frac"))


def per_layer_metrics() -> tuple:
    """(name, unit) of every per-layer metric the traced run reports."""
    from tracer import COUNTED, LAYERS, TIMED
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.calls", "count"), (f"{layer}.share", "frac")]
    out += [(f"{name}.calls", "count") for name in COUNTED]
    out += [(f"{name}.share", "frac") for name in TIMED]
    out += [("finite_topology.continuous_ratio", "frac"),
            ("metric_filters.arc_levels_per_call", "count"),
            ("metric_filters.arc_full_depth_ratio", "frac"),
            ("geometry.segment_evals", "count"),
            ("geometry.bytes_computed", "bytes"),
            ("flows.flow_evals", "count"),
            ("flows.flow_rows", "count"),
            ("flows.pair_converged_ratio", "frac"),
            ("maps.map_evals", "count"),
            ("suites.concurrency", "x"),
            ("reporting.report_bytes", "bytes"),
            ("trace.overhead_frac", "frac")]
    return tuple(out)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("finite-exact", "metric-batch", "suite-all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--src", type=Path, default=ROOT / "src",
                   help="source tree to benchmark (default: this checkout's)")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program(src: Path):
    """Import filterbench from ``src`` and nowhere else."""
    src = src.resolve()
    if not (src / "filterbench" / "__init__.py").is_file():
        raise SystemExit(f"error: no filterbench package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import filterbench
    if Path(filterbench.__file__).resolve().parent != src / "filterbench":
        raise SystemExit(f"error: filterbench imported from "
                         f"{filterbench.__file__}, not from {src}")


def setup_probe(args) -> None:
    """Child process: time imports plus input generation."""
    t0 = time.perf_counter()
    import_program(args.src)
    import workloads
    workloads.WORKLOADS[args.workload][0](args.seed)
    print(repr(time.perf_counter() - t0))


def measure_setup(args) -> list[float]:
    """Seconds of set-up in fresh processes, SETUP_REPEATS of them."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--src", str(args.src)]
    out = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=120)
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out


def environment(args) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "seed": args.seed, "workload": args.workload,
            "trace": args.trace, "seconds": args.seconds}


# --- passes ------------------------------------------------------------------

def run_pass(steps, tracer=None) -> dict:
    """One pass over the fixed batch; failures are recorded, not raised."""
    from workloads import Op
    ctx, ops, digest_items, suite_walls = {}, [], [], []
    reports = {}
    t_pass = time.perf_counter()
    for name, step in steps:
        if tracer is not None:
            tracer.set_op(name)
        t0 = time.perf_counter()
        try:
            step_ops, detail = step(ctx)
        except Exception as e:  # an exception is a failed operation
            step_ops, detail = [Op(name, "error")], f"{type(e).__name__}: {e}"
        wall = time.perf_counter() - t0
        ops += [Op(o.name, o.verdict, wall if o.seconds is None else o.seconds)
                for o in step_ops]
        digest_items.append([name, detail, [[o.name, o.verdict]
                                            for o in step_ops]])
        if name.startswith("suite:") and isinstance(detail, dict):
            reports[name] = detail
            suite_walls.append((wall, sum(o.seconds for o in step_ops)))
    wall = time.perf_counter() - t_pass
    blob = json.dumps(digest_items, sort_keys=True, default=str).encode()
    return {"wall": wall, "ops": ops, "reports": reports,
            "digest": hashlib.sha256(blob).hexdigest(),
            "suite_wall": sum(w for w, _ in suite_walls),
            "suite_busy": sum(b for _, b in suite_walls)}


def keep_measuring(passes, seconds) -> bool:
    """Start another pass until the passes add up to ``seconds``, unless it
    would likely end beyond OVERRUN x ``seconds``; always run one."""
    if not passes:
        return True
    done = sum(p["wall"] for p in passes)
    return done < seconds and done * (1 + 1 / len(passes)) <= OVERRUN * seconds


def tail_index(n: int) -> int:
    """Index (ascending order) of the highest percentile that still has at
    least TAIL_BEYOND operations beyond it."""
    return max(0, n - TAIL_BEYOND - 1)


def op_latencies(passes) -> list[float]:
    """Each operation's median latency over the passes, in ascending order.

    Every pass runs the same operations in the same order."""
    return sorted(statistics.median(p["ops"][i].seconds for p in passes)
                  for i in range(len(passes[0]["ops"])))


def end_to_end(passes, setup) -> dict:
    lat = op_latencies(passes)
    return {
        "wall_s": statistics.median(p["wall"] for p in passes),
        "ops_per_s": statistics.median(len(p["ops"]) / p["wall"]
                                       for p in passes),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * lat[tail_index(len(lat))],
        "setup_s": statistics.median(setup),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_metrics(traced, untraced) -> dict:
    """Per-layer metrics and self times, each the median over traced
    passes."""
    from tracer import layer_metrics
    rows = []
    for p in traced:
        m = layer_metrics(p["tracer"], p["wall"])
        m["suites.busy_s"] = p["suite_busy"]
        m["suites.concurrency"] = (p["suite_busy"] / p["suite_wall"]
                                   if p["suite_wall"] else 0.0)
        m["reporting.report_bytes"] = sum(r["bytes"]
                                          for r in p["reports"].values())
        rows.append(m)
    merged = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    merged["trace.overhead_frac"] = (
        statistics.median(p["wall"] for p in traced)
        / statistics.median(p["wall"] for p in untraced) - 1.0)
    return merged


# --- output ------------------------------------------------------------------

def print_table(title, values, units):
    print(f"# {title}")
    for name, unit in units:
        print(f"  {name:<48} {values[name]:>16.6g} {unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    import_program(args.src)
    import workloads
    from tracer import LAYERS, TIMED, Tracer

    env = environment(args)
    print("# env " + json.dumps(env, sort_keys=True))
    setup_fn, steps_fn = workloads.WORKLOADS[args.workload]
    steps = steps_fn(setup_fn(args.seed))

    # set-up probes are spread over the run, like the passes, so that both
    # see the same drift in machine speed; only pass time counts as measured
    setup_times = measure_setup(args)
    untraced, traced = [], []
    while keep_measuring(untraced + traced, args.seconds):
        untraced.append(run_pass(steps))
        if args.trace:
            tracer = Tracer().install()
            try:
                p = run_pass(steps, tracer)
            finally:
                tracer.uninstall()
            p["tracer"] = tracer
            traced.append(p)
        if len(setup_times) < SETUP_MAX:
            setup_times += measure_setup(args)

    passes = untraced + traced
    ops = [o for p in passes for o in p["ops"]]
    failed = [o for o in ops if o.verdict != "pass"]
    digests = {p["digest"] for p in passes}
    report_digests = {name: {p["reports"].get(name, {}).get("sha256")
                             for p in passes}
                      for name in set().union(*(p["reports"] for p in passes))}
    consistent = len(digests) == 1 and all(
        len(v) == 1 for v in report_digests.values())
    correct = not failed and consistent

    n_ops = len(untraced[0]["ops"])
    print(f"# passes: {len(untraced)} untraced, {len(traced)} traced; "
          f"{n_ops} ops per pass; pass walls (s): "
          + " ".join(f"{p['wall']:.3f}" for p in passes))
    print(f"# setup runs (s): " + " ".join(f"{s:.4f}" for s in setup_times))
    for name, shas in sorted(report_digests.items()):
        print(f"# report sha256 {name}: {' '.join(sorted(map(str, shas)))}")
    print(f"# pass digest: {' '.join(sorted(digests))}")
    for o in failed[:20]:
        print(f"# FAILED op {o.name}: {o.verdict}")

    e2e = end_to_end(untraced, setup_times)
    e2e["fail_frac"] = len(failed) / len(ops)
    pct = 100.0 * (tail_index(n_ops) + 1) / n_ops
    print_table(f"end-to-end (untraced; op_tail_ms is p{pct:.1f} of "
                f"{n_ops} ops per pass)",
                e2e, END_TO_END + TABLE_ONLY)
    summary = {"env": env, "correct": correct, "attempted": len(ops),
               "failed": len(failed), "end_to_end": e2e,
               "pass_walls": [p["wall"] for p in passes],
               "op_seconds": [[[o.name, o.seconds] for o in p["ops"]]
                              for p in passes],
               "setup_runs": setup_times,
               "report_sha256": {k: sorted(map(str, v))
                                 for k, v in report_digests.items()},
               "pass_digest": sorted(digests)}

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        layer = traced_metrics(traced, untraced)
        names = per_layer_metrics()
        print_table("per-layer (traced)", layer, names)
        print_table("self time (traced)", layer,
                    [(f"{l}.self_s", "s") for l in LAYERS]
                    + [(f"{t}.self_s", "s") for t in TIMED]
                    + [("suites.busy_s", "s")])
        summary["per_layer"] = layer
        count = 0
        for i, p in enumerate(traced):
            count += p["tracer"].write_spans(
                OUT_DIR / f"spans-{stem}-{i}.tsv.gz")
        print(f"# wrote {count} spans to {OUT_DIR}/spans-{stem}-*.tsv.gz")
        metrics = {n: {"value": layer[n], "unit": u} for n, u in names}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END}

    out_file = OUT_DIR / f"{stem}-trace{args.trace}.json"
    out_file.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
