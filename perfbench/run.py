"""The repo benchmark: four workloads, end-to-end metrics, a traced per-layer run.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

``--trace 0`` measures the workload untraced and reports its end-to-end
metrics; ``--trace 1`` runs one fixed pass traced (spans around the public
calls of every layer, in every process the run starts) among untraced ones
and reports per-layer metrics plus the tracing overhead.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Exit code 1 when an output check failed, 2 when the benchmark
cannot run (for instance without the program's sources next to it).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import common
import inputs
import traceagg
from common import BenchError, RunRoot, env_stamp, fmt_rows, log, usable_cpus
from workloads import WORKLOADS

#: end_to_end metric name -> unit, in BENCHMARK.json order.
END_TO_END_UNITS = {
    "setup_s": "s", "latency_p50_ms": "ms", "latency_p99_ms": "ms",
    "requests_per_s": "1/s", "nodes_per_s": "1/s", "points_per_s": "1/s",
    "peak_rss_mb": "MB", "design_latency_s": "s",
}

TRACE_OUT = common.ROOT / ".perfbench_out"


def _run(name: str, args, seconds: float, traced: bool = False):
    """One workload run in a fresh run root; traced runs also return the spans."""
    kwargs = {"clients": args.clients} if name == "serve_mix" else {}
    with RunRoot(name) as root:
        if not traced:
            return WORKLOADS[name](args.seed, seconds, root, **kwargs), []
        trace_dir = root.sub("trace")
        outcome = WORKLOADS[name](args.seed, seconds, root, trace_dir=trace_dir, **kwargs)
        common.tracer().flush(str(trace_dir))
        common.tracer().reset()
        return outcome, traceagg.load(trace_dir)


def _run_untraced(name: str, args):
    return _run(name, args, args.seconds)[0]


#: Untraced passes around the traced one (half before, half after).
UNTRACED_PASSES = 4


def _run_traced(name: str, args):
    """One fixed pass traced, among untraced ones; per-layer metrics.

    The tracing overhead is the traced pass's wall time minus the median of
    the untraced passes around it.
    """
    plain = [_run(name, args, 0)[0] for _ in range(UNTRACED_PASSES // 2)]
    traced, payloads = _run(name, args, 0, traced=True)
    plain += [_run(name, args, 0)[0] for _ in range(UNTRACED_PASSES - len(plain))]
    layers, rows, chrome = traceagg.analyse(payloads, traced.roots, traced.extra_layers,
                                            traced.serve_workers)
    layers["trace.overhead_s"] = traced.wall_s - common.median([p.wall_s for p in plain])
    TRACE_OUT.mkdir(exist_ok=True)
    path = TRACE_OUT / f"trace-{name}-seed{args.seed}.json"
    path.write_text(json.dumps(chrome), "utf-8")
    log(f"{name}: Chrome trace written to {path}")
    print(f"\n{name}: self time per layer (traced wall {layers['trace.wall_s']:.3f} s, "
          f"attributed {layers['trace.attributed_ratio'] * 100:.1f}%, "
          f"unattributed {layers['trace.unattributed_s']:.3f} s, "
          f"tracing overhead {layers['trace.overhead_s']:+.3f} s)")
    print(fmt_rows(rows, ["layer", "count", "self_s", "incl_s"]))
    traced.metrics = layers
    for other in plain:
        traced.attempted += other.attempted
        traced.failed += other.failed
        traced.errors += other.errors
    return traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--clients", type=int, default=None,
                        help="serve_mix generator threads (default: usable CPUs)")
    args = parser.parse_args(argv)
    try:
        common.require_program()
        cpus = usable_cpus()
        args.clients = args.clients or cpus
        if not 1 <= args.clients <= cpus:
            raise BenchError(f"--clients {args.clients}: only {cpus} usable CPU(s); the "
                             "generator runs no more threads than that")
        if args.seconds <= 0:
            raise BenchError("--seconds must be positive")
        common.build()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        stamp = env_stamp(args.seed, args.clients, args.clients)
        stamp["held_out_seed"] = inputs.HELD_OUT_SEED
        print("stamp: " + json.dumps(stamp, sort_keys=True))
        outcomes = {}
        for name in names:
            started = time.perf_counter()
            outcome = (_run_traced if args.trace else _run_untraced)(name, args)
            log(f"{name}: {time.perf_counter() - started:.1f} s")
            outcomes[name] = outcome
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    units = traceagg.PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    table = []
    for name, outcome in outcomes.items():
        if outcome.rows:
            print(f"\n{name}: per-input rows")
            print(fmt_rows(outcome.rows, list(outcome.rows[0])))
        if not args.trace:
            row = {"workload": name}
            row.update({f"{m} [{u}]": f"{outcome.metrics[m]:.6g}" for m, u in units.items()})
            row["failed_ratio [1]"] = f"{outcome.failed / max(outcome.attempted, 1):.4g}"
            table.append(row)
        for error in outcome.errors:
            print(f"CHECK FAILED [{name}]: {error}")
    if table:
        print("\nend-to-end metrics (one row per workload)")
        print(fmt_rows(table, list(table[0])))

    correct = all(not o.errors and not o.failed for o in outcomes.values())
    if len(outcomes) == 1:
        (outcome,) = outcomes.values()
        metrics = {m: {"value": outcome.metrics[m], "unit": u} for m, u in units.items()}
    else:
        metrics = {f"{n}.{m}": {"value": o.metrics[m], "unit": u}
                   for n, o in outcomes.items() for m, u in units.items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(o.attempted for o in outcomes.values()),
        "failed": sum(o.failed + (1 if o.errors and not o.failed else 0)
                      for o in outcomes.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
