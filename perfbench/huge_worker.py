"""huge_flow's measured process: 10k-node flows through the public FlowEngine.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``; it imports ``repro``,
builds the seeded ``random_layered_10k`` graphs (that is its set-up), then
runs one one-job flow on each.
It writes timings plus plain check data (task costs, edges, assignment,
reported latency) to ``--out``; ``run.py`` checks them without ``repro``.

Usage: python huge_worker.py --seeds 1,2,3 --out result.json [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import time


def _check_data(graph, system, report) -> dict:
    partitioning = report.design.partitioning
    solved = partitioning.graph
    names = solved.task_names()
    return {
        "delays_s": {name: solved.task(name).delay for name in names},
        "clbs": {name: solved.task(name).clbs for name in names},
        "edges": [list(edge) for edge in graph.edges()],
        "assignment": dict(partitioning.assignment),
        "capacity": system.resource_capacity.amounts["clb"],
        "ct_s": system.reconfiguration_time,
        "partition_count": partitioning.partition_count,
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    from repro.runtime import EngineConfig
    from repro.synth.flow import FlowOptions
    from repro.synth.flow_engine import FlowEngine, FlowJob
    from repro.workloads import get_workload

    workload = get_workload("random_layered_10k")
    system = workload.default_system()
    # The multilevel scheme with the list heuristic as its coarse solve: the
    # default portfolio coarse solve takes 0.03-8.5 s depending on the graph
    # seed, which would decide a run's time on its own.
    options = FlowOptions(partitioner="multilevel:list")
    graphs = [workload.build_graph(seed=seed) for seed in seeds]
    result = {"ready_ns": time.monotonic_ns(), "flows": []}
    if not args.setup_only:
        for index, seed in enumerate(seeds):
            # Only plain check data of a finished flow is kept (on disk).
            graph, graphs[index] = graphs[index], None
            engine = FlowEngine(config=EngineConfig(workers=0))
            start = time.perf_counter()
            batch = engine.run_batch([FlowJob(graph=graph, system=system, options=options,
                                              tag=graph.name, workload="random_layered_10k")])
            seconds = time.perf_counter() - start
            report = batch.reports[0]
            row = report.row()
            flow = {"seed": seed, "seconds": seconds, "nodes": len(graph), "ok": report.ok,
                    "error": report.error, "total_latency_s": row["total_latency_s"],
                    "partitions": row["partitions"], "check": None}
            if report.ok:
                flow["check"] = f"{args.out}.input-{index}.json"
                with open(flow["check"], "w", encoding="utf-8") as stream:
                    json.dump(dict(_check_data(graph, system, report), name=graph.name), stream)
            result["flows"].append(flow)
            del graph, engine, batch, report
    with open(args.out, "w", encoding="utf-8") as stream:
        json.dump(result, stream)


if __name__ == "__main__":
    main()
