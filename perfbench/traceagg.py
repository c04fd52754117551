"""Turn per-process span files into per-layer metrics and one Chrome trace.

A layer's self time is its span's duration minus the part of that interval
its child spans cover (children may live in forked processes).  The traced
wall time is the sum of the workload's root intervals: whole processes, and
each job a ``repro serve`` daemon executed, from submit to finish.  The part
of a root no span covers (a top-level span of the process, or for a daemon
job any span carrying the job's request key, plus its queue wait) is
reported as ``trace.unattributed_s``.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from common import median, percentile

#: per_layer metric name -> unit, in BENCHMARK.json order.
PER_LAYER_UNITS: Dict[str, str] = {
    "process.start_s": "s", "process.exit_s": "s",
    "repro.import_s": "s", "ilp.scipy_import_s": "s", "cli.self_s": "s",
    "workloads.build_graph_s": "s",
    "taskgraph.topo_order_calls": "count", "taskgraph.topo_order_s": "s",
    "taskgraph.kpaths_s": "s",
    "synth.plan_s": "s", "synth.estimate_s": "s", "synth.estimate_hit_ratio": "1",
    "synth.flow_self_s": "s",
    "runtime.solve_batch_s": "s", "runtime.self_s": "s", "runtime.cache_hit_ratio": "1",
    "runtime.cache_misses": "count", "runtime.deduped": "count",
    "partition.solves": "count", "partition.solve_s": "s", "partition.self_s": "s",
    "partition.formulation_s": "s", "partition.problem_build_s": "s",
    "partition.multilevel_self_s": "s", "partition.coarse_solve_s": "s",
    "partition.partitionings_built": "count",
    "ilp.solves": "count", "ilp.solve_s": "s",
    "memmap.map_s": "s", "fission.analyse_s": "s",
    "serve.submit_ms.p50": "ms", "serve.submit_ms.p99": "ms",
    "serve.wait_ms.p50": "ms", "serve.wait_ms.p99": "ms",
    "serve.result_ms.p50": "ms", "serve.result_ms.p99": "ms",
    "serve.queue_wait_ms.p50": "ms", "serve.queue_wait_ms.p99": "ms",
    "serve.worker_busy_ratio": "1", "serve.coalesced_ratio": "1", "serve.rejected": "count",
    "explore.propose_s": "s", "explore.evaluate_s": "s", "explore.store_append_s": "s",
    "explore.merge_s": "s", "explore.self_s": "s", "explore.shard_skew_ratio": "1",
    "explore.flow_jobs": "count",
    "trace.wall_s": "s", "trace.unattributed_s": "s", "trace.attributed_ratio": "1",
    "trace.overhead_s": "s",
}

#: Layer self-time metrics: metric -> span names whose self time it sums.
SELF_TIME = {
    "process.start_s": ("process.start",), "process.exit_s": ("process.exit",),
    "repro.import_s": ("repro.import",), "ilp.scipy_import_s": ("ilp.scipy_import",),
    "cli.self_s": ("cli.main",), "workloads.build_graph_s": ("workloads.build_graph",),
    "taskgraph.topo_order_s": ("taskgraph.topo_order",),
    "taskgraph.kpaths_s": ("taskgraph.kpaths",), "synth.plan_s": ("synth.plan",),
    "synth.estimate_s": ("synth.estimate",), "synth.flow_self_s": ("synth.flow",),
    "runtime.self_s": ("runtime.solve_batch",),
    "partition.self_s": ("partition.solve", "partition.nested", "partition.coarse_solve"),
    "partition.formulation_s": ("partition.formulation",),
    "partition.problem_build_s": ("partition.problem_build",),
    "partition.multilevel_self_s": ("partition.multilevel",),
    "ilp.solve_s": ("ilp.solve",), "memmap.map_s": ("memmap.map",),
    "fission.analyse_s": ("fission.analyse",),
    "explore.propose_s": ("explore.propose",),
    "explore.store_append_s": ("explore.store_append",),
    "explore.merge_s": ("explore.merge",), "explore.self_s": ("explore.run", "explore.shards"),
}


@dataclass
class Span:
    id: str
    name: str
    parent: str
    start: int
    end: int
    trace_id: str
    tid: int
    pid: int

    @property
    def dur(self) -> int:
        return self.end - self.start


@dataclass
class Root:
    """One interval of the workload's traced wall time."""

    pid: int
    start: int
    end: int
    #: A daemon job: covered by the spans carrying this request key.
    trace_id: Optional[str] = None
    #: A whole process: time after its last span is charged to process.exit.
    process: bool = True


def _union(intervals: List[Tuple[int, int]]) -> int:
    total, current_start, current_end = 0, None, None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def load(directory: Path) -> List[dict]:
    return [json.loads(path.read_text("utf-8")) for path in sorted(directory.glob("trace-*.json"))]


def _spans(payloads: Sequence[dict]) -> List[Span]:
    spans = []
    for payload in payloads:
        pid = payload["meta"]["pid"]
        spans += [Span(s[0], s[1], s[2], s[3], s[4], s[5], s[6], pid) for s in payload["spans"]]
    return spans


def analyse(payloads: Sequence[dict], roots: Sequence[Root],
            extra: Optional[Dict[str, float]] = None,
            serve_workers: int = 1) -> Tuple[Dict[str, float], List[Dict[str, object]], dict]:
    """(per-layer metrics, per-span-name table rows, Chrome trace) of one traced run."""
    spans = _spans(payloads)
    roots = list(roots)
    # Each job a daemon executed is a root: submit -> finish on the queue's
    # clock.  Its queue wait is the queue layer's span; the rest is covered
    # only by the daemon's spans under the job's request key.
    jobs = [(payload["meta"]["pid"], key, *(round(t * 1e9) for t in stamps))
            for payload in payloads for key, *stamps in payload["values"].get("serve.jobs", [])]
    for number, (pid, key, submitted, started, finished) in enumerate(jobs):
        spans.append(Span(f"{pid}-queue-{number}", "serve.queue_wait", "", submitted, started,
                          key, 0, pid))
        roots.append(Root(pid, submitted, finished, trace_id=key, process=False))
    by_pid: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        by_pid[span.pid].append(span)
    # Time between a root process's last top-level span and its exit.
    ids = {span.id for span in spans}
    for root in roots:
        if root.process and by_pid.get(root.pid):
            last = max(s.end for s in by_pid[root.pid] if s.parent not in ids or not s.parent)
            if last < root.end:
                exit_span = Span(f"{root.pid}-exit", "process.exit", "", last, root.end, "", 0,
                                 root.pid)
                spans.append(exit_span)
                by_pid[root.pid].append(exit_span)
    index = {span.id: span for span in spans}
    children: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent:
            children[span.parent].append(span)

    def self_ns(span: Span) -> int:
        covered = [(max(c.start, span.start), min(c.end, span.end)) for c in children[span.id]]
        return span.dur - _union([iv for iv in covered if iv[0] < iv[1]])

    def has_ancestor(span: Span, name: str) -> bool:
        parent = index.get(span.parent)
        while parent is not None:
            if parent.name == name:
                return True
            parent = index.get(parent.parent)
        return False

    per_name: Dict[str, Dict[str, float]] = defaultdict(lambda: {"count": 0, "self_s": 0.0,
                                                                 "incl_s": 0.0})
    for span in spans:
        stats = per_name[span.name]
        stats["count"] += 1
        stats["self_s"] += self_ns(span) / 1e9
        stats["incl_s"] += span.dur / 1e9
    counters: Dict[str, float] = defaultdict(float)
    for payload in payloads:
        for key, amount in payload["counters"].items():
            counters[key] += amount

    metrics = {name: 0.0 for name in PER_LAYER_UNITS}
    for metric, names in SELF_TIME.items():
        if metric in metrics:
            metrics[metric] = sum(per_name[n]["self_s"] for n in names if n in per_name)
    metrics["taskgraph.topo_order_calls"] = per_name["taskgraph.topo_order"]["count"]
    metrics["synth.estimate_hit_ratio"] = (
        counters["synth.estimate_hits"] / counters["synth.estimates"]
        if counters["synth.estimates"] else 0.0)
    metrics["runtime.solve_batch_s"] = per_name["runtime.solve_batch"]["incl_s"]
    hits = counters["runtime.cache_memory_hits"] + counters["runtime.cache_disk_hits"]
    lookups = hits + counters["runtime.cache_misses"]
    metrics["runtime.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    metrics["runtime.cache_misses"] = counters["runtime.cache_misses"]
    metrics["runtime.deduped"] = counters["runtime.deduped"]
    outer = ("partition.solve", "partition.multilevel")
    metrics["partition.solves"] = sum(per_name[n]["count"] for n in outer if n in per_name)
    metrics["partition.solve_s"] = sum(per_name[n]["incl_s"] for n in outer if n in per_name)
    metrics["partition.coarse_solve_s"] = per_name["partition.coarse_solve"]["incl_s"]
    metrics["partition.partitionings_built"] = counters["partition.partitionings_built"]
    metrics["ilp.solves"] = per_name["ilp.solve"]["count"]
    metrics["explore.evaluate_s"] = sum(
        s.dur for s in spans if s.name == "synth.flow" and has_ancestor(s, "explore.run")) / 1e9
    explore_pids = {s.pid for s in spans if s.name == "explore.run"}
    metrics["explore.flow_jobs"] = sum(
        p["counters"].get("synth.flow_jobs", 0) for p in payloads
        if p["meta"]["pid"] in explore_pids)
    shard_walls: Dict[str, List[float]] = defaultdict(list)
    for span in spans:
        if span.name == "explore.run":
            shard_walls[span.trace_id].append(span.dur / 1e9)
    skews = [max(w) / median(w) for w in shard_walls.values() if len(w) > 1 and median(w) > 0]
    metrics["explore.shard_skew_ratio"] = median(skews) if skews else 0.0
    for phase in ("submit", "wait", "result"):
        durations = [s.dur / 1e6 for s in spans if s.name == f"serve.{phase}"]
        if durations:
            metrics[f"serve.{phase}_ms.p50"] = median(durations)
            metrics[f"serve.{phase}_ms.p99"] = percentile(durations, 99)
    if jobs:
        waits = [(started - submitted) / 1e6 for _, _, submitted, started, _ in jobs]
        metrics["serve.queue_wait_ms.p50"] = median(waits)
        metrics["serve.queue_wait_ms.p99"] = percentile(waits, 99)
        window = max(job[4] for job in jobs) - min(job[3] for job in jobs)
        if window > 0:
            metrics["serve.worker_busy_ratio"] = sum(
                finished - started for _, _, _, started, finished in jobs) / (
                serve_workers * window)

    wall = covered = 0
    for root in roots:
        wall += root.end - root.start
        own = [s for s in by_pid.get(root.pid, [])
               if (s.trace_id == root.trace_id if root.trace_id is not None
                   else not s.parent or s.parent not in ids)]
        covered += _union([(max(s.start, root.start), min(s.end, root.end)) for s in own
                           if max(s.start, root.start) < min(s.end, root.end)])
    metrics["trace.wall_s"] = wall / 1e9
    metrics["trace.unattributed_s"] = (wall - covered) / 1e9
    metrics["trace.attributed_ratio"] = covered / wall if wall else 0.0
    metrics.update(extra or {})

    rows = [{"layer": name, "count": int(stats["count"]), "self_s": round(stats["self_s"], 4),
             "incl_s": round(stats["incl_s"], 4)}
            for name, stats in sorted(per_name.items(), key=lambda kv: -kv[1]["self_s"])
            if stats["count"]]
    origin = min((s.start for s in spans), default=0)
    chrome = {"traceEvents": [
        {"name": s.name, "cat": s.name.split(".")[0], "ph": "X", "pid": s.pid, "tid": s.tid,
         "ts": (s.start - origin) / 1e3, "dur": s.dur / 1e3,
         "args": {"id": s.id, "parent": s.parent, "trace_id": s.trace_id}}
        for s in spans
    ], "displayTimeUnit": "ms"}
    return metrics, rows, chrome
