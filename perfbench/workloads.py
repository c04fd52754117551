"""The four workloads.  Each drives the program only through its CLI, its
HTTP API, or (huge_flow's worker) the public ``repro.synth`` FlowEngine.

Every workload function takes ``(seed, seconds, root, trace_dir)`` and
returns an :class:`Outcome`.  ``seconds`` sets a fixed amount of work (a
count of processes, flows or requests sized to take about that long on a
2-CPU container), so every commit measures the same samples; ``seconds=0``
is the smallest pass, which the traced run uses.  With ``trace_dir`` set,
the processes a workload starts record spans there.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import re
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import checks
import inputs
from common import (BENCH_DIR, REPRO, BenchError, Daemon, RunRoot, median, percentile,
                    run_child, tracer)
from traceagg import Root

#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = 5


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    rows: List[Dict[str, object]] = field(default_factory=list)
    #: Wall time of the measured phase (the traced run compares these).
    wall_s: float = 0.0
    roots: List[Root] = field(default_factory=list)
    extra_layers: Dict[str, float] = field(default_factory=dict)
    serve_workers: int = 1


@dataclass
class Sample:
    """One unit of sequential work: a CLI process, a flow, an explore run."""

    seconds: float
    nodes: int
    designs: int


def _sequential_metrics(samples: List[Sample], rss_mb: float, design_latency_s: float,
                        setups: List[float]) -> Dict[str, float]:
    """Medians over a run's samples: one noisy sample cannot move them."""
    seconds = [s.seconds for s in samples]
    return {
        "setup_s": median(setups),
        "latency_p50_ms": median(seconds) * 1e3,
        "latency_p99_ms": percentile(seconds, 99) * 1e3,
        "requests_per_s": 1.0 / median(seconds),
        "nodes_per_s": median([s.nodes / s.seconds for s in samples]),
        "points_per_s": median([s.designs / s.seconds for s in samples]),
        "peak_rss_mb": rss_mb,
        "design_latency_s": design_latency_s,
    }


def _parse_rows(text: str) -> List[dict]:
    try:
        rows = json.loads(text)
    except json.JSONDecodeError:
        return []
    return rows if isinstance(rows, list) else []


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

def _show_jpeg(root: RunRoot, index: int) -> Tuple[float, List[str]]:
    """cli_cold's set-up step: one ``repro workloads show jpeg_dct`` process."""
    work = root.sub(f"setup-{index}")
    start = time.perf_counter()
    child = run_child(REPRO + ["workloads", "show", "jpeg_dct"], root.env(), work, work)
    seconds = time.perf_counter() - start
    if child.returncode != 0 or "graph: 32 tasks" not in child.stdout:
        return seconds, [f"workloads show jpeg_dct: exit {child.returncode}, "
                         "no 'graph: 32 tasks' line"]
    return seconds, []


#: Task count of every catalog variant explore's ``--workload all --variants``
#: covers, keyed by the point's workload and parameters as its store records them.
_VARIANT_SIZES = """
import json
from repro.workloads import get_workload, workload_names
sizes = []
for name in workload_names(exclude_tags=("huge",)):
    workload = get_workload(name)
    for variant in workload.variants():
        params = sorted(variant.params.items())
        sizes.append([name, params, len(workload.build_graph(**variant.params))])
print(json.dumps(sizes))
"""


def _variant_sizes(root: RunRoot, index: int) -> Tuple[float, Dict[str, int], List[str]]:
    """explore_sharded's set-up step: the catalog's variant sizes, from one process."""
    work = root.sub(f"setup-{index}")
    start = time.perf_counter()
    child = run_child([sys.executable, "-c", _VARIANT_SIZES], root.env(), work, work)
    seconds = time.perf_counter() - start
    try:
        sizes = {_point_key(name, params): count
                 for name, params, count in json.loads(child.stdout)}
    except (json.JSONDecodeError, ValueError):
        return seconds, {}, [f"variant sizes: exit {child.returncode}: {child.stderr[-300:]}"]
    return seconds, sizes, []


def _point_key(workload: str, params) -> str:
    return json.dumps([workload, sorted([str(k), v] for k, v in params)])


#: One cli_cold invocation in five is the paper's jpeg_dct; the rest each
#: run a distinct seeded graph file.
CLI_JPEG_EVERY = 5


def cli_invocations(seconds: float) -> int:
    """A cold ``repro flow`` process takes about a second."""
    return max(CLI_JPEG_EVERY + 1, round(seconds))


def cli_cold(seed: int, seconds: float, root: RunRoot,
             trace_dir: Optional[Path] = None) -> Outcome:
    """Fresh ``repro flow ... --format json`` processes, one after another."""
    out = Outcome()
    count = cli_invocations(seconds)
    jpeg_runs = -(-count // CLI_JPEG_EVERY)
    setups = []
    for index in range(SETUP_REPEATS):
        start = time.perf_counter()
        paths = inputs.write_cli_graphs(seed, count - jpeg_runs, root.sub(f"graphs-{index}"))
        _, errors = _show_jpeg(root, index)
        setups.append(time.perf_counter() - start)
        out.errors += errors
    jpeg = ("jpeg_dct", 32, ["flow", "--workload", "jpeg_dct", "--format", "json"], None)
    graphs = [json.loads(path.read_text("utf-8")) for path in paths]
    files = [(g["name"], len(g["tasks"]), ["flow", str(p), "--format", "json"], g)
             for g, p in zip(graphs, paths)]
    sequence = [jpeg if i % CLI_JPEG_EVERY == 0 else files.pop(0) for i in range(count)]

    samples: List[Sample] = []
    rss: List[float] = []
    design_latency: Dict[str, float] = {}
    begin = time.perf_counter()
    for i, (name, tasks, argv, graph) in enumerate(sequence):
        work = root.sub(f"inv-{i}")
        child = run_child(REPRO + argv, root.env(trace_dir, f"cli-{i}", work / "cache"), work,
                          work, trace=trace_dir is not None)
        out.attempted += 1
        rss.append(child.maxrss_mb)
        out.roots.append(Root(child.pid, child.spawn_ns, child.exit_ns))
        rows = _parse_rows(child.stdout)
        if child.returncode != 0 or len(rows) != 1:
            errors = [f"{name}: exit {child.returncode}: {child.stderr.strip()[-300:]}"]
        elif graph is None:
            errors = checks.check_jpeg_row(rows[0])
        else:
            errors = checks.check_cli_row(rows[0], graph)
        if errors:
            out.failed += 1
            out.errors += errors
        else:
            design_latency[name] = float(rows[0]["total_latency_s"])
        samples.append(Sample(child.wall_s, 0 if errors else tasks, 0 if errors else 1))
        out.rows.append({"input": name, "tasks": tasks, "ms": round(child.wall_s * 1e3, 1),
                         "total_latency_s": rows[0].get("total_latency_s") if rows else ""})
    out.wall_s = time.perf_counter() - begin
    if trace_dir is None:
        work = root.sub("jpeg-table")
        child = run_child(REPRO + ["flow", "--workload", "jpeg_dct"], root.env(), work, work)
        out.errors += checks.check_jpeg_table(child.stdout)
    out.metrics = _sequential_metrics(samples, max(rss), sum(design_latency.values()), setups)
    return out


# ---------------------------------------------------------------------------
# serve_mix
# ---------------------------------------------------------------------------

def _http(port: int, method: str, path: str, body: Optional[dict] = None,
          timeout: float = 90.0) -> Tuple[int, dict]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if payload is not None else {}
        connection.request(method, path, body=payload, headers=headers)
        response = connection.getresponse()
        data = response.read()
        return response.status, json.loads(data.decode("utf-8")) if data else {}
    finally:
        connection.close()


def _solve(port: int, body: dict) -> Tuple[int, dict]:
    """Submit, long-poll, fetch: one closed-loop request."""
    status, ack = _http(port, "POST", "/v1/jobs", body)
    if status != 202:
        return status, ack
    _http(port, "GET", f"/v1/jobs/{ack['job_id']}/wait?timeout=60")
    return _http(port, "GET", f"/v1/jobs/{ack['job_id']}/result")


def _start_daemon(seed: int, root: RunRoot, index: int, workers: int,
                  trace_dir: Optional[Path]) -> Tuple[Daemon, int, float]:
    """Spawn -> listening -> healthy -> one warm-up solve; returns its time too."""
    work = root.sub(f"daemon-{index}")
    start = time.perf_counter()
    daemon = Daemon(REPRO + ["serve", "--port", "0", "--workers", str(workers),
                             "--queue-depth", "512", "--cache-dir", str(work / "cache")],
                    root.env(trace_dir, f"daemon-{index}", work / "cache"), work, work,
                    trace=trace_dir is not None)
    port = None
    while port is None:
        match = re.search(r"listening on http://[\d.]+:(\d+)", daemon.stdout())
        if match:
            port = int(match.group(1))
        elif not daemon.running() or time.perf_counter() - start > 60:
            daemon.stop()
            raise BenchError(f"repro serve did not start: {daemon.stderr()[-500:]}")
        else:
            time.sleep(0.005)
    status, health = _http(port, "GET", "/v1/health")
    status, result = _solve(port, inputs.warmup_body(seed))
    if status != 200 or health.get("status") != "ok" or (result.get("result") or {}).get(
            "status") != "ok":
        daemon.stop()
        raise BenchError(f"repro serve warm-up failed: {status} {result}")
    return daemon, port, time.perf_counter() - start


def _stop_daemon(daemon: Daemon, port: int) -> None:
    """Graceful drain over HTTP; SIGTERM if the daemon cannot be reached."""
    try:
        _http(port, "POST", "/v1/admin/shutdown", {}, timeout=30)
    except (OSError, http.client.HTTPException):
        daemon.stop()
    else:
        daemon.stop(terminate=False)


def serve_requests_for(seconds: float) -> int:
    """About 130 requests a second; never fewer than 1,000."""
    return max(1000, round(130 * seconds))


def serve_mix(seed: int, seconds: float, root: RunRoot, trace_dir: Optional[Path] = None,
              clients: int = 1) -> Outcome:
    """Closed loop, ``clients`` threads, against a ``repro serve`` subprocess."""
    out = Outcome(serve_workers=clients)
    setups = []
    daemon = port = None
    repeats = 1 if trace_dir is not None else SETUP_REPEATS
    for index in range(repeats):
        if daemon is not None:
            _stop_daemon(daemon, port)
        daemon, port, took = _start_daemon(seed, root, index, clients, trace_dir)
        setups.append(took)
    try:
        requests = inputs.serve_mix(seed, serve_requests_for(seconds))
        spans = tracer() if trace_dir is not None else None

        def phase(name: str):
            return spans.span(name) if spans else contextlib.nullcontext()

        results: List[Optional[Tuple[float, int, dict]]] = [None] * len(requests)
        cursor = iter(range(len(requests)))
        lock = threading.Lock()

        def client() -> None:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                request = requests[index]
                if spans:
                    spans.set_trace_id(f"req-{index}")
                start = time.perf_counter()
                try:
                    with phase("serve.submit"):
                        status, ack = _http(port, "POST", "/v1/jobs", request.body)
                    if status == 202:
                        with phase("serve.wait"):
                            _http(port, "GET", f"/v1/jobs/{ack['job_id']}/wait?timeout=60")
                        with phase("serve.result"):
                            status, ack = _http(port, "GET", f"/v1/jobs/{ack['job_id']}/result")
                except (OSError, http.client.HTTPException, ValueError) as error:
                    status, ack = 0, {"error": repr(error)}
                results[index] = (time.perf_counter() - start, status, ack)

        threads = [threading.Thread(target=client) for _ in range(clients)]
        begin = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        out.wall_s = time.perf_counter() - begin
        _, stats = _http(port, "GET", "/v1/stats")
    finally:
        _stop_daemon(daemon, port)

    first: Dict[str, str] = {}
    answered: Dict[str, dict] = {}
    latencies, kinds = [], {}
    nodes = 0
    for request, (took, status, payload) in zip(requests, results):
        out.attempted += 1
        latencies.append(took)
        kinds.setdefault(request.kind, []).append(took)
        result = payload.get("result") if status == 200 else None
        errors = ([f"{request.body['tag']}: HTTP {status} {payload}"] if status != 200
                  else checks.check_serve_result(request.body, result))
        encoded = json.dumps(result, sort_keys=True, separators=(",", ":"))
        if not errors and first.setdefault(request.key, encoded) != encoded:
            errors.append(f"{request.body['tag']}: repeated key returned different bytes")
        if errors:
            out.failed += 1
            out.errors += errors
            continue
        nodes += request.task_count
        answered[request.key] = result
    by_problem: Dict[int, List[Tuple[float, dict]]] = {}
    for request in requests:
        if request.key in answered and request.kind != "repeat":
            ct = request.body["ct_ms"]
            ct_s = (checks.RANDOM_LAYERED_CT_MS if ct is None else ct) / 1e3
            entry = (ct_s, answered[request.key])
            if entry not in by_problem.setdefault(request.problem, []):
                by_problem[request.problem].append(entry)
    for variants in by_problem.values():
        for (ct_a, a), (ct_b, b) in zip(variants, variants[1:]):
            errors = checks.check_ct_variant(a, ct_a, b, ct_b)
            out.errors += errors
            out.failed += bool(errors)
    # A closed loop over a fixed request count: rates are totals over the window.
    out.metrics = {
        "setup_s": median(setups),
        "latency_p50_ms": median(latencies) * 1e3,
        "latency_p99_ms": percentile(latencies, 99) * 1e3,
        "requests_per_s": len(requests) / out.wall_s,
        "nodes_per_s": nodes / out.wall_s,
        "points_per_s": len(answered) / out.wall_s,
        "peak_rss_mb": daemon.maxrss_mb,
        "design_latency_s": sum(float(r["total_latency_s"]) for r in answered.values()),
    }
    queue = stats.get("queue", {})
    submitted = queue.get("submitted", 0) or 1
    out.extra_layers = {"serve.coalesced_ratio": queue.get("coalesced", 0) / submitted,
                        "serve.rejected": queue.get("rejected", 0)}
    out.rows = [{"input": kind, "requests": len(v), "p50_ms": round(median(v) * 1e3, 2),
                 "p99_ms": round(percentile(v, 99) * 1e3, 2)} for kind, v in kinds.items()]
    return out


# ---------------------------------------------------------------------------
# huge_flow
# ---------------------------------------------------------------------------

#: huge_flow's set-ups per run: each builds every graph of the run, so it
#: takes seconds, not the half second the other workloads' set-ups take.
HUGE_SETUP_REPEATS = 3


def huge_flows(seconds: float) -> int:
    """A 10k-node flow takes about three seconds; building its graph adds
    a third of a second to each set-up."""
    return max(2, round(seconds / 3.3))


def huge_flow(seed: int, seconds: float, root: RunRoot,
              trace_dir: Optional[Path] = None) -> Outcome:
    """10k-node one-job flows through FlowEngine + the multilevel partitioner."""
    out = Outcome()
    seeds = inputs.huge_graph_seeds(seed, huge_flows(seconds))
    worker = [sys.executable, str(BENCH_DIR / "huge_worker.py"),
              "--seeds", ",".join(map(str, seeds))]
    # The measured worker's own set-up is the last of the HUGE_SETUP_REPEATS samples.
    setups = []
    for index in range(HUGE_SETUP_REPEATS - 1 if trace_dir is None else 0):
        work = root.sub(f"setup-{index}")
        child = run_child(worker + ["--setup-only", "--out", str(work / "r.json")], root.env(),
                          work, work)
        if child.returncode != 0:
            raise BenchError(f"huge_flow worker failed: {child.stderr[-500:]}")
        setups.append((json.loads((work / "r.json").read_text())["ready_ns"]
                       - child.spawn_ns) / 1e9)
    work = root.sub("measure")
    child = run_child(worker + ["--out", str(work / "r.json")], root.env(trace_dir, "huge"),
                      work, work, trace=trace_dir is not None)
    if child.returncode != 0:
        raise BenchError(f"huge_flow worker failed: {child.stderr[-500:]}")
    flows = json.loads((work / "r.json").read_text())["flows"]
    setups.append((json.loads((work / "r.json").read_text())["ready_ns"] - child.spawn_ns) / 1e9)
    out.roots.append(Root(child.pid, child.spawn_ns, child.exit_ns))
    out.wall_s = child.wall_s
    for flow in flows:
        out.attempted += 1
        if flow["ok"]:
            data = json.loads(Path(flow["check"]).read_text("utf-8"))
            errors = checks.check_partitioning(
                data["delays_s"], data["clbs"], [tuple(e) for e in data["edges"]],
                data["assignment"], data["capacity"], data["ct_s"], data["partition_count"],
                flow["total_latency_s"], data["name"])
        else:
            errors = [f"random_layered_10k seed={flow['seed']}: {flow['error']}"]
        if errors:
            out.failed += 1
            out.errors += errors
        out.rows.append({"input": f"random_layered_10k seed={flow['seed']}",
                         "nodes": flow["nodes"], "s": round(flow["seconds"], 3),
                         "partitions": flow["partitions"],
                         "total_latency_s": flow["total_latency_s"]})
    samples = [Sample(f["seconds"], f["nodes"] if f["ok"] else 0, int(f["ok"])) for f in flows]
    out.metrics = _sequential_metrics(samples, child.maxrss_mb,
                                      sum(f["total_latency_s"] for f in flows), setups)
    return out


# ---------------------------------------------------------------------------
# explore_sharded
# ---------------------------------------------------------------------------

#: Points each ``repro explore`` invocation evaluates.
EXPLORE_BUDGET = 400

#: The partitioner axis.  ``ilp`` is left out: fir_filterbank[channels=8]
#: alone takes ~38 s under ILP (and under portfolio's exact fallback), so
#: whether a seed's random draw hits it would decide the run's time.
EXPLORE_PARTITIONERS = "list,level,anneal"


def explore_invocations(seconds: float) -> int:
    """One 400-point, 2-shard exploration takes about 2.5 seconds."""
    return max(1, round(seconds / 2.5))


def explore_sharded(seed: int, seconds: float, root: RunRoot,
                    trace_dir: Optional[Path] = None) -> Outcome:
    """``repro explore --workload all --variants --strategy random --shards 2``.

    Each invocation gets its own explore seed and a fresh store and cache.
    """
    out = Outcome()
    setups = []
    for index in range(SETUP_REPEATS):
        took, sizes, errors = _variant_sizes(root, index)
        setups.append(took)
        out.errors += errors
    samples: List[Sample] = []
    rss: List[float] = []
    latencies: List[float] = []
    begin = time.perf_counter()
    for i, explore_seed in enumerate(inputs.explore_seeds(seed, explore_invocations(seconds))):
        work = root.sub(f"inv-{i}")
        argv = ["explore", "--workload", "all", "--variants", "--strategy", "random",
                "--shards", "2", "--partitioners", EXPLORE_PARTITIONERS,
                "--budget", str(EXPLORE_BUDGET), "--seed", str(explore_seed),
                "--store", str(work / "store.jsonl"), "--cache-dir", str(work / "cache"),
                "--format", "json"]
        child = run_child(REPRO + argv, root.env(trace_dir, f"explore-{i}", work / "cache"),
                          work, work, trace=trace_dir is not None)
        out.attempted += 1
        rss.append(child.maxrss_mb)
        out.roots.append(Root(child.pid, child.spawn_ns, child.exit_ns))
        records = []
        for store in sorted(work.glob("store.shard-*-of-2.jsonl")):
            records += checks.read_store_records(store.read_text("utf-8"))
        front = _parse_rows(child.stdout)
        if child.returncode != 0 or not records:
            errors = [f"explore: exit {child.returncode}: {child.stderr.strip()[-300:]}"]
        else:
            errors = checks.check_front(front, records)
            errors += [f"explore point failed: {r.get('error')}" for r in records
                       if r.get("status") != "ok"]
        if errors:
            out.failed += 1
            out.errors += errors
        ok = [r for r in records if r.get("status") == "ok"]
        nodes = sum(sizes[_point_key(r["point"]["workload"], r["point"]["params"])] for r in ok)
        samples.append(Sample(child.wall_s, nodes, len(ok)))
        latencies += [float(r["metrics"]["latency"]) for r in ok]
        out.rows.append({"input": f"explore --seed {explore_seed}", "points": len(records),
                         "front": len(front), "s": round(child.wall_s, 3)})
    out.wall_s = time.perf_counter() - begin
    # Mean over every evaluated point of the run: the seeds' random draws
    # differ, so a mean over thousands of points moves far less than a sum.
    design_latency = sum(latencies) / len(latencies) if latencies else 0.0
    out.metrics = _sequential_metrics(samples, max(rss), design_latency, setups)
    return out


WORKLOADS = {
    "cli_cold": cli_cold,
    "serve_mix": serve_mix,
    "huge_flow": huge_flow,
    "explore_sharded": explore_sharded,
}
