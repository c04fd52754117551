"""Span recorder that wraps public ``repro`` calls from outside the program.

Spans (name, start, end, parent, trace id) and counters are kept in memory
and written once, when the process ends, as ``trace-<pid>.json`` in
``$PERFBENCH_TRACE_DIR``.  Clocks are ``time.monotonic_ns`` (one clock for
every process on the machine), so spans of different processes line up.

Wrapping happens as each ``repro`` module finishes executing, before any
other module can bind its names, so ``from .x import f`` picks up the
wrapped ``f``.  Which call is timed under which layer name is the table
:data:`PATCHES`; nothing inside ``src/`` is edited.
"""

from __future__ import annotations

import atexit
import functools
import importlib.abc
import inspect
import itertools
import json
import os
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

_clock = time.monotonic_ns


class _State:
    """Everything this process recorded."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, float] = {}
        self.values: Dict[str, List[float]] = {}
        self.meta: Dict[str, object] = {}
        self.ids = itertools.count(1)
        self.local = threading.local()
        self.lock = threading.Lock()
        self.flushed = False


STATE = _State()


def _stack() -> list:
    stack = getattr(STATE.local, "stack", None)
    if stack is None:
        stack = STATE.local.stack = []
    return stack


def trace_id() -> str:
    """The trace id of the calling thread's current request."""
    return getattr(STATE.local, "trace_id", "") or STATE.meta.get("trace_id", "")


def set_trace_id(value: str) -> None:
    STATE.local.trace_id = value


def count(name: str, amount: float = 1) -> None:
    with STATE.lock:
        STATE.counters[name] = STATE.counters.get(name, 0) + amount


def value(name: str, sample: object) -> None:
    with STATE.lock:
        STATE.values.setdefault(name, []).append(sample)


def current_name() -> Optional[str]:
    stack = _stack()
    return stack[-1][1] if stack else None


def open_span(name: str) -> list:
    stack = _stack()
    parent = stack[-1][0] if stack else ""
    entry = [f"{os.getpid()}-{next(STATE.ids)}", name, parent, _clock()]
    stack.append(entry)
    return entry


def close_span(entry: list) -> None:
    end = _clock()
    stack = _stack()
    if stack and stack[-1] is entry:
        stack.pop()
    elif entry in stack:
        stack.remove(entry)
    span_id, name, parent, start = entry
    with STATE.lock:
        STATE.spans.append(
            [span_id, name, parent, start, end, trace_id(), threading.get_ident()]
        )


def add_span(name: str, start: int, end: int) -> None:
    """Record an already-finished top-level interval (e.g. from the parent's clock)."""
    with STATE.lock:
        STATE.spans.append([f"{os.getpid()}-{next(STATE.ids)}", name, "",
                            start, end, trace_id(), threading.get_ident()])


class span:
    """``with span("layer.name"):`` records one span."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __enter__(self):
        self.entry = open_span(self.name)
        return self

    def __exit__(self, *exc) -> None:
        close_span(self.entry)


def _wrap(fn: Callable, name, after: Optional[Callable] = None) -> Callable:
    """*fn* timed as a span; *name* may be a callable choosing it per call.

    A coroutine gets a span only when it owns its thread's event loop for
    the whole span (the daemon's serve loop): the span stack is per thread,
    and interleaved coroutines would corrupt it.
    """
    if getattr(fn, "__perfbench_wrapped__", False):
        return fn
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            entry = open_span(name) if name else None
            try:
                result = await fn(*args, **kwargs)
            finally:
                if entry is not None:
                    close_span(entry)
            if after is not None:
                after(args, kwargs, result)
            return result

        async_wrapper.__perfbench_wrapped__ = True
        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if name is None:
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result
        entry = open_span(name() if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            close_span(entry)
        if after is not None:
            after(args, kwargs, result)
        return result

    wrapper.__perfbench_wrapped__ = True
    return wrapper


def _patch(owner, attr: str, name, after: Optional[Callable] = None) -> None:
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if raw is None:
        return
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(_wrap(raw.__func__, name, after)))
    elif isinstance(raw, staticmethod):
        setattr(owner, attr, staticmethod(_wrap(raw.__func__, name, after)))
    else:
        setattr(owner, attr, _wrap(raw, name, after))


def _counting_init(cls, counter: str) -> None:
    original = cls.__init__

    @functools.wraps(original)
    def init(self, *args, **kwargs):
        count(counter)
        original(self, *args, **kwargs)

    cls.__init__ = init


# ---------------------------------------------------------------------------
# Per-call extras: cache/hit accounting read from the public return values
# ---------------------------------------------------------------------------

def _partition_name() -> str:
    """Outermost partitioner call, or the multilevel scheme's inner solve."""
    names = [entry[1] for entry in _stack()]
    if names and names[-1] == "partition.multilevel":
        return "partition.coarse_solve"
    if any(n.startswith("partition.") and n != "partition.problem_build" for n in names):
        return "partition.nested"
    return "partition.solve"


def _after_estimate(args, kwargs, result) -> None:
    count("synth.estimates")
    if result[1] != "computed":
        count("synth.estimate_hits")


def _solve_batch_wrapper(original: Callable) -> Callable:
    @functools.wraps(original)
    def solve_batch(self, submissions):
        before = self.stats.snapshot()
        entry = open_span("runtime.solve_batch")
        try:
            return original(self, submissions)
        finally:
            close_span(entry)
            after = self.stats.snapshot()
            for key in ("jobs", "deduped", "cache_misses", "cache_memory_hits",
                        "cache_disk_hits"):
                count(f"runtime.{key}", after[key] - before[key])

    solve_batch.__perfbench_wrapped__ = True
    return solve_batch


def _after_run_batch(args, kwargs, result) -> None:
    count("synth.flow_jobs", len(result.reports))


def _build_flow_job_wrapper(original: Callable) -> Callable:
    """A serve job's work starts here: tag the worker thread with the job's
    request key first, so every span of the job (graph build included)
    carries it."""
    @functools.wraps(original)
    def build_flow_job(spec, *args, **kwargs):
        set_trace_id(spec.request_key())
        entry = open_span("serve.build_job")
        try:
            return original(spec, *args, **kwargs)
        finally:
            close_span(entry)

    build_flow_job.__perfbench_wrapped__ = True
    return build_flow_job


def _after_queue_finish(args, kwargs, result) -> None:
    """One executed job: its request key and the queue's own ``time.monotonic``
    stamps (the clock of ``monotonic_ns``) for submit, worker start and finish."""
    entry = args[1]
    if entry.started_at:
        value("serve.jobs", [entry.key, entry.submitted_at, entry.started_at,
                             entry.finished_at])


def _patch_partitioners(module, classes) -> None:
    for cls_name in classes:
        cls = getattr(module, cls_name, None)
        if cls is None:
            continue
        name = "partition.multilevel" if cls_name == "MultilevelPartitioner" else _partition_name
        _patch(cls, "partition", name)


def _patch_kpaths(module) -> None:
    for attr, fn in list(vars(module).items()):
        if (not attr.startswith("_") and inspect.isfunction(fn)
                and fn.__module__ == module.__name__):
            setattr(module, attr, _wrap(fn, "taskgraph.kpaths"))


def _patch_strategies(module) -> None:
    for cls in list(vars(module).values()):
        if isinstance(cls, type) and "propose" in cls.__dict__:
            _patch(cls, "propose", "explore.propose")


PATCHES: Dict[str, Callable] = {
    "repro.cli": lambda m: _patch(m, "main", "cli.main"),
    "repro.workloads.base": lambda m: _patch(m.Workload, "build_graph", "workloads.build_graph"),
    "repro.taskgraph.graph": lambda m: _patch(m.TaskGraph, "topological_order",
                                              "taskgraph.topo_order"),
    "repro.taskgraph.kpaths": _patch_kpaths,
    "repro.synth.stages": lambda m: _patch(m, "graph_content_digest", "synth.plan"),
    "repro.synth.pipeline": lambda m: (
        _patch(m.StagePipeline, "plan", "synth.plan"),
        _patch(m.StagePipeline, "estimate", "synth.estimate", _after_estimate),
    ),
    "repro.synth.flow_engine": lambda m: _patch(m.FlowEngine, "run_batch", "synth.flow",
                                                _after_run_batch),
    "repro.runtime.engine": lambda m: setattr(
        m.PartitionEngine, "solve_batch", _solve_batch_wrapper(m.PartitionEngine.solve_batch)
    ),
    "repro.partition.spec": lambda m: _patch(m.PartitionProblem, "from_system",
                                             "partition.problem_build"),
    "repro.partition.ilp_formulation": lambda m: _patch(
        m.TemporalPartitioningFormulation, "__init__", "partition.formulation"
    ),
    "repro.partition.result": lambda m: _counting_init(
        m.TemporalPartitioning, "partition.partitionings_built"
    ),
    "repro.partition.ilp_partitioner": lambda m: _patch_partitioners(m, ["IlpTemporalPartitioner"]),
    "repro.partition.list_partitioner": lambda m: _patch_partitioners(
        m, ["ListTemporalPartitioner"]),
    "repro.partition.greedy_partitioner": lambda m: _patch_partitioners(
        m, ["LevelClusteringPartitioner"]),
    "repro.partition.anneal_partitioner": lambda m: _patch_partitioners(
        m, ["AnnealTemporalPartitioner"]),
    "repro.partition.portfolio": lambda m: _patch_partitioners(m, ["PortfolioPartitioner"]),
    "repro.partition.hierarchy": lambda m: _patch_partitioners(m, ["MultilevelPartitioner"]),
    "repro.ilp.solver": lambda m: _patch(m, "solve", "ilp.solve"),
    "repro.memmap.mapper": lambda m: _patch(m, "build_memory_map", "memmap.map"),
    "repro.fission.analysis": lambda m: _patch(m, "analyse_fission", "fission.analyse"),
    "repro.serve.workers": lambda m: setattr(
        m, "build_flow_job", _build_flow_job_wrapper(m.build_flow_job)
    ),
    "repro.serve.queue": lambda m: _patch(m.JobQueue, "finish", None,
                                           _after_queue_finish),
    "repro.serve.server": lambda m: _patch(m.FlowServer, "serve_forever", "serve.loop"),
    "repro.explore.engine": lambda m: _patch(m.Explorer, "run", "explore.run"),
    "repro.explore.strategies": _patch_strategies,
    "repro.explore.store": lambda m: _patch(m.RunStore, "record", "explore.store_append"),
    "repro.explore.merge": lambda m: _patch(m, "merge_stores", "explore.merge"),
    "repro.explore.shard": lambda m: _patch(m, "run_sharded", "explore.shards"),
}


def _import_span_name(module: str) -> Optional[str]:
    """The layer an import is charged to, or None when a parent span covers it."""
    current = current_name()
    if module == "repro" or module.startswith("repro."):
        return None if current == "repro.import" else "repro.import"
    if module in ("scipy", "scipy.optimize"):
        return None if current == "ilp.scipy_import" else "ilp.scipy_import"
    return None


class _ImportTimer(importlib.abc.MetaPathFinder):
    """Times watched imports and applies :data:`PATCHES` after each executes."""

    def find_spec(self, fullname, path, target=None):
        if not (fullname == "repro" or fullname.startswith("repro.")
                or fullname in ("scipy", "scipy.optimize")):
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        loader = spec.loader
        if loader is None or not hasattr(loader, "exec_module"):
            return spec
        exec_module = loader.exec_module

        def timed_exec(module):
            name = _import_span_name(fullname)
            entry = open_span(name) if name else None
            try:
                exec_module(module)
            finally:
                if entry is not None:
                    close_span(entry)
            patch = PATCHES.get(fullname)
            if patch is not None:
                patch(module)

        loader.exec_module = timed_exec
        return spec


def flush(directory: Optional[str] = None) -> None:
    """Write this process's spans (once) to the trace directory."""
    if STATE.flushed:
        return
    STATE.flushed = True
    directory = directory or os.environ.get("PERFBENCH_TRACE_DIR")
    if not directory:
        return
    STATE.meta["end_ns"] = _clock()
    STATE.meta["pid"] = os.getpid()
    with STATE.lock:
        payload = {
            "meta": STATE.meta,
            "spans": list(STATE.spans),
            "counters": dict(STATE.counters),
            "values": {key: list(items) for key, items in STATE.values.items()},
        }
    path = os.path.join(directory, f"trace-{os.getpid()}.json")
    with open(path + ".tmp", "w", encoding="utf-8") as stream:
        json.dump(payload, stream)
    os.replace(path + ".tmp", path)


def reset() -> None:
    """Forget everything recorded so far (the benchmark's own process, between runs)."""
    with STATE.lock:
        STATE.spans, STATE.counters, STATE.values = [], {}, {}
    STATE.flushed = False


def _after_fork_child(_state) -> None:
    """A forked ``multiprocessing`` child: its own buffer, flushed at its exit."""
    import multiprocessing.util as mp_util

    STATE.spans = []
    STATE.counters = {}
    STATE.values = {}
    STATE.meta = {"start_ns": _clock(), "forked": True,
                  "trace_id": STATE.meta.get("trace_id", "")}
    STATE.flushed = False
    mp_util.Finalize(None, flush, exitpriority=100)


def install() -> None:
    """Start recording in this process (idempotent)."""
    if any(isinstance(finder, _ImportTimer) for finder in sys.meta_path):
        return
    now = _clock()
    spawn = os.environ.pop("PERFBENCH_SPAWN_NS", "")
    STATE.meta = {"start_ns": now, "trace_id": os.environ.get("PERFBENCH_TRACE_ID", "")}
    if spawn:
        STATE.meta["spawn_ns"] = int(spawn)
    sys.meta_path.insert(0, _ImportTimer())
    atexit.register(flush)
    import multiprocessing.util as mp_util

    mp_util.register_after_fork(STATE, _after_fork_child)
    if spawn:
        add_span("process.start", int(spawn), _clock())
