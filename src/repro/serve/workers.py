"""Flow-engine workers draining the daemon's job queue.

Each worker owns a full :class:`~repro.synth.flow_engine.FlowEngine` (and a
single-thread executor to run its synchronous, CPU-bound flows off the
event loop) — workers never share mutable engine state.  What they *do*
share is the on-disk cache root: the artifact store holding partition
outcomes and stage artifacts is multi-process safe (atomic temp-file +
rename writes, proven under concurrency in the test suite), so a solve
finished by any worker warms every other worker and every later daemon
run.

Failure capture mirrors the flow engine's own structured reports: a job
that fails inside a stage carries ``failed_stage``/``error``/``error_kind``
from the :class:`~repro.synth.flow_engine.FlowReport`; a crash outside the
flow (bad parameters, a broken workload builder) is caught and reported
the same way with ``failed_stage="submit"``.  A per-job wall-clock timeout
marks the job failed with ``error_kind="JobTimeout"`` — pure-python flows
are not preemptible, so the worker also waits for the abandoned flow to
unwind before taking the next entry (the timeout bounds *reporting*
latency, not CPU).

``drain()`` closes the queue and joins every worker: in-flight and queued
jobs finish, new submissions are refused — the graceful half of
SIGTERM/SIGINT handling.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Dict, List, Optional

from ..errors import ReproError
from ..runtime.engine import EngineConfig
from ..synth.flow_engine import FlowEngine, FlowJob, FlowReport
from .protocol import JobSpec
from .queue import JobQueue, QueueClosedError, SolveEntry


def build_flow_job(spec: JobSpec) -> FlowJob:
    """Materialise one submission into a runnable flow job.

    Resolution order matches the CLI: the named system preset (or the
    workload's own board), then the CT override, then the partitioner and
    seed overrides on the workload's flow options.
    """
    from ..arch import system_by_name
    from ..workloads import get_workload

    workload = get_workload(spec.workload)
    graph = workload.build_graph(**spec.params)
    system = (
        system_by_name(spec.system) if spec.system else workload.default_system()
    )
    if spec.ct_ms is not None:
        system = system.with_reconfiguration_time(spec.ct_ms / 1000.0)
    options = workload.flow_options()
    overrides: Dict[str, object] = {"partitioner_seed": spec.seed}
    if spec.partitioner is not None:
        overrides["partitioner"] = spec.partitioner
    options = replace(options, **overrides)
    return FlowJob(
        graph=graph,
        system=system,
        options=options,
        tag=spec.name,
        workload=spec.workload,
    )


class WorkerPool:
    """N asyncio workers, each draining the queue through its own engine."""

    def __init__(
        self,
        queue: JobQueue,
        workers: int = 2,
        cache_dir: Optional[str] = None,
        job_timeout: Optional[float] = None,
        lru_capacity: int = 256,
    ) -> None:
        # ``workers=0`` is a valid pool for a scheduler-only daemon
        # (``repro schedule``): exploration workers evaluate their own flow
        # jobs remotely, so the daemon never solves anything itself.
        if workers < 0:
            raise ReproError("the worker pool size must not be negative")
        if job_timeout is not None and job_timeout <= 0:
            raise ReproError("job_timeout must be positive")
        self.queue = queue
        self.job_timeout = job_timeout
        self.engines: List[FlowEngine] = [
            FlowEngine(
                config=EngineConfig(
                    workers=0, cache_dir=cache_dir, lru_capacity=lru_capacity
                )
            )
            for _ in range(workers)
        ]
        self._executors = [
            ThreadPoolExecutor(max_workers=1, thread_name_prefix=f"flow-worker-{i}")
            for i in range(workers)
        ]
        self._tasks: List[asyncio.Task] = []
        self.jobs_run = 0
        self.jobs_timed_out = 0

    @property
    def workers(self) -> int:
        """Pool size."""
        return len(self.engines)

    def start(self) -> None:
        """Spawn the worker tasks on the running loop."""
        if self._tasks:
            raise ReproError("the worker pool is already running")
        self._tasks = [
            asyncio.create_task(self._worker(index), name=f"serve-worker-{index}")
            for index in range(self.workers)
        ]

    async def drain(self) -> None:
        """Close the queue, finish queued + in-flight jobs, join workers."""
        self.queue.close()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
            self._tasks = []
        for executor in self._executors:
            executor.shutdown(wait=True)

    async def _worker(self, index: int) -> None:
        loop = asyncio.get_running_loop()
        engine = self.engines[index]
        executor = self._executors[index]
        while True:
            try:
                entry = await self.queue.get()
            except QueueClosedError:
                return
            await self._run_entry(loop, engine, executor, entry)

    async def _run_entry(
        self,
        loop: asyncio.AbstractEventLoop,
        engine: FlowEngine,
        executor: ThreadPoolExecutor,
        entry: SolveEntry,
    ) -> None:
        self.jobs_run += 1
        future = loop.run_in_executor(executor, self._execute, engine, entry.spec)
        try:
            report = await (
                asyncio.wait_for(asyncio.shield(future), self.job_timeout)
                if self.job_timeout is not None
                else future
            )
        except asyncio.TimeoutError:
            self.jobs_timed_out += 1
            await self.queue.finish(
                entry,
                None,
                failed_stage="worker",
                error=(
                    f"job exceeded the {self.job_timeout:.3f} s wall-clock "
                    "limit"
                ),
                error_kind="JobTimeout",
            )
            # The flow itself cannot be interrupted; wait it out so the
            # worker's executor thread is free again before the next job.
            try:
                await future
            except Exception:  # noqa: BLE001 - already reported as timeout
                pass
            return
        except Exception as error:  # noqa: BLE001 - crash -> structured report
            await self.queue.finish(
                entry,
                None,
                failed_stage="submit",
                error=str(error),
                error_kind=type(error).__name__,
            )
            return
        if report.ok:
            await self.queue.finish(entry, report.row())
        else:
            await self.queue.finish(
                entry,
                report.row(),
                failed_stage=report.failed_stage or "unknown",
                error=report.error or "no detail",
                error_kind=report.error_kind,
            )

    def _execute(self, engine: FlowEngine, spec: JobSpec) -> FlowReport:
        """Run one flow job synchronously (executor thread)."""
        return engine.run_batch([build_flow_job(spec)])[0]

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def engine_stats(self) -> Dict[str, int]:
        """Partition-engine counters summed across every worker engine.

        ``cache_misses`` is the number of partition problems that actually
        ran a solver — the counter the dedup acceptance checks assert on.
        """
        totals: Dict[str, int] = {}
        for engine in self.engines:
            for key, value in engine.stats.snapshot().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def stage_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-stage artifact-cache counters summed across worker engines."""
        totals: Dict[str, Dict[str, int]] = {}
        for engine in self.engines:
            for stage, counters in engine.stage_stats.items():
                merged = totals.setdefault(stage, {})
                for key, value in counters.items():
                    merged[key] = merged.get(key, 0) + value
        return totals

    def stats(self) -> Dict[str, object]:
        """Pool counters for ``/v1/stats``."""
        return {
            "workers": self.workers,
            "jobs_run": self.jobs_run,
            "jobs_timed_out": self.jobs_timed_out,
            "engine": self.engine_stats(),
            "stages": self.stage_stats(),
        }
