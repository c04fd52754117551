"""Shared plumbing: run isolation, child processes, statistics, environment stamp.

Nothing here imports ``repro``; the program is only ever started as a child
process (or, for ``huge_flow``, imported by the benchmark's own worker).
"""

from __future__ import annotations

import compileall
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TRACING_DIR = BENCH_DIR / "tracing"
SCRATCH = ROOT / ".perfbench_tmp"

#: How a ``repro`` console-script invocation is spelled without installing:
#: the same ``repro.cli:main`` entry point the ``repro`` script calls.
REPRO = [sys.executable, "-c", "import sys; from repro.cli import main; sys.exit(main())"]


class BenchError(Exception):
    """The benchmark cannot run here (usage or environment problem)."""


def require_program() -> None:
    """Refuse to run without the program's sources next to the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'repro'} is missing")


def build() -> None:
    """Byte-compile the sources once, so no measured process pays for it."""
    compileall.compile_dir(str(SRC), quiet=1)


def usable_cpus() -> int:
    """CPUs this process may run on (not the machine's CPU count)."""
    return len(os.sched_getaffinity(0))


def _sweep_stale_roots() -> None:
    """Remove run roots left behind by benchmark processes that were killed."""
    for path in SCRATCH.iterdir():
        try:
            pid = int(path.name.rsplit("-", 2)[1])
            os.kill(pid, 0)
        except (IndexError, ValueError):
            continue
        except ProcessLookupError:
            shutil.rmtree(path, ignore_errors=True)
        except PermissionError:
            continue


class RunRoot:
    """A fresh directory per run: cache, store, temp files and cwd live here.

    Run roots sit in the checkout (under ``.perfbench_tmp/``, which git
    ignores), because the benchmark reads and writes only inside its
    checkout; the root is removed when the run ends.  Children get
    ``REPRO_CACHE_DIR`` and ``TMPDIR`` inside it, so run *i* never warms
    run *i+1* and nothing is written to ``~/.repro-cache``.
    """

    def __init__(self, label: str) -> None:
        SCRATCH.mkdir(exist_ok=True)
        _sweep_stale_roots()
        base = SCRATCH / f"{label}-{os.getpid()}"
        index = 0
        while (base.parent / f"{base.name}-{index}").exists():
            index += 1
        self.path = base.parent / f"{base.name}-{index}"
        self.path.mkdir()
        for sub in ("cache", "tmp"):
            (self.path / sub).mkdir()

    def sub(self, name: str) -> Path:
        """A fresh subdirectory (e.g. one per invocation)."""
        path = self.path / name
        path.mkdir(parents=True)
        return path

    def env(self, trace_dir: Optional[Path] = None, trace_id: str = "",
            cache: Optional[Path] = None) -> Dict[str, str]:
        env = dict(os.environ)
        paths = [str(SRC)]
        if trace_dir is not None:
            paths.insert(0, str(TRACING_DIR))
            env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
            env["PERFBENCH_TRACE_ID"] = trace_id
        else:
            env.pop("PERFBENCH_TRACE_DIR", None)
        env["PYTHONPATH"] = os.pathsep.join(paths)
        env["REPRO_CACHE_DIR"] = str(cache or self.path / "cache")
        env["TMPDIR"] = str(self.path / "tmp")
        env["PYTHONHASHSEED"] = "0"
        return env

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass

    def __enter__(self) -> "RunRoot":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class Child:
    """One finished child process."""

    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_mb: float
    spawn_ns: int
    exit_ns: int
    pid: int


def _wait(process: subprocess.Popen, timeout: float):
    """Block until *process* exits (killing it after *timeout*); rusage too."""
    timer = threading.Timer(timeout, process.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(process.pid, 0)
    finally:
        timer.cancel()
    process.returncode = os.waitstatus_to_exitcode(status)
    return usage


def run_child(cmd: Sequence[str], env: Dict[str, str], cwd: Path, out_dir: Path,
              timeout: float = 150.0, trace: bool = False) -> Child:
    """Run *cmd* to completion; output goes to files (no pipe can fill up)."""
    out_path, err_path = out_dir / "stdout.txt", out_dir / "stderr.txt"
    with open(out_path, "w", encoding="utf-8") as out, \
            open(err_path, "w", encoding="utf-8") as err:
        spawn_ns = time.monotonic_ns()
        if trace:
            env = dict(env, PERFBENCH_SPAWN_NS=str(spawn_ns))
        process = subprocess.Popen(list(cmd), env=env, cwd=cwd, stdout=out,
                                   stderr=err, stdin=subprocess.DEVNULL)
        usage = _wait(process, timeout)
        exit_ns = time.monotonic_ns()
    return Child(
        returncode=process.returncode,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        wall_s=(exit_ns - spawn_ns) / 1e9,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        spawn_ns=spawn_ns,
        exit_ns=exit_ns,
        pid=process.pid,
    )


class Daemon:
    """A long-running child (``repro serve``) that is always reaped."""

    def __init__(self, cmd: Sequence[str], env: Dict[str, str], cwd: Path,
                 out_dir: Path, trace: bool = False) -> None:
        self.out_path = out_dir / "stdout.txt"
        self.err_path = out_dir / "stderr.txt"
        self._out = open(self.out_path, "w", encoding="utf-8")
        self._err = open(self.err_path, "w", encoding="utf-8")
        self.spawn_ns = time.monotonic_ns()
        if trace:
            env = dict(env, PERFBENCH_SPAWN_NS=str(self.spawn_ns))
        self.process = subprocess.Popen(list(cmd), env=env, cwd=cwd, stdout=self._out,
                                        stderr=self._err, stdin=subprocess.DEVNULL)
        self.maxrss_mb = 0.0

    def stdout(self) -> str:
        return self.out_path.read_text(encoding="utf-8", errors="replace")

    def stderr(self) -> str:
        return self.err_path.read_text(encoding="utf-8", errors="replace")

    def running(self) -> bool:
        return self.process.poll() is None

    def stop(self, terminate: bool = True, timeout: float = 60.0) -> int:
        """Reap the daemon: SIGTERM first unless it was already asked to exit,
        SIGKILL after *timeout*.  Records its peak RSS."""
        if self.process.returncode is None:
            if terminate:
                self.process.send_signal(signal.SIGTERM)
            self.maxrss_mb = _wait(self.process, timeout).ru_maxrss / 1024.0
        self._out.close()
        self._err.close()
        return self.process.returncode


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


# ---------------------------------------------------------------------------
# Environment stamp
# ---------------------------------------------------------------------------

def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "missing"


def git_commit() -> str:
    """The checkout's commit read from ``.git`` (no subprocess), or "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text("utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text("utf-8").strip()
        for line in (git / "packed-refs").read_text("utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def env_stamp(seed: int, threads: int, connections: int) -> Dict[str, object]:
    """Where and how a result was measured."""
    return {
        "usable_cpus": usable_cpus(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "networkx": _version("networkx"),
        "git_commit": git_commit(),
        "seed": seed,
        "generator_threads": threads,
        "generator_connections": connections,
    }


def tracer():
    """The span recorder, for spans the benchmark's own process records."""
    if str(TRACING_DIR) not in sys.path:
        sys.path.insert(0, str(TRACING_DIR))
    import perfbench_tracer

    return perfbench_tracer


def log(message: str) -> None:
    """Progress notes go to stderr; stdout ends with the result line."""
    print(message, file=sys.stderr, flush=True)


def fmt_rows(rows: List[Dict[str, object]], columns: Sequence[str]) -> str:
    """A plain aligned text table."""
    cells = [[str(row.get(column, "")) for column in columns] for row in rows]
    widths = [max([len(c)] + [len(r[i]) for r in cells]) for i, c in enumerate(columns)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths))]
    lines += ["  ".join(v.ljust(w) for v, w in zip(r, widths)) for r in cells]
    return "\n".join(lines)
