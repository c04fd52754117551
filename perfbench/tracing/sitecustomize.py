"""Trace bootstrap: put this directory on PYTHONPATH to trace a process.

Python imports ``sitecustomize`` at start-up, so every process the
benchmark starts with this directory on its path (and every process those
fork) records spans around the public ``repro`` calls listed in
:mod:`perfbench_tracer`.  Without ``PERFBENCH_TRACE_DIR`` it does nothing.
"""

import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    import perfbench_tracer

    perfbench_tracer.install()
