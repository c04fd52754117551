"""The benchmark's own tests: its checkers reject tampered results.

Run with ``python -m pytest perfbench/test_checks.py -q`` (they need no
``repro`` import and start no process).
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import inputs  # noqa: E402
import traceagg  # noqa: E402

JPEG_ROW = {"status": "ok", "partitions": 3, "k": 2048, "block_delay_ns": 8440.0,
            "total_latency_s": 0.30000844}
JPEG_TABLE = """RTR design dct4x4-rtr: 3 configurations, k=2048, block delay 8440 ns
temporal partitioning of 'dct4x4' (ilp): 3 partitions, latency 300008.44 us
  P1: 16 tasks, 1120 CLBs, 3400 ns
  P2: 8 tasks, 1440 CLBs, 2520 ns
  P3: 8 tasks, 1440 CLBs, 2520 ns
"""


def test_jpeg_row_matches_paper_and_tampering_is_caught():
    assert checks.check_jpeg_row(JPEG_ROW) == []
    for key, bad in (("partitions", 4), ("k", 2047), ("block_delay_ns", 8439.0),
                     ("status", "failed:partition")):
        assert checks.check_jpeg_row(dict(JPEG_ROW, **{key: bad}))


def test_jpeg_table_sizes_are_checked():
    assert checks.check_jpeg_table(JPEG_TABLE) == []
    assert checks.check_jpeg_table(JPEG_TABLE.replace("P2: 8 tasks", "P2: 9 tasks"))
    assert checks.check_jpeg_table(JPEG_TABLE.replace("k=2048", "k=1024"))


def _chain():
    """a -> b -> c, d -> c; two partitions on a 100-CLB device, CT 1 s."""
    delays = {"a": 1.0, "b": 2.0, "c": 4.0, "d": 5.0}
    clbs = {"a": 40, "b": 50, "c": 60, "d": 30}
    edges = [("a", "b"), ("b", "c"), ("d", "c")]
    assignment = {"a": 1, "b": 1, "d": 2, "c": 2}
    # Partition 1: a->b = 3 s; partition 2: d->c = 9 s; plus 2 * CT.
    return delays, clbs, edges, assignment, 100, 1.0, 2, 14.0


def test_partitioning_recomputation_accepts_a_correct_design():
    assert checks.check_partitioning(*_chain()) == []


@pytest.mark.parametrize("tamper", ["backward", "capacity", "latency", "missing", "count"])
def test_partitioning_recomputation_rejects_tampering(tamper):
    delays, clbs, edges, assignment, capacity, ct, count, latency = _chain()
    assignment = dict(assignment)
    if tamper == "backward":
        assignment.update(a=2, b=2, d=1, c=1)
    elif tamper == "capacity":
        capacity = 80
    elif tamper == "latency":
        latency += 1e-6
    elif tamper == "missing":
        del assignment["d"]
    else:
        count = 3
    assert checks.check_partitioning(delays, clbs, edges, assignment, capacity, ct, count,
                                     latency)


def _records():
    def rec(fp, latency, throughput, status="ok"):
        return {"fingerprint": fp * 16, "status": status,
                "metrics": {"latency": latency, "throughput": throughput}}
    return [rec("a", 1.0, 10.0), rec("b", 2.0, 20.0), rec("c", 2.0, 5.0),
            rec("d", 0.5, 1.0, status="failed")]


def test_front_equals_own_dominance_filter_and_tampering_is_caught():
    records = _records()
    front = [{"fingerprint": "a" * 12, "latency": 1.0, "throughput": 10.0},
             {"fingerprint": "b" * 12, "latency": 2.0, "throughput": 20.0}]
    assert checks.check_front(front, records) == []
    assert checks.check_front(front[:1], records)
    dominated = {"fingerprint": "c" * 12, "latency": 2.0, "throughput": 5.0}
    assert checks.check_front(front + [dominated], records)
    moved = [dict(front[0], latency=0.9), front[1]]
    assert checks.check_front(moved, records)


def test_serve_checks_reject_bad_results():
    body = {"tag": "p0", "ct_ms": 10.0}
    good = {"status": "ok", "partitions": 2, "k": 7, "total_latency_s": 0.0205}
    assert checks.check_serve_result(body, good) == []
    assert checks.check_serve_result(body, dict(good, status="failed:partition"))
    assert checks.check_serve_result(body, dict(good, total_latency_s=0.01))
    assert checks.check_serve_result(body, None)
    shifted = dict(good, total_latency_s=0.0205 + 2 * 0.04)
    assert checks.check_ct_variant(good, 0.01, shifted, 0.05) == []
    assert checks.check_ct_variant(good, 0.01, dict(shifted, total_latency_s=0.11), 0.05)
    assert checks.check_ct_variant(good, 0.01, dict(shifted, partitions=3), 0.05)


def test_inputs_are_a_pure_function_of_the_seed():
    assert inputs.dsp_graph_dict(3, 1) == inputs.dsp_graph_dict(3, 1)
    assert inputs.dsp_graph_dict(3, 1) != inputs.dsp_graph_dict(4, 1)
    assert inputs.huge_graph_seeds(5, 3) == inputs.huge_graph_seeds(5, 3)
    assert inputs.explore_seeds(5, 2) != inputs.explore_seeds(6, 2)
    first, again = inputs.serve_mix(9, 1000), inputs.serve_mix(9, 1000)
    assert [r.key for r in first] == [r.key for r in again]
    kinds = [r.kind for r in first]
    assert kinds[0] == "fresh"
    assert kinds.count("repeat") == 300
    assert 490 <= kinds.count("ct_variant") <= 500
    assert kinds.count("ct_variant") + kinds.count("fresh") == 700
    for graph_seed in range(5):
        graph = inputs.dsp_graph_dict(graph_seed, 0)
        assert 12 <= len(graph["tasks"]) <= 24
        assert abs(sum(t["clbs"] for t in graph["tasks"]) - inputs.CLI_GRAPH_TOTAL_CLBS) < 24


def test_repeats_name_earlier_bodies_and_ct_variants_earlier_problems():
    mix = inputs.serve_mix(2, 1000)
    seen, fresh = set(), {}
    for request in mix:
        if request.kind == "repeat":
            assert request.key in seen
        elif request.kind == "ct_variant":
            base = fresh[request.problem]
            assert {k: v for k, v in request.body.items() if k != "ct_ms"} == \
                {k: v for k, v in base.body.items() if k != "ct_ms"}
            assert request.key not in seen
        else:
            fresh[request.problem] = request
        seen.add(request.key)


def test_self_time_and_attribution():
    # One process: [0, 100] root span with children [10, 40] and [30, 60]
    # (overlapping), a sibling [70, 80]; the process lived [0, 110].
    spans = [["p-1", "cli.main", "", 0, 100, "", 1], ["p-2", "ilp.solve", "p-1", 10, 40, "", 1],
             ["p-3", "ilp.solve", "p-1", 30, 60, "", 1],
             ["p-4", "memmap.map", "p-1", 70, 80, "", 1]]
    payload = {"meta": {"pid": 7}, "spans": spans, "counters": {}, "values": {}}
    metrics, rows, chrome = traceagg.analyse([payload], [traceagg.Root(7, 0, 110)])
    assert metrics["cli.self_s"] == pytest.approx((100 - 50 - 10) / 1e9)
    assert metrics["ilp.solves"] == 2
    assert metrics["process.exit_s"] == pytest.approx(10 / 1e9)
    assert metrics["trace.attributed_ratio"] == pytest.approx(1.0)
    assert len(chrome["traceEvents"]) == 5


def test_importing_benchmark_modules_runs_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    before = set(Path(__file__).resolve().parent.parent.iterdir())
    for name in ("run", "workloads", "common", "huge_worker", "traceagg"):
        importlib.import_module(name)
    assert set(Path(__file__).resolve().parent.parent.iterdir()) == before
    assert list(tmp_path.iterdir()) == []
