"""Independent output checks: written against the paper and plain data.

Nothing here imports ``repro``: each check recomputes its answer from the
inputs and the program's returned values, so a bug shared by the program's
own validators cannot hide here.  Every function returns a list of error
strings (empty when the output is correct).
"""

from __future__ import annotations

import json
import re
from collections import defaultdict
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

#: The paper's JPEG-DCT design (DAC'99 case study, hand-checked values).
JPEG_PARTITION_SIZES = (16, 8, 8)
JPEG_BLOCK_DELAY_NS = 8440.0
JPEG_K = 2048

#: XC4044 device CLBs and reconfiguration time of the default CLI system.
XC4044_CLBS = 1600
XC4044_CT_S = 0.1

#: CT of the ``random_layered`` catalog system, used when a request names none.
RANDOM_LAYERED_CT_MS = 5.0

_REL = 1e-9


def _close(a: float, b: float, rel: float = _REL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def check_jpeg_row(row: Mapping[str, object]) -> List[str]:
    """``repro flow --workload jpeg_dct --format json`` against the paper."""
    errors = []
    if row.get("status") != "ok":
        errors.append(f"jpeg_dct status {row.get('status')!r}")
    if row.get("partitions") != len(JPEG_PARTITION_SIZES):
        errors.append(f"jpeg_dct partitions {row.get('partitions')} != 3")
    if row.get("k") != JPEG_K:
        errors.append(f"jpeg_dct k {row.get('k')} != {JPEG_K}")
    if row.get("block_delay_ns") != JPEG_BLOCK_DELAY_NS:
        errors.append(f"jpeg_dct block delay {row.get('block_delay_ns')} ns != 8440")
    return errors


def check_jpeg_table(text: str) -> List[str]:
    """The human-readable ``repro flow --workload jpeg_dct`` design summary."""
    sizes = tuple(int(n) for n in re.findall(r"^\s+P\d+: (\d+) tasks", text, re.M))
    errors = []
    if sizes != JPEG_PARTITION_SIZES:
        errors.append(f"jpeg_dct partition sizes {sizes} != {JPEG_PARTITION_SIZES}")
    if not re.search(r"3 configurations, k=2048, block delay 8440 ns", text):
        errors.append("jpeg_dct summary line does not read "
                      "'3 configurations, k=2048, block delay 8440 ns'")
    return errors


def check_cli_row(row: Mapping[str, object], graph: Mapping[str, object]) -> List[str]:
    """A generated graph's flow row: ok, enough devices, latency at least N*CT."""
    errors = []
    name = graph["name"]
    if row.get("status") != "ok":
        return [f"{name}: status {row.get('status')!r}"]
    total_clbs = sum(int(task["clbs"]) for task in graph["tasks"])
    partitions = int(row.get("partitions", 0))
    if partitions * XC4044_CLBS < total_clbs:
        errors.append(f"{name}: {partitions} partitions cannot hold {total_clbs} CLBs")
    latency = float(row.get("total_latency_s", 0.0))
    compute_bound = max(task["delay_ns"] for task in graph["tasks"]) * 1e-9
    if latency < partitions * XC4044_CT_S + compute_bound - 1e-12:
        errors.append(f"{name}: latency {latency} s below N*CT + slowest task")
    if int(row.get("k", 0)) < 1:
        errors.append(f"{name}: k {row.get('k')} < 1")
    return errors


def _topological(nodes: Iterable[str], edges: Sequence[Tuple[str, str]]) -> List[str]:
    indegree = {node: 0 for node in nodes}
    successors = defaultdict(list)
    for u, v in edges:
        successors[u].append(v)
        indegree[v] += 1
    ready = [node for node, degree in indegree.items() if degree == 0]
    order = []
    while ready:
        node = ready.pop()
        order.append(node)
        for nxt in successors[node]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                ready.append(nxt)
    return order


def check_partitioning(
    delays_s: Mapping[str, float],
    clbs: Mapping[str, int],
    edges: Sequence[Tuple[str, str]],
    assignment: Mapping[str, int],
    capacity: int,
    ct_s: float,
    partition_count: int,
    total_latency_s: float,
    label: str = "",
) -> List[str]:
    """A temporal partitioning recomputed from its assignment.

    Every edge goes forward in partition order, every partition's CLBs fit
    the device, and the sum of per-partition longest paths plus N*CT is the
    reported total latency.
    """
    errors = []
    if set(assignment) != set(delays_s):
        return [f"{label}: assignment covers {len(assignment)} of {len(delays_s)} tasks"]
    used = sorted(set(assignment.values()))
    if used != list(range(1, partition_count + 1)):
        errors.append(f"{label}: partitions used {used[:5]}... != 1..{partition_count}")
    backward = [(u, v) for u, v in edges if assignment[u] > assignment[v]]
    if backward:
        errors.append(f"{label}: {len(backward)} edge(s) go backward, e.g. {backward[0]}")
    area: Dict[int, int] = defaultdict(int)
    for task, part in assignment.items():
        area[part] += clbs[task]
    over = {part: total for part, total in area.items() if total > capacity}
    if over:
        errors.append(f"{label}: partitions over {capacity} CLBs: {over}")
    finish: Dict[str, float] = {}
    predecessors = defaultdict(list)
    for u, v in edges:
        if assignment[u] == assignment[v]:
            predecessors[v].append(u)
    for task in _topological(delays_s, edges):
        start = max((finish[p] for p in predecessors[task]), default=0.0)
        finish[task] = start + delays_s[task]
    longest: Dict[int, float] = defaultdict(float)
    for task, end in finish.items():
        longest[assignment[task]] = max(longest[assignment[task]], end)
    expected = sum(longest.values()) + partition_count * ct_s
    if not _close(expected, total_latency_s):
        errors.append(f"{label}: total latency {total_latency_s} != recomputed {expected}")
    return errors


def dominance_front(records: Sequence[Mapping[str, object]]) -> List[Tuple[str, float, float]]:
    """Non-dominated ok records over (latency min, throughput max)."""
    points = [
        (str(r["fingerprint"]), float(r["metrics"]["latency"]), float(r["metrics"]["throughput"]))
        for r in records if r.get("status") == "ok"
    ]

    def dominates(a, b) -> bool:
        return a[1] <= b[1] and a[2] >= b[2] and (a[1] < b[1] or a[2] > b[2])

    return sorted(p for p in points if not any(dominates(q, p) for q in points))


def check_front(front: Sequence[Mapping[str, object]],
                records: Sequence[Mapping[str, object]]) -> List[str]:
    """``repro explore`` JSON front == our dominance filter over the stores.

    The CLI prints fingerprint prefixes, so ours are cut to the same length.
    """
    theirs = sorted((str(row["fingerprint"]), float(row["latency"]), float(row["throughput"]))
                    for row in front)
    width = len(theirs[0][0]) if theirs else 12
    ours = sorted((fp[:width], lat, thr) for fp, lat, thr in dominance_front(records))
    if ours != theirs:
        return [f"front mismatch: program {len(theirs)} design(s) {theirs[:3]}, "
                f"dominance filter {len(ours)} design(s) {ours[:3]}"]
    return []


def read_store_records(text: str) -> List[Dict[str, object]]:
    """Point records of one JSONL run store (the meta line is skipped)."""
    records = []
    for line in text.splitlines():
        if line.strip():
            data = json.loads(line)
            if data.get("kind") != "meta":
                records.append(data)
    return records


def check_serve_result(request_body: Mapping[str, object],
                       result: Mapping[str, object]) -> List[str]:
    """One deterministic serve result is a valid design for its request."""
    if result is None:
        return [f"{request_body.get('tag')}: no result"]
    errors = []
    if result.get("status") != "ok":
        errors.append(f"{request_body.get('tag')}: status {result.get('status')!r}")
    partitions = int(result.get("partitions", 0))
    ct_ms = request_body.get("ct_ms")
    if partitions < 1:
        errors.append(f"{request_body.get('tag')}: {partitions} partitions")
    elif ct_ms is not None and float(result["total_latency_s"]) < partitions * ct_ms / 1e3:
        errors.append(f"{request_body.get('tag')}: latency below N*CT")
    return errors


def check_ct_variant(a: Mapping[str, object], ct_a_s: float,
                     b: Mapping[str, object], ct_b_s: float) -> List[str]:
    """Two CT-only variants of one problem: same design, latency shifted by N*dCT."""
    if (a.get("partitions"), a.get("k")) != (b.get("partitions"), b.get("k")):
        return [f"CT variants differ in design: {a.get('partitions')}/{a.get('k')} vs "
                f"{b.get('partitions')}/{b.get('k')}"]
    shift = int(a["partitions"]) * (ct_b_s - ct_a_s)
    if abs(float(b["total_latency_s"]) - float(a["total_latency_s"]) - shift) > 1e-9:
        return [f"CT variant latency {b['total_latency_s']} != "
                f"{a['total_latency_s']} + N*dCT ({shift})"]
    return []
