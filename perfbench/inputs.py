"""Seeded inputs for every workload: the program sees only what this makes.

One benchmark seed maps to one fixed input set per workload (graph files,
the serve request mix, the 10k-node graph seeds and the explore seeds), so the
same seed always measures the same work.  Nothing here imports ``repro``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

#: A second seed kept out of every tuning run, for later gain claims.
HELD_OUT_SEED = 7919

#: Total CLBs each generated cli_cold graph is scaled to.  It sits between
#: two and three XC4044 devices (1600 CLBs each), so every graph needs three
#: configurations and Σ total_latency_s does not jump with the seed.
CLI_GRAPH_TOTAL_CLBS = 4000

#: Request-kind shares of the serve mix (the first request is always fresh).
#: Repeats are the fastest kind and fresh solves the slowest, so the median
#: request falls inside the CT-variant band, not on the edge between two
#: bands, where it would jump with small shifts of either.
SERVE_SHARES = (("repeat", 0.3), ("ct_variant", 0.5), ("fresh", 0.2))

#: Reconfiguration times (ms) CT-only variants draw from.
SERVE_CT_MS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)


def _rng(seed: int, stream: str) -> random.Random:
    """An independent random stream per (seed, purpose)."""
    return random.Random(f"perfbench:{stream}:{seed}")


# ---------------------------------------------------------------------------
# cli_cold: small random DSP task-graph files
# ---------------------------------------------------------------------------

def dsp_graph_dict(seed: int, index: int) -> Dict[str, object]:
    """One seeded layered DSP-like task graph in the ``repro-taskgraph`` format.

    12-24 tasks in levels of 1-4; per-task delays of 100-800 ns; data volumes
    of 1-32 words; 8 environment words into the first level and out of the
    last.  CLB costs are drawn, then scaled so they sum to
    :data:`CLI_GRAPH_TOTAL_CLBS`.
    """
    rng = _rng(seed, f"cli-graph-{index}")
    task_count = rng.randint(12, 24)
    levels: List[List[str]] = []
    created = 0
    while created < task_count:
        width = min(rng.randint(1, 4), task_count - created)
        levels.append([f"t{created + offset}" for offset in range(width)])
        created += width
    weights = [rng.randint(40, 250) for _ in range(task_count)]
    scale = CLI_GRAPH_TOTAL_CLBS / sum(weights)
    clbs = [max(1, round(weight * scale)) for weight in weights]
    tasks = []
    position = 0
    for level_index, level in enumerate(levels):
        for name in level:
            tasks.append({
                "name": name,
                "type": f"level{level_index}",
                "clbs": clbs[position],
                "delay_ns": float(rng.randint(100, 800)),
                "env_input_words": 8 if level_index == 0 else 0,
                "env_output_words": 8 if level_index == len(levels) - 1 else 0,
            })
            position += 1
    edges = []
    for level_index in range(1, len(levels)):
        previous = levels[level_index - 1]
        for name in levels[level_index]:
            mandatory = rng.choice(previous)
            edges.append({"from": mandatory, "to": name, "words": rng.randint(1, 32)})
            for candidate in previous:
                if candidate != mandatory and rng.random() < 0.5:
                    edges.append({"from": candidate, "to": name,
                                  "words": rng.randint(1, 32)})
    return {
        "format": "repro-taskgraph",
        "version": 1,
        "name": f"bench-dsp-s{seed}-g{index}",
        "tasks": tasks,
        "edges": edges,
    }


def write_cli_graphs(seed: int, count: int, directory: Path) -> List[Path]:
    """Write the seed's first *count* cli_cold graph files; return their paths."""
    paths = []
    for index in range(count):
        path = directory / f"graph-{index}.json"
        path.write_text(json.dumps(dsp_graph_dict(seed, index), indent=1), "utf-8")
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# serve_mix: the seeded request mix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ServeRequest:
    """One request of the mix: its kind and the job body it submits."""

    kind: str
    body: Dict[str, object]
    #: Index of the fresh problem it derives from (its own index if fresh).
    problem: int

    @property
    def key(self) -> str:
        """The body's canonical encoding; equal keys name equal problems."""
        return json.dumps(self.body, sort_keys=True, separators=(",", ":"))

    @property
    def task_count(self) -> int:
        return int(self.body["params"]["task_count"])


def _fresh_body(rng: random.Random, problem: int) -> Dict[str, object]:
    return {
        "workload": "random_layered",
        "params": {
            "task_count": rng.randint(8, 14),
            "seed": rng.randrange(1 << 30),
            "max_level_width": 4,
        },
        "ct_ms": None,
        "tag": f"p{problem}",
    }


def serve_mix(seed: int, count: int) -> List[ServeRequest]:
    """The seed's *count* requests: exact repeats, CT-only variants, fresh.

    Kinds come in the :data:`SERVE_SHARES` proportions, shuffled (the first
    request is fresh; a CT-only variant drawn when every earlier problem has
    used all :data:`SERVE_CT_MS` values becomes fresh).  A repeat re-sends an earlier body byte for
    byte; a CT-only variant re-sends an earlier fresh problem with a
    reconfiguration time it has not used yet (a new key whose estimate and
    CT-normalised partition are cache reads); a fresh problem is a new
    seeded ``random_layered`` graph.
    """
    rng = _rng(seed, "serve-mix")
    kinds: List[str] = []
    for kind, share in SERVE_SHARES:
        kinds += [kind] * round(share * count)
    kinds = (kinds + ["repeat"] * count)[:count]
    rng.shuffle(kinds)
    kinds.insert(0, kinds.pop(kinds.index("fresh")))
    requests: List[ServeRequest] = []
    fresh: List[ServeRequest] = []
    unused_ct: Dict[int, List[float]] = {}
    for kind in kinds:
        if kind == "repeat":
            requests.append(_relabel(rng.choice(requests), "repeat"))
            continue
        open_bases = [base for base in fresh if unused_ct[base.problem]]
        if kind == "ct_variant" and open_bases:
            base = rng.choice(open_bases)
            choices = unused_ct[base.problem]
            body = dict(base.body, ct_ms=choices.pop(rng.randrange(len(choices))))
            requests.append(ServeRequest("ct_variant", body, base.problem))
            continue
        problem = len(fresh)
        request = ServeRequest("fresh", _fresh_body(rng, problem), problem)
        fresh.append(request)
        unused_ct[problem] = list(SERVE_CT_MS)
        requests.append(request)
    return requests


def _relabel(request: ServeRequest, kind: str) -> ServeRequest:
    """*request* re-labelled as another kind (same body, same problem)."""
    return ServeRequest(kind, request.body, request.problem)


def warmup_body(seed: int) -> Dict[str, object]:
    """The set-up solve: a problem no request of the mix names."""
    return {
        "workload": "random_layered",
        "params": {"task_count": 10, "seed": (1 << 30) + seed, "max_level_width": 4},
        "ct_ms": None,
        "tag": "warm-up",
    }


# ---------------------------------------------------------------------------
# huge_flow and explore_sharded
# ---------------------------------------------------------------------------

def huge_graph_seeds(seed: int, count: int) -> List[int]:
    """The seed's ``random_layered_10k`` graph seeds."""
    return _rng(seed, "huge").sample(range(1 << 20), count)


def explore_seeds(seed: int, count: int) -> List[int]:
    """The ``repro explore --seed`` values the benchmark seed maps to."""
    return _rng(seed, "explore").sample(range(1 << 20), count)
