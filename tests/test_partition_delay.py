"""The Eq. 7 partition delay ``d_p`` and the Eq. 3 boundary volume.

:func:`repro.partition.result.chain_delays` is the one place ``d_p`` is
computed.  It is checked here against an independent brute-force reference
on random small DAGs with random assignments.
"""

from __future__ import annotations

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partition import TemporalPartitioning
from repro.partition.result import boundary_words, chain_delays
from repro.taskgraph import Task, TaskGraph, clb_cost
from repro.units import ns


@st.composite
def partitioned_dags(draw):
    """A small DAG (edges only from lower to higher index) plus a random
    task -> partition assignment that need not respect precedence."""
    count = draw(st.integers(min_value=1, max_value=7))
    delays = draw(st.lists(st.integers(0, 500), min_size=count, max_size=count))
    graph = TaskGraph("dag")
    for index, delay in enumerate(delays):
        graph.add_task(Task(f"t{index}", cost=clb_cost(10, ns(delay))))
    pairs = [(i, j) for i in range(count) for j in range(i + 1, count)]
    for i, j in draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []:
        graph.add_edge(f"t{i}", f"t{j}", words=draw(st.integers(0, 9)))
    partitions = draw(st.integers(min_value=1, max_value=3))
    assignment = {
        name: draw(st.integers(min_value=1, max_value=partitions))
        for name in graph.task_names()
    }
    return graph, assignment, partitions


def _reference_chain_delays(graph, assignment):
    """Longest summed delay over every simple path ending at each task inside
    its partition's induced subgraph, by exhaustive enumeration."""
    nxg = graph.to_networkx()
    reference = {}
    for partition in set(assignment.values()):
        sub = nxg.subgraph(n for n, p in assignment.items() if p == partition)
        for end in sub.nodes:
            paths = [[end]] + [
                path
                for start in sub.nodes
                if start != end
                for path in nx.all_simple_paths(sub, start, end)
            ]
            reference[end] = max(
                sum(graph.task(name).delay for name in path) for path in paths
            )
    return reference


@settings(max_examples=150, deadline=None)
@given(partitioned_dags())
def test_chain_delays_match_path_enumeration(case):
    graph, assignment, partitions = case
    delays = chain_delays(graph, assignment)
    # Float addition is monotone, so the fold's max-then-add equals the
    # max over left-to-right path sums exactly, not just approximately.
    assert delays == _reference_chain_delays(graph, assignment)
    assert list(delays) == graph.topological_order()

    result = TemporalPartitioning(
        graph=graph,
        assignment=assignment,
        partition_count=partitions,
        reconfiguration_time=0.0,
    )
    assert result.partition_delays == [
        max((delays[n] for n, p in assignment.items() if p == index), default=0.0)
        for index in range(1, partitions + 1)
    ]
    for boundary in range(1, partitions):
        assert result.boundary_words(boundary) == boundary_words(
            graph, assignment, boundary
        ) == sum(
            graph.edge_words(u, v)
            for u, v in graph.edges()
            if assignment[u] <= boundary < assignment[v]
        )
