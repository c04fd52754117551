"""The behaviour-level task graph (the paper's Figure 3 input specification).

A :class:`TaskGraph` is a directed acyclic graph of :class:`Task` nodes.
Edges carry the number of data words communicated between the two tasks,
``B(t1, t2)``.  Each task may additionally read words from the environment
(``B(env, t)``) and write words to the environment (``B(t, env)``) — for the
DCT case study these are the 4x4 input block and the transformed output.

The whole task graph is implicitly enclosed in an outer loop whose iteration
count ``I`` is only known at run time; that loop is what the loop-fission step
restructures.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple

import networkx as nx

from ..arch.device import ResourceVector
from ..errors import CycleError, GraphError, UnknownTaskError
from .task import Task, TaskCost


class TaskGraph:
    """A DAG of tasks with data-volume annotations on edges and environment I/O."""

    def __init__(self, name: str = "taskgraph") -> None:
        if not name:
            raise GraphError("task graph name must not be empty")
        self.name = name
        self._graph = nx.DiGraph()
        # Memo of topological_order(); every structural mutation clears it.
        self._topological: Optional[List[str]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_task(
        self,
        task: Task,
        env_input_words: int = 0,
        env_output_words: int = 0,
    ) -> Task:
        """Add *task* to the graph.

        ``env_input_words`` and ``env_output_words`` are the environment data
        volumes ``B(env, t)`` and ``B(t, env)`` in memory words.
        """
        if task.name in self._graph:
            raise GraphError(f"duplicate task name {task.name!r} in {self.name!r}")
        if env_input_words < 0 or env_output_words < 0:
            raise GraphError("environment data volumes must be non-negative")
        self._topological = None
        self._graph.add_node(
            task.name,
            task=task,
            env_input_words=env_input_words,
            env_output_words=env_output_words,
        )
        return task

    def add_edge(self, producer: str, consumer: str, words: int = 1) -> None:
        """Add a data dependency ``producer -> consumer`` carrying *words* words."""
        self._require(producer)
        self._require(consumer)
        if producer == consumer:
            raise GraphError(f"self edge on task {producer!r}")
        if words < 0:
            raise GraphError(f"edge data volume must be non-negative, got {words}")
        if self._graph.has_edge(producer, consumer):
            raise GraphError(f"duplicate edge {producer!r} -> {consumer!r}")
        self._topological = None
        self._graph.add_edge(producer, consumer, words=words)
        if not nx.is_directed_acyclic_graph(self._graph):
            self._graph.remove_edge(producer, consumer)
            raise CycleError(
                f"edge {producer!r} -> {consumer!r} creates a cycle in task "
                f"graph {self.name!r}"
            )

    def add_edges(self, edges: Iterable[Tuple[str, str, int]]) -> None:
        """Bulk-add ``(producer, consumer, words)`` dependencies.

        Equivalent to calling :meth:`add_edge` per triple, except the
        acyclicity check runs once after all insertions rather than per
        edge — :meth:`add_edge` re-checks the whole graph on every call,
        which is ``O(V + E)`` *per edge* and makes 10k+-node graph
        construction quadratic.  On any failure every edge added by this
        call is rolled back.
        """
        added: List[Tuple[str, str]] = []
        try:
            for producer, consumer, words in edges:
                self._require(producer)
                self._require(consumer)
                if producer == consumer:
                    raise GraphError(f"self edge on task {producer!r}")
                if words < 0:
                    raise GraphError(
                        f"edge data volume must be non-negative, got {words}"
                    )
                if self._graph.has_edge(producer, consumer):
                    raise GraphError(
                        f"duplicate edge {producer!r} -> {consumer!r}"
                    )
                self._topological = None
                self._graph.add_edge(producer, consumer, words=words)
                added.append((producer, consumer))
            if not nx.is_directed_acyclic_graph(self._graph):
                raise CycleError(
                    f"bulk edge insertion creates a cycle in task graph "
                    f"{self.name!r}"
                )
        except Exception:
            self._topological = None
            self._graph.remove_edges_from(added)
            raise

    def set_env_io(
        self,
        task_name: str,
        env_input_words: Optional[int] = None,
        env_output_words: Optional[int] = None,
    ) -> None:
        """Update the environment I/O volumes of an existing task."""
        self._require(task_name)
        node = self._graph.nodes[task_name]
        if env_input_words is not None:
            if env_input_words < 0:
                raise GraphError("env_input_words must be non-negative")
            node["env_input_words"] = env_input_words
        if env_output_words is not None:
            if env_output_words < 0:
                raise GraphError("env_output_words must be non-negative")
            node["env_output_words"] = env_output_words

    def set_cost(self, task_name: str, cost: TaskCost) -> None:
        """Attach a synthesis cost to an existing task (post-estimation)."""
        task = self.task(task_name)
        self._graph.nodes[task_name]["task"] = task.with_cost(cost)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _require(self, task_name: str) -> None:
        if task_name not in self._graph:
            raise UnknownTaskError(
                f"unknown task {task_name!r} in task graph {self.name!r}"
            )

    def task(self, name: str) -> Task:
        """The :class:`Task` stored under *name*."""
        self._require(name)
        return self._graph.nodes[name]["task"]

    def __contains__(self, name: str) -> bool:
        return name in self._graph

    def __len__(self) -> int:
        return self._graph.number_of_nodes()

    def tasks(self) -> Iterator[Task]:
        """Iterate over all tasks in insertion order."""
        for name in self._graph.nodes:
            yield self._graph.nodes[name]["task"]

    def task_names(self) -> List[str]:
        """All task names in insertion order."""
        return list(self._graph.nodes)

    def edges(self) -> List[Tuple[str, str]]:
        """All edges as (producer, consumer) pairs."""
        return list(self._graph.edges)

    def edge_count(self) -> int:
        """Number of dependency edges."""
        return self._graph.number_of_edges()

    def edge_words(self, producer: str, consumer: str) -> int:
        """``B(producer, consumer)`` in memory words."""
        self._require(producer)
        self._require(consumer)
        try:
            return self._graph.edges[producer, consumer]["words"]
        except KeyError:
            raise GraphError(f"no edge {producer!r} -> {consumer!r}")

    def env_input_words(self, task_name: str) -> int:
        """``B(env, task)`` in memory words."""
        self._require(task_name)
        return self._graph.nodes[task_name]["env_input_words"]

    def env_output_words(self, task_name: str) -> int:
        """``B(task, env)`` in memory words."""
        self._require(task_name)
        return self._graph.nodes[task_name]["env_output_words"]

    def predecessors(self, task_name: str) -> List[str]:
        """Tasks that *task_name* directly depends on."""
        self._require(task_name)
        return list(self._graph.predecessors(task_name))

    def successors(self, task_name: str) -> List[str]:
        """Tasks that directly depend on *task_name*."""
        self._require(task_name)
        return list(self._graph.successors(task_name))

    def roots(self) -> List[str]:
        """Tasks with no predecessors (the paper's ``T_r``)."""
        return [n for n in self._graph.nodes if self._graph.in_degree(n) == 0]

    def leaves(self) -> List[str]:
        """Tasks with no successors (the paper's ``T_l``)."""
        return [n for n in self._graph.nodes if self._graph.out_degree(n) == 0]

    def has_edge(self, producer: str, consumer: str) -> bool:
        """Whether the edge ``producer -> consumer`` exists."""
        return self._graph.has_edge(producer, consumer)

    # ------------------------------------------------------------------
    # Aggregates used by the partitioner
    # ------------------------------------------------------------------

    def all_estimated(self) -> bool:
        """Whether every task carries a synthesis cost."""
        return all(task.has_cost for task in self.tasks())

    def total_resources(self) -> ResourceVector:
        """Sum of ``R(t)`` over all tasks (the partition lower bound numerator)."""
        total = ResourceVector({})
        for task in self.tasks():
            total = total + task.resources
        return total

    def total_delay(self) -> float:
        """Sum of ``D(t)`` over all tasks (an upper bound on any latency)."""
        return sum(task.delay for task in self.tasks())

    def total_env_input_words(self) -> int:
        """Total environment input volume per outer-loop iteration."""
        return sum(self.env_input_words(n) for n in self._graph.nodes)

    def total_env_output_words(self) -> int:
        """Total environment output volume per outer-loop iteration."""
        return sum(self.env_output_words(n) for n in self._graph.nodes)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    def topological_order(self) -> List[str]:
        """Task names in a topological order (a fresh list per call).

        The order is ``nx.topological_sort``'s, computed once per graph
        shape: adding a task or an edge clears the memo.
        """
        if self._topological is None:
            self._topological = list(nx.topological_sort(self._graph))
        return list(self._topological)

    def validate(self) -> None:
        """Check structural invariants (acyclicity, non-empty)."""
        if len(self) == 0:
            raise GraphError(f"task graph {self.name!r} has no tasks")
        if not nx.is_directed_acyclic_graph(self._graph):
            raise CycleError(f"task graph {self.name!r} contains a cycle")

    def subgraph_copy(self, names: Iterable[str], name: Optional[str] = None) -> "TaskGraph":
        """A new task graph containing only the named tasks and induced edges."""
        selected = set(names)
        for task_name in selected:
            self._require(task_name)
        result = TaskGraph(name or f"{self.name}-sub")
        for node in self._graph.nodes:
            if node in selected:
                result.add_task(
                    self.task(node),
                    env_input_words=self.env_input_words(node),
                    env_output_words=self.env_output_words(node),
                )
        for producer, consumer in self._graph.edges:
            if producer in selected and consumer in selected:
                result.add_edge(producer, consumer, self.edge_words(producer, consumer))
        return result

    def copy(self, name: Optional[str] = None) -> "TaskGraph":
        """A copy of the whole task graph."""
        return self.subgraph_copy(self._graph.nodes, name or self.name)

    def to_networkx(self) -> nx.DiGraph:
        """A copy of the underlying :class:`networkx.DiGraph`."""
        return self._graph.copy()

    def __repr__(self) -> str:
        return (
            f"TaskGraph(name={self.name!r}, tasks={len(self)}, "
            f"edges={self._graph.number_of_edges()})"
        )
