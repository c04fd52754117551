"""Simulated-annealing temporal partitioner (stochastic refinement arm).

Starts from the list-scheduler solution and performs single-task moves
between partitions, accepting worsening moves with the usual Metropolis
probability under a geometric cooling schedule.  Unlike the list and level
heuristics it is latency-aware — the score is the paper's objective
``N*CT + sum_p d_p`` — so it can undo exactly the greedy packing mistakes
the DCT case study illustrates, without paying for an ILP solve.

Determinism: the random stream is ``random.Random(seed)`` with a fixed
default seed, every candidate set is iterated in sorted order, and no
wall-clock input enters any decision, so the same problem and seed always
produce byte-identical assignments.  The portfolio partitioner relies on
this for reproducible racing.
"""

from __future__ import annotations

import math
import random
from typing import Dict

from ..arch.device import ResourceVector
from ..errors import PartitioningError
from .list_partitioner import ListTemporalPartitioner
from .result import TemporalPartitioning, boundary_words, chain_delays
from .spec import PartitionProblem


class AnnealTemporalPartitioner:
    """Seeded simulated annealing over task-to-partition assignments.

    Parameters
    ----------
    seed:
        Seed of the private random stream; the same seed reproduces the
        same result bit for bit.
    iterations:
        Number of proposed moves.
    initial_temperature:
        Starting temperature as a fraction of the initial objective (so the
        schedule adapts to the problem's latency scale).
    cooling:
        Geometric cooling factor applied every iteration.
    """

    def __init__(
        self,
        seed: int = 0,
        iterations: int = 2000,
        initial_temperature: float = 0.1,
        cooling: float = 0.995,
    ) -> None:
        if iterations < 0:
            raise PartitioningError("iterations must be non-negative")
        if not 0.0 < cooling < 1.0:
            raise PartitioningError("cooling must lie strictly between 0 and 1")
        self.seed = seed
        self.iterations = iterations
        self.initial_temperature = initial_temperature
        self.cooling = cooling

    def partition(self, problem: PartitionProblem) -> TemporalPartitioning:
        """Refine the list-scheduler solution by annealed single-task moves."""
        start = ListTemporalPartitioner().partition(problem)
        assignment = dict(start.assignment)
        bound = start.partition_count
        graph = problem.graph
        names = graph.task_names()
        rng = random.Random(self.seed)

        best_assignment = dict(assignment)
        current_score = self._score(problem, assignment)
        best_score = current_score
        temperature = max(current_score * self.initial_temperature, 1e-30)

        for _ in range(self.iterations):
            name = names[rng.randrange(len(names))]
            target = rng.randint(1, bound)
            if target == assignment[name]:
                temperature *= self.cooling
                continue
            if not self._move_is_feasible(problem, assignment, name, target):
                temperature *= self.cooling
                continue
            previous = assignment[name]
            assignment[name] = target
            score = self._score(problem, assignment)
            delta = score - current_score
            if delta <= 0 or rng.random() < math.exp(-delta / temperature):
                current_score = score
                if score < best_score - 1e-30:
                    best_score = score
                    best_assignment = dict(assignment)
            else:
                assignment[name] = previous
            temperature *= self.cooling

        compressed, used = _compress(best_assignment)
        return TemporalPartitioning(
            graph=graph,
            assignment=compressed,
            partition_count=used,
            reconfiguration_time=problem.reconfiguration_time,
            method=f"anneal[seed={self.seed}]",
        )

    # ------------------------------------------------------------------

    @staticmethod
    def _move_is_feasible(
        problem: PartitionProblem,
        assignment: Dict[str, int],
        name: str,
        target: int,
    ) -> bool:
        """Whether moving *name* to partition *target* keeps every constraint."""
        graph = problem.graph
        # Temporal order: stay at or after every producer, at or before
        # every consumer (Eq. 2).
        for pred in graph.predecessors(name):
            if assignment[pred] > target:
                return False
        for succ in graph.successors(name):
            if assignment[succ] < target:
                return False
        # Resource constraint of the receiving partition (Eq. 6).
        usage = ResourceVector({})
        for other in graph.task_names():
            if other != name and assignment[other] == target:
                usage = usage + graph.task(other).resources
        usage = usage + graph.task(name).resources
        if not usage.fits_within(problem.resource_capacity):
            return False
        # Memory constraint on every boundary the move touches (Eq. 3).
        trial = dict(assignment)
        trial[name] = target
        low = min(assignment[name], target)
        high = max(assignment[name], target)
        for boundary in range(low, high):
            if boundary_words(graph, trial, boundary) > problem.memory_words:
                return False
        return True

    @staticmethod
    def _score(problem: PartitionProblem, assignment: Dict[str, int]) -> float:
        """The paper's objective for *assignment*, empty partitions dropped.

        Takes the per-partition delays from :func:`chain_delays`, the rule
        the final result is measured with, so accepting a move can never
        disagree with it.  The delays are summed in the order partitions
        first appear in the topological order.
        """
        per_partition: Dict[int, float] = {}
        for name, longest in chain_delays(problem.graph, assignment).items():
            partition = assignment[name]
            per_partition[partition] = max(per_partition.get(partition, 0.0), longest)
        return len(per_partition) * problem.reconfiguration_time + sum(
            per_partition.values()
        )


def _compress(assignment: Dict[str, int]):
    """Renumber partitions 1..N' dropping empty indices (order preserved)."""
    used = sorted(set(assignment.values()))
    renumber = {old: new for new, old in enumerate(used, start=1)}
    return {task: renumber[p] for task, p in assignment.items()}, len(used)
