"""The one table of temporal partitioners.

:data:`PARTITIONERS` maps every accepted name — the five flat names,
``multilevel`` and each ``multilevel:<inner>`` — to how it is built, whether
the seed enters its cache and stage keys, and whether its assignment is
independent of the reconfiguration time ``CT``.  Every layer builds,
validates and keys partitioners through this table and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Type

from ..errors import PartitioningError, ReproError
from ..ilp.solver import DEFAULT_BACKEND
from .anneal_partitioner import AnnealTemporalPartitioner
from .greedy_partitioner import LevelClusteringPartitioner
from .ilp_formulation import FormulationOptions
from .ilp_partitioner import IlpTemporalPartitioner
from .list_partitioner import ListTemporalPartitioner
from .portfolio import PortfolioPartitioner


@dataclass(frozen=True)
class PartitionerEntry:
    """How one partitioner name is built and keyed."""

    #: ``(backend, seed, time_limit, explore_extra_partitions, ilp_options)``
    #: -> a partitioner.
    build: Callable[..., object]
    #: Whether the result depends on the seed (the seed then enters keys).
    seeded: bool
    #: ``explore_extra_partitions`` -> whether the assignment ignores ``CT``.
    ct_invariant: Callable[[int], bool]
    #: The coarse-graph engine of a ``multilevel`` spelling, else ``None``.
    inner: Optional[str] = None


def _ilp(backend, seed, time_limit, explore_extra_partitions, ilp_options):
    return IlpTemporalPartitioner(
        backend=DEFAULT_BACKEND if backend is None else backend,
        options=ilp_options,
        explore_extra_partitions=explore_extra_partitions,
        time_limit=time_limit,
    )


def _anneal(backend, seed, time_limit, explore_extra_partitions, ilp_options):
    return AnnealTemporalPartitioner(seed=seed)


def _portfolio(backend, seed, time_limit, explore_extra_partitions, ilp_options):
    return PortfolioPartitioner(
        ilp_backend=backend, anneal_seed=seed, ilp_options=ilp_options
    )


def _multilevel(inner: str) -> PartitionerEntry:
    def build(backend, seed, time_limit, explore_extra_partitions, ilp_options):
        # Imported here: the multilevel module builds its inner engine
        # through this table.
        from .hierarchy import MultilevelPartitioner

        return MultilevelPartitioner(
            inner, ilp_backend=backend, seed=seed, time_limit=time_limit
        )

    # Every spelling is seeded because the default, portfolio and anneal
    # inners consume the seed; the coarse solve runs a CT-reading engine by
    # default and refinement accepts moves on latency deltas.
    return PartitionerEntry(build, True, lambda extra: False, inner)


#: Every accepted name -> ``PartitionerEntry(build, seeded, ct_invariant)``,
#: in the order the CLI lists them.  CT rules: the greedy heuristics never
#: read ``CT``; the ILP relax-N loop stops at the first feasible bound, where
#: ``N*CT`` is a constant, unless extra bounds are explored (their selection
#: compares ``N*CT + sum_p d_p``); ``anneal`` scores moves with ``N*CT`` as
#: partitions empty, and ``portfolio`` certifies against a CT-dependent bound.
PARTITIONERS: Dict[str, PartitionerEntry] = {
    "ilp": PartitionerEntry(_ilp, False, lambda extra: extra == 0),
    "list": PartitionerEntry(lambda *_: ListTemporalPartitioner(), False, lambda extra: True),
    "level": PartitionerEntry(lambda *_: LevelClusteringPartitioner(), False, lambda extra: True),
    "anneal": PartitionerEntry(_anneal, True, lambda extra: False),
    "portfolio": PartitionerEntry(_portfolio, True, lambda extra: False),
    "multilevel": _multilevel("portfolio"),
    "multilevel:portfolio": _multilevel("portfolio"),
    "multilevel:ilp": _multilevel("ilp"),
    "multilevel:list": _multilevel("list"),
    "multilevel:level": _multilevel("level"),
    "multilevel:anneal": _multilevel("anneal"),
}

#: Inner engines the multilevel scheme can drive on the coarse graph.
MULTILEVEL_INNER_CHOICES = tuple(
    dict.fromkeys(entry.inner for entry in PARTITIONERS.values() if entry.inner)
)

#: Inner engine used when none is named (``"multilevel"`` without a suffix).
DEFAULT_MULTILEVEL_INNER = PARTITIONERS["multilevel"].inner


def partitioner_entry(
    name: object, error: Type[ReproError] = PartitioningError
) -> PartitionerEntry:
    """The table entry of *name*; raises *error* listing every spelling."""
    if not isinstance(name, str) or name not in PARTITIONERS:
        raise error(
            f"unknown partitioner {name!r}; choose from {', '.join(PARTITIONERS)}"
        )
    return PARTITIONERS[name]


def build_partitioner(
    name: str,
    backend: Optional[str] = None,
    seed: int = 0,
    time_limit: Optional[float] = None,
    explore_extra_partitions: int = 0,
    ilp_options: Optional[FormulationOptions] = None,
):
    """Construct the partitioner *name* (``ilp_options`` reach the ILP solves)."""
    return partitioner_entry(name).build(
        backend, seed, time_limit, explore_extra_partitions, ilp_options
    )


def multilevel_inner(partitioner: str) -> Optional[str]:
    """The inner engine of a ``multilevel[:inner]`` name, ``None`` otherwise.

    Raises :class:`PartitioningError` for an unknown ``multilevel:<inner>``.
    """
    entry = PARTITIONERS.get(partitioner)
    if entry is None and partitioner.startswith("multilevel:"):
        raise PartitioningError(
            f"unknown multilevel inner partitioner {partitioner.split(':', 1)[1]!r}; "
            f"choose from {MULTILEVEL_INNER_CHOICES}"
        )
    return None if entry is None else entry.inner
