"""The content-addressed artifact store: the one cache of the flow.

Every cached step of the design flow — the partition engine's solved
outcomes and the pipeline stages around them — registers a stage name and
a version tag, keys each artifact by a content digest of its inputs, and
gets

* an in-process LRU per stage (any Python object),
* an optional on-disk JSON layer per stage (only for stages that provide a
  JSON codec), laid out as ``<root>/stages/<stage>/<digest>.json``,
* per-stage hit/miss/store accounting the engines surface in reports.

Version tags are baked into every entry.  A disk entry that cannot be read,
parsed, matched to the current stage version or decoded is logged, removed
and treated as a miss, so a bad file costs one recomputation and is
overwritten by the next store; bumping a stage's entry in
:data:`STAGE_VERSIONS` invalidates that stage's disk entries without
touching the rest of the cache.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

logger = logging.getLogger(__name__)

#: Stage names, in flow order.  ``partition`` holds the partition engine's
#: job outcomes, keyed by job fingerprint.
ESTIMATE = "estimate"
PARTITION = "partition"
MEMORY_MAP = "memory-map"
FISSION = "fission"
TIMING = "timing"

#: Per-stage version tags.  A bump invalidates every cached entry of that
#: stage (and, through key chaining, of its downstream dependents) while
#: leaving the rest of the disk cache valid.
STAGE_VERSIONS: Dict[str, int] = {
    ESTIMATE: 1,
    # v2: stronger preprocessing lower bound (cardinality), symmetry breaking
    # and cardinality cuts for the built-in backend, and the anneal/portfolio
    # partitioners — cached v1 partition results may differ in assignment.
    # v3: the multilevel pre-partitioner family and the nonenumerative Eq. 7
    # path generation (path constraints now enter the ILP in delay order, so
    # solver traces — though not optima — can differ from v2).
    PARTITION: 3,
    MEMORY_MAP: 1,
    FISSION: 1,
    TIMING: 1,
}

#: Environment variable overriding the default shared cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Conventional shared disk-cache root used when no directory is chosen.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Subdirectory of a cache root holding the per-stage artifact directories.
STAGE_SUBDIR = "stages"


def default_cache_dir() -> Path:
    """The conventional shared cache root (``$REPRO_CACHE_DIR`` overrides)."""
    return Path(os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR))


class LruCache:
    """A bounded least-recently-used mapping from digest to artifact."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("LRU capacity must be at least 1")
        self.capacity = capacity
        self._entries: "OrderedDict[str, object]" = OrderedDict()

    def __contains__(self, digest: str) -> bool:
        return digest in self._entries

    def get(self, digest: str) -> Optional[object]:
        """The cached artifact, refreshed to most-recently-used, or ``None``."""
        value = self._entries.get(digest)
        if value is not None:
            self._entries.move_to_end(digest)
        return value

    def put(self, digest: str, value: object) -> None:
        """Insert/refresh an entry, evicting the least recently used one."""
        self._entries[digest] = value
        self._entries.move_to_end(digest)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)


@dataclass
class StageStats:
    """Cache accounting for one stage.

    ``runs`` counts the times the stage's transform actually executed
    (every miss that was followed by a computation, which is what "zero
    HLS estimations" assertions count).
    """

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    disk_write_errors: int = 0
    runs: int = 0

    @property
    def hits(self) -> int:
        """Total hits across both layers."""
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    def snapshot(self) -> Dict[str, int]:
        """Flat dict of every counter."""
        return asdict(self)


class ArtifactStore:
    """Per-stage memory + optional disk cache of content-addressed artifacts.

    Parameters
    ----------
    cache_dir:
        Optional shared cache root.  Stage artifacts land under
        ``<cache_dir>/stages/<stage>/``; ``None`` keeps every stage
        memory-only.
    lru_capacity:
        Entries kept per stage in the in-process LRU.
    """

    def __init__(
        self,
        cache_dir: Optional[Union[str, Path]] = None,
        lru_capacity: int = 256,
    ) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.lru_capacity = lru_capacity
        self._memory: Dict[str, LruCache] = {}
        self._stats: Dict[str, StageStats] = {}

    def stats_for(self, stage: str) -> StageStats:
        """The (mutable) counters of one stage, created on first use."""
        if stage not in self._stats:
            self._stats[stage] = StageStats()
        return self._stats[stage]

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """Per-stage counter dicts, keyed by stage name."""
        return {
            stage: stats.snapshot() for stage, stats in sorted(self._stats.items())
        }

    def _memory_for(self, stage: str) -> LruCache:
        if stage not in self._memory:
            self._memory[stage] = LruCache(self.lru_capacity)
        return self._memory[stage]

    def _disk_path(self, stage: str, digest: str) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        return self.cache_dir / STAGE_SUBDIR / stage / f"{digest}.json"

    def get(
        self, stage: str, version: int, digest: str, decode=None
    ) -> Tuple[Optional[object], str]:
        """Look one artifact up; returns ``(value, source)``.

        *source* is ``"memory-cache"``, ``"disk-cache"`` or ``""`` (miss).
        *decode* turns the stored JSON payload back into the in-memory
        artifact for disk hits; a stage without a decoder is memory-only.
        """
        stats = self.stats_for(stage)
        memory = self._memory_for(stage)
        value = memory.get(digest)
        if value is not None:
            stats.memory_hits += 1
            return value, "memory-cache"
        path = self._disk_path(stage, digest)
        if path is not None and decode is not None:
            value = self._load(path, stage, version, decode)
            if value is not None:
                stats.disk_hits += 1
                memory.put(digest, value)
                return value, "disk-cache"
        stats.misses += 1
        return None, ""

    def put(
        self, stage: str, version: int, digest: str, value: object, encode=None
    ) -> None:
        """Store one artifact in memory and (when *encode* is given) on disk."""
        stats = self.stats_for(stage)
        stats.stores += 1
        self._memory_for(stage).put(digest, value)
        path = self._disk_path(stage, digest)
        if path is None or encode is None:
            return
        try:
            self._write_disk(path, stage, version, encode(value))
        except OSError:
            # The disk layer is an optimisation; a full or read-only volume
            # must never fail the stage that already computed its artifact.
            stats.disk_write_errors += 1

    def _load(self, path: Path, stage: str, version: int, decode):
        """Decode one disk entry; any unusable entry is removed (``None``)."""
        try:
            with path.open("r", encoding="utf-8") as handle:
                data = json.load(handle)
            stored = data.get("version") if isinstance(data, dict) else None
            if stored != version:
                raise ValueError(f"stored version {stored!r}, current {version!r}")
            return decode(data["payload"])
        except FileNotFoundError:
            return None
        except Exception as error:  # noqa: BLE001 - a bad entry is a miss
            # Truncated writes, foreign JSON, stale versions and payloads the
            # stage's decoder rejects all heal the same way.
            logger.warning(
                "treating unusable %s artifact %s as a miss (%s: %s)",
                stage, path.name, type(error).__name__, error,
            )
            _unlink_quietly(path)
            return None

    @staticmethod
    def _write_disk(path: Path, stage: str, version: int, payload) -> None:
        """Write one entry atomically (temp file + rename)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = tempfile.NamedTemporaryFile(
            "w",
            encoding="utf-8",
            dir=str(path.parent),
            prefix=f".{path.stem[:12]}-",
            suffix=".tmp",
            delete=False,
        )
        try:
            with handle:
                json.dump({"stage": stage, "version": version, "payload": payload}, handle)
            os.replace(handle.name, path)
        except OSError:
            _unlink_quietly(Path(handle.name))
            raise


def _unlink_quietly(path: Path) -> bool:
    """Remove *path*; ``False`` when it was already gone or is undeletable."""
    try:
        path.unlink()
    except OSError:
        return False
    return True


@dataclass
class CacheAreaReport:
    """One stage area of the shared disk-cache layout (for ``repro cache``)."""

    name: str
    directory: Path
    entries: int = 0
    bytes: int = 0
    files: list = field(default_factory=list)


def scan_cache_dir(root: Union[str, Path]) -> list:
    """Describe every ``stages/<stage>/`` area of a shared cache root.

    Returns one :class:`CacheAreaReport` per stage directory, named
    ``stage:<stage>``, in name order.
    """
    stage_root = Path(root) / STAGE_SUBDIR
    if not stage_root.is_dir():
        return []
    areas = []
    for stage_dir in sorted(p for p in stage_root.iterdir() if p.is_dir()):
        area = CacheAreaReport(name=f"stage:{stage_dir.name}", directory=stage_dir)
        for path in sorted(stage_dir.glob("*.json")):
            try:
                area.bytes += path.stat().st_size
            except OSError:
                continue  # concurrently removed
            area.files.append(path)
            area.entries += 1
        areas.append(area)
    return areas


def prune_cache_dir(root: Union[str, Path], max_entries: int) -> int:
    """Prune every cache area of *root* down to *max_entries* files each.

    Oldest-mtime entries go first.  Returns the number of files removed
    across all areas.
    """
    if max_entries < 0:
        raise ValueError("max_entries must be non-negative")
    removed = 0
    for area in scan_cache_dir(root):
        if area.entries <= max_entries:
            continue
        stamped = []
        for path in area.files:
            try:
                stamped.append((path.stat().st_mtime, path.name, path))
            except OSError:
                continue
        excess = len(stamped) - max_entries
        removed += sum(
            _unlink_quietly(path) for _mtime, _name, path in sorted(stamped)[:excess]
        )
    return removed


def clear_cache_dir(root: Union[str, Path]) -> int:
    """Remove every cached file under *root*; returns the number removed.

    Top-level ``<root>/*.json`` files — partition outcomes written before
    partition outcomes became a stage — are never read, but are removed
    too.
    """
    stale = sorted(Path(root).glob("*.json"))
    files = stale + [path for area in scan_cache_dir(root) for path in area.files]
    return sum(_unlink_quietly(path) for path in files)
