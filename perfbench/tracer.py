"""Per-layer tracing from the benchmark's own files.

The traced run wraps public functions of each layer with timing and
counting wrappers for the timed phase only, then restores them.  A
wrapper times only the outermost call on its thread, so a method that
calls itself or its base class (``ObjectStoreBackend.allocate_run``)
is counted once.  Counters the program keeps itself (``DiskStats``,
``BackendStats``, ``SharedCacheStats``) are read as deltas over the
timed phase; the ``modeled.*`` ones stay labelled as modeled and are
never a time the run measured.

End-to-end numbers never come from a traced run.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, Optional

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("ingest.append_s", "s", "lower"),
    ("sketches.absorb_s", "s", "lower"),
    ("sketches.absorb_calls", "count", "lower"),
    ("sketches.absorb_elems", "elem", "lower"),
    ("warehouse.add_batch_s", "s", "lower"),
    ("warehouse.add_batch_calls", "count", "lower"),
    ("storage.sort_s", "s", "lower"),
    ("storage.merge_s", "s", "lower"),
    ("storage.merge_elems", "elem", "lower"),
    ("storage.allocate_s", "s", "lower"),
    ("storage.allocate_calls", "count", "lower"),
    ("storage.fsync_calls", "count", "lower"),
    ("core.partition_summary_s", "s", "lower"),
    ("core.pin_s", "s", "lower"),
    ("core.pins", "count", "lower"),
    ("core.stream_summary_s", "s", "lower"),
    ("core.ts_build_s", "s", "lower"),
    ("core.ts_builds", "count", "lower"),
    ("core.search_s", "s", "lower"),
    ("core.search_iterations", "count", "lower"),
    ("query.probe_s", "s", "lower"),
    ("query.probe_tasks", "count", "lower"),
    ("storage.rank_of_calls", "count", "lower"),
    ("storage.cache_touch_calls", "count", "lower"),
    ("storage.read_blocks_s", "s", "lower"),
    ("storage.read_blocks_calls", "count", "lower"),
    ("storage.shared_hits", "count", "higher"),
    ("storage.shared_misses", "count", "lower"),
    ("storage.shared_evictions", "count", "lower"),
    ("storage.coalesced_waits", "count", "higher"),
    ("cluster.pin_s", "s", "lower"),
    ("cluster.fused_ts_s", "s", "lower"),
    ("cluster.scatter_s", "s", "lower"),
    ("serving.queue_wait_s", "s", "lower"),
    ("serving.warm_s", "s", "lower"),
    ("serving.batch_mean", "req/batch", "higher"),
    ("modeled.random_blocks_per_accurate", "blocks/query", "lower"),
    ("modeled.object_gets", "count", "lower"),
    ("modeled.object_get_blocks", "blocks", "lower"),
    ("modeled.request_s", "s", "lower"),
]

Extra = Callable[[tuple, dict, object, float], Dict[str, float]]


class Tracer:
    """Installs wrappers, accumulates totals, and restores on exit."""

    def __init__(self) -> None:
        self.totals: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._active = threading.local()
        self._patches: list = []

    def add(self, key: str, amount: float) -> None:
        """Add ``amount`` to one total (thread-safe)."""
        with self._lock:
            self.totals[key] += amount

    def wrap(
        self,
        owner: object,
        attr: str,
        span: str,
        seconds: Optional[str] = None,
        calls: Optional[str] = None,
        extra: Optional[Extra] = None,
        when: Optional[Callable[[tuple, dict], bool]] = None,
    ) -> None:
        """Time ``owner.attr`` into ``seconds`` and count it into ``calls``.

        ``span`` names the reentrancy guard; wrappers sharing a span
        count only the outermost call on a thread.  ``extra`` maps
        (args, kwargs, result, seconds taken) to further totals; ``when`` filters the
        calls that are traced at all.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        binder = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if binder is not None else raw
        active = self._active

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if getattr(active, span, False) or (
                when is not None and not when(args, kwargs)
            ):
                return func(*args, **kwargs)
            setattr(active, span, True)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                setattr(active, span, False)
            with self._lock:
                if seconds is not None:
                    self.totals[seconds] += elapsed
                if calls is not None:
                    self.totals[calls] += 1
                if extra is not None:
                    for key, amount in extra(args, kwargs, result, elapsed).items():
                        self.totals[key] += amount
            return result

        setattr(owner, attr, binder(traced) if binder is not None else traced)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        """Put every wrapped attribute back."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        install(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.restore()


def _accurate_mode(args: tuple, kwargs: dict) -> bool:
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "accurate")
    return mode == "accurate"


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the benchmark reports."""
    from repro.cluster.engine import ClusterEngine, ClusterSnapshot
    from repro.core.bounds import CombinedSummary
    from repro.core.engine import HybridQuantileEngine
    from repro.core.epoch import SnapshotHandle
    from repro.core.filters import AccurateSearch
    from repro.core.summaries import PartitionSummary, StreamSummary
    from repro.query.planner import RankProbeTask
    from repro.sketches.gk import GKSketch
    from repro.sketches.kll import KLLSketch
    from repro.storage import backends
    from repro.storage.cache import BlockCache
    from repro.storage.external_sort import ExternalSorter
    from repro.storage.runfile import SortedRun
    from repro.warehouse import compaction, leveled_store

    t = tracer
    t.wrap(HybridQuantileEngine, "stream_update_many", "append",
           seconds="ingest.append_s")
    for sketch in (GKSketch, KLLSketch):
        t.wrap(sketch, "update_many", "absorb",
               seconds="sketches.absorb_s", calls="sketches.absorb_calls",
               extra=lambda a, k, r, s: {"sketches.absorb_elems": len(a[1])})
    t.wrap(leveled_store.LeveledStore, "add_batch", "add_batch",
           seconds="warehouse.add_batch_s", calls="warehouse.add_batch_calls")
    t.wrap(ExternalSorter, "sorted_array", "sort", seconds="storage.sort_s")
    for module in (leveled_store, compaction):
        t.wrap(module, "merge_runs", "merge", seconds="storage.merge_s",
               extra=lambda a, k, r, s: {"storage.merge_elems": len(r)})
    for device in (backends.SimulatedBackend, backends.MmapFileBackend,
                   backends.ObjectStoreBackend):
        t.wrap(device, "allocate_run", "allocate",
               seconds="storage.allocate_s", calls="storage.allocate_calls")
    t.wrap(os, "fsync", "fsync", calls="storage.fsync_calls")
    t.wrap(PartitionSummary, "build", "partition_summary",
           seconds="core.partition_summary_s")
    t.wrap(HybridQuantileEngine, "pin", "pin",
           seconds="core.pin_s", calls="core.pins")
    t.wrap(StreamSummary, "extract", "stream_summary",
           seconds="core.stream_summary_s")
    t.wrap(CombinedSummary, "build", "ts_build",
           seconds="core.ts_build_s", calls="core.ts_builds")
    t.wrap(AccurateSearch, "run", "search", seconds="core.search_s",
           extra=lambda a, k, r, s: {"core.search_iterations": r.iterations})
    t.wrap(RankProbeTask, "run", "probe",
           seconds="query.probe_s", calls="query.probe_tasks")
    t.wrap(SortedRun, "rank_of", "rank_of", calls="storage.rank_of_calls")
    for attr in ("touch", "touch_range"):
        t.wrap(BlockCache, attr, "cache_touch",
               calls="storage.cache_touch_calls")
    for handle in (backends._SimulatedHandle, backends._FileHandle):
        t.wrap(handle, "read_blocks", "read_blocks",
               seconds="storage.read_blocks_s",
               calls="storage.read_blocks_calls")
    # Queue wait is the clients' latency minus the service's engine
    # calls: a dispatcher pins (``ClusterEngine.pin``) and answers one
    # request (``ClusterSnapshot.quantile``) or a batch of distinct phis
    # (``quantile_many``); each request answered is credited with the
    # pin and the call that answered it.
    pinned = threading.local()

    def note_pin(args, kwargs, result, elapsed):
        pinned.seconds = getattr(pinned, "seconds", 0.0) + elapsed
        return {}

    def answered(requests: Callable[[tuple, dict], int]) -> Extra:
        def extra(args, kwargs, result, elapsed):
            pin = getattr(pinned, "seconds", 0.0)
            pinned.seconds = 0.0
            return {"serving.engine_s": (pin + elapsed) * requests(args, kwargs)}

        return extra

    t.wrap(ClusterEngine, "pin", "cluster_pin", seconds="cluster.pin_s",
           extra=note_pin)
    t.wrap(ClusterSnapshot, "quantile", "engine_call",
           extra=answered(lambda a, k: 1))
    t.wrap(ClusterSnapshot, "quantile_many", "engine_call",
           extra=answered(lambda a, k: len(a[1])))
    t.wrap(ClusterSnapshot, "combined", "fused_ts",
           seconds="cluster.fused_ts_s")
    t.wrap(ClusterSnapshot, "query_rank", "scatter",
           seconds="cluster.scatter_s", when=_accurate_mode)
    for snapshot in (SnapshotHandle, ClusterSnapshot):
        t.wrap(snapshot, "warm", "warm", seconds="serving.warm_s")


def program_counters(engines: Iterable[object]) -> Dict[str, float]:
    """The program's own cumulative counters, summed over engines."""
    totals: Dict[str, float] = dict.fromkeys(
        ("random_reads", "object_gets", "object_get_blocks", "request_s",
         "shared_hits", "shared_misses", "shared_evictions",
         "coalesced_waits"),
        0.0,
    )
    for engine in engines:
        totals["random_reads"] += engine.disk.stats.counters.random_reads
        backend = engine.disk.backend
        stats = backend.stats()
        totals["object_gets"] += stats.gets
        totals["object_get_blocks"] += stats.get_blocks
        totals["request_s"] += backend.simulated_seconds()
        if engine.shared_cache is not None:
            cache = engine.shared_cache.stats()
            totals["shared_hits"] += cache.hits
            totals["shared_misses"] += cache.misses
            totals["shared_evictions"] += cache.evictions
            totals["coalesced_waits"] += cache.coalesced_waits
    return totals


def counter_metrics(
    before: Dict[str, float], after: Dict[str, float], accurate_queries: int
) -> Dict[str, float]:
    """Per-layer metrics from program-counter deltas over the timed phase."""
    delta = {key: after[key] - before.get(key, 0.0) for key in after}
    return {
        "storage.shared_hits": delta["shared_hits"],
        "storage.shared_misses": delta["shared_misses"],
        "storage.shared_evictions": delta["shared_evictions"],
        "storage.coalesced_waits": delta["coalesced_waits"],
        "modeled.random_blocks_per_accurate": (
            delta["random_reads"] / accurate_queries if accurate_queries else 0.0
        ),
        "modeled.object_gets": delta["object_gets"],
        "modeled.object_get_blocks": delta["object_get_blocks"],
        "modeled.request_s": delta["request_s"],
    }
