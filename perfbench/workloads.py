"""The workloads: ``ingest`` and ``cluster_serve``.

Each workload sets up its state ``SETUP_REPEATS`` times (the median is
``setup_s``), then runs whole rounds of a fixed operation mix until
``seconds`` have passed and every reported percentile has enough
samples.  Inputs come from ``numpy.random.default_rng([seed, k])``; the
program sees only the generated arrays.  Every answer is recorded with
the scope the benchmark counted itself and checked after the timed
phase (see :mod:`oracle`).
"""

from __future__ import annotations

import contextlib
import os
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import (
    ClusterEngine,
    EngineConfig,
    HybridQuantileEngine,
    Overloaded,
    QueryService,
)

from oracle import Answer, PrefixOracle, answer
from tracer import Tracer, counter_metrics, program_counters

EPSILON = 0.01
SETUP_REPEATS = 3


@dataclass
class Check:
    """Answers to check against one oracle feed."""

    answers: List[Answer]
    feed: np.ndarray
    #: count quick answers beyond their reported bound as failed.
    count_over_reported: bool = False

    def oracle(self) -> PrefixOracle:
        return PrefixOracle(self.feed)


@dataclass
class Outcome:
    """What one run of a workload measured."""

    metrics: Dict[str, float]
    samples: Dict[str, int]
    checks: List[Check]
    attempted: int
    failed: int
    layer: Dict[str, float] = field(default_factory=dict)


def p50(values: List[float]) -> float:
    return float(np.median(values))


def p90(values: List[float]) -> float:
    return float(np.percentile(values, 90))


def rss_mb() -> float:
    """Resident set size of this process in MiB."""
    with open("/proc/self/statm") as statm:
        pages = int(statm.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / (1 << 20)


def _lat(*kinds: str) -> Dict[str, List[float]]:
    return {kind: [] for kind in kinds}


def timed(samples: List[float], call: Callable, *args, **kwargs):
    """Run ``call`` and append its wall time in seconds to ``samples``."""
    start = time.perf_counter()
    result = call(*args, **kwargs)
    samples.append(time.perf_counter() - start)
    return result


def tracing(tracer: Optional[Tracer]):
    return tracer if tracer is not None else contextlib.nullcontext()


def smallest_window(engine) -> int:
    sizes = engine.available_window_sizes()
    if not sizes:
        raise RuntimeError("no aligned window is available")
    return sizes[0]


WARMUP_PHIS = (0.1, 0.5, 0.9, 0.99)


def warm_queries(engine, feed_size: int, bounds: List[int], live: int,
                 name: str) -> List[Answer]:
    """A few untimed queries of every kind, so lazy set-up is not timed."""
    window = smallest_window(engine)
    kinds = (("quick", "quick", None, 0),
             ("accurate", "accurate", None, 0),
             ("window", "quick", window, bounds[-1 - window]))
    out = []
    for phi in WARMUP_PHIS:
        for op, mode, steps, start in kinds:
            result = engine.quantile(phi, mode=mode, window_steps=steps)
            out.append(answer(f"{name}.warmup_{op}", mode, phi, result,
                              start, feed_size, live))
    return out


def latency_report(
    lat: Dict[str, List[float]], ops: Tuple[str, ...]
) -> Dict[str, float]:
    """p50 (and p90 where reported) of each timed query kind, in ms."""
    out = {}
    for op in ops:
        out[f"{op}_p50_ms"] = p50(lat[op]) * 1e3
        if op != "window":
            out[f"{op}_p90_ms"] = p90(lat[op]) * 1e3
    return out


# ----------------------------------------------------------------------
# ingest
# ----------------------------------------------------------------------

INGEST_STEPS = 20
INGEST_BATCHES_PER_STEP = 48
INGEST_BATCH = 4096
INGEST_POLL_EVERY = 16
INGEST_POLL_PHI = 0.99
INGEST_SWEEP = 40
INGEST_WINDOWS_PER_ACCURATE = 3
INGEST_MIN_ROUNDS = 3


def _ingest_sweep(engine, phis: np.ndarray, n: int,
                  lat: Dict[str, List[float]], answers: List[Answer],
                  name: str) -> None:
    """Accurate queries at m = 0 (each must be exact), each followed by
    ``INGEST_WINDOWS_PER_ACCURATE`` windowed quick queries, so windowed
    samples span the sweep and their median is not set by the cache
    misses of the first one after an accurate search."""
    step_elems = INGEST_BATCHES_PER_STEP * INGEST_BATCH
    window = smallest_window(engine)
    for index, phi in enumerate(phis):
        result = timed(lat["accurate"], engine.quantile, phi,
                       mode="accurate")
        answers.append(answer(f"{name}.sweep", "accurate", phi, result,
                              0, n, 0))
        for k in range(INGEST_WINDOWS_PER_ACCURATE):
            w_phi = phis[(index + k) % len(phis)]
            result = timed(lat["window"], engine.quantile, w_phi,
                           mode="quick", window_steps=window)
            answers.append(answer(f"{name}.window_sweep", "quick", w_phi,
                                  result, n - window * step_elems, n, 0))


def _ingest_round(storage: Path, feed: np.ndarray, steps: int,
                  phis: np.ndarray, lat: Dict[str, List[float]],
                  answers: List[Answer], name: str = "ingest"
                  ) -> Tuple[float, float, Dict[str, float]]:
    """Feed ``steps`` steps into a fresh engine, sweeping at m = 0.

    A sweep runs right after every seal (the last one after
    ``flush()``), each with its share of ``phis``.  Spread over the
    round, the sweeps sample the machine's speed more often than one
    sweep at the end would, and their latencies cover every layout the
    round passes through.  Returns the ingest rate of the feed phase
    (seals, merges, polls and ``flush`` included, sweeps excluded), the
    resident set size with the engine still open, and the engine's
    program counters.
    """
    step_elems = INGEST_BATCHES_PER_STEP * INGEST_BATCH
    n = steps * step_elems
    engine = HybridQuantileEngine(config=EngineConfig(
        epsilon=EPSILON, storage_backend="mmap", storage_dir=str(storage)))
    phase = time.perf_counter()
    swept = 0.0
    fed = 0
    for step in range(steps):
        for _ in range(INGEST_BATCHES_PER_STEP):
            timed(lat["append"], engine.stream_update_many,
                  feed[fed:fed + INGEST_BATCH])
            fed += INGEST_BATCH
            if (fed // INGEST_BATCH) % INGEST_POLL_EVERY == 0:
                result = timed(lat["quick"], engine.quantile,
                               INGEST_POLL_PHI, mode="quick")
                answers.append(answer(
                    f"{name}.poll", "quick", INGEST_POLL_PHI, result,
                    0, fed, fed - step * step_elems))
        timed(lat["seal"], engine.end_time_step)
        if step + 1 == steps:
            engine.flush()
        began = time.perf_counter()
        _ingest_sweep(engine, phis[step::steps], fed, lat, answers, name)
        swept += time.perf_counter() - began
    rate = n / (time.perf_counter() - phase - swept)
    counters = program_counters([engine])
    rss = rss_mb()
    engine.close()
    shutil.rmtree(storage)
    return rate, rss, counters


class FaultProbe:
    """A windowed quick query the reported-bound fault always fails.

    Its inputs are fixed, independent of ``--seed``: two sealed steps
    of 100k uniform values plus a 100k live stream, queried over the
    one-step window at ``PHI``.  The program reports a bound of
    ``eps1 * n + eps2 * m`` = 750 ranks; the true error is larger,
    though within Lemma 3.  It counts as one failed operation per round
    until that bound is mended.
    """

    SEED = 20160401
    SIZE = 100_000
    PHI = 0.275

    def __init__(self) -> None:
        rng = np.random.default_rng(self.SEED)
        parts = [rng.integers(0, 1 << 40, self.SIZE) for _ in range(3)]
        self.engine = HybridQuantileEngine(config=EngineConfig(epsilon=EPSILON))
        for part in parts[:2]:
            self.engine.stream_update_many(part)
            self.engine.end_time_step()
        self.engine.stream_update_many(parts[2])
        self.feed = np.concatenate(parts)

    def ask(self) -> Answer:
        result = self.engine.quantile(self.PHI, mode="quick", window_steps=1)
        return answer("ingest.fault_probe", "quick", self.PHI, result,
                      self.SIZE, len(self.feed), self.SIZE)

    def close(self) -> None:
        self.engine.close()


def ingest(seed: int, seconds: float, tracer: Optional[Tracer],
           workdir: Path) -> Outcome:
    """Polled sync ingest on the mmap backend, with sweeps at m = 0."""
    step_elems = INGEST_BATCHES_PER_STEP * INGEST_BATCH
    phis = (np.arange(INGEST_SWEEP) + 0.5) / INGEST_SWEEP
    kinds = ("append", "seal", "quick", "accurate", "window")
    setups = []
    probe: Optional[FaultProbe] = None
    for _ in range(SETUP_REPEATS):
        if probe is not None:
            probe.close()
        start = time.perf_counter()
        probe = FaultProbe()
        rng = np.random.default_rng([seed, 1])
        feed = rng.integers(0, 1 << 40, INGEST_STEPS * step_elems,
                            dtype=np.int64)
        # A two-step warm-up round, so lazy set-up is not timed.
        answers: List[Answer] = []
        _ingest_round(workdir / "warmup", feed, 2, phis[::8], _lat(*kinds),
                      answers, name="ingest.warmup")
        setups.append(time.perf_counter() - start)
    warmup = Check(answers, feed[:2 * step_elems])
    lat = _lat(*kinds)
    rates: List[float] = []
    rss: List[float] = []
    answers = []
    probes: List[Answer] = []
    counters: Dict[str, float] = {}
    rounds = 0
    with tracing(tracer):
        began = time.perf_counter()
        while (rounds < INGEST_MIN_ROUNDS
               or time.perf_counter() - began < seconds):
            rate, resident, engine_counters = _ingest_round(
                workdir / f"ingest-{rounds}", feed, INGEST_STEPS, phis, lat,
                answers)
            probes.append(probe.ask())
            rates.append(rate)
            rss.append(resident)
            for key, value in engine_counters.items():
                counters[key] = counters.get(key, 0.0) + value
            rounds += 1
        elapsed = time.perf_counter() - began
    probe.close()
    metrics = {
        "setup_s": p50(setups),
        "ingest_elems_per_s": p50(rates),
        "seal_p50_ms": p50(lat["seal"]) * 1e3,
        "append_p50_us": p50(lat["append"]) * 1e6,
        **latency_report(lat, ("quick", "accurate", "window")),
        "queries_per_s": len(answers) / elapsed,
        # median over rounds, each read before the round's engine closes
        "rss_mb": p50(rss),
    }
    samples = {k: len(v) for k, v in lat.items()}
    samples["rounds"] = rounds
    layer = counter_metrics({}, counters, len(lat["accurate"]))
    checks = [
        Check(answers, feed),
        Check(probes, probe.feed, count_over_reported=True),
        warmup,
    ]
    return Outcome(metrics, samples, checks,
                   attempted=len(answers) + len(probes), failed=0,
                   layer=layer)


# ----------------------------------------------------------------------
# cluster_serve
# ----------------------------------------------------------------------

CLUSTER_SHARDS = 8
CLUSTER_STEPS = 12
CLUSTER_BATCHES_PER_STEP = 8
CLUSTER_BATCH = 25_000
CLUSTER_LIVE = 20_000
#: per-shard shared-cache blocks, well below each shard's ~300 blocks.
CLUSTER_CACHE_BLOCKS = 64
CLUSTER_CLIENTS = 2
CLUSTER_ROUND = 20
CLUSTER_MIN_ROUNDS = 7
CLUSTER_TIMEOUT_S = 120.0


def heavy_tailed(rng: np.random.Generator, size) -> np.ndarray:
    """Pareto(1.5) values scaled to integers."""
    return np.rint((rng.pareto(1.5, size) + 1.0) * 1000).astype(np.int64)


def _cluster_setup(seed: int, storage: Path, lat: Dict[str, List[float]]):
    rng = np.random.default_rng([seed, 4])
    steps = [
        [heavy_tailed(rng, CLUSTER_BATCH)
         for _ in range(CLUSTER_BATCHES_PER_STEP)]
        for _ in range(CLUSTER_STEPS)
    ]
    tail = heavy_tailed(rng, CLUSTER_LIVE)
    cluster = ClusterEngine(
        shards=CLUSTER_SHARDS,
        config=EngineConfig(
            epsilon=EPSILON, sketch_backend="kll", storage_backend="object",
            storage_dir=str(storage),
            shared_cache_blocks=CLUSTER_CACHE_BLOCKS),
    )
    began = time.perf_counter()
    bounds = [0]
    for batches in steps:
        for batch in batches:
            timed(lat["append"], cluster.stream_update_many, batch)
        timed(lat["seal"], cluster.end_time_step)
        bounds.append(bounds[-1] + sum(len(b) for b in batches))
    timed(lat["append"], cluster.stream_update_many, tail)
    cluster.flush()
    fed = bounds[-1] + len(tail)
    lat["rate"].append(fed / (time.perf_counter() - began))
    feed = np.concatenate([b for batches in steps for b in batches] + [tail])
    warm = warm_queries(cluster, fed, bounds, len(tail), "cluster")
    return cluster, feed, bounds, warm


def cluster_serve(seed: int, seconds: float, tracer: Optional[Tracer],
                  workdir: Path) -> Outcome:
    """Two closed-loop clients against a read-only 8-shard cluster."""
    setups = []
    lat = _lat("append", "seal", "rate", "quick", "accurate", "window")
    built = None
    for index in range(SETUP_REPEATS):
        if built is not None:
            built[0].close()
            shutil.rmtree(built[4])
        storage = workdir / f"cluster-{index}"
        start = time.perf_counter()
        built = _cluster_setup(seed, storage, lat) + (storage,)
        setups.append(time.perf_counter() - start)
    cluster, feed, bounds, warm, storage = built
    n = len(feed)
    live = n - bounds[-1]
    window = smallest_window(cluster)
    window_start = bounds[-1 - window]
    before = program_counters(cluster.shards)
    per_client: List[dict] = [
        {"answers": [], "rejected": 0, "attempted": 0,
         "lat": {"quick": [], "accurate": [], "window": []}}
        for _ in range(CLUSTER_CLIENTS)
    ]
    errors: List[BaseException] = []

    def client(index: int, deadline: float) -> None:
        rng = np.random.default_rng([seed, 5, index])
        mine = per_client[index]
        rounds = 0
        while rounds < CLUSTER_MIN_ROUNDS or time.perf_counter() < deadline:
            phis = rng.uniform(1e-3, 1.0, CLUSTER_ROUND)
            for i in range(CLUSTER_ROUND):
                phi = float(phis[i])
                if i % 2:
                    op, mode, steps, start = "accurate", "accurate", None, 0
                elif i % 10 == 0:
                    op, mode, steps, start = "window", "quick", window, window_start
                else:
                    op, mode, steps, start = "quick", "quick", None, 0
                mine["attempted"] += 1
                began = time.perf_counter()
                try:
                    request = service.submit(phi, mode, window_steps=steps)
                except Overloaded:
                    mine["rejected"] += 1
                    continue
                result = request.result(timeout=CLUSTER_TIMEOUT_S)
                latency = time.perf_counter() - began
                mine["lat"][op].append(latency)
                mine["answers"].append(answer(
                    f"cluster.{op}", mode, phi, result, start, n, live))
                if tracer is not None:
                    tracer.add("serving.latency_s", latency)
            rounds += 1

    def guarded(index: int, deadline: float) -> None:
        try:
            client(index, deadline)
        except BaseException as exc:  # reported after the join
            errors.append(exc)

    with tracing(tracer):
        # Built under the tracer, so its dispatchers run traced code.
        service = QueryService(cluster)
        began = time.perf_counter()
        threads = [
            threading.Thread(target=guarded, args=(i, began + seconds),
                             name=f"perfbench-client-{i}")
            for i in range(CLUSTER_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - began
    rss = rss_mb()
    snapshot = service.metrics_snapshot()
    service.close()
    if errors:
        cluster.close()
        raise errors[0]
    for op in ("quick", "accurate", "window"):
        for mine in per_client:
            lat[op].extend(mine["lat"][op])
    answers = [a for mine in per_client for a in mine["answers"]]
    layer = counter_metrics(before, program_counters(cluster.shards),
                            len(lat["accurate"]))
    if tracer is not None:
        # client latency minus the engine calls that answered it
        layer["serving.queue_wait_s"] = max(
            0.0, tracer.totals["serving.latency_s"]
            - tracer.totals["serving.engine_s"])
    layer["serving.batch_mean"] = (
        snapshot.coalesced_requests / snapshot.coalesced_batches
        if snapshot.coalesced_batches else 0.0
    )
    cluster.close()
    metrics = {
        "setup_s": p50(setups),
        "ingest_elems_per_s": p50(lat["rate"]),
        "seal_p50_ms": p50(lat["seal"]) * 1e3,
        "append_p50_us": p50(lat["append"]) * 1e6,
        **latency_report(lat, ("quick", "accurate", "window")),
        "queries_per_s": len(answers) / elapsed,
        "rss_mb": rss,
    }
    samples = {k: len(v) for k, v in lat.items() if k != "rate"}
    rejected = sum(mine["rejected"] for mine in per_client)
    return Outcome(metrics, samples, [Check(answers, feed), Check(warm, feed)],
                   attempted=sum(mine["attempted"] for mine in per_client),
                   failed=rejected, layer=layer)


WORKLOADS = {
    "ingest": ingest,
    "cluster_serve": cluster_serve,
}
