"""Independent oracle and answer checks.

The oracle knows nothing about the engine: it holds the benchmark's own
copy of every element fed, in feed order, and answers counting
questions with numpy ``sort`` plus ``searchsorted``.  A query's scope
is a half-open slice ``[start, end)`` of that feed (the whole feed so
far, or the steps a window covers plus the live stream), so a scope
count is the difference of two prefix counts.

An answer ``v`` for target rank ``r`` is exact when ``r`` lies in
``[count(< v) + 1, count(<= v)]``; its error is the distance from ``r``
to that interval, which handles duplicates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: feed elements per sorted block of the prefix counter.
BLOCK = 1 << 15


@dataclass(frozen=True)
class Answer:
    """One answered query, with the scope the benchmark counted itself.

    ``start``/``end`` delimit the scope in the oracle's feed; ``live``
    is the number of elements fed since the last seal that lie in the
    scope (the ``m`` of the accurate bound).
    """

    name: str
    op: str  # "quick" | "accurate"
    phi: float
    value: int
    target_rank: int
    total_size: int
    reported_bound: float
    degraded: bool
    start: int
    end: int
    live: int


def answer(name, op, phi, result, start, end, live) -> Answer:
    """Record the fields of a ``QueryResult`` the checks need."""
    return Answer(
        name=name,
        op=op,
        phi=float(phi),
        value=int(result.value),
        target_rank=int(result.target_rank),
        total_size=int(result.total_size),
        reported_bound=float(result.rank_error_bound),
        degraded=bool(result.degraded),
        start=int(start),
        end=int(end),
        live=int(live),
    )


class PrefixOracle:
    """Counts of ``feed[:end] < v`` and ``feed[:end] <= v``."""

    def __init__(self, feed: np.ndarray, block: int = BLOCK) -> None:
        self._feed = np.asarray(feed, dtype=np.int64)
        self._block = block
        self._sorted = [
            np.sort(self._feed[i:i + block])
            for i in range(0, len(self._feed), block)
        ]

    def prefix_counts(
        self, ends: np.ndarray, probes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(count < probe, count <= probe) over ``feed[:end]``, per pair."""
        ends = np.asarray(ends, dtype=np.int64)
        probes = np.asarray(probes, dtype=np.int64)
        if ends.size and (ends.min() < 0 or ends.max() > len(self._feed)):
            raise ValueError("scope end outside the feed")
        below = np.zeros(len(ends), dtype=np.int64)
        at_most = np.zeros(len(ends), dtype=np.int64)
        full = ends // self._block
        for index, chunk in enumerate(self._sorted):
            sel = full > index
            if not sel.any():
                continue
            below[sel] += np.searchsorted(chunk, probes[sel], side="left")
            at_most[sel] += np.searchsorted(chunk, probes[sel], side="right")
        for i in np.nonzero(ends % self._block)[0]:
            segment = self._feed[full[i] * self._block:ends[i]]
            below[i] += np.count_nonzero(segment < probes[i])
            at_most[i] += np.count_nonzero(segment <= probes[i])
        return below, at_most

    def rank_errors(self, answers: Sequence[Answer]) -> np.ndarray:
        """True rank error of every answer over its own scope."""
        if not answers:
            return np.zeros(0, dtype=np.int64)
        values = np.array([a.value for a in answers], dtype=np.int64)
        starts = np.array([a.start for a in answers], dtype=np.int64)
        ends = np.array([a.end for a in answers], dtype=np.int64)
        ranks = np.array([a.target_rank for a in answers], dtype=np.int64)
        below_end, at_most_end = self.prefix_counts(ends, values)
        below_start, at_most_start = self.prefix_counts(starts, values)
        below = below_end - below_start
        at_most = at_most_end - at_most_start
        return np.maximum(0, np.maximum(below + 1 - ranks, ranks - at_most))


def expected_rank(phi: float, n: int) -> int:
    """``clamp(ceil(phi * n), 1, n)``, the rank a phi-quantile targets."""
    return max(1, min(math.ceil(phi * n), n))


@dataclass
class Verdict:
    """What checking a run's answers found."""

    checked: int
    violations: List[str]
    failed: int
    over_reported: Dict[str, int]

    @property
    def correct(self) -> bool:
        """No answer broke a property the paper guarantees."""
        return not self.violations


def check(
    answers: Sequence[Answer],
    oracle: PrefixOracle,
    epsilon: float,
    count_over_reported: bool,
) -> Verdict:
    """Check every answer; see the module docstring for the error.

    Properties (a violation makes the run incorrect):

    * ``total_size`` equals the scope size the benchmark counted, and
      ``target_rank == clamp(ceil(phi * N), 1, N)``;
    * accurate answers are within ``epsilon * m`` (Lemma 5), with ``m``
      the live elements in scope, so they are exact when m = 0;
    * quick answers are within ``1.5 * epsilon * N`` (Lemma 3).

    Failed operations (counted, not incorrect): degraded results, and —
    when ``count_over_reported`` — quick answers whose true error
    exceeds the ``rank_error_bound`` the program reported.  Quick
    answers beyond their reported bound are tallied per query name in
    ``over_reported`` either way.
    """
    errors = oracle.rank_errors(answers)
    violations: List[str] = []
    over: Dict[str, int] = {}
    failed = 0
    for a, err in zip(answers, errors):
        n = a.end - a.start
        where = f"{a.name} (phi={a.phi!r}, value={a.value})"
        if a.total_size != n:
            violations.append(f"{where}: total_size {a.total_size} != N {n}")
            continue
        if a.target_rank != expected_rank(a.phi, n):
            violations.append(
                f"{where}: target_rank {a.target_rank} != "
                f"{expected_rank(a.phi, n)}"
            )
            continue
        if a.degraded:
            # A degraded accurate answer is the quick response.
            failed += 1
        if a.op == "accurate" and not a.degraded:
            limit = epsilon * a.live
        else:
            limit = 1.5 * epsilon * n
        if err > limit:
            violations.append(
                f"{where}: {a.op} rank error {int(err)} > bound {limit:g}"
            )
            continue
        if a.op == "quick" and err > a.reported_bound:
            over[a.name] = over.get(a.name, 0) + 1
            if count_over_reported:
                failed += 1
    return Verdict(len(answers), violations, failed, over)
