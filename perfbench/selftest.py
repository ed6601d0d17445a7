"""Small-scale self-tests of the benchmark's checker.

    python3 perfbench/selftest.py

Shows that the checker rejects a planted answer one rank outside its
bound (and accepts one exactly on it), that the prefix oracle agrees
with a brute-force count across block edges and window scopes, and that
all-equal and few-distinct inputs — where one value spans many ranks —
are handled, both for planted answers and for the engine's own answers
at small scale.  Exits 1 on the first failed expectation.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np

import oracle as o

ROOT = Path(__file__).resolve().parent.parent
EPS = 0.01


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def planted(feed, op, phi, value, start=0, live=0, bound=1e9):
    """An Answer as the engine would report it, with a chosen value."""
    n = len(feed) - start
    return o.Answer(
        name=f"planted.{op}", op=op, phi=phi, value=int(value),
        target_rank=o.expected_rank(phi, n), total_size=n,
        reported_bound=bound, degraded=False, start=start, end=len(feed),
        live=live)


def value_with_error(sorted_scope: np.ndarray, rank: int, error: int) -> int:
    """A value whose rank interval ends exactly ``error`` ranks above ``rank``.

    Assumes distinct values: the element of rank ``rank - error`` has
    the interval ``[rank - error, rank - error]``.
    """
    return int(sorted_scope[rank - error - 1])


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from repro import EngineConfig, HybridQuantileEngine

    rng = np.random.default_rng(7)

    # Prefix counts agree with brute force across block edges.
    feed = rng.integers(0, 50, 1000)
    counter = o.PrefixOracle(feed, block=64)
    ends = rng.integers(0, 1001, 200)
    probes = rng.integers(-5, 55, 200)
    below, at_most = counter.prefix_counts(ends, probes)
    for e, p, b, a in zip(ends, probes, below, at_most):
        expect(b == np.count_nonzero(feed[:e] < p)
               and a == np.count_nonzero(feed[:e] <= p),
               f"prefix counts at end={e}, probe={p}")

    # A planted answer one rank outside its bound is rejected.
    feed = rng.permutation(1000)
    ordered = np.sort(feed)
    n, phi = len(feed), 0.5
    rank = o.expected_rank(phi, n)
    counter = o.PrefixOracle(feed)
    live = 300  # accurate bound: eps * m = 3 ranks
    quick_limit = int(1.5 * EPS * n)  # Lemma 3: 15 ranks
    cases = [
        ("accurate", live, 3, True),
        ("accurate", live, 4, False),
        ("accurate", 0, 0, True),
        ("accurate", 0, 1, False),
        ("quick", 0, quick_limit, True),
        ("quick", 0, quick_limit + 1, False),
    ]
    for op, m, error, accepted in cases:
        a = planted(feed, op, phi, value_with_error(ordered, rank, error),
                    live=m)
        verdict = o.check([a], counter, EPS, count_over_reported=False)
        expect(verdict.correct == accepted,
               f"{op} answer {error} ranks off with m={m}: "
               f"correct={verdict.correct}, expected {accepted}")
    exact = planted(feed, "quick", phi, ordered[rank - 1])
    for field, wrong in (("total_size", n + 1), ("target_rank", rank + 1)):
        a = dataclasses.replace(exact, **{field: wrong})
        expect(not o.check([a], counter, EPS, False).correct,
               f"a wrong {field} is rejected")

    # Beyond the reported bound but within Lemma 3: failed, not incorrect.
    a = planted(feed, "quick", phi, value_with_error(ordered, rank, 5),
                bound=4.0)
    verdict = o.check([a], counter, EPS, count_over_reported=True)
    expect(verdict.correct and verdict.failed == 1,
           "an answer over its reported bound counts as failed")

    # A window scope: the same check over feed[start:].
    start = 400
    scope = np.sort(feed[start:])
    w_rank = o.expected_rank(phi, n - start)
    for error, accepted in ((9, True), (10, False)):  # 1.5*eps*600 = 9
        a = planted(feed, "quick", phi,
                    value_with_error(scope, w_rank, error), start=start)
        expect(o.check([a], counter, EPS, False).correct == accepted,
               f"window answer {error} ranks off")

    # All-equal input: the one value is exact for every rank.
    feed = np.full(500, 7)
    counter = o.PrefixOracle(feed)
    for value, accepted in ((7, True), (8, False), (6, False)):
        a = planted(feed, "accurate", 0.3, value)
        expect(o.check([a], counter, EPS, False).correct == accepted,
               f"all-equal input, answer {value}")

    # Few distinct values: 100 x 1, 300 x 2, 100 x 3.
    feed = rng.permutation(np.repeat([1, 2, 3], [100, 300, 100]))
    counter = o.PrefixOracle(feed)
    for phi, value, error in ((0.1, 1, 0), (0.21, 1, 5), (0.21, 2, 0),
                              (0.8, 2, 0), (0.81, 2, 5), (1.0, 3, 0),
                              (0.5, 3, 151)):
        a = planted(feed, "accurate", phi, value)
        got = int(counter.rank_errors([a])[0])
        expect(got == error,
               f"few-distinct phi={phi} value={value}: error {got} != {error}")

    # The engine's own answers on all-equal and few-distinct inputs.
    for label, values in (
        ("all-equal", np.full(40_000, 123)),
        ("few-distinct", rng.choice([5, 9, 11, 400], 40_000)),
    ):
        engine = HybridQuantileEngine(config=EngineConfig(epsilon=EPS))
        for chunk in np.split(values, 4)[:3]:
            engine.stream_update_many(chunk)
            engine.end_time_step()
        engine.stream_update_many(np.split(values, 4)[3])
        live = len(values) // 4
        answers = []
        for phi in (0.01, 0.25, 0.5, 0.75, 0.99, 1.0):
            for mode in ("quick", "accurate"):
                result = engine.quantile(phi, mode=mode)
                answers.append(o.answer(f"{label}.{mode}", mode, phi, result,
                                        0, len(values), live))
        engine.close()
        verdict = o.check(answers, o.PrefixOracle(values), EPS, False)
        expect(verdict.correct, f"{label}: {verdict.violations}")

    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
