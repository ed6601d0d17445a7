"""Benchmark of the union-quantile engine.

    python3 perfbench/run.py --workload ingest|cluster_serve \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object
with every end-to-end metric; with ``--trace 1`` it carries every
per-layer metric instead (the traced run's own end-to-end figures are
printed on an earlier line, so the tracing overhead can be read off
against an untraced run).  Every answer is checked against an oracle
the benchmark computes itself; a violation names the query on standard
error and exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = [
    ("setup_s", "s"),
    ("ingest_elems_per_s", "elem/s"),
    ("seal_p50_ms", "ms"),
    ("append_p50_us", "us"),
    ("quick_p50_ms", "ms"),
    ("quick_p90_ms", "ms"),
    ("window_p50_ms", "ms"),
    ("accurate_p50_ms", "ms"),
    ("accurate_p90_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("rss_mb", "MiB"),
]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ingest", "cluster_serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: "
              f"{exc}", file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: repro was imported from {repro.__file__}, not "
              f"from this checkout's src/", file=sys.stderr)
        return 2
    from oracle import check
    from tracer import PER_LAYER, Tracer
    from workloads import EPSILON, WORKLOADS

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    try:
        outcome = WORKLOADS[args.workload](
            args.seed, args.seconds, tracer, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    violations = []
    failed = outcome.failed
    checked = 0
    for item in outcome.checks:
        verdict = check(item.answers, item.oracle(), EPSILON,
                        item.count_over_reported)
        violations.extend(verdict.violations)
        failed += verdict.failed
        checked += verdict.checked
        for name, count in sorted(verdict.over_reported.items()):
            print(f"# {name}: {count} of "
                  f"{sum(a.name == name for a in item.answers)} quick "
                  "answers exceed the rank_error_bound the program "
                  "reports (within Lemma 3)")
    for line in violations:
        print(f"perfbench: VIOLATION {args.workload}: {line}",
              file=sys.stderr)
    print(f"# {args.workload} seed={args.seed}: checked {checked} answers, "
          f"attempted {outcome.attempted}, failed {failed}")
    print("# samples: " + json.dumps(outcome.samples, sort_keys=True))
    e2e = {name: {"value": outcome.metrics[name], "unit": unit}
           for name, unit in END_TO_END}
    if tracer is None:
        metrics = e2e
    else:
        print("# traced end-to-end (not for comparison): " + json.dumps(e2e))
        totals = dict(tracer.totals)
        totals.update(outcome.layer)
        metrics = {name: {"value": float(totals.get(name, 0.0)), "unit": unit}
                   for name, unit, _ in PER_LAYER}
    print(json.dumps({
        "correct": not violations,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
