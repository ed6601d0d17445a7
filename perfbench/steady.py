"""Steadiness check: two sets of runs of the same code, compared.

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--workloads W ...]
                                [--first-seed 1] [--overhead]

Runs ``run.py`` once per seed (a different seed for every run) with
the ``run_seconds`` of ``BENCHMARK.json``.  For every workload and
end-to-end metric it prints each set's median and its spread (the
distance between the first and third quartile, as a share of the
median) and a verdict: every set's spread within the metric's bound,
every later set's median within the bound of the first set's, in either
direction, and the same share of failed operations in every run.
``--overhead`` adds one traced run per workload and prints how far its
end-to-end figures sit from the untraced medians.  Exits 1 when any
verdict fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACED_PREFIX = "# traced end-to-end (not for comparison): "


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run; returns its result object (and traced e2e)."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} exited {proc.returncode}:\n"
            f"{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith(TRACED_PREFIX):
            result["traced"] = json.loads(line[len(TRACED_PREFIX):])
    return result


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def drift(first: float, later: float) -> float:
    """How far ``later`` is from ``first``, as a share of it."""
    return abs(later - first) / first


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--overhead", action="store_true")
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]
    ok = True
    for workload in args.workloads:
        sets = []
        for index in range(args.sets):
            first = args.first_seed + index * args.runs
            runs = [run_once(workload, seed, seconds, 0)
                    for seed in range(first, first + args.runs)]
            sets.append(runs)
            for run in runs:
                if not run["correct"]:
                    print(f"{workload}: a run was not correct")
                    ok = False
        shares = {Fraction(r["failed"], r["attempted"])
                  for runs in sets for r in runs}
        same_share = len(shares) == 1
        ok &= same_share
        print(f"\n== {workload}: failed share "
              f"{', '.join(str(s) for s in sorted(shares))} "
              f"({'same in every run' if same_share else 'DIFFERS'})")
        print(f"{'metric':22} {'bound':>6} "
              + " ".join(f"{'median' + str(i + 1):>13} {'spread':>7}"
                         for i in range(args.sets))
              + f" {'drift':>7}  verdict")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            columns, verdict = [], "ok"
            medians = []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs]
                med = statistics.median(values)
                medians.append(med)
                width = spread(values)
                columns.append(f"{med:13.6g} {width:7.3f}")
                if width > bound:
                    verdict = "SPREAD"
            moved = max((drift(medians[0], m) for m in medians[1:]),
                        default=0.0)
            if moved > bound:
                verdict = "DRIFT" if verdict == "ok" else verdict + "+DRIFT"
            ok &= verdict == "ok"
            print(f"{name:22} {bound:6.3f} {' '.join(columns)} "
                  f"{moved:7.3f}  {verdict}")
        if args.overhead:
            traced = run_once(workload, args.first_seed, seconds, 1)["traced"]
            print(f"-- tracing overhead on {workload} (traced vs untraced "
                  "median of set 1):")
            for metric in metrics:
                name = metric["name"]
                base = statistics.median(
                    r["metrics"][name]["value"] for r in sets[0])
                value = traced[name]["value"]
                print(f"   {name:22} {value:13.6g} vs {base:13.6g} "
                      f"({(value - base) / base:+.1%})")
    print("\nSTEADY" if ok else "\nNOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
