"""Steadiness check: run workloads repeatedly and compare each end-to-end
metric's spread with its bound in BENCHMARK.json.

    python3 bench/steady.py --sets 2                     # the full check
    python3 bench/steady.py --runs 5 --workloads queries # a quick look

A set is ``--runs`` runs of ``bench/run.py`` at the run length that
BENCHMARK.json fixes, one seed each: seeds 1, 2, ... for the first set and
the next ``--runs`` seeds for the second.  For every metric the spread of a
set is the distance between the first and third quartiles of its runs'
values, as ``statistics.quantiles(values, n=4)`` gives them, as a share of
their median.  A workload is steady when

* every run is correct and fails the same share of operations;
* every run's ``cpu_s`` is at most 1.1 times its ``wall_s`` (one thread);
* every spread, ``setup_s`` included, is within the metric's bound;
* with two sets, no median of the second set is worse than that of the
  first by more than the bound.

Spreads below a third of the bound are marked ``tight``; the others ``wide``.
Run from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
CPU_PER_WALL = 1.1


def _run(spec, workload: str, seed: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True,
                         text=True, timeout=600).stdout
    r = json.loads(out.strip().splitlines()[-1])
    values = {k: v["value"] for k, v in r["metrics"].items()}
    print(f"{workload} seed {seed}: correct={r['correct']} "
          f"attempted={r['attempted']} failed={r['failed']} "
          + " ".join(f"{k}={v:.5g}" for k, v in values.items()), flush=True)
    return dict(r, values=values)


def _check_set(spec, workload: str, results: list[dict]) -> tuple[bool, dict]:
    """Print the set's verdict; return (steady, {metric: median})."""
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    correct = all(r["correct"] for r in results)
    ratios = [r["values"]["cpu_s"] / r["values"]["wall_s"] for r in results]
    one_thread = max(ratios) <= CPU_PER_WALL
    print(f"{workload}: all correct={correct}, failed shares={shares}, "
          f"cpu_s/wall_s {min(ratios):.3f}-{max(ratios):.3f} "
          f"{'ok' if one_thread else f'ABOVE {CPU_PER_WALL}'}")
    steady = correct and len(shares) == 1 and one_thread
    medians = {}
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r["values"][name] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        medians[name] = med
        steady &= spread <= bound
        verdict = ("tight" if spread < bound / 3 else
                   "wide" if spread <= bound else "TOO WIDE")
        print(f"  {name:12s} median {med:10.5g} {metric['unit']:3s} "
              f"spread {spread:6.2%} bound {bound:.0%} {verdict}")
    return steady, medians


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10, help="runs per set")
    p.add_argument("--sets", type=int, choices=(1, 2), default=1)
    p.add_argument("--workloads", nargs="+",
                   choices=[w["name"] for w in spec["workloads"]],
                   default=[w["name"] for w in spec["workloads"]])
    args = p.parse_args(argv)

    steady = True
    for workload in args.workloads:
        sets = []
        for k in range(args.sets):
            seeds = range(1 + k * args.runs, 1 + (k + 1) * args.runs)
            results = [_run(spec, workload, seed) for seed in seeds]
            ok, medians = _check_set(spec, workload, results)
            steady &= ok
            sets.append((results, medians))
        if len(sets) == 2:
            (first, med1), (second, med2) = sets
            shares = {r["failed"] / r["attempted"] for r in first + second}
            steady &= len(shares) == 1
            print(f"{workload}: failed share the same in both sets: "
                  f"{len(shares) == 1}")
            for metric in spec["end_to_end"]:
                name, bound = metric["name"], metric["bound"]
                shift = (med2[name] - med1[name]) / med1[name]
                if metric["better"] == "higher":
                    shift = -shift
                ok = shift <= bound
                steady &= ok
                print(f"  {name:12s} second median {shift:+7.2%} worse than "
                      f"the first, bound {bound:.0%} {'ok' if ok else 'WORSE'}")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
