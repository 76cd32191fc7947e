"""Benchmark runner: one workload, one seed, one process.

    python3 bench/run.py --workload atlas --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Details (every
round, every failed check, the spans of a traced run) go to
``bench/results/``.

BLAS and OpenMP are pinned to one thread before NumPy is imported: the
program's matrices are 2 x 2 and 3 x 3, and helper threads woken by every
small LAPACK call only spin against the measured thread on a small machine.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402

import numpy as np  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH_DIR, "results")
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
MODULES = ("model", "spectral", "dynamics", "asymptotics", "explorer", "cli",
           "stochastic")


def _import_program():
    """The digrowth modules of this checkout, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "digrowth", "__init__.py")):
        sys.exit(f"bench: no package source under {SRC}; run from a checkout")
    sys.path.insert(0, SRC)
    mods = types.SimpleNamespace(**{
        name: importlib.import_module(f"digrowth.{name}") for name in MODULES})
    if not os.path.abspath(mods.model.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: digrowth imported from {mods.model.__file__}, "
                 f"not from {SRC}")
    return mods


def _probe_setup(workload: str) -> None:
    """What set-up costs a user: import, model construction, one warm-up.
    Prints the system-wide monotonic clock when done."""
    mods = _import_program()
    work = workloads.WORKLOADS[workload](mods, 0, RESULTS)
    work.warm_up()
    print(time.monotonic())


def _setup_seconds(workload: str) -> float:
    """Median time from starting a fresh interpreter to the end of its
    ``_probe_setup``.  The child reads the clock itself: a parent waiting
    with a timeout polls the child in steps of up to 50 ms."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        out = subprocess.run([sys.executable, os.path.abspath(__file__),
                              "--workload", workload, "--probe-setup"],
                             check=True, cwd=ROOT, timeout=SETUP_TIMEOUT_S,
                             capture_output=True, text=True).stdout
        times.append(float(out.split()[-1]) - t0)
    return statistics.median(times)


def _quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the mean of the sorted
    values weighted by the Beta((n + 1) q, (n + 1) (1 - q)) law, so that
    every order statistic within a few sqrt(n q (1 - q)) ranks of the
    quantile's rank counts, not just the one or two next to it.  On
    ``queries`` the calls near the 1 % rank are the same few grid points
    in every round, spaced 1.3 to 1.5 times apart in cost, so the plain
    order statistic reads the copies of one point, about one per round."""
    # imported here, after peak_rss_mb is read: scipy.special adds about
    # 4 MB that the program itself never loads
    from scipy.special import betainc

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    cdf = betainc((n + 1) * q, (n + 1) * (1.0 - q), np.arange(n + 1) / n)
    return float(np.diff(cdf) @ x)


def _plain(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _measure(work, seconds: float, tracer=None):
    """Whole rounds until ``seconds`` have passed.  With a tracer, rounds
    alternate untraced and traced, starting untraced, until both kinds ran.
    Returns [(traced, wall_s, cpu_s, output)]."""
    rounds = []
    start = time.perf_counter()
    while True:
        kinds = {r[0] for r in rounds}
        if time.perf_counter() - start >= seconds and (
                tracer is None or kinds == {False, True}):
            break
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        try:
            w0, c0 = time.perf_counter(), time.process_time()
            output = work.round(len(rounds), tracer.span if traced else _plain)
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        finally:
            if traced:
                tracer.uninstall()
        rounds.append((traced, wall, cpu, output))
    return rounds


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.probe_setup:
        _probe_setup(args.workload)
        return 0

    mods = _import_program()
    os.makedirs(RESULTS, exist_ok=True)
    setup_s = None if args.trace else _setup_seconds(args.workload)
    failures = [f"reference: {msg}" for msg in reference.self_test(mods.model)]

    workdir = os.path.join(RESULTS, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        work = workloads.WORKLOADS[args.workload](mods, args.seed, workdir)
        work.warm_up()
        tracer = tracing.Tracer() if args.trace else None
        rounds = _measure(work, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        outputs = [r[3] for r in rounds]
        failures += work.check(outputs)
        latencies, attempted, failed = [], 0, 0
        for output in outputs:
            lat, bad = work.ops(output)
            latencies += lat
            attempted += len(lat)
            failed += bad
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [r for r in rounds if not r[0]]
    wall_s = statistics.median(r[1] for r in plain)
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "cpu_s": (statistics.median(r[2] for r in plain), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "p50_ms": (_quantile(latencies, 0.50), "ms"),
            "p99_ms": (_quantile(latencies, 0.99), "ms"),
        }
    else:
        traced = [r for r in rounds if r[0]]
        metrics = tracing.layer_metrics(tracer.spans(), len(traced))
        metrics["trace.overhead_s"] = (
            statistics.median(r[1] for r in traced) - wall_s, "s")
        tracer.write(os.path.join(RESULTS, tag + "-spans.csv"))

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, failures=failures,
                  rounds=[{"traced": t, "wall_s": w, "cpu_s": c}
                          for t, w, c, _ in rounds],
                  absent_layers=tracer.absent if tracer else [],
                  machine=platform.platform(), cpus=os.cpu_count(),
                  python=sys.version.split()[0],
                  numpy=np.__version__,
                  scipy=sys.modules["scipy"].__version__)
    with open(os.path.join(RESULTS, tag + ".json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    for msg in failures[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
