"""The three benchmark workloads: inputs from a seed, one round of fixed
work, operation counts, and the checks on every output.

A round is the unit the runner repeats until the run's time is up, so every
run attempts whole rounds of the same operations:

* ``atlas``: the deterministic figure data sets, built in-process through the
  ``dig reproduce`` producers and the threshold searches.  One operation is
  one Lambda value the data sets contain; its latency is the time spent on
  values of its kind, shared evenly over them.
* ``queries``: single ``growth_rate`` calls on catalog models, one caller in a
  closed loop, each call timed.
* ``switching``: single ``simulate_lyapunov`` calls on two Markov-switched
  environments, each call timed.

Operations are timed by the process's CPU clock.  The caller is the only
thread doing work and never waits on I/O, so an operation's CPU time is its
latency less the time the host or the kernel gave the core to others.  Those
preemptions land on single calls and filled the wall-clock tail: over six
seeds of ``switching``, p99 read 33.7 to 46.0 ms by the wall clock and 32.2
to 34.5 ms by the CPU clock.  The runner's ``wall_s`` keeps the wall clock.

The program sees only the generated inputs.  Calls go through module
attributes looked up at call time, so an installed tracer sees them.
"""

from __future__ import annotations

import csv
import math
import os
import time

import numpy as np

import reference as ref

# --- atlas ------------------------------------------------------------------

# grid of the figure sweeps and curves; the criterion-9 sweep keeps its 32^2
ATLAS_RESOLUTION = 24
UNIDIR_RESOLUTION = 32
FAINSHIL = "fainshil(0.1,0.1)"
# criterion-9 ranges of the reducible-migration sweep
UNIDIR_RANGES = ((0.05, 10.0), (0.1, 200.0))
# growth band of fainshil(0.1,0.1) on the criterion-8 ranges, coarse m scan
BAND_RANGES = ((1.2, 5.0), (0.1, 50.0))
BAND_COARSE = 12
BAND_EDGE, BAND_EDGE_TOL = 1.807, 2e-2
CLASSIFY_MODELS = ("ab1", "abc_two_patch", FAINSHIL)
CRITICAL_PERIOD_MS = (0.05, 0.3, 0.55)
CRITICAL_PERIOD_RANGE = (0.1, 1e4)
# ok sweep and slice cells per data set that the reference recomputes
ATLAS_SAMPLE = 24


def _bound_ok(lam: float, chi: float) -> bool:
    return lam <= chi + 1e-9 * max(1.0, abs(chi))


class Atlas:
    """Figures fig2 and fig7 to fig11 as ``dig reproduce`` builds them at
    resolution 24; one-m and one-T slices of ab1 and fainshil(0.1,0.1) through
    the same slice producer; the unidir_favorable sweep over the criterion-9
    ranges at 32^2; and the threshold analysis (classify, m*, the fainshil
    growth band, the ab1 critical periods)."""

    name = "atlas"

    def __init__(self, mods, seed: int, workdir: str):
        self.mods = mods
        self.seed = seed
        self.workdir = workdir
        cli, builtin = mods.cli, mods.model.builtin
        repro = cli._REPRODUCE
        res = ATLAS_RESOLUTION
        # (data set, model, producer, resolution); writes <data set>.csv
        self.producers = [
            ("fig2_sweep", "ab1", repro["fig2"][0], res),
            ("fig2_curve", "ab1", repro["fig2"][1], res),
            ("fig7_sweep", "abc_two_patch", repro["fig7"][0], res),
            ("fig8_slices", "abc_two_patch", repro["fig8"][0], res),
            ("fig9_curve", "abc_two_patch", repro["fig9"][0], res),
            ("fig10_sweep", FAINSHIL, repro["fig10"][0], res),
            ("fig11_curve", FAINSHIL, repro["fig11"][0], res),
            ("ab1_slices", "ab1",
             cli._repro_slices("ab1", "ab1", [0.3], [10.0]), res),
            ("fainshil_slices", FAINSHIL,
             cli._repro_slices("fainshil", FAINSHIL, [1.0], [2.0]), res),
            ("unidir_favorable_sweep", "unidir_favorable",
             cli._repro_sweep("unidir_favorable", "unidir_favorable",
                              *UNIDIR_RANGES), UNIDIR_RESOLUTION),
        ]
        self.models = {name: builtin(name) for name in CLASSIFY_MODELS}

    def _threshold_tasks(self):
        ex, asy, mdl = self.mods.explorer, self.mods.asymptotics, self.models
        return [
            *((f"classify {name}", lambda name=name: [ex.classify_dig(mdl[name])])
              for name in CLASSIFY_MODELS),
            ("m_star_ab1", lambda: [asy.m_star(mdl["ab1"])]),
            ("growth_band_fainshil",
             lambda: list(ex.growth_band(mdl[FAINSHIL], *BAND_RANGES,
                                         coarse=BAND_COARSE))),
            ("critical_periods_ab1",
             lambda: [ex.critical_period(mdl["ab1"], m, CRITICAL_PERIOD_RANGE)
                      for m in CRITICAL_PERIOD_MS]),
        ]

    def warm_up(self) -> None:
        self.mods.dynamics.growth_rate(self.models["ab1"],
                                       self.mods.model.ModelParameters(1.0, 5.0))

    def round(self, k: int, span) -> dict:
        """Build every data set once: task -> (CPU seconds, values or None)."""
        outdir = os.path.join(self.workdir, f"round{k}")
        os.makedirs(outdir)
        tasks = {}
        for label, _, produce, res in self.producers:
            t0 = time.process_time()
            span("cli.reproduce", produce, outdir, res, None)
            tasks[label] = (time.process_time() - t0, None)
        for label, task in self._threshold_tasks():
            t0 = time.process_time()
            values = span("bench.threshold", task)
            tasks[label] = (time.process_time() - t0, values)
        return {"dir": outdir, "tasks": tasks}

    def _rows(self, output, label) -> list[dict]:
        with open(os.path.join(output["dir"], label + ".csv"), newline="") as fh:
            return list(csv.DictReader(fh))

    def _read(self, output, label) -> bytes:
        with open(os.path.join(output["dir"], label + ".csv"), "rb") as fh:
            return fh.read()

    def ops(self, output) -> tuple[list[float], int]:
        """Per-value latencies (ms) and failed values of one round.

        Values of one kind share its cost: a sweep cell costs the sweeps'
        time per cell, and likewise slice points and curve vertices; each
        threshold search is a kind of its own.  The latencies are per-kind
        throughput ratios, not timed calls.  Sweep cells are 2752 of the
        5084 values of a round, more than half, so p50 always reads sweep
        time per cell.  The 1 % rank is the 52nd costliest value; it falls
        among the 123 curve vertices, so p99 reads curve time per vertex,
        while a vertex costs more than a sweep cell or a slice point and
        the 9 threshold values plus the vertices reach past that rank.  A
        change that makes vertices cheaper than cells or leaves fewer than
        43 vertices moves p99 onto another kind."""
        spent, count, failed = {}, {}, 0
        for label, (seconds, values) in output["tasks"].items():
            if values is None:
                rows = self._rows(output, label)
                failed += sum(1 for r in rows if r.get("status", "ok") != "ok")
                kind, n = label.rsplit("_", 1)[1], len(rows)
            else:
                kind, n = label, len(values)
            spent[kind] = spent.get(kind, 0.0) + seconds
            count[kind] = count.get(kind, 0) + n
        latencies = []
        for kind, n in count.items():
            latencies += [spent[kind] * 1e3 / n] * n
        return latencies, failed

    def check(self, outputs) -> list[str]:
        first, msgs = outputs[0], []
        rng = np.random.default_rng(self.seed)
        mt = self.mods.model
        for label, model_ref, _, _ in self.producers:
            mdl = mt.builtin(model_ref)
            chi = ref.chi(mdl)
            rows = self._rows(first, label)
            if not rows:
                msgs.append(f"{label}: empty data set")
                continue
            if label.endswith("_curve"):
                for r in rows:
                    m, T = float(r["m"]), float(r["T"])
                    lam = ref.growth_rate(mdl, m, T)
                    if abs(lam) > self.mods.explorer.CURVE_TOL + 1e-10:
                        msgs.append(f"{label}: vertex ({m}, {T}) has "
                                    f"reference Lambda {lam:.3e}")
                continue
            ok = [r for r in rows if r.get("status", "ok") == "ok"]
            msgs += [f"{label}: Lambda {r['lambda']} > chi {chi} at "
                     f"({r['m']}, {r['T']})"
                     for r in ok if not _bound_ok(float(r["lambda"]), chi)]
            for i in rng.choice(len(ok), min(ATLAS_SAMPLE, len(ok)), replace=False):
                r = ok[i]
                m, T, lam = float(r["m"]), float(r["T"]), float(r["lambda"])
                want = ref.growth_rate(mdl, m, T)
                if not ref.agrees(lam, want):
                    msgs.append(f"{label}: Lambda({m}, {T}) = {lam} but the "
                                f"reference gives {want}")
        msgs += self._check_thresholds(first["tasks"])
        for k, other in enumerate(outputs[1:], start=1):
            for label, _, _, _ in self.producers:
                if self._read(other, label) != self._read(first, label):
                    msgs.append(f"{label}: round {k} differs from round 0")
            for label, (_, values) in other["tasks"].items():
                if values is not None and values != first["tasks"][label][1]:
                    msgs.append(f"{label}: round {k} differs from round 0")
        return msgs

    def _check_thresholds(self, tasks) -> list[str]:
        msgs = []
        for name in CLASSIFY_MODELS:
            label, mdl = f"classify {name}", self.models[name]
            verdict = tasks[label][1][0]
            if not (verdict.dig_possible and verdict.case == "Case1"):
                msgs.append(f"{label}: verdict {verdict.case}")
            elif abs(ref.slow_limit(mdl, verdict.m_star)) > 1e-8:
                msgs.append(f"{label}: Lambda(m*, inf) = "
                            f"{ref.slow_limit(mdl, verdict.m_star):.3e}")
            if abs(verdict.chi - ref.chi(mdl)) > 1e-12:
                msgs.append(f"{label}: chi {verdict.chi} vs {ref.chi(mdl)}")
        m_star = tasks["m_star_ab1"][1][0]
        if abs(m_star - 5.0 / 9.0) > 1e-8:
            msgs.append(f"m*(ab1) = {m_star}, not 5/9")
        lo, hi = tasks["growth_band_fainshil"][1]
        if abs(hi - BAND_EDGE) > BAND_EDGE_TOL or not lo < hi:
            msgs.append(f"fainshil growth band ({lo}, {hi}); upper edge "
                        f"should be {BAND_EDGE} +- {BAND_EDGE_TOL}")
        tc = dict(zip(CRITICAL_PERIOD_MS, tasks["critical_periods_ab1"][1]))
        if not (tc[0.05] > tc[0.3] and tc[0.55] > tc[0.3]):
            msgs.append(f"ab1 critical periods out of order: {tc}")
        for m, T in tc.items():
            lam = ref.growth_rate(self.models["ab1"], m, T)
            if abs(lam) > self.mods.explorer.CURVE_TOL + 1e-10:
                msgs.append(f"ab1 critical period {T} at m={m}: "
                            f"reference Lambda {lam:.3e}")
        return msgs


# --- queries ----------------------------------------------------------------

# the irreducible catalog models, where Lambda exists at every (m, T)
QUERY_MODELS = ("pm1", "ab1", "ab2s", "ab_mstar_inf", "three_patch_circular",
                "abc_two_patch", FAINSHIL)
QUERY_LOG_M = (-2.0, 2.0)
QUERY_LOG_T = (-3.0, 3.0)
# per model and round, the centres of a GRID x GRID partition of the
# (log m, log T) rectangle, each moved by a seeded jitter of up to JITTER/2 of
# a cell.  The grid is a midpoint rule for log-uniform traffic: 1.65 % of
# its calls fall in the power-iteration stall (over 1000 iterations), against
# 1.74 % of a 48 x 48 grid, and p99 lands in the stall band either way.  Fully
# random points would make every figure hinge on how many land in the small-mT
# corner, where one call can take 2000 times the median.
QUERY_GRID = 11
QUERY_JITTER = 0.05


def _grid_points(rng, grid: int, jitter: float, log_x, log_y):
    """(10^x, 10^y) at the cell centres of a grid x grid partition of the
    rectangle log_x x log_y, each moved by up to jitter/2 of a cell."""
    pts = []
    for i in range(grid):
        for j in range(grid):
            a, b = 0.5 + jitter * (rng.random(2) - 0.5)
            x = log_x[0] + (log_x[1] - log_x[0]) * (i + a) / grid
            y = log_y[0] + (log_y[1] - log_y[0]) * (j + b) / grid
            pts.append((10.0 ** x, 10.0 ** y))
    return pts


class Queries:
    """Closed-loop stream of single ``growth_rate`` calls; a round is one
    jittered 11 x 11 grid per catalog model, in a seeded random order."""

    name = "queries"

    def __init__(self, mods, seed: int, workdir: str):
        self.mods = mods
        self.seed = seed
        self.models = [mods.model.builtin(name) for name in QUERY_MODELS]

    def inputs(self, k: int) -> list[tuple[int, float, float]]:
        rng = np.random.default_rng([self.seed, k])
        qs = [(i, m, T) for i in range(len(self.models))
              for m, T in _grid_points(rng, QUERY_GRID, QUERY_JITTER,
                                       QUERY_LOG_M, QUERY_LOG_T)]
        return [qs[j] for j in rng.permutation(len(qs))]

    def warm_up(self) -> None:
        self.mods.dynamics.growth_rate(self.models[1],
                                       self.mods.model.ModelParameters(1.0, 5.0))

    def round(self, k: int, span) -> list[tuple]:
        """(model index, m, T, Lambda or None, latency ms) per call."""
        mods, out = self.mods, []
        params, error = mods.model.ModelParameters, mods.dynamics.DynamicsError
        for i, m, T in self.inputs(k):
            t0 = time.process_time()
            try:
                lam = span("bench.query", mods.dynamics.growth_rate,
                           self.models[i], params(m, T)).lam
            except error:
                lam = None
            out.append((i, m, T, lam, (time.process_time() - t0) * 1e3))
        return out

    def ops(self, output) -> tuple[list[float], int]:
        return [r[4] for r in output], sum(1 for r in output if r[3] is None)

    def check(self, outputs) -> list[str]:
        msgs = []
        chis = [ref.chi(mdl) for mdl in self.models]
        for output in outputs:
            for i, m, T, lam, _ in output:
                if lam is None:
                    continue
                mdl = self.models[i]
                want = ref.growth_rate(mdl, m, T)
                if not ref.agrees(lam, want):
                    msgs.append(f"{QUERY_MODELS[i]}: Lambda({m}, {T}) = {lam} "
                                f"but the reference gives {want}")
                if not _bound_ok(lam, chis[i]):
                    msgs.append(f"{QUERY_MODELS[i]}: Lambda({m}, {T}) = {lam} "
                                f"> chi {chis[i]}")
        return msgs


# --- switching --------------------------------------------------------------

L_SYM = [[-1.0, 1.0], [1.0, -1.0]]
SWITCH_LOG_M = (-1.0, 1.0)
SWITCH_LOG_T = (-2.0, 2.0)
SWITCH_GRID = 6
SWITCH_JITTER = 1.0
# horizon per unit of dilation, log-uniform per call: with unit exit rates a
# call makes that many jumps on average.  The spread gives the latency tail a
# shape of its own; with one horizon for all calls, p99 would time only the
# machine's scheduling noise.  Below 200 a call risks the simulator's
# 100-jump minimum.
JUMPS_PER_CALL = (200.0, 1000.0)
# fast-switching check, after timing: the median of FAST_SEEDS estimates at
# T = FAST_T (about 2000 jumps each) lies within FAST_SE median standard
# errors of the abscissa of the averaged matrix.  The estimator's start-up
# transient and its O(T) bias keep the median 0.7 (pm1 twin) and 1.4
# (three-state) standard errors off the limit on average, with a spread of
# about 0.5 for the median; at T = 1e-3 the three-state offset is 2.4.
FAST_T, FAST_HORIZON, FAST_SEEDS, FAST_SE = 1e-4, 0.2, 5, 4.0
CHI_SE = 3.0


def _circulant_migration(forward: float, backward: float) -> np.ndarray:
    L = np.zeros((3, 3))
    for i in range(3):
        L[(i + 1) % 3, i] = forward
        L[(i + 2) % 3, i] = backward
    L -= np.diag(L.sum(axis=0))
    return L


def switching_environments(stochastic) -> list:
    """The two-state pm1 twin of criterion 10, and a three-state, three-patch
    environment whose favourable patch and flow direction rotate."""
    pm1 = stochastic.environment([([0.5, -1.5], L_SYM), ([-1.5, 0.5], L_SYM)],
                                 [[-1.0, 1.0], [1.0, -1.0]])
    three = stochastic.environment(
        [([0.6, -1.0, -1.2], _circulant_migration(1.0, 0.2)),
         ([-1.2, 0.6, -1.0], _circulant_migration(0.2, 1.0)),
         ([-1.0, -1.2, 0.6], _circulant_migration(0.5, 0.5))],
        [[-1.0, 0.7, 0.3], [0.3, -1.0, 0.7], [0.7, 0.3, -1.0]])
    return [pm1, three]


class Switching:
    """Seeded ``simulate_lyapunov`` calls; a round is one 6 x 6 grid over
    (log m, log T) per environment, one random point per cell, in a seeded
    random order, each call with its own seed."""

    name = "switching"

    def __init__(self, mods, seed: int, workdir: str):
        self.mods = mods
        self.seed = seed
        self.envs = switching_environments(mods.stochastic)

    def inputs(self, k: int) -> list[tuple[int, float, float, float, int]]:
        """(environment, m, T, horizon, seed) per call."""
        rng = np.random.default_rng([self.seed, k])
        qs = [(e, m, T) for e in range(len(self.envs))
              for m, T in _grid_points(rng, SWITCH_GRID, SWITCH_JITTER,
                                       SWITCH_LOG_M, SWITCH_LOG_T)]
        lo, hi = np.log(JUMPS_PER_CALL)
        jumps = np.exp(rng.uniform(lo, hi, len(qs)))
        seeds = rng.integers(0, 2 ** 31, size=len(qs))
        return [qs[j] + (float(jumps[j]) * qs[j][2], int(seeds[j]))
                for j in rng.permutation(len(qs))]

    def _simulate(self, e, m, T, horizon, seed, span=None):
        fn = self.mods.stochastic.simulate_lyapunov
        args = (self.envs[e], m, T, horizon, seed)
        return fn(*args) if span is None else span("bench.simulate", fn, *args)

    def warm_up(self) -> None:
        self._simulate(0, 1.0, 1.0, JUMPS_PER_CALL[0], 0)

    def round(self, k: int, span) -> list[tuple]:
        """(env, m, T, horizon, seed, estimate or None, latency ms) per call."""
        out, error = [], self.mods.stochastic.StochasticError
        for call in self.inputs(k):
            t0 = time.process_time()
            try:
                est = self._simulate(*call, span)
            except error:
                est = None
            out.append(call + (est, (time.process_time() - t0) * 1e3))
        return out

    def ops(self, output) -> tuple[list[float], int]:
        return [r[6] for r in output], sum(1 for r in output if r[5] is None)

    def check(self, outputs) -> list[str]:
        st, msgs = self.mods.stochastic, []
        chis = [ref.switched_chi(env) for env in self.envs]
        for output in outputs:
            for e, m, T, _, seed, est, _ in output:
                if est is None:
                    continue
                if not (math.isfinite(est.lambda_hat) and est.stderr > 0.0):
                    msgs.append(f"env {e} ({m}, {T}, seed {seed}): {est}")
                elif est.lambda_hat > chis[e] + CHI_SE * est.stderr:
                    msgs.append(f"env {e} ({m}, {T}, seed {seed}): estimate "
                                f"{est.lambda_hat} > chi {chis[e]} + "
                                f"{CHI_SE} se ({est.stderr})")
        # a repeated seed gives the identical estimate
        call, est = next((r[:5], r[5]) for r in outputs[0] if r[5] is not None)
        again = self._simulate(*call)
        if (again.lambda_hat, again.stderr) != (est.lambda_hat, est.stderr):
            msgs.append(f"call {call} is not reproducible")
        # a single-state environment has no noise: the exponent is exact
        rng = np.random.default_rng(self.seed)
        rates = rng.uniform(-2.0, 1.0, 2)
        mig = [[-1.0, 2.0], [1.0, -2.0]]
        single = st.environment([(rates, mig)], [[0.0]])
        m = float(rng.uniform(0.1, 3.0))
        exact = ref.abscissa(np.diag(rates) + m * np.array(mig))
        got = st.simulate_lyapunov(single, m, 1.0, 50.0).lambda_hat
        if abs(got - exact) > 1e-12 * max(1.0, abs(exact)):
            msgs.append(f"single-state estimate {got} vs exact {exact}")
        # fast switching approaches the abscissa of the averaged matrix
        for e, env in enumerate(self.envs):
            limit = ref.switched_fast_limit(env, 1.0)
            runs = [st.simulate_lyapunov(env, 1.0, FAST_T, FAST_HORIZON,
                                         seed=int(s))
                    for s in rng.integers(0, 2 ** 31, FAST_SEEDS)]
            med = float(np.median([r.lambda_hat for r in runs]))
            se = float(np.median([r.stderr for r in runs]))
            if abs(med - limit) > FAST_SE * se:
                msgs.append(f"env {e}: fast-switching median {med} is "
                            f"{abs(med - limit) / se:.1f} se from {limit}")
        return msgs


WORKLOADS = {cls.name: cls for cls in (Atlas, Queries, Switching)}
