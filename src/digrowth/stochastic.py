"""Markov-switched environments: Lyapunov-exponent simulation and limit laws.

The environment is a finite-state continuous-time Markov chain; while the
chain sits in state s the population evolves linearly by x' = (R_s + m L_s) x.
Dilating time by T (holding times multiplied by T) interpolates between the
fast-switching regime, where the growth exponent approaches the spectral
abscissa of the stationary-averaged matrix, and the slow regime, where it
approaches the stationary average of the per-state spectral abscissas.  The
threshold chi generalizes to the stationary average of max_i r_i(s).

Simulation is exact-event: exponential holding times, the exact flow
e^{A_s dt} of every dwell, and a batch-means standard error.  The initial
state and every jump are drawn from cumulative laws built once per call, the
way ``Generator.choice`` builds them (``cdf = p.cumsum(); cdf /= cdf[-1]``),
as ``bisect_right(cdf, rng.random())``: the uniform and the right-sided
search that ``choice`` itself makes, so a seed gives the path ``choice``
would give without rebuilding and re-checking the law at every jump.  The
chain's path does not depend on the population, so it is drawn a chunk of
dwells at a time and the chunk's flows are formed in one
``spectral.expm_stack_scaled`` pass, each as e^l E with E of unit max entry,
so long dwells and defective matrices need no special path.  The runs of
flows of the chunk's batches, padded with identities to the longest run,
are multiplied in one ``spectral.scaled_product`` call, pairwise and
rescaled with their logs kept apart, and the population vector takes one
product per batch.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .spectral import (expm_stack_scaled, is_irreducible, kernel_vector,
                       perron_root, scaled_product)

GENERATOR_ROW_TOL = 1e-12
MIN_JUMPS = 100
# batches of equal time behind the batch-means standard error
BATCHES = 20
DEFAULT_SEED = 20260826
# cap on the expected jumps of one simulate_lyapunov call, horizon times the
# largest exit rate over T: 7 to 13 min at 4 to 8 us per jump (2-core host,
# one BLAS thread), and far below the 2^53 mean dwells past which t += dt
# stops advancing the clock
MAX_EXPECTED_JUMPS = 1e8
# dwells per chunk of simulate_lyapunov: the path is drawn and its flows
# formed a chunk at a time, which bounds a call's working memory whatever
# the horizon.  Peak by tracemalloc, from 1e3 to 2e4 jumps and T from 0.01
# to 100: 0.41-0.43 MB for two patches and 0.81-0.83 MB for three
_CHUNK_DWELLS = 1024


class StochasticError(Exception):
    pass


class InvalidEnvironment(StochasticError):
    """The environment document or matrices break the model's constraints."""


class ReducibleChain(StochasticError):
    pass


class DegenerateHorizon(StochasticError):
    pass


@dataclass(frozen=True)
class MarkovEnvironment:
    """Per-state rates and migration matrices plus the chain generator."""

    rates: tuple[np.ndarray, ...]       # growth-rate vector per state
    migrations: tuple[np.ndarray, ...]  # Metzler, zero column sums, per state
    Q: np.ndarray                       # generator, rows sum to zero

    def __post_init__(self):
        N = len(self.rates)
        if len(self.migrations) != N or self.Q.shape != (N, N):
            raise InvalidEnvironment("state count mismatch")
        n = len(self.rates[0])
        for r, L in zip(self.rates, self.migrations):
            if len(r) != n or L.shape != (n, n):
                raise InvalidEnvironment("patch count mismatch across states")
            off = L - np.diag(np.diag(L))
            if off.min() < 0.0:
                raise InvalidEnvironment("migration matrices must be Metzler")
            if np.abs(L.sum(axis=0)).max() > GENERATOR_ROW_TOL:
                raise InvalidEnvironment("migration columns must sum to zero")
        offQ = self.Q - np.diag(np.diag(self.Q))
        if offQ.min() < 0.0:
            raise InvalidEnvironment("generator off-diagonals must be nonnegative")
        if np.abs(self.Q.sum(axis=1)).max() > GENERATOR_ROW_TOL:
            raise InvalidEnvironment("generator rows must sum to zero")

    @property
    def n_states(self) -> int:
        return len(self.rates)

    @property
    def n_patches(self) -> int:
        return len(self.rates[0])

    def matrix(self, s: int, m: float) -> np.ndarray:
        return np.diag(self.rates[s]) + m * self.migrations[s]


@dataclass(frozen=True)
class LyapunovEstimate:
    lambda_hat: float
    stderr: float
    horizon: float
    renormalizations: int
    seed: int


def environment(states, Q) -> MarkovEnvironment:
    rates = tuple(np.asarray(r, dtype=float) for r, _ in states)
    migs = tuple(np.asarray(L, dtype=float) for _, L in states)
    return MarkovEnvironment(rates=rates, migrations=migs,
                             Q=np.asarray(Q, dtype=float))


def from_dict(doc: dict) -> MarkovEnvironment:
    try:
        states = [(st["R"], st["L"]) for st in doc["states"]]
        return environment(states, doc["Q"])
    except (KeyError, TypeError) as exc:
        raise InvalidEnvironment(f"malformed environment document: {exc}") from exc


def load(path) -> MarkovEnvironment:
    with open(path) as fh:
        return from_dict(json.load(fh))


def stationary_distribution(env: MarkovEnvironment) -> np.ndarray:
    """Unique stationary law of the chain (left kernel of Q, unit sum)."""
    if env.n_states == 1:
        return np.array([1.0])
    QT = env.Q.T  # Metzler with zero column sums
    if not is_irreducible(QT):
        raise ReducibleChain("generator is not irreducible")
    return kernel_vector(QT)


def _cdf(p: np.ndarray) -> list[float]:
    """The cumulative law ``Generator.choice`` samples ``p`` by: the index
    ``bisect_right(_cdf(p), rng.random())`` is ``rng.choice(len(p), p=p)``,
    drawn from the same uniform."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def _carry(mats: np.ndarray, states: list[int], dts: list[float],
           owners: list[int], x: np.ndarray,
           batch_logs: np.ndarray) -> np.ndarray:
    """The unit-sum x at the end of a chunk of dwells, from the unit-sum x
    at its start: dwell i sits in state ``states[i]`` for ``dts[i]`` and
    belongs to batch ``owners[i]`` (nondecreasing).  Each batch's
    log-growth over the chunk is added to ``batch_logs``.

    One ``expm_stack_scaled`` call gives every e^{A_s dt} = e^l E of the
    chunk.  Each batch's run of factors is padded with identities to the
    longest run, and one ``scaled_product`` call multiplies all runs, later
    factor on the left.  x then takes one matvec per batch.  The padded
    stack holds (batches in the chunk) x (longest run) factors.
    """
    n = x.size
    with np.errstate(over="ignore"):  # an infinite norm marks the flow
        B = mats[states] * np.array(dts)[:, None, None]
    E, l, broken = expm_stack_scaled(B)
    if broken.any():
        raise StochasticError("trajectory left the positive cone")
    owners = np.array(owners)
    starts = np.flatnonzero(np.diff(owners, prepend=-1))
    sizes = np.diff(starts, append=len(owners))
    # factor j of run i sits at starts[i] + j; the identity past its end
    col = np.arange(sizes.max())[:, None]
    take = np.where(col < sizes, starts + col, len(owners))
    P, logs, _ = scaled_product(np.concatenate([E, np.eye(n)[None]])[take],
                                np.append(l, 0.0)[take])
    for run, k in enumerate(owners[starts].tolist()):
        x = P[run] @ x
        norm = x.sum()
        gain = logs[run] + math.log(norm) if norm > 0.0 else math.nan
        if not math.isfinite(gain):
            raise StochasticError("trajectory left the positive cone")
        batch_logs[k] += gain
        x /= norm
    return x


def simulate_lyapunov(env: MarkovEnvironment, m: float, T: float,
                      horizon: float,
                      seed: int = DEFAULT_SEED) -> LyapunovEstimate:
    """Monte-Carlo estimate of the Lyapunov exponent at time dilation T.

    One trajectory of length ``horizon``; the estimate is the accumulated
    log-growth over the horizon, with a standard error from the means of
    BATCHES batches of equal time.  At m = 0 and for a single state the
    exponent is returned exactly, with no simulation.  Raises
    ValueError unless m is finite and >= 0 and T and the horizon are finite
    and > 0, and when the expected jump count, horizon * max_s(-Q_ss) / T,
    exceeds MAX_EXPECTED_JUMPS.
    """
    if not (math.isfinite(m) and m >= 0.0):
        raise ValueError("simulate_lyapunov needs finite m >= 0")
    if not (math.isfinite(T) and T > 0.0):
        raise ValueError("simulate_lyapunov needs finite T > 0")
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise ValueError("simulate_lyapunov needs a finite horizon > 0")
    expected_jumps = horizon * float(-np.diag(env.Q).min()) / T
    if expected_jumps > MAX_EXPECTED_JUMPS:
        raise ValueError(f"simulate_lyapunov would make about "
                         f"{expected_jumps:.3g} jumps, more than "
                         f"{MAX_EXPECTED_JUMPS:.0e}; shorten the horizon "
                         f"or raise T")
    n = env.n_patches
    if m == 0.0 or env.n_states == 1:
        # exact: without migration the diagonal flows commute, giving the
        # best stationary-mean patch rate; without switching, the Perron root
        exact = ((stationary_distribution(env) @ np.array(env.rates)).max()
                 if m == 0.0 else perron_root(env.matrix(0, m)[None])[0])
        return LyapunovEstimate(lambda_hat=float(exact), stderr=1e-15,
                                horizon=horizon, renormalizations=0,
                                seed=seed)
    mu = stationary_distribution(env)
    rng = np.random.default_rng(seed)
    random, exponential = rng.random, rng.exponential
    mats = np.stack([env.matrix(s, m) for s in range(env.n_states)])
    scales = (1.0 / -np.diag(env.Q)).tolist()
    jump_cdfs = []
    for s in range(env.n_states):
        p = env.Q[s].copy()
        p[s] = 0.0
        jump_cdfs.append(_cdf(p / p.sum()))

    s = bisect_right(_cdf(mu), random())
    x = np.full(n, 1.0 / n)
    t = 0.0
    jumps = 0
    batch_logs = np.zeros(BATCHES)
    batch_time = [0.0] * BATCHES
    bwidth = horizon / BATCHES
    while t < horizon:
        # the chain's path does not depend on x: draw a chunk of it, then
        # carry x through the chunk's flows at once
        states, dts, owners = [], [], []
        for _ in range(_CHUNK_DWELLS):
            dwell = T * exponential(scales[s])
            dt = min(dwell, horizon - t)
            k = min(BATCHES - 1, int(t / bwidth))
            states.append(s)
            dts.append(dt)
            owners.append(k)
            batch_time[k] += dt
            t += dt
            if dt == dwell:
                s = bisect_right(jump_cdfs[s], random())
                jumps += 1
            if t >= horizon:
                break
        x = _carry(mats, states, dts, owners, x, batch_logs)
    if jumps < MIN_JUMPS:
        raise DegenerateHorizon(
            f"only {jumps} jumps over the horizon; lengthen it or shrink T")
    lambda_hat = batch_logs.sum() / horizon
    batch_time = np.array(batch_time)
    means = batch_logs / np.where(batch_time > 0, batch_time, 1.0)
    used = batch_time > 0.5 * bwidth
    k = int(used.sum())
    stderr = float(means[used].std(ddof=1) / math.sqrt(k)) if k > 1 else math.inf
    return LyapunovEstimate(lambda_hat=float(lambda_hat), stderr=max(stderr, 1e-300),
                            horizon=horizon, renormalizations=jumps, seed=seed)


def stochastic_limits(env: MarkovEnvironment, m: float) -> dict:
    """Analytic limit values of the switched-system exponent.

    T0:   Perron root of the stationary-averaged matrix (fast switching)
    Tinf: stationary average of the per-state Perron roots (slow switching);
          at m = 0 the m -> 0+ limit chi, as for ``limit_Tinf``
    chi:  stationary average of the pointwise best rate, an upper bound
    corners: slow/fast-migration values m -> 0 and m -> infinity
    """
    mu = stationary_distribution(env)
    mats = [env.matrix(s, m) for s in range(env.n_states)]
    Abar = sum(float(w) * A for w, A in zip(mu, mats))
    rbar = sum(float(w) * env.rates[s] for s, w in enumerate(mu))
    Lbar = sum(float(w) * env.migrations[s] for s, w in enumerate(mu))
    *roots, t0 = perron_root(np.array(mats + [Abar])).tolist()
    tinf = float(sum(w * r for w, r in zip(mu, roots)))
    chi = float(sum(w * env.rates[s].max() for s, w in enumerate(mu)))
    corners = {"lambda_0T": float(rbar.max()), "sup": chi}
    if is_irreducible(Lbar):
        corners["lambda_inf0"] = float(kernel_vector(Lbar) @ rbar)
    if all(is_irreducible(L) for L in env.migrations):
        corners["lambda_infT"] = float(sum(
            w * (kernel_vector(env.migrations[s]) @ env.rates[s])
            for s, w in enumerate(mu)))
    return {"T0": t0, "Tinf": tinf, "chi": chi, "corners": corners}
