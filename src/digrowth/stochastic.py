"""Markov-switched environments: Lyapunov-exponent simulation and limit laws.

The environment is a finite-state continuous-time Markov chain; while the
chain sits in state s the population evolves linearly by x' = (R_s + m L_s) x.
Dilating time by T (holding times multiplied by T) interpolates between the
fast-switching regime, where the growth exponent approaches the spectral
abscissa of the stationary-averaged matrix, and the slow regime, where it
approaches the stationary average of the per-state spectral abscissas.  The
threshold chi generalizes to the stationary average of max_i r_i(s).

Simulation is exact-event: exponential holding times, the dwell flow applied
through a cached per-state eigendecomposition with the dominant exponent
factored out (so arbitrarily long dwells never overflow), renormalization to
the simplex at every jump, and a batch-means standard error.  The initial
state and every jump are drawn from cumulative laws built once per call, the
way ``Generator.choice`` builds them (``cdf = p.cumsum(); cdf /= cdf[-1]``),
as ``bisect_right(cdf, rng.random())``: the uniform and the right-sided
search that ``choice`` itself makes, so a seed gives the path ``choice``
would give without rebuilding and re-checking the law at every jump.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .spectral import expm, is_irreducible, kernel_vector, spectral_abscissa

GENERATOR_ROW_TOL = 1e-12
MIN_JUMPS = 100
DEFAULT_BATCHES = 20
DEFAULT_SEED = 20260826
# cap on the expected jumps of one simulate_lyapunov call, horizon times the
# largest exit rate over T: about 20 min at 12 us per jump, and far below the
# 2^53 mean dwells past which t += dt stops advancing the clock
MAX_EXPECTED_JUMPS = 1e8


class StochasticError(Exception):
    pass


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
            raise StochasticError("state count mismatch")
        n = len(self.rates[0])
        for r, L in zip(self.rates, self.migrations):
            if len(r) != n or L.shape != (n, n):
                raise StochasticError("patch count mismatch across states")
            off = L - np.diag(np.diag(L))
            if off.min() < 0.0:
                raise StochasticError("migration matrices must be Metzler")
            if np.abs(L.sum(axis=0)).max() > GENERATOR_ROW_TOL:
                raise StochasticError("migration columns must sum to zero")
        offQ = self.Q - np.diag(np.diag(self.Q))
        if offQ.min() < 0.0:
            raise StochasticError("generator off-diagonals must be nonnegative")
        if np.abs(self.Q.sum(axis=1)).max() > GENERATOR_ROW_TOL:
            raise StochasticError("generator rows must sum to zero")

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
        raise StochasticError(f"malformed environment document: {exc}") from exc


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


class _DwellFlow:
    """Applies x -> e^{A dt} x with the dominant exponent split off, so the
    returned pair (y, log_gain) satisfies e^{A dt} x = e^{log_gain} y with y
    of moderate norm for any dwell length.
    """

    def __init__(self, A: np.ndarray):
        self.A = A
        w, V = np.linalg.eig(A)
        self.shift = float(w.real.max())
        try:
            Vinv = np.linalg.inv(V)
            ok = np.linalg.cond(V) < 1e8
        except np.linalg.LinAlgError:
            ok = False
            Vinv = None
        self.diagonalizable = ok
        if ok:
            self.w = w - self.shift
            self.V, self.Vinv = V, Vinv

    def apply(self, x: np.ndarray, dt: float) -> tuple[np.ndarray, float]:
        if self.diagonalizable:
            y = (self.V @ (np.exp(self.w * dt) * (self.Vinv @ x))).real
            return y, self.shift * dt
        # defective matrix: chunked exponentials with the shift removed
        B = self.A - self.shift * np.eye(self.A.shape[0])
        nrm = max(1.0, float(np.abs(B).sum(axis=0).max()))
        chunks = max(1, math.ceil(dt * nrm / 20.0))
        E = expm(B * (dt / chunks))
        y = x
        gain = self.shift * dt
        for _ in range(chunks):
            y = E @ y
            s = y.sum()
            gain += math.log(s)
            y = y / s
        return y, gain

    # defective-path gain already includes its renormalizations; the caller
    # renormalizes once more at the jump, which is harmless


def _cdf(p: np.ndarray) -> list[float]:
    """The cumulative law ``Generator.choice`` samples ``p`` by: the index
    ``bisect_right(_cdf(p), rng.random())`` is ``rng.choice(len(p), p=p)``,
    drawn from the same uniform."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def simulate_lyapunov(env: MarkovEnvironment, m: float, T: float,
                      horizon: float, seed: int = DEFAULT_SEED,
                      batches: int = DEFAULT_BATCHES) -> LyapunovEstimate:
    """Monte-Carlo estimate of the Lyapunov exponent at time dilation T.

    One trajectory of length ``horizon``; the estimate is the accumulated
    log-growth over the horizon, with a batch-means standard error.  Raises
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
    if env.n_states == 1:
        # no switching: the exponent is exactly the spectral abscissa
        return LyapunovEstimate(lambda_hat=spectral_abscissa(env.matrix(0, m)),
                                stderr=1e-15, horizon=horizon,
                                renormalizations=0, seed=seed)
    mu = stationary_distribution(env)
    rng = np.random.default_rng(seed)
    random, exponential = rng.random, rng.exponential
    applies = [_DwellFlow(env.matrix(s, m)).apply
               for s in range(env.n_states)]
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
    batch_logs = [0.0] * batches
    batch_time = [0.0] * batches
    total_log = 0.0
    bwidth = horizon / batches
    while t < horizon:
        dwell = T * exponential(scales[s])
        dt = min(dwell, horizon - t)
        x, gain = applies[s](x, dt)
        norm = x.sum()
        if not (math.isfinite(norm) and norm > 0.0):
            raise StochasticError("trajectory left the positive cone")
        gain += math.log(norm)
        x /= norm
        k = min(batches - 1, int(t / bwidth))
        batch_logs[k] += gain
        batch_time[k] += dt
        total_log += gain
        t += dt
        if dt == dwell:
            s = bisect_right(jump_cdfs[s], random())
            jumps += 1
    if jumps < MIN_JUMPS:
        raise DegenerateHorizon(
            f"only {jumps} jumps over the horizon; lengthen it or shrink T")
    lambda_hat = total_log / horizon
    batch_logs, batch_time = np.array(batch_logs), np.array(batch_time)
    means = batch_logs / np.where(batch_time > 0, batch_time, 1.0)
    used = batch_time > 0.5 * bwidth
    k = int(used.sum())
    stderr = float(means[used].std(ddof=1) / math.sqrt(k)) if k > 1 else math.inf
    return LyapunovEstimate(lambda_hat=float(lambda_hat), stderr=max(stderr, 1e-300),
                            horizon=horizon, renormalizations=jumps, seed=seed)


def stochastic_limits(env: MarkovEnvironment, m: float) -> dict:
    """Analytic limit values of the switched-system exponent.

    T0:   spectral abscissa of the stationary-averaged matrix (fast switching)
    Tinf: stationary average of per-state spectral abscissas (slow switching)
    chi:  stationary average of the pointwise best rate, an upper bound
    corners: slow/fast-migration values m -> 0 and m -> infinity
    """
    mu = stationary_distribution(env)
    Abar = sum(float(w) * env.matrix(s, m) for s, w in enumerate(mu))
    rbar = sum(float(w) * env.rates[s] for s, w in enumerate(mu))
    Lbar = sum(float(w) * env.migrations[s] for s, w in enumerate(mu))
    tinf = float(sum(w * spectral_abscissa(env.matrix(s, m))
                     for s, w in enumerate(mu)))
    chi = float(sum(w * env.rates[s].max() for s, w in enumerate(mu)))
    corners = {"lambda_0T": float(rbar.max()), "sup": chi}
    if is_irreducible(Lbar):
        corners["lambda_inf0"] = float(kernel_vector(Lbar) @ rbar)
    if all(is_irreducible(L) for L in env.migrations):
        corners["lambda_infT"] = float(sum(
            w * (kernel_vector(env.migrations[s]) @ env.rates[s])
            for s, w in enumerate(mu)))
    return {"T0": spectral_abscissa(Abar), "Tinf": tinf, "chi": chi,
            "corners": corners}
