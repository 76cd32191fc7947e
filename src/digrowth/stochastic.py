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
dwells at a time: the draw loop keeps only each dwell's state and length,
and the dwells' start times, their batches and the batch times follow after
the chunk from a cumulative sum, which adds in the loop's order.  The
chunk's flows are formed in one pass, each as e^l E: for two patches by
the closed form ``spectral.expm2_scaled``, with no Padé step or squaring,
and for more by ``spectral.expm_stack_scaled``, E of unit max entry, so
long dwells and defective matrices need no special path.  Every stack
the chunk hands ``spectral`` is a C-contiguous entry-major array
(n, n, ...): the state matrices are stored that way, and the dwells'
matrices and the batches' runs of flows are gathered from them by
``np.take`` along the stack axis, which keeps that layout.  An
environment's stationary law (the Perron vector of Q^T), jump laws and
exit scales are cached properties, computed at its first call.  The runs
of flows of the chunk's batches, bounded by one ``searchsorted`` and
padded with identities to the longest run, are multiplied in one
``spectral.scaled_product`` call, pairwise and rescaled with their logs
kept apart, and the population vector takes one product per batch, in
Python floats.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .asymptotics import _generator
from .spectral import (expm2_scaled, expm_stack_scaled, is_irreducible,
                       perron_root, perron_vector, scaled_product)

GENERATOR_ROW_TOL = 1e-12
MIN_JUMPS = 100
# batches of equal time behind the batch-means standard error
BATCHES = 20
DEFAULT_SEED = 20260826
# cap on the expected jumps of one simulate_lyapunov call, horizon times the
# largest exit rate over T: 3 to 7 min at 1.6 to 4.1 us per jump (medians
# of eight calls of 1e4 jumps, T from 0.01 to 100, in four runs on a shared
# 2-core host, one BLAS thread), and far below the 2^53 mean dwells past
# which t += dt stops advancing the clock
MAX_EXPECTED_JUMPS = 1e8
# dwells per chunk of simulate_lyapunov: the path is drawn and its flows
# formed a chunk at a time, which bounds a call's working memory whatever
# the horizon.  Peak by tracemalloc, from 1e3 to 2e4 jumps and T from 0.01
# to 100: 0.28-0.34 MB for two patches and 0.73 MB for three
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
        if not all(np.isfinite(a).all()
                   for a in (*self.rates, *self.migrations, self.Q)):
            raise InvalidEnvironment("rates, migrations and Q must be finite")
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

    @cached_property
    def stationary(self) -> np.ndarray:
        """``stationary_distribution`` of the chain, computed once."""
        mu = stationary_distribution(self)
        mu.setflags(write=False)
        return mu

    @cached_property
    def exit_scales(self) -> tuple[float, ...]:
        """Mean holding time 1 / -Q_ss of each state."""
        return tuple((1.0 / -np.diag(self.Q)).tolist())

    @cached_property
    def jump_cdfs(self) -> tuple[tuple[float, ...], ...]:
        """Each state's law of the next state, as the cumulative law
        ``_cdf`` that the jumps are drawn from."""
        laws = []
        for s in range(self.n_states):
            p = self.Q[s].copy()
            p[s] = 0.0
            laws.append(tuple(_cdf(p / p.sum())))
        return tuple(laws)


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
    """Unique stationary law of the chain, the left kernel of Q: the
    unit-sum Perron vector of the irreducible Metzler Q^T."""
    QT = env.Q.T
    if not is_irreducible(QT):
        raise ReducibleChain("generator is not irreducible")
    return perron_vector(QT[:, :, None])[0]


def _cdf(p: np.ndarray) -> list[float]:
    """The cumulative law ``Generator.choice`` samples ``p`` by: the index
    ``bisect_right(_cdf(p), rng.random())`` is ``rng.choice(len(p), p=p)``,
    drawn from the same uniform."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def _carry(mats: np.ndarray, states: list[int], dts: np.ndarray,
           owners: np.ndarray, x: np.ndarray,
           batch_logs: np.ndarray) -> np.ndarray:
    """The unit-sum x at the end of a chunk of dwells, from the unit-sum x
    at its start: dwell i sits in state ``states[i]`` for ``dts[i]`` and
    belongs to batch ``owners[i]`` (nondecreasing).  Each batch's
    log-growth over the chunk is added to ``batch_logs``.

    ``mats`` holds the state matrices entry-major, (n, n, states), and
    every stack below is a C-contiguous entry-major array: ``np.take``
    along the stack axis keeps that layout, where an advanced index on it
    would return the stack matrix-major.  One call gives every
    e^{A_s dt} = e^l E of the chunk: for two patches ``expm2_scaled``, in
    closed form, and for more ``expm_stack_scaled``.  The batches from the
    first owner to the last each take a run of consecutive dwells, found by
    one ``searchsorted``; each run of factors is padded with the identity
    to the longest run, and one ``scaled_product`` call multiplies all
    runs, later factor on the left, into a stack (n, n, runs).  x then
    takes one matvec per batch that starts a dwell, in Python floats.
    """
    n, D = x.size, len(dts)
    with np.errstate(over="ignore"):  # an infinite norm marks the flow
        B = np.take(mats, states, axis=2) * dts
    E, l, broken = (expm2_scaled if n == 2 else expm_stack_scaled)(B)
    if broken.any():
        raise StochasticError("trajectory left the positive cone")
    # batch k's dwells are bounds[k - k0] up to bounds[k - k0 + 1]; a batch
    # that one long dwell spans starts none, and its run is empty
    k0 = int(owners[0])
    bounds = owners.searchsorted(np.arange(k0, owners[-1] + 2))
    starts, ends = bounds[:-1], bounds[1:]
    # factor j of run i sits at starts[i] + j; the identity, at D, past its end
    take = starts + np.arange((ends - starts).max())[:, None]
    take[take >= ends] = D
    E = np.concatenate([E, np.eye(n)[:, :, None]], axis=2)
    P, logs, _ = scaled_product(np.take(E, take, axis=2),
                                np.append(l, 0.0)[take])
    runs = np.flatnonzero(ends > starts)
    gains = []
    x = x.tolist()
    for Pr, lg in zip(np.take(P, runs, axis=2).transpose(2, 0, 1).tolist(),
                      logs[runs].tolist()):
        x = [sum([a * b for a, b in zip(row, x)]) for row in Pr]
        norm = sum(x)
        gain = lg + math.log(norm) if norm > 0.0 else math.nan
        if not math.isfinite(gain):
            raise StochasticError("trajectory left the positive cone")
        gains.append(gain)
        x = [v / norm for v in x]
    batch_logs[k0 + runs] += gains
    return np.array(x)


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
        exact = ((env.stationary @ np.array(env.rates)).max()
                 if m == 0.0 else perron_root(env.matrix(0, m)[:, :, None])[0])
        return LyapunovEstimate(lambda_hat=float(exact), stderr=1e-15,
                                horizon=horizon, renormalizations=0,
                                seed=seed)
    mu = env.stationary
    rng = np.random.default_rng(seed)
    random, exponential = rng.random, rng.exponential
    mats = np.stack([env.matrix(s, m) for s in range(env.n_states)], axis=-1)
    scales, jump_cdfs = env.exit_scales, env.jump_cdfs

    s = bisect_right(_cdf(mu), random())
    x = np.full(n, 1.0 / n)
    t = 0.0
    jumps = 0
    batch_logs = np.zeros(BATCHES)
    batch_time = np.zeros(BATCHES)
    bwidth = horizon / BATCHES
    while t < horizon:
        # the chain's path does not depend on x: draw a chunk of it, then
        # carry x through the chunk's flows at once
        states, dts, t0 = [], [], t
        for _ in range(_CHUNK_DWELLS):
            dt = T * exponential(scales[s])
            states.append(s)
            if dt > horizon - t:
                # the horizon cuts the dwell short, with no jump
                dt = horizon - t
            else:
                s = bisect_right(jump_cdfs[s], random())
                jumps += 1
            dts.append(dt)
            t += dt
            if t >= horizon:
                break
        dts = np.array(dts)
        # each dwell's start, summed in the loop's order as t was
        starts = np.cumsum(np.concatenate(([t0], dts[:-1])))
        owners = np.minimum((starts / bwidth).astype(int), BATCHES - 1)
        # ufunc.at adds one dwell at a time, in order, as a loop would
        np.add.at(batch_time, owners, dts)
        x = _carry(mats, states, dts, owners, x, batch_logs)
    if jumps < MIN_JUMPS:
        raise DegenerateHorizon(
            f"only {jumps} jumps over the horizon; lengthen it or shrink T")
    lambda_hat = batch_logs.sum() / horizon
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

    Raises ValueError, as the limits of a periodic model do, unless m is
    finite and >= 0 and every R_s + m L_s is finite.
    """
    mats = _generator(np.array([np.diag(r) for r in env.rates]),
                      np.array(env.migrations), m)
    mu = env.stationary
    Abar = sum(float(w) * A for w, A in zip(mu, mats))
    rbar = sum(float(w) * env.rates[s] for s, w in enumerate(mu))
    Lbar = sum(float(w) * env.migrations[s] for s, w in enumerate(mu))
    *roots, t0 = perron_root(np.stack([*mats, Abar], axis=-1)).tolist()
    tinf = float(sum(w * r for w, r in zip(mu, roots)))
    chi = float(sum(w * env.rates[s].max() for s, w in enumerate(mu)))
    corners = {"lambda_0T": float(rbar.max()), "sup": chi}
    if is_irreducible(Lbar):
        corners["lambda_inf0"] = float(perron_vector(Lbar[:, :, None])[0]
                                       @ rbar)
    if all(is_irreducible(L) for L in env.migrations):
        p = perron_vector(np.stack(env.migrations, axis=-1))
        corners["lambda_infT"] = float(mu @ (p * env.rates).sum(axis=1))
    return {"T0": t0, "Tinf": tinf, "chi": chi, "corners": corners}
