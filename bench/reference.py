"""Independent evaluations that the benchmark checks the program against.

Nothing here calls ``digrowth.dynamics``, ``digrowth.asymptotics`` or
``digrowth.stochastic``: the growth rate is rebuilt from the model's segment
matrices as a log-scaled ordered product of ``scipy.linalg.expm`` factors,
finished with ``numpy.linalg.eigvals``.  The module reads model schedules
through ``PeriodicMatrixFunction.value`` only.

``self_test`` pins the reference itself to closed forms from the paper, so a
disagreement between the program and the reference points at the program.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

# largest 1-norm of one exponential factor before it is split by halving; at
# norm 1 each factor has entries of order e, so no factor and no product of
# two renormalised factors can overflow
FACTOR_NORM = 1.0


def segments(model, m: float) -> list[tuple[float, np.ndarray]]:
    """(width, R_k + m L_k) on the common refinement of both schedules."""
    g, mig = model.growth, model.migration
    starts = sorted(set(g.breaks) | set(mig.breaks))
    ends = starts[1:] + [1.0]
    return [(b - a, g.value(a) + m * mig.value(a)) for a, b in zip(starts, ends)]


def _scaled_exp(A: np.ndarray) -> tuple[np.ndarray, float]:
    """(E, l) with e^A = e^l E: e^(A / 2^j) squared j times, renormalised to a
    unit max entry after every squaring."""
    nrm = float(np.abs(A).sum(axis=0).max())
    j = math.ceil(math.log2(nrm / FACTOR_NORM)) if nrm > FACTOR_NORM else 0
    E = scipy.linalg.expm(A / 2.0 ** j)
    log = 0.0
    for _ in range(j):
        c = float(np.abs(E).max())
        E = E / c
        log = 2.0 * (log + math.log(c))
        E = E @ E
    c = float(np.abs(E).max())
    return E / c, log + math.log(c)


def growth_rate(model, m: float, T: float) -> float:
    """Lambda(m, T) = ln(rho(Phi(T))) / T, Phi carried as (P, log-scale)."""
    P = np.eye(model.n)
    log = 0.0
    for w, A in segments(model, m):
        E, l = _scaled_exp(w * T * A)
        P = E @ P
        c = float(np.abs(P).max())
        P /= c
        log += l + math.log(c)
    rho = float(np.linalg.eigvals(P).real.max())
    return (log + math.log(rho)) / T


def chi(model) -> float:
    """Period average of the best patch rate, the sharp upper bound on Lambda."""
    g = model.growth
    ends = list(g.breaks[1:]) + [1.0]
    return float(sum((b - a) * np.diag(g.value(a)).max()
                     for a, b in zip(g.breaks, ends)))


def abscissa(A: np.ndarray) -> float:
    return float(np.linalg.eigvals(np.asarray(A, dtype=float)).real.max())


def slow_limit(model, m: float) -> float:
    """Lambda(m, inf): period average of the pointwise spectral abscissa."""
    return float(sum(w * abscissa(A) for w, A in segments(model, m)))


def stationary_law(Q: np.ndarray) -> np.ndarray:
    """pi with pi Q = 0 and unit sum, by least squares on the stacked system."""
    Q = np.asarray(Q, dtype=float)
    n = Q.shape[0]
    lhs = np.vstack([Q.T, np.ones((1, n))])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    pi, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    return pi


def switched_fast_limit(env, m: float) -> float:
    """Abscissa of the stationary-averaged matrix of a Markov environment."""
    pi = stationary_law(env.Q)
    return abscissa(sum(p * (np.diag(r) + m * L)
                        for p, r, L in zip(pi, env.rates, env.migrations)))


def switched_chi(env) -> float:
    pi = stationary_law(env.Q)
    return float(sum(p * r.max() for p, r in zip(pi, env.rates)))


def agrees(value: float, ref: float) -> bool:
    """Program and reference agree: both are exact up to rounding, so 1e-9
    relative (absolute below 1) leaves room for ln(mu)/T cancellation at the
    smallest periods the workloads use and nothing else."""
    return abs(value - ref) <= 1e-9 * max(1.0, abs(ref))


def self_test(model_mod) -> list[str]:
    """Check the reference against closed forms; returns failure messages."""
    failures = []
    ab1 = model_mod.builtin("ab1")
    for m in (0.1, 0.5, 1.0, 2.0, 5.0):
        fast = -3 / 8 - 1.5 * m + math.sqrt(1 + 8 * m + 144 * m * m) / 8
        slow = (-3 / 8 - 1.5 * m + math.sqrt(4 + 4 * m + 9 * m * m) / 4
                + math.sqrt(9 - 12 * m + 36 * m * m) / 8)
        got = growth_rate(ab1, m, 1e-4)
        if abs(got - fast) > 1e-7:
            failures.append(f"ab1 fast limit at m={m}: {got} vs {fast}")
        got = growth_rate(ab1, m, 1e8)
        if abs(got - slow) > 1e-6:
            failures.append(f"ab1 slow limit at m={m}: {got} vs {slow}")
        if abs(slow_limit(ab1, m) - slow) > 1e-12:
            failures.append(f"ab1 slow-limit formula at m={m}")
    mu = math.exp(2.0 * growth_rate(model_mod.builtin("fainshil(0,0)"), 1.0, 2.0))
    if abs(mu - 1.669) > 1e-3:
        failures.append(f"fainshil(0,0) Perron root at T=2: {mu} vs 1.669")
    return failures
