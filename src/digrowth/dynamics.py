"""Finite-(m, T) machinery: monodromy matrices, the growth rate, and the
periodic simplex solution.

The linear system dx/dt = (R(t/T) + m L(t/T)) x is resolved over one period
into the monodromy matrix Phi(T); the growth rate is Lambda = ln(mu)/T with mu
the Perron root of Phi(T).  Phi(T) is the exact ordered product of the
exponentials of the model's merged segments.  All internal products carry a
separate log-scale factor so that nothing overflows even when Lambda*T is in
the thousands.  ``growth_rates`` evaluates Lambda over whole arrays of
(m, T) in stacked passes, for sweeps and scans.  It multiplies the model's
``kernel_segments``, built once per model, with migration-free runs fused.
Each block forms B = w_k T (R_k + m L_k) for all K segments and all cells
at once, entry-major as ``spectral`` takes its stacks, (n, n, K, cells),
and keeps that layout through the exponential, the product and the root,
with no transpose.  It exponentiates all segments of all cells of a block
in one call: for two patches the closed form ``spectral.expm2_scaled``,
written so that no entry is formed as a difference that cancels, with no
Pade step and no squaring; for three or more one
``spectral.expm_stack_scaled`` pass.  One ``spectral.scaled_product``
multiplies them, one einsum per level of pairwise products, for every
patch count.  One ``spectral.perron_root`` per block gives the roots: in
closed form for two patches; for three the top root of the characteristic
cubic of M - tr(M)/3 I in closed form, polished by one Newton step, with
one ``eigvals`` on the few cells whose root is nearly double; for more
patches one stacked eigensolve.  ``monodromy`` and the scalar
``growth_rate`` run the same scaled product on a batch of one, and
``growth_rate`` takes the Perron pair of that product by power iteration.
Where a migration-free run wraps the period end, ``kernel_segments`` start
at its first break phi > 0 and the product is Phi(T) from phase phi,
D^-1 Phi(T) D with D the diagonal growth over [phi, 1): the same root, and
D turns its Perron vector and entries back into those of Phi(T).

The simplex reduction theta = x / sum(x) obeys
dtheta/dt = A theta - <A theta, 1> theta and has a unique globally attracting
T-periodic solution theta* anchored at the Perron vector of Phi(T), which
for large T tracks each segment's ``spectral.perron_vector``.  theta* is
walked once, by exact sub-step exponentials, into one node table (tau,
state, segment, Simpson weight); the slow-curve check and two independent
expressions for Lambda reduce it: the integral formula
Lambda = int_0^1 sum_i r_i(tau) theta*_i(T tau) dtau, and, for constant
migration, the h-formula Lambda = sum_i p_i rbar_i + m int_0^1 h(theta*) dtau.
``propagate_simplex`` multiplies by whole segment exponentials instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParameters, PatchModel, Segments, ValidationStatus
from .spectral import (expm2_scaled, expm_stack_scaled, perron_positive,
                       perron_root, perron_vector, scaled_product)

# RK4 steps and theta* grid nodes per unit of tau; the oracle's periods; the
# tau width of the layer after each breakpoint that verify_slow_curve skips
RK4_MIN_STEPS = 2_000
ORACLE_PERIODS = 2_000
SLOW_CURVE_LAYER = 0.05
DEFECT_TOL = 1e-8
# target on ||h * T * A|| per exponential sub-step, keeps factors representable
_STEP_BUDGET = 10.0
_MAX_NODES = 400_000
# cells per stacked pass of growth_rates, which bounds its memory whatever
# the grid size.  Peak working memory by tracemalloc: 0.45 and 0.67 kB per
# cell for two patches over 2 and 3 segments, and for three patches about
# 0.66 kB per cell and segment, since the fused exponential stack holds all
# K segments at once (1.3 and 2.0 kB per cell over 2 and 3 segments)
_BLOCK_CELLS = 1024


class DynamicsError(Exception):
    pass


class NonPositiveMonodromy(DynamicsError):
    """Phi(T) has structural zeros, so no common growth exponent exists."""


class IntegrationFailure(DynamicsError):
    pass


class PeriodicityDefectExceeded(DynamicsError):
    pass


class NonConstantMigration(DynamicsError):
    pass


@dataclass(frozen=True)
class GrowthResult:
    lam: float           # growth rate Lambda(m, T)
    mu: float            # Perron root of Phi(T); inf if e^{Lambda T}
                         # overflows, 0 if it underflows
    pi: np.ndarray       # Perron vector, unit sum


@dataclass(frozen=True)
class SimplexTrajectory:
    times: np.ndarray    # grid on [0, T]
    states: np.ndarray   # (len(times), n), rows on the simplex
    periodic_defect: float


@dataclass(frozen=True)
class SlowCurveReport:
    sup_deviation: float
    T: float
    layer_width: float
    n_compared: int


def _monodromy_scaled(model: PatchModel, params: ModelParameters):
    """(M, logscale, d) with Phi(T) = e^logscale D M D^-1, D = diag(e^d):
    the scaled product of ``growth_rates`` on a batch of one, over the
    model's ``kernel_segments`` from their first break phi.  Where phi > 0
    every merged segment from phi to 1 is migration-free, so Phi over that
    stretch is D, with d = T sum_k w_k r_k over it.  Where phi = 0, d is
    None and e^logscale M is Phi(T) itself.  Raises ValueError unless m and
    T are finite, as ``growth_rates`` does."""
    if not (math.isfinite(params.m) and math.isfinite(params.T)):
        raise ValueError("the monodromy needs finite m and T")
    if model.validation is ValidationStatus.NO_POSITIVE_MONODROMY:
        raise_for_status("non_positive_monodromy")
    seg = model.kernel_segments
    logscale, M, broken = _scaled_product(seg, np.array([params.m]),
                                          np.array([params.T]))
    if broken[0]:
        raise_for_status("error")
    d = None
    if seg.breaks[0] > 0.0:
        full = model.segments
        tail = full.breaks >= seg.breaks[0]
        d = params.T * (full.widths[tail] @ np.diagonal(full.R[:, :, tail]))
    return M[:, :, 0], float(logscale[0]), d


def monodromy(model: PatchModel, params: ModelParameters) -> np.ndarray:
    """Phi(T) over one period.  May overflow for extreme Lambda*T; the growth
    rate itself is always computed from the internally scaled representation.
    """
    M, logscale, d = _monodromy_scaled(model, params)
    if d is not None:
        M = M * np.exp(d[:, None] - d[None, :])
    return M * math.exp(logscale) if logscale < 700.0 else M * np.exp(logscale)


def growth_rate(model: PatchModel, params: ModelParameters) -> GrowthResult:
    """Lambda(m, T) = ln(mu)/T from the Perron root mu of Phi(T)."""
    if params.m <= 0.0:
        raise ValueError("growth_rate needs m > 0; use the m->0 limit instead")
    M, logscale, d = _monodromy_scaled(model, params)
    lam_M, pi = perron_positive(M)
    if lam_M <= 0.0:
        raise_for_status("error")
    if d is not None:  # pi is the Perron vector of D^-1 Phi(T) D
        with np.errstate(divide="ignore"):
            log_pi = d + np.log(pi)
        pi = np.exp(log_pi - log_pi.max())
        pi /= pi.sum()
    log_mu = logscale + math.log(lam_M)
    value = log_mu / params.T
    mu = math.exp(log_mu) if log_mu < 709.0 else math.inf
    return GrowthResult(lam=value, mu=mu, pi=pi)


# ---------------------------------------------------------------------------
# Batched growth rate over (m, T) stacks
# ---------------------------------------------------------------------------

# cell statuses of growth_rates, and the error growth_rate raises for each
_STATUS_ERRORS = {
    "non_positive_monodromy": (NonPositiveMonodromy,
                               "the model's monodromy matrix is not "
                               "entrywise positive"),
    "error": (IntegrationFailure, "scaled monodromy product broke down"),
}


def _scaled_product(seg: Segments, m: np.ndarray,
                    T: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                            np.ndarray]:
    """(logscale, M, broken) per cell of flat m and T: Phi(T) = e^logscale M
    with M (n, n, cells) the entry-major ordered product of the scaled
    exponentials of B_k = w_k T (R_k + m L_k) over the kernel segments,
    and ``broken`` marking cells whose scaling broke down.
    B is formed entry-major, (n, n, K, cells), and stays so through the
    exponential, the product and the root.  One call exponentiates the
    (n, n, K * cells) stack, ``expm2_scaled`` for two patches and
    ``expm_stack_scaled`` for more, and one ``scaled_product`` multiplies
    each cell's K factors.  M = I where broken, and entries of M above
    -1e-13 are rounding and are clipped to 0."""
    n, K, size = seg.R.shape[0], len(seg.widths), len(T)
    with np.errstate(over="ignore"):  # an infinite norm marks the cell
        B = (seg.widths[:, None] * T) * (seg.R[..., None]
                                          + seg.L[..., None] * m)
    expm = expm2_scaled if n == 2 else expm_stack_scaled
    E, l, bad = expm(B.reshape(n, n, K * size))
    M, logscale, fail = scaled_product(E.reshape(n, n, K, size),
                                       l.reshape(K, size))
    broken = bad.reshape(K, size).any(axis=0) | fail
    M[:, :, fail] = np.eye(n)[:, :, None]
    clip = M.min(axis=(0, 1)) > -1e-13
    M = np.where(clip, np.maximum(M, 0.0), M)
    return logscale, M, broken


def _growth_rates_block(model: PatchModel, m: np.ndarray,
                        T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``growth_rates`` on flat m and T."""
    logscale, M, broken = _scaled_product(model.kernel_segments, m, T)
    root = perron_root(M)
    # the model's monodromy is positive, so a root <= 0 has underflowed
    broken |= root <= 0.0
    status = np.full(len(m), "ok", dtype=object)
    status[broken] = "error"
    good = status == "ok"
    lam = np.full(len(m), np.nan)
    lam[good] = (logscale[good] + np.log(root[good])) / T[good]
    return lam, status


def growth_rates(model: PatchModel, m, T) -> tuple[np.ndarray, np.ndarray]:
    """Lambda(m, T) over the broadcast of the arrays m and T, with a status
    per cell.

    A status is "ok", "non_positive_monodromy" (every cell of a
    NoPositiveMonodromy model), or "error" where the scaled product breaks
    down or its root underflows to 0; Lambda is NaN where not "ok".  Cells
    go in blocks of _BLOCK_CELLS.  Per block the segment matrices
    A_k = R_k + m L_k of all cells are formed at once, one
    ``_scaled_product`` forms every cell's Phi(T) and one ``perron_root``
    its root: for two patches the closed-form exponential and root, so
    small entries keep their relative accuracy, for more one stacked
    Pade-13 and, for three, the shifted cubic's root; one
    ``scaled_product`` for every patch count.  A
    cell's value does not depend on the other cells of the batch.  Any
    other exception propagates.
    """
    m, T = np.broadcast_arrays(np.asarray(m, dtype=float),
                               np.asarray(T, dtype=float))
    if not np.all((m > 0.0) & np.isfinite(m)):
        raise ValueError("growth_rates needs finite m > 0; use the m->0 "
                         "limit instead")
    if not np.all((T > 0.0) & np.isfinite(T)):
        raise ValueError("growth_rates needs finite T > 0")
    shape = m.shape
    if model.validation is ValidationStatus.NO_POSITIVE_MONODROMY:
        return (np.full(shape, np.nan),
                np.full(shape, "non_positive_monodromy", dtype=object))
    m, T = m.ravel(), T.ravel()
    blocks = [_growth_rates_block(model, m[s:s + _BLOCK_CELLS],
                                  T[s:s + _BLOCK_CELLS])
              for s in range(0, max(m.size, 1), _BLOCK_CELLS)]
    lam = np.concatenate([b[0] for b in blocks]).reshape(shape)
    status = np.concatenate([b[1] for b in blocks]).reshape(shape)
    return lam, status


def raise_for_status(status) -> None:
    """Raise, for the first failed cell of a ``growth_rates`` status array,
    the error ``growth_rate`` raises there."""
    status = np.asarray(status).ravel()
    failed = status[status != "ok"]
    if failed.size:
        error, message = _STATUS_ERRORS[failed[0]]
        raise error(message)


def growth_rate_oracle(model: PatchModel, params: ModelParameters) -> float:
    """Independent estimate of Lambda: the fundamental matrix X over one
    period by classical RK4 on dX/dtau = T A_k X, max(1, ceil(RK4_MIN_STEPS
    * w_k)) steps per segment, renormalized as it goes (no matrix
    exponentials, no eigensolves), then propagation of a positive vector
    over ORACLE_PERIODS periods with per-period renormalization and log
    accumulation.
    """
    seg = model.segments
    mats = seg.R + params.m * seg.L
    X = np.eye(model.n)
    logscale = 0.0
    for k, w in enumerate(seg.widths):
        TA = params.T * mats[:, :, k]
        nsteps = max(1, math.ceil(RK4_MIN_STEPS * w))
        h = w / nsteps
        for _ in range(nsteps):
            k1 = TA @ X
            k2 = TA @ (X + 0.5 * h * k1)
            k3 = TA @ (X + 0.5 * h * k2)
            k4 = TA @ (X + h * k3)
            X = X + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            c = np.abs(X).max()
            if not np.isfinite(c) or c <= 0.0:
                raise IntegrationFailure("fundamental-matrix integration diverged")
            if c > 1e100 or c < 1e-100:
                X /= c
                logscale += math.log(c)
    x = np.full(model.n, 1.0 / model.n)
    total = 0.0
    for _ in range(ORACLE_PERIODS):
        x = X @ x
        s = x.sum()
        if not np.isfinite(s) or s <= 0.0:
            raise IntegrationFailure("oracle propagation left the positive cone")
        total += math.log(s)
        x /= s
    return (total / ORACLE_PERIODS + logscale) / params.T


# ---------------------------------------------------------------------------
# Periodic simplex solution theta*
# ---------------------------------------------------------------------------

def _segment_grid(model: PatchModel, params: ModelParameters):
    """Per-segment uniform tau grids with an even number of sub-intervals,
    dense enough that each exponential step has modest norm, and each
    segment's sub-step propagator e^{h T A_k} up to a positive factor, all
    from one ``expm_stack_scaled`` call.
    """
    seg = model.segments
    widths = seg.widths
    with np.errstate(over="ignore"):  # an infinite need fails below
        mats = seg.R + params.m * seg.L
        norms = np.abs(mats).sum(axis=0).max(axis=0)
        need = np.maximum(np.maximum(
            RK4_MIN_STEPS * widths,
            widths * params.T * norms / (_STEP_BUDGET / 4.0)), 8.0)
    if not np.isfinite(need).all():
        raise IntegrationFailure("sub-step grid needs unboundedly many nodes")
    counts = [nk + nk % 2 for nk in map(math.ceil, need)]
    total = sum(counts)
    if total > _MAX_NODES:
        shrink = _MAX_NODES / total
        counts = [max(8, int(c * shrink) + int(c * shrink) % 2) for c in counts]
    with np.errstate(over="ignore"):  # an infinite norm marks the step
        steps = (widths / counts * params.T) * mats
    props, _, broken = expm_stack_scaled(steps)
    if broken.any():
        raise IntegrationFailure("matrix exponential scaling broke down")
    return seg.breaks, widths, counts, props.transpose(2, 0, 1)


def _theta_star(model: PatchModel, params: ModelParameters,
                pi: np.ndarray | None = None):
    """(tau, theta, seg, weight, defect): theta* on the per-segment grids
    by exact exponential stepping from theta(0) = pi, the Perron vector of
    Phi(T) (``growth_rate``'s where None is given), renormalized at every
    node, with each node's tau, state (a row of theta), segment index and
    composite-Simpson weight within that segment.  Each segment keeps both
    end nodes.  ``defect`` is the sup gap between theta(1) and pi."""
    pi = growth_rate(model, params).pi if pi is None else pi
    breaks, widths, counts, props = _segment_grid(model, params)
    x = pi.copy()
    rows = []
    for P, nk in zip(props, counts):
        rows.append(x)
        for _ in range(nk):
            x = P @ x
            x /= x.sum()
            rows.append(x)
    seg = np.repeat(np.arange(len(counts)), np.add(counts, 1))
    nk = np.asarray(counts)[seg]
    j = np.concatenate([np.arange(c + 1) for c in counts])  # index in segment
    h = widths[seg] / nk
    weight = np.where(j % 2 == 1, 4.0, 2.0)
    weight[(j == 0) | (j == nk)] = 1.0
    weight *= h / 3.0
    defect = float(np.abs(x - pi).max())
    return breaks[seg] + h * j, np.array(rows), seg, weight, defect


def periodic_simplex_solution(model: PatchModel,
                              params: ModelParameters) -> SimplexTrajectory:
    """The T-periodic solution theta* on [0, T], anchored at the Perron vector."""
    tau, theta, seg, _, defect = _theta_star(model, params)
    if defect > DEFECT_TOL:
        raise PeriodicityDefectExceeded(f"periodic defect {defect:.3e}")
    inner = seg[1:] == seg[:-1]  # drops each segment's end node but the last
    times = np.append(tau[:-1][inner], 1.0) * params.T
    states = np.vstack([theta[:-1][inner], theta[-1:]])
    return SimplexTrajectory(times=times, states=states, periodic_defect=defect)


def propagate_simplex(model: PatchModel, params: ModelParameters,
                      thetas: np.ndarray, periods: int = 1) -> np.ndarray:
    """Advance simplex states (rows of ``thetas``) by whole periods, one
    exact segment exponential e^{w_k T A_k} at a time, renormalized.

    Used to exhibit global asymptotic stability of theta*: arbitrary starts
    contract onto the periodic solution.
    """
    seg = model.segments
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite: broken
        B = (seg.widths * params.T) * (seg.R + params.m * seg.L)
    E, _, broken = expm_stack_scaled(B)
    if broken.any():
        raise IntegrationFailure("matrix exponential scaling broke down")
    X = np.asarray(thetas, dtype=float).T.copy()  # (n, batch)
    for _ in range(periods):
        for P in E.transpose(2, 0, 1):
            X = P @ X
            total = X.sum(axis=0)
            if not (total > 0.0).all():
                raise IntegrationFailure("propagation left the positive cone")
            X /= total
    return X.T


def growth_rate_integral(model: PatchModel, params: ModelParameters) -> float:
    """Lambda via the integral of r(tau) . theta*(T tau) over one period."""
    return _integral(model, _theta_star(model, params))


def _integral(model: PatchModel, table) -> float:
    """``growth_rate_integral`` over a ``_theta_star`` table."""
    _, theta, seg, weight, _ = table
    r = np.diagonal(model.segments.R)[seg]
    return float(weight @ (r * theta).sum(axis=1))


def growth_rate_h_formula(model: PatchModel, params: ModelParameters) -> float:
    """Constant-migration decomposition Lambda = sum_i p_i rbar_i + m int h(theta*).

    p is the kernel direction of L: its Perron vector, whose root is 0.

    h(x) = sum_i (L x)_i p_i / x_i is nonnegative on the open positive cone,
    which is rechecked pointwise along theta*.
    """
    return _h_formula(model, params)


def _h_formula(model: PatchModel, params: ModelParameters,
               table=None) -> float:
    """``growth_rate_h_formula`` over a ``_theta_star`` table, walked here,
    after the migration is found constant, where none is given."""
    L = model.segments.L
    if not (L == L[:, :, :1]).all():
        raise NonConstantMigration("h-formula requires time-independent migration")
    p = perron_vector(L[:, :, :1])[0]
    L = L[:, :, 0]
    base = float(p @ model.mean_rates())
    _, theta, _, weight, _ = table or _theta_star(model, params)
    hvals = ((theta @ L.T) * (p / theta)).sum(axis=1)
    if hvals.min() < -1e-10:
        raise IntegrationFailure(
            f"h(theta*) dipped to {hvals.min():.3e}; theta* inaccurate")
    return base + params.m * float(weight @ hvals)


def verify_slow_curve(model: PatchModel,
                      params: ModelParameters) -> SlowCurveReport:
    """Sup-norm gap between theta*(T tau) and the per-tau dominant eigenvector
    v(tau) of A(tau), excluding a layer of width SLOW_CURVE_LAYER after each
    breakpoint.  For large T the gap outside layers decays to zero.
    """
    if model.validation is not ValidationStatus.IRREDUCIBLE_EVERYWHERE:
        raise DynamicsError("slow-curve comparison needs an everywhere-"
                            "irreducible model")
    tau, theta, seg, _, _ = _theta_star(model, params)
    segs = model.segments
    v = perron_vector(segs.R + params.m * segs.L)[seg]
    edges = np.append(segs.breaks, 1.0)
    layer = ((tau[:, None] >= edges - 1e-12)
             & (tau[:, None] < edges + SLOW_CURVE_LAYER)).any(axis=1)
    sup = np.abs(theta[~layer] - v[~layer]).max(initial=0.0)
    return SlowCurveReport(sup_deviation=float(sup), T=params.T,
                           layer_width=SLOW_CURVE_LAYER,
                           n_compared=int((~layer).sum()))
