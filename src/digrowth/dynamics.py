"""Finite-(m, T) machinery: monodromy matrices, the growth rate, and the
periodic simplex solution.

The linear system dx/dt = (R(t/T) + m L(t/T)) x is resolved over one period
into the monodromy matrix Phi(T); the growth rate is Lambda = ln(mu)/T with mu
the Perron root of Phi(T).  Phi(T) is the exact ordered product of the
exponentials of the model's merged segments.  All internal products carry a
separate log-scale factor so that nothing overflows even when Lambda*T is in
the thousands.  ``growth_rates`` evaluates Lambda over whole arrays of
(m, T) in stacked passes, for sweeps and scans.  For two patches it takes
each segment exponential, their product and the final Perron root in
closed form, written so that no entry is formed as a difference that
cancels: no Pade step, no squaring and no eigensolver.  For three or more
it exponentiates all segments of all cells of a block in one
``spectral.expm_stack_scaled`` pass and multiplies them in one
``spectral.scaled_product``.  One ``spectral.perron_root`` per block
gives the roots: for three patches the top root of the characteristic
cubic of M - tr(M)/3 I in closed form, polished by one Newton step, with
one ``eigvals`` on the few cells whose root is nearly double; for more
patches one stacked eigensolve.  ``monodromy`` and the scalar
``growth_rate`` run the same scaled product on a batch of one;
``growth_rate`` takes the Perron pair of that product by power iteration.

The simplex reduction theta = x / sum(x) obeys
dtheta/dt = A theta - <A theta, 1> theta and has a unique globally attracting
T-periodic solution theta* anchored at the Perron vector of Phi(T), which
for large T tracks each segment's ``spectral.perron_vector``.  From theta*
come two independent expressions for Lambda: the integral formula
Lambda = int_0^1 sum_i r_i(tau) theta*_i(T tau) dtau, and, for constant
migration, the h-formula Lambda = sum_i p_i rbar_i + m int_0^1 h(theta*) dtau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParameters, PatchModel, ValidationStatus
from .spectral import (expm_stack_scaled, kernel_vector, perron_positive,
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
# the grid size.  Peak working memory by tracemalloc: 0.5 and 0.7 kB per
# cell for two patches over 2 and 3 segments, and for three patches about
# 0.8 kB per cell and segment, since the fused exponential stack holds all
# K segments at once (1.7 and 2.4 kB per cell over 2 and 3 segments)
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
    mu: float            # Perron root of Phi(T); inf if e^{Lambda T} overflows
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


def merged_segments(model: PatchModel, m):
    """(breaks, widths, A) of the model's segments, A_k = R_k + m L_k.

    For a scalar m, A has shape (K, n, n); for a 1-D array of m values it
    has shape (K, len(m), n, n).
    """
    seg = model.segments
    m = np.asarray(m, dtype=float)
    axes = tuple(range(1, 1 + m.ndim))
    A = (np.expand_dims(seg.R, axes)
         + m[..., None, None] * np.expand_dims(seg.L, axes))
    return seg.breaks, seg.widths, A


def _monodromy_scaled(model: PatchModel,
                      params: ModelParameters) -> tuple[np.ndarray, float]:
    """(M, logscale) with Phi(T) = e^logscale M: the scaled product of
    ``growth_rates`` on a batch of one.  It runs over the kernel's segments
    from phase 0, with migration-free runs fused but not rotated, so that M
    is Phi(T) itself and its Perron vector anchors theta*."""
    if model.validation is ValidationStatus.NO_POSITIVE_MONODROMY:
        raise_for_status("non_positive_monodromy")
    widths, mats = _kernel_segments(model, np.array([params.m]), rotate=False)
    logscale, M, broken = _scaled_product(widths, np.array([params.T]), mats)
    if broken[0]:
        raise_for_status("error")
    return M[0], float(logscale[0])


def monodromy(model: PatchModel, params: ModelParameters) -> np.ndarray:
    """Phi(T) over one period.  May overflow for extreme Lambda*T; the growth
    rate itself is always computed from the internally scaled representation.
    """
    M, logscale = _monodromy_scaled(model, params)
    return M * math.exp(logscale) if logscale < 700.0 else M * np.exp(logscale)


def growth_rate(model: PatchModel, params: ModelParameters) -> GrowthResult:
    """Lambda(m, T) = ln(mu)/T from the Perron root mu of Phi(T)."""
    if params.m <= 0.0:
        raise ValueError("growth_rate needs m > 0; use the m->0 limit instead")
    M, logscale = _monodromy_scaled(model, params)
    lam_M, pi = perron_positive(M)
    if lam_M <= 0.0:
        raise_for_status("error")
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


def _expm2_scaled(B: np.ndarray) -> tuple[tuple[np.ndarray, ...], np.ndarray,
                                          np.ndarray]:
    """``expm_stack_scaled`` in closed form for 2x2 Metzler matrices B
    (..., 2, 2): (E, l, broken) with e^B = e^l E, where E is the tuple of
    entry arrays (E00, E01, E10, E11), every entry >= 0, and nothing is
    squared.

    For B = [[a, b], [c, d]] with b, c >= 0, t = (a + d)/2,
    delta = (a - d)/2 and s = sqrt(delta^2 + bc) is real, and
    e^B = e^{t+s} [(1 + e^{-2s})/2 I + f (B - t I)] with
    f = -expm1(-2s)/(2s), f = 1 at s = 0 (Bernstein & So, IEEE Trans.
    Autom. Control 38(8), 1993).  The smaller diagonal entry is
    (bc/(s + |delta|) + (s + |delta|) e^{-2s})/(2s), which keeps its digits
    where the direct difference cancels (bc tiny or 0).  A cell is broken
    where twice its 1-norm is not finite: that bounds 2s, s + |delta| and
    the entries of a product of these factors, so none of them overflows.
    """
    with np.errstate(over="ignore"):  # an infinite norm marks the cell
        nrm = 2.0 * np.abs(B).sum(axis=-2).max(axis=-1)
    broken = ~np.isfinite(nrm)
    B = np.where(broken[..., None, None], 0.0, B)
    a, b, c, d = B[..., 0, 0], B[..., 0, 1], B[..., 1, 0], B[..., 1, 1]
    delta = 0.5 * (a - d)
    g = np.sqrt(b) * np.sqrt(c)  # sqrt(bc), which does not overflow
    s = np.hypot(delta, g)
    distinct = s > 0.0
    s1 = np.where(distinct, s, 1.0)
    minus_2s = -2.0 * s
    decay = np.exp(minus_2s)
    f = np.where(distinct, np.expm1(minus_2s) / (-2.0 * s1), 1.0)
    spread = np.abs(delta)
    u = s1 + spread
    big = 0.5 + 0.5 * decay + f * spread
    small = np.where(distinct, (g * (g / u) + u * decay) / (2.0 * s1), 1.0)
    first = delta >= 0.0
    E = (np.where(first, big, small), f * b, f * c,
         np.where(first, small, big))
    return E, 0.5 * (a + d) + s, broken


def _scaled_product(widths: np.ndarray, T: np.ndarray,
                    mats: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                               np.ndarray]:
    """(logscale, M, broken) per cell: Phi(T) = e^logscale M with M the
    ordered product of the scaled segment exponentials, of unit max entry,
    and ``broken`` marking cells whose scaling broke down.  Two patches
    take one ``_expm2_scaled`` call and multiply in order on the entry
    arrays of all cells, every entry a sum of nonnegative terms (M = 0 where
    broken).  More take one ``expm_stack_scaled`` call on the (K * cells,
    n, n) stack and one ``scaled_product`` (M = I where broken), and entries
    of M above -1e-13 are rounding and are clipped to 0."""
    K, size, n = mats.shape[0], mats.shape[1], mats.shape[-1]
    with np.errstate(over="ignore"):  # an infinite norm marks the cell
        B = (widths[:, None] * T)[:, :, None, None] * mats
    if n == 2:
        (e00, e01, e10, e11), l, bad = _expm2_scaled(B)
        broken = bad.any(axis=0)
        logscale = l.sum(axis=0)
        P = np.array((e00[0], e01[0], e10[0], e11[0]))  # rows p, r, r2, q
        for k in range(K):
            if k:
                p, r, r2, q = P
                P = np.array((e00[k] * p + e01[k] * r2, e00[k] * r + e01[k] * q,
                              e10[k] * p + e11[k] * r2, e10[k] * r + e11[k] * q))
            c = P.max(axis=0)
            # a product that underflowed to 0 is broken; its entries stay 0
            fail = ~(c > 0.0)
            broken |= fail
            c[fail] = np.inf
            P /= c
            logscale += np.log(c)
        # M[:, i, j] is the row 2 i + j of P, read in place
        return logscale, P.T.reshape(size, 2, 2), broken
    E, l, bad = expm_stack_scaled(B.reshape(K * size, n, n))
    M, logscale, fail = scaled_product(E.reshape(K, size, n, n),
                                       l.reshape(K, size))
    broken = bad.reshape(K, size).any(axis=0) | fail
    M[fail] = np.eye(n)
    clip = M.min(axis=(1, 2)) > -1e-13
    M = np.where(clip[:, None, None], np.maximum(M, 0.0), M)
    return logscale, M, broken


def _kernel_segments(model: PatchModel, m: np.ndarray,
                     rotate: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """(widths, A) of ``merged_segments`` with each run of consecutive
    migration-free segments fused into one segment of the run's mean growth.

    Their growth matrices are diagonal, so they commute and
    e^{T w1 R1} e^{T w2 R2} = e^{T (w1 R1 + w2 R2)}.  Apart, a patch that one
    of them favours and the next disfavours underflows to 0 in each rescaled
    factor, and the product with it.  With ``rotate``, a run that ends the
    period joins the one that starts it: that rotates Phi(T) into a similar
    matrix with the same root.  Without it the segments still start at
    phase 0, so the product is Phi(T) itself, and such a run stays split at
    phase 0.  Models with no two such segments adjacent are left as they
    are.
    """
    seg = model.segments
    free = ~seg.L.any(axis=(1, 2))
    inner = free[1:] & free[:-1]  # free segment k + 1 follows a free one
    wraps = bool(rotate and free[0] and free[-1])
    if not (wraps or inner.any()):
        return merged_segments(model, m)[1:]
    joins = np.concatenate(([wraps], inner))
    # some segment migrates: a model without migration has no positive
    # monodromy and never reaches the kernel
    r = 0
    if rotate and free[0]:
        r = (len(free) - np.argmax(~free[::-1])) % len(free)
    widths, R, L, joins = (np.roll(a, -r, axis=0)
                           for a in (seg.widths, seg.R, seg.L, joins))
    starts = np.flatnonzero(~joins)
    W = np.add.reduceat(widths, starts)
    R = np.add.reduceat(widths[:, None, None] * R, starts) / W[:, None, None]
    A = R[:, None] + m[:, None, None] * L[starts][:, None]
    return W, A


def _growth_rates_block(model: PatchModel, m: np.ndarray,
                        T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``growth_rates`` on flat m and T."""
    widths, mats = _kernel_segments(model, m)
    logscale, M, broken = _scaled_product(widths, T, mats)
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
    its root: closed forms on the entry arrays for two patches, so small
    entries keep their relative accuracy, and for more one stacked Pade-13,
    one ``scaled_product`` and, for three, the shifted cubic's root.  A
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
    _, widths, mats = merged_segments(model, params.m)
    X = np.eye(model.n)
    logscale = 0.0
    for w, A in zip(widths, mats):
        TA = params.T * A
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
    breaks, widths, mats = merged_segments(model, params.m)
    with np.errstate(over="ignore"):  # an infinite need fails below
        norms = np.abs(mats).sum(axis=1).max(axis=1)
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
        steps = (widths / counts * params.T)[:, None, None] * mats
    props, _, broken = expm_stack_scaled(steps)
    if broken.any():
        raise IntegrationFailure("matrix exponential scaling broke down")
    return breaks, widths, mats, counts, props


def _theta_star_segments(model: PatchModel, params: ModelParameters):
    """theta* sampled on the per-segment grids, by exact exponential stepping
    from theta(0) = pi with renormalization at every node.

    Returns (segments, defect) where each segment is (taus, thetas, A_k) and
    thetas has one row per grid node including both segment endpoints.
    """
    res = growth_rate(model, params)
    breaks, widths, mats, counts, props = _segment_grid(model, params)
    theta = res.pi.copy()
    segments = []
    for b, w, A, nk, P in zip(breaks, widths, mats, counts, props):
        h = w / nk
        taus = b + h * np.arange(nk + 1)
        thetas = np.empty((nk + 1, model.n))
        thetas[0] = theta
        for j in range(nk):
            theta = P @ theta
            theta /= theta.sum()
            thetas[j + 1] = theta
        segments.append((taus, thetas, A))
    defect = float(np.abs(theta - res.pi).max())
    return segments, defect


def periodic_simplex_solution(model: PatchModel,
                              params: ModelParameters) -> SimplexTrajectory:
    """The T-periodic solution theta* on [0, T], anchored at the Perron vector."""
    segments, defect = _theta_star_segments(model, params)
    if defect > DEFECT_TOL:
        raise PeriodicityDefectExceeded(f"periodic defect {defect:.3e}")
    times = np.concatenate([taus[:-1] for taus, _, _ in segments]
                           + [np.array([1.0])]) * params.T
    last = segments[-1][1][-1]
    states = np.vstack([th[:-1] for _, th, _ in segments] + [last[None, :]])
    return SimplexTrajectory(times=times, states=states, periodic_defect=defect)


def propagate_simplex(model: PatchModel, params: ModelParameters,
                      thetas: np.ndarray, periods: int = 1) -> np.ndarray:
    """Advance simplex states (rows of ``thetas``) by whole periods.

    Used to exhibit global asymptotic stability of theta*: arbitrary starts
    contract onto the periodic solution.
    """
    *_, counts, props = _segment_grid(model, params)
    X = np.asarray(thetas, dtype=float).T.copy()  # (n, batch)
    for _ in range(periods):
        for P, nk in zip(props, counts):
            for _ in range(nk):
                X = P @ X
                X /= X.sum(axis=0)
    return X.T


def _simpson_weights(nk: int, h: float) -> np.ndarray:
    w = np.ones(nk + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def growth_rate_integral(model: PatchModel, params: ModelParameters) -> float:
    """Lambda via the integral of r(tau) . theta*(T tau) over one period."""
    segments, _ = _theta_star_segments(model, params)
    total = 0.0
    for (taus, thetas, _A), R in zip(segments, model.segments.R):
        nk = len(taus) - 1
        h = taus[1] - taus[0]
        g = (np.diag(R) * thetas).sum(axis=1)
        total += _simpson_weights(nk, h) @ g
    return float(total)


def growth_rate_h_formula(model: PatchModel, params: ModelParameters) -> float:
    """Constant-migration decomposition Lambda = sum_i p_i rbar_i + m int h(theta*).

    h(x) = sum_i (L x)_i p_i / x_i is nonnegative on the open positive cone,
    which is rechecked pointwise along theta*.
    """
    if not model.migration.is_constant():
        raise NonConstantMigration("h-formula requires time-independent migration")
    L = model.migration.value(0.0)
    p = kernel_vector(L)
    rbar = model.mean_rates()
    base = float(p @ rbar)
    segments, _ = _theta_star_segments(model, params)
    integral = 0.0
    for taus, thetas, _A in segments:
        nk = len(taus) - 1
        h_step = taus[1] - taus[0]
        hvals = ((thetas @ L.T) * (p / thetas)).sum(axis=1)
        if hvals.min() < -1e-10:
            raise IntegrationFailure(
                f"h(theta*) dipped to {hvals.min():.3e}; theta* inaccurate")
        integral += _simpson_weights(nk, h_step) @ hvals
    return base + params.m * float(integral)


def verify_slow_curve(model: PatchModel,
                      params: ModelParameters) -> SlowCurveReport:
    """Sup-norm gap between theta*(T tau) and the per-tau dominant eigenvector
    v(tau) of A(tau), excluding a layer of width SLOW_CURVE_LAYER after each
    breakpoint.  For large T the gap outside layers decays to zero.
    """
    if model.validation is not ValidationStatus.IRREDUCIBLE_EVERYWHERE:
        raise DynamicsError("slow-curve comparison needs an everywhere-"
                            "irreducible model")
    segments, _ = _theta_star_segments(model, params)
    jumps = [taus[0] for taus, _, _ in segments]
    vectors = perron_vector(np.array([A for _, _, A in segments]))
    sup = 0.0
    compared = 0
    for (taus, thetas, _), v in zip(segments, vectors):
        mask = np.ones(len(taus), dtype=bool)
        for b in jumps + [1.0]:
            mask &= ~((taus >= b - 1e-12) & (taus < b + SLOW_CURVE_LAYER))
        if not mask.any():
            continue
        dev = np.abs(thetas[mask] - v[None, :]).max()
        sup = max(sup, float(dev))
        compared += int(mask.sum())
    return SlowCurveReport(sup_deviation=sup, T=params.T,
                           layer_width=SLOW_CURVE_LAYER,
                           n_compared=compared)
