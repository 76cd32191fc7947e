"""Closed-form limit values of the growth rate Lambda(m, T).

The four one-sided limits and four corner values:

* fast regime      Lambda(m, 0)   = lambda_max(avg R + m avg L)
* slow regime      Lambda(m, inf) = int_0^1 lambda_max(R(tau) + m L(tau)) dtau
* slow migration   Lambda(0, T)   = max_i rbar_i
* fast migration   Lambda(inf, T) = int_0^1 p(tau) . r(tau) dtau,
                                    p(tau) = kernel of L(tau)
* corners          Lambda(0,0) = max_i rbar_i; Lambda(inf,0) = q . rbar with
                   q = kernel of avg L; Lambda(0,inf) = chi;
                   Lambda(inf,inf) = fast-migration value

plus the threshold chi = int_0^1 max_i r_i(tau) dtau, the critical migration
rate m* solving Lambda(m, inf) = 0 when it exists, two-patch closed forms,
and an empirical convexity/monotonicity report for the two limit curves.
All integrals are exact sums over the model's segments.  Each kernel
direction is the Perron vector of a migration matrix, whose Perron root is
0, from ``spectral.perron_vector``: one stacked call over all segments for
p, a stack of one for q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import search
from .model import PatchModel, ValidationStatus
from .spectral import is_irreducible, perron_root, perron_vector

# the m* search widens this bracket 100-fold a step, within M_STAR_LIMITS
M_STAR_BRACKET = (1e-6, 100.0)
M_STAR_LIMITS = (1e-300, 1e300)
M_STAR_MAXITER = 200


class AsymptoticsError(Exception):
    pass


class BracketFailure(AsymptoticsError):
    pass


class ReducibleSegment(AsymptoticsError):
    pass


class WrongDimension(AsymptoticsError):
    pass


def chi(model: PatchModel) -> float:
    """Period average of the pointwise best growth rate max_i r_i(tau)."""
    seg = model.segments
    return float(np.diagonal(seg.R).max(axis=1) @ seg.widths)


def _generator(R: np.ndarray, L: np.ndarray, m: float) -> np.ndarray:
    """R + m L for a finite m >= 0 (m = 0 is the m -> 0+ limit); ValueError
    for any other m, or where an entry overflows."""
    if not 0.0 <= m < np.inf:
        raise ValueError(f"the limits need finite m >= 0, got {m}")
    with np.errstate(over="ignore"):
        A = R + m * L
    if not np.isfinite(A).all():
        raise ValueError(f"R + m L overflows at m = {m}")
    return A


def limit_T0(model: PatchModel, m: float) -> float:
    """Fast regime: Perron root of the period-averaged matrix."""
    seg = model.segments
    A = _generator(seg.R @ seg.widths, seg.L @ seg.widths, m)
    return float(perron_root(A[:, :, None])[0])


def limit_Tinf(model: PatchModel, m: float) -> float:
    """Slow regime: the largest cycle mean of the max-plus product
    (w_K S_K) x ... x (w_1 S_1), where (S_k)_ij is the largest spectral
    abscissa over the classes of A_k = R_k + m L_k on a path from j to i,
    -inf where i is out of j's reach (Akian, Bapat & Gaubert, C. R. Acad.
    Sci. Paris 327, 1998).  The classes are those of L_k's graph
    (``PatchModel.segment_reach``), so m = 0 gives the m -> 0+ limit.
    With every A_k irreducible every entry of S_k is the abscissa of A_k,
    and the value is the period average of the pointwise abscissa, which
    is what such a model gets, summed directly.
    """
    seg = model.segments
    mats = _generator(seg.R, seg.L, m)
    if model.validation is ValidationStatus.IRREDUCIBLE_EVERYWHERE:
        return float(sum(seg.widths * perron_root(mats)))
    P = None
    for k, (w, reach) in enumerate(zip(seg.widths, model.segment_reach)):
        A = mats[:, :, k]
        same = reach & reach.T  # i and j share a class
        alpha = np.array([perron_root(A[np.ix_(c, c)][:, :, None])[0]
                          for c in same])
        # (S_k)_ij = max over the classes c with j -> c -> i of alpha_c
        via = reach[:, :, None] & reach[None, :, :]
        S = w * np.where(via, alpha[None, :, None], -np.inf).max(axis=1)
        P = S if P is None else _maxplus(S, P)
    best, Q = np.diag(P).max(), P
    for k in range(2, model.n + 1):  # every elementary cycle is this short
        Q = _maxplus(Q, P)
        best = max(best, np.diag(Q).max() / k)
    return float(best)


def _maxplus(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Max-plus product: (X x Y)_ij = max_k X_ik + Y_kj."""
    return (X[:, :, None] + Y[None, :, :]).max(axis=1)


def limit_m0(model: PatchModel) -> float:
    """Slow migration: the best patch-average growth rate, any T."""
    return float(model.mean_rates().max())


def limit_minf(model: PatchModel) -> float:
    """Fast migration: instantaneous ideal-free average, any T.

    Needs every migration segment irreducible so its kernel direction p(tau)
    is well defined and positive.
    """
    if not model.segment_reach.all():
        raise ReducibleSegment("fast-migration limit needs irreducible migration")
    seg = model.segments
    p = perron_vector(seg.L)
    return float(seg.widths @ (p * np.diagonal(seg.R)).sum(axis=1))


def corners(model: PatchModel) -> dict[str, float]:
    """The four corner values of the (m, T) diagram."""
    rbar = model.mean_rates()
    Lbar = model.segments.L @ model.segments.widths
    lam_inf0 = (float(perron_vector(Lbar[:, :, None])[0] @ rbar)
                if is_irreducible(Lbar) else float("nan"))
    try:
        lam_infinf = limit_minf(model)
    except ReducibleSegment:
        lam_infinf = float("nan")
    return {
        "lambda_00": float(rbar.max()),
        "lambda_inf0": lam_inf0,
        "lambda_0inf": chi(model),
        "lambda_infinf": lam_infinf,
    }


def m_star(model: PatchModel) -> float | None:
    """Unique root of m -> Lambda(m, inf), or None.

    Lambda(m, inf) tends to chi > 0 as m -> 0 and to the fast-migration
    value < 0 as m -> inf, and m* is c m* for migration L / c, so the
    bracket comes from the model: from M_STAR_BRACKET, hi grows and lo
    shrinks 100-fold until Lambda(hi, inf) <= 0 < Lambda(lo, inf), or
    BracketFailure once an end passes M_STAR_LIMITS.  ``search.illinois_roots``
    then runs until Lambda(m, inf) is exactly 0 or the bracket is a few ulp
    wide.  None covers the precondition failures (some patch is not a sink,
    or chi <= 0) and the no-root case of a nonnegative fast-migration value,
    where growth persists for every m.
    """
    if chi(model) <= 0.0 or limit_m0(model) >= 0.0:
        return None
    if limit_minf(model) >= 0.0:
        return None  # slow-regime curve stays positive for all m
    lo, hi = M_STAR_BRACKET
    while (f_hi := limit_Tinf(model, hi)) > 0.0 and hi <= M_STAR_LIMITS[1]:
        hi *= 100.0
    while (f_lo := limit_Tinf(model, lo)) <= 0.0 and lo >= M_STAR_LIMITS[0]:
        lo /= 100.0
    if f_hi > 0.0 or f_lo <= 0.0:
        raise BracketFailure(f"Lambda(m, inf) keeps one sign on [{lo}, {hi}]")
    (root,), _ = search.illinois_roots(
        lambda _, ms: [limit_Tinf(model, m) for m in ms],
        [lo], [hi], [f_lo], [f_hi], 0.0, M_STAR_MAXITER)
    return float(root)


def _two_patch_D(r1, r2, l21, l12, m):
    return (r1 - r2 + m * (l12 - l21)) ** 2 + 4.0 * m * m * l12 * l21


def two_patch_closed_forms(model: PatchModel, m: float) -> dict[str, float]:
    """Explicit fast/slow-regime values for n = 2 from the quadratic
    characteristic polynomial of R + mL.
    """
    if model.n != 2:
        raise WrongDimension("closed forms require exactly two patches")
    rbar = model.mean_rates()
    Lbar = model.segments.L @ model.segments.widths
    l12b, l21b = Lbar[0, 1], Lbar[1, 0]
    lam_T0 = (0.5 * (rbar[0] + rbar[1]
                     + np.sqrt(_two_patch_D(rbar[0], rbar[1], l21b, l12b, m)))
              - 0.5 * m * (l12b + l21b))

    R, L = model.segments.R, model.segments.L
    integral = sum(model.segments.widths * np.sqrt(
        _two_patch_D(R[0, 0], R[1, 1], L[1, 0], L[0, 1], m)))
    lam_Tinf = (0.5 * (rbar[0] + rbar[1] + integral)
                - 0.5 * m * (l12b + l21b))
    return {"lambda_T0": float(lam_T0), "lambda_Tinf": float(lam_Tinf)}


@dataclass(frozen=True)
class ConvexityReport:
    m_grid: np.ndarray
    decreasing_T0: bool
    decreasing_Tinf: bool
    convex_T0: bool
    convex_Tinf: bool
    degenerate_equal_rates: bool
    worst_increase: float
    worst_concavity: float


def convexity_report(model: PatchModel, m_grid) -> ConvexityReport:
    """Finite-difference check that both limit curves are decreasing and
    convex in m; degenerate when all patch averages coincide (flat curves).
    """
    m_grid = np.asarray(m_grid, dtype=float)
    f0 = np.array([limit_T0(model, m) for m in m_grid])
    finf = np.array([limit_Tinf(model, m) for m in m_grid])
    slack = 1e-8
    d0, dinf = np.diff(f0), np.diff(finf)
    # slopes, then slope differences: handles non-uniform (log-spaced) grids
    h = np.diff(m_grid)
    dd0, ddinf = np.diff(d0 / h), np.diff(dinf / h)
    rbar = model.mean_rates()
    return ConvexityReport(
        m_grid=m_grid,
        decreasing_T0=bool(np.all(d0 <= slack)),
        decreasing_Tinf=bool(np.all(dinf <= slack)),
        convex_T0=bool(np.all(dd0 >= -slack)),
        convex_Tinf=bool(np.all(ddinf >= -slack)),
        degenerate_equal_rates=bool(np.ptp(rbar) < 1e-12),
        worst_increase=float(max(d0.max(), dinf.max(), 0.0)),
        worst_concavity=float(min(dd0.min(), ddinf.min(), 0.0)),
    )


@dataclass(frozen=True)
class LimitPanel:
    chi: float
    lambda_00: float
    lambda_inf0: float
    lambda_infinf: float
    lambda_0T: float
    m_star: float | None
    infimum: float | None
    lambda_m_T0: float | None = None  # Lambda(m, 0) at a requested m
    lambda_m_Tinf: float | None = None


def limit_panel(model: PatchModel, m: float | None = None) -> LimitPanel:
    c = corners(model)
    L = model.segments.L
    constant = (L == L[:, :, :1]).all() and model.segment_reach.all()
    try:
        ms = m_star(model)
    except ReducibleSegment:
        ms = None
    return LimitPanel(
        chi=chi(model),
        lambda_00=c["lambda_00"],
        lambda_inf0=c["lambda_inf0"],
        lambda_infinf=c["lambda_infinf"],
        lambda_0T=limit_m0(model),
        m_star=ms,
        infimum=c["lambda_inf0"] if constant else None,
        lambda_m_T0=None if m is None else limit_T0(model, m),
        lambda_m_Tinf=None if m is None else limit_Tinf(model, m),
    )
