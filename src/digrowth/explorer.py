"""Parameter-plane exploration: (m, T) sweeps, critical-curve tracing, and
dispersal-induced-growth classification.

A sweep evaluates Lambda on a (log-spaced) rectangular grid in one batched
``growth_rates`` call, recording a status instead of failing where the
monodromy matrix is not positive.  Critical curves (the zero set of Lambda)
are traced by marching squares on the sweep grid followed by an Illinois
root search along each crossing edge, all edges in lockstep, so every
emitted vertex satisfies |Lambda| <= tol.  Critical periods and growth-band
edges are roots found the same way, and the maximum of Lambda over T is a
parabolic search from the argmax of a T-scan, all rows in lockstep; every
Lambda value comes from the batched ``growth_rates``.  The DIG verdict
combines the exact threshold chi with the slow-regime root m*; for models
with a reducible migration segment the verdict is empirical, summarizing
the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import asymptotics, search
from .dynamics import growth_rates, raise_for_status
from .model import PatchModel, ValidationStatus

DEFAULT_M_RANGE = (1e-2, 1e2)
DEFAULT_T_RANGE = (1e-2, 1e3)
DEFAULT_RESOLUTION = 128
CURVE_TOL = 1e-8
# cap on the steps of every lockstep root and maximum search
BISECT_CAP = 60
# points of the log-spaced T scans behind max_lambda_over_T and growth_band,
# and behind critical_period
T_SCAN_SAMPLES = 400
PERIOD_SCAN_SAMPLES = 200
# growth_band's edges are roots of max_T Lambda(m, T) to BAND_TOL
BAND_TOL = 5e-4
# sweep resolution behind the empirical verdict of classify_dig
CLASSIFY_RESOLUTION = 64
# a T-maximum search stops once its step in log T is shorter than this
POLISH_WIDTH = 1e-6


class ExplorerError(Exception):
    pass


class NoZeroCrossing(ExplorerError):
    pass


@dataclass(frozen=True)
class SweepGrid:
    m_values: np.ndarray
    T_values: np.ndarray
    lam: np.ndarray      # shape (len(m_values), len(T_values))
    status: np.ndarray   # same shape, strings: ok|non_positive_monodromy|error
    chi: float

    def ok(self) -> np.ndarray:
        return self.status == "ok"


@dataclass(frozen=True)
class CriticalCurve:
    branches: list[np.ndarray]   # each (k, 2) array of (m, T), ordered by m
    residuals: list[np.ndarray]  # Lambda at each vertex, ordered as branches
    tol: float

    @property
    def n_branches(self) -> int:
        return len(self.branches)

    def vertices(self) -> np.ndarray:
        if not self.branches:
            return np.empty((0, 2))
        return np.vstack(self.branches)


@dataclass(frozen=True)
class DigVerdict:
    all_sinks: bool
    chi: float
    dig_possible: bool
    case: str                    # Case1 | Case2 | NotAllSinks | ReducibleUnknown
    m_star: float | None = None
    empirical: dict = field(default_factory=dict)


def _lambdas(model: PatchModel, m, T) -> np.ndarray:
    """Lambda over the broadcast of m and T; raises where a cell fails."""
    lam, status = growth_rates(model, m, T)
    raise_for_status(status)
    return lam


def sweep(model: PatchModel,
          m_range: tuple[float, float] = DEFAULT_M_RANGE,
          T_range: tuple[float, float] = DEFAULT_T_RANGE,
          resolution: int | tuple[int, int] = DEFAULT_RESOLUTION) -> SweepGrid:
    """Evaluate Lambda on a log-spaced (m, T) grid."""
    if isinstance(resolution, int):
        resolution = (resolution, resolution)
    m_values = np.geomspace(m_range[0], m_range[1], resolution[0])
    T_values = np.geomspace(T_range[0], T_range[1], resolution[1])
    lam, status = growth_rates(model, m_values[:, None], T_values[None, :])
    return SweepGrid(m_values=m_values, T_values=T_values, lam=lam,
                     status=status, chi=asymptotics.chi(model))


def _refine_crossings(model: PatchModel, keys: list[tuple], mv: np.ndarray,
                      Tv: np.ndarray, lam: np.ndarray,
                      tol: float) -> dict[tuple, tuple[tuple, float]]:
    """Refined (m, T) crossing point and Lambda there, per grid edge key
    (orientation, i, j): an "h" edge joins (i, j) to (i+1, j) and varies in
    m, a "v" edge joins (i, j) to (i, j+1) and varies in T.  One batched
    Lambda call per root-search step covers every edge still open."""
    horiz = np.array([orient == "h" for orient, _, _ in keys])
    fixed = np.array([Tv[j] if orient == "h" else mv[i]
                      for orient, i, j in keys])
    lo = [mv[i] if orient == "h" else Tv[j] for orient, i, j in keys]
    hi = [mv[i + 1] if orient == "h" else Tv[j + 1] for orient, i, j in keys]
    f_hi = [lam[i + 1, j] if orient == "h" else lam[i, j + 1]
            for orient, i, j in keys]

    def f(edges, xs):
        h, c = horiz[edges], fixed[edges]
        return _lambdas(model, np.where(h, xs, c), np.where(h, c, xs))

    roots, values = search.illinois_roots(
        f, lo, hi, [lam[i, j] for _, i, j in keys], f_hi, tol, BISECT_CAP)
    return {key: ((root, c) if h else (c, root), value) for key, root, value,
            h, c in zip(keys, roots, values, horiz, fixed)}


def _crossing_links(ok: np.ndarray,
                    pos: np.ndarray) -> dict[tuple, list[tuple]]:
    """Connectivity graph between the grid edges where the sign ``pos``
    flips, linked within each cell whose four corners are ``ok``.  Edge keys
    are as in ``_refine_crossings``; cells are visited in row-major order,
    and the graph is kept in lists, not sets, so that the walk over it does
    not depend on hash order."""

    def crossings(i, j):
        """Edge keys of the cell (i, j)..(i+1, j+1) where the sign flips."""
        keys = []
        if pos[i, j] != pos[i + 1, j]:
            keys.append(("h", i, j))
        if pos[i, j + 1] != pos[i + 1, j + 1]:
            keys.append(("h", i, j + 1))
        if pos[i, j] != pos[i, j + 1]:
            keys.append(("v", i, j))
        if pos[i + 1, j] != pos[i + 1, j + 1]:
            keys.append(("v", i + 1, j))
        return keys

    # only the cells with all four corners usable and a sign flip on some
    # edge contribute
    corners_ok = ok[:-1, :-1] & ok[1:, :-1] & ok[:-1, 1:] & ok[1:, 1:]
    flips = ((pos[:-1, :-1] != pos[1:, :-1]) | (pos[:-1, 1:] != pos[1:, 1:])
             | (pos[:-1, :-1] != pos[:-1, 1:]) | (pos[1:, :-1] != pos[1:, 1:]))
    rows, cols = np.nonzero(corners_ok & flips)
    links: dict[tuple, list[tuple]] = {}
    for i, j in zip(rows.tolist(), cols.tolist()):
        keys = crossings(i, j)
        # a cycle of four edges flips sign an even number of times: 2 or 4
        if len(keys) == 2:
            pairs = [keys]
        else:
            # saddle cell: pair each h edge with a v edge, consistently
            pairs = [(keys[0], keys[2]), (keys[1], keys[3])]
        for a, b in pairs:
            links.setdefault(a, []).append(b)
            links.setdefault(b, []).append(a)
    return links


def critical_curve(model: PatchModel,
                   m_range: tuple[float, float] = DEFAULT_M_RANGE,
                   T_range: tuple[float, float] = DEFAULT_T_RANGE,
                   resolution: int | tuple[int, int] = DEFAULT_RESOLUTION,
                   tol: float = CURVE_TOL) -> CriticalCurve:
    """Zero-level set of Lambda(m, T) as refined polyline branches."""
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"critical_curve needs finite tol >= 0, got {tol}")
    grid = sweep(model, m_range, T_range, resolution)
    mv, Tv, lam = grid.m_values, grid.T_values, grid.lam
    links = _crossing_links(grid.ok() & np.isfinite(lam), lam > 0.0)
    if not links:
        raise NoZeroCrossing("Lambda has uniform sign on the usable grid")
    points = _refine_crossings(model, list(links), mv, Tv, lam, tol)

    # walk the graph into polyline branches
    unvisited = dict.fromkeys(links)  # an insertion-ordered set
    branches = []
    while unvisited:
        # prefer an endpoint (degree 1) as the walk start
        start = next((k for k in unvisited
                      if len(unvisited.keys() & links[k]) <= 1),
                     next(iter(unvisited)))
        chain = [start]
        del unvisited[start]
        for _ in range(2):  # extend both directions from the start
            while True:
                nxt = [k for k in links[chain[-1]] if k in unvisited]
                if not nxt:
                    break
                chain.append(nxt[0])
                del unvisited[nxt[0]]
            chain.reverse()
        pts = np.array([points[k][0] for k in chain])
        order = np.argsort(pts[:, 0], kind="stable")
        res = np.array([points[k][1] for k in chain])
        branches.append((pts[order], res[order]))
    branches.sort(key=lambda b: b[0][0, 0])
    return CriticalCurve(branches=[pts for pts, _ in branches],
                         residuals=[res for _, res in branches], tol=tol)


def classify_dig(model: PatchModel) -> DigVerdict:
    """Exact verdict for everywhere-irreducible models; empirical otherwise."""
    chi_val = asymptotics.chi(model)
    all_sinks = model.all_sinks()
    if model.validation is not ValidationStatus.IRREDUCIBLE_EVERYWHERE:
        grid = sweep(model, resolution=CLASSIFY_RESOLUTION)
        finite = grid.lam[grid.ok() & np.isfinite(grid.lam)]
        found = bool(finite.size and finite.max() > 0.0)
        best = float(finite.max()) if finite.size else float("nan")
        return DigVerdict(all_sinks=all_sinks, chi=chi_val,
                          dig_possible=found, case="ReducibleUnknown",
                          empirical={"growth_found": found,
                                     "max_lambda": best,
                                     "cells_evaluated": int(grid.ok().sum())})
    if not all_sinks:
        return DigVerdict(all_sinks=False, chi=chi_val, dig_possible=False,
                          case="NotAllSinks")
    if chi_val <= 0.0:
        # the threshold itself rules growth out; neither slow-regime case applies
        return DigVerdict(all_sinks=True, chi=chi_val, dig_possible=False,
                          case="ChiNonpositive")
    ms = asymptotics.m_star(model)
    if ms is None and asymptotics.limit_minf(model) >= 0.0:
        return DigVerdict(all_sinks=True, chi=chi_val, dig_possible=True,
                          case="Case2")
    return DigVerdict(all_sinks=True, chi=chi_val, dig_possible=True,
                      case="Case1", m_star=ms)


def monotonicity_scan(model: PatchModel, m_list, T_ladder) -> dict:
    """For each m, report whether Lambda(m, .) is numerically monotone on the
    ladder.  Evidence only; nothing is asserted about in-between periods.
    """
    m_list = list(m_list)
    lam = _lambdas(model, np.asarray(m_list, dtype=float)[:, None],
                   np.asarray(list(T_ladder), dtype=float)[None, :])
    out = {}
    for m, row in zip(m_list, lam):
        vals = row.tolist()
        diffs = np.diff(vals)
        out[float(m)] = {
            "lambda": vals,
            "monotone_increasing": bool(np.all(diffs >= -1e-10)),
            "monotone_decreasing": bool(np.all(diffs <= 1e-10)),
        }
    return out


def critical_period(model: PatchModel, m: float,
                    T_range: tuple[float, float] = DEFAULT_T_RANGE) -> float:
    """Smallest period T with Lambda(m, T) = 0 along a log-spaced scan of
    PERIOD_SCAN_SAMPLES periods, to |Lambda| <= CURVE_TOL.

    Raises NoZeroCrossing when Lambda keeps one sign over the whole range,
    and the error of ``raise_for_status`` when a scan point fails before
    the root.
    """
    Ts = np.geomspace(T_range[0], T_range[1], PERIOD_SCAN_SAMPLES)
    vals, status = growth_rates(model, m, Ts)
    # the scan stops at its first failed point
    failed = np.flatnonzero(status != "ok")
    stop = failed[0] if failed.size else len(Ts)
    for k, (T, v) in enumerate(zip(Ts[:stop], vals[:stop])):
        if abs(v) <= CURVE_TOL:
            return float(T)
        if k and (v > 0.0) != (vals[k - 1] > 0.0):
            (root,), _ = search.illinois_roots(
                lambda _, t: _lambdas(model, m, t),
                [Ts[k - 1]], [T], [vals[k - 1]], [v], CURVE_TOL, BISECT_CAP)
            return float(root)
    raise_for_status(status)
    raise NoZeroCrossing(f"Lambda({m}, .) keeps one sign on {T_range}")


def _polish_max(model: PatchModel, ms: np.ndarray, Ts: np.ndarray,
                lam: np.ndarray) -> np.ndarray:
    """Per row r of a log-spaced scan lam[r] = Lambda(ms[r], Ts), its
    maximum over T.  The rows whose argmax is interior are polished
    together by ``search.parabolic_max``, from the argmax and its two
    neighbours."""
    k = np.argmax(lam, axis=1)
    g = lam[np.arange(len(ms)), k]
    rows = np.flatnonzero((k > 0) & (k < len(Ts) - 1))
    if rows.size:
        kr = k[rows]
        _, g[rows] = search.parabolic_max(
            lambda r, T: _lambdas(model, ms[rows[r]], T),
            Ts[kr - 1], Ts[kr], Ts[kr + 1],
            lam[rows, kr - 1], lam[rows, kr], lam[rows, kr + 1],
            POLISH_WIDTH, BISECT_CAP)
    return g


def max_lambda_over_T(model: PatchModel, m: float,
                      T_range: tuple[float, float] = DEFAULT_T_RANGE) -> float:
    """max_T Lambda(m, T): a log-spaced scan of T_SCAN_SAMPLES periods,
    polished by a parabolic search in log T around its argmax."""
    Ts = np.geomspace(T_range[0], T_range[1], T_SCAN_SAMPLES)
    ms = np.array([m], dtype=float)
    return float(_polish_max(model, ms, Ts,
                             _lambdas(model, ms[:, None], Ts[None, :]))[0])


def growth_band(model: PatchModel,
                m_range: tuple[float, float] = DEFAULT_M_RANGE,
                T_range: tuple[float, float] = DEFAULT_T_RANGE,
                coarse: int = 48) -> tuple[float, float]:
    """Extent [m_lo, m_hi] of the set {m : max_T Lambda(m, T) > 0}.

    Assumes a single band, as produced by models whose growth region is a
    bounded strip in m.  A coarse log-spaced m scan brackets the two ends;
    both are then located together by an Illinois root search on the
    T-maximized growth rate g(m), to |g| <= BAND_TOL.  Every evaluation of g is
    one batched T-scan plus one lockstep polish over all its m values.
    """
    Ts = np.geomspace(T_range[0], T_range[1], T_SCAN_SAMPLES)

    def g(ms):
        return _polish_max(model, ms, Ts, _lambdas(model, ms[:, None],
                                                   Ts[None, :]))

    ms = np.geomspace(m_range[0], m_range[1], coarse)
    gs = g(ms)
    positive = np.flatnonzero(gs > 0.0)
    if positive.size == 0:
        raise NoZeroCrossing("no growth found on the coarse m scan")
    i0, i1 = positive[0], positive[-1]
    # left ends of the brackets [ms[i], ms[i + 1]] around the band's edges
    left = np.array([i for i in (i0 - 1, i1) if 0 <= i < len(ms) - 1],
                    dtype=int)
    roots, _ = search.illinois_roots(lambda _, m: g(m), ms[left],
                                     ms[left + 1], gs[left], gs[left + 1],
                                     BAND_TOL, BISECT_CAP)
    m_lo = roots[0] if i0 > 0 else ms[0]
    m_hi = roots[-1] if i1 < len(ms) - 1 else ms[-1]
    return float(m_lo), float(m_hi)
