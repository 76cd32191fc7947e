"""The batched growth-rate kernel against the scalar growth_rate."""

import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from digrowth import dynamics as D, model as M
from digrowth.model import ModelParameters, ValidationStatus
from digrowth.spectral import perron_root

IRREDUCIBLE = [name for name in M.catalog()
               if M.builtin(name).validation
               is ValidationStatus.IRREDUCIBLE_EVERYWHERE]


def _scalar(mdl, m_values, T_values):
    """Per-cell growth_rate on the grid, with the statuses a sweep records."""
    lam = np.full((len(m_values), len(T_values)), np.nan)
    status = np.full(lam.shape, "ok", dtype=object)
    for i, m in enumerate(m_values):
        for j, T in enumerate(T_values):
            try:
                lam[i, j] = D.growth_rate(
                    mdl, ModelParameters(float(m), float(T))).lam
            except D.NonPositiveMonodromy:
                status[i, j] = "non_positive_monodromy"
            except D.IntegrationFailure:
                status[i, j] = "error"
    return lam, status


def _agree(mdl, m_range, T_range, resolution):
    mv = np.geomspace(*m_range, resolution)
    Tv = np.geomspace(*T_range, resolution)
    lam, status = D.growth_rates(mdl, mv[:, None], Tv[None, :])
    want, want_status = _scalar(mdl, mv, Tv)
    assert np.array_equal(status, want_status)
    ok = status == "ok"
    assert np.all(np.isnan(lam[~ok]))
    assert np.abs(lam[ok] - want[ok]).max() <= 1e-11
    return status


@pytest.mark.parametrize("name", IRREDUCIBLE)
def test_matches_scalar_on_default_grid(name):
    # pm1's small-mT corner stalls the scalar power iteration for up to ~1 s
    # per cell, so it gets the coarser grid
    status = _agree(M.builtin(name), (1e-2, 1e2), (1e-2, 1e3),
                    8 if name == "pm1" else 16)
    assert np.all(status == "ok")


def test_matches_scalar_on_reducible_sweep():
    # the monodromy is structurally positive: cells whose scaled entries
    # underflow to 0 still have a well-defined Perron root
    status = _agree(M.builtin("unidir_favorable"), (0.05, 10.0),
                    (0.1, 200.0), 32)
    assert (status == "non_positive_monodromy").sum() == 0
    assert not (status == "error").any()


def test_grid_larger_than_a_block_matches_its_rows():
    mdl = M.builtin("abc_two_patch")
    mv, Tv = np.geomspace(1e-2, 1e2, 40), np.geomspace(1e-2, 1e3, 40)
    assert mv.size * Tv.size > D._BLOCK_CELLS
    lam, status = D.growth_rates(mdl, mv[:, None], Tv[None, :])
    assert np.all(status == "ok")
    rows = np.array([D.growth_rates(mdl, m, Tv)[0] for m in mv])
    assert np.array_equal(lam, rows)


def test_scaling_breakdown_is_an_error_cell():
    # T * A overflows to inf in one cell; growth_rate raises there too
    lam, status = D.growth_rates(M.builtin("ab1"), 1.0, [1.0, 1e308])
    assert list(status) == ["ok", "error"]
    assert np.isfinite(lam[0]) and np.isnan(lam[1])
    with np.errstate(over="ignore"), pytest.raises(D.IntegrationFailure):
        D.growth_rate(M.builtin("ab1"), ModelParameters(1.0, 1e308))


def test_three_patch_overflowing_period_is_an_error_cell_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lam, status = D.growth_rates(M.builtin("fainshil(0.1,0.1)"), 100.0,
                                     [1.0, 1e306])
    assert list(status) == ["ok", "error"]
    assert np.isfinite(lam[0]) and np.isnan(lam[1])


def _model(n, growth, migration):
    return M.validated(M.PatchModel(
        n, M.PeriodicMatrixFunction.from_segments(*growth),
        M.PeriodicMatrixFunction.from_segments(*migration)))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("wrap", [False, True], ids=["inside", "wrapping"])
def test_migration_free_run_matches_its_mean_growth(n, wrap):
    # with migration off, a patch favoured on one segment and disfavoured
    # on the next underflows in each rescaled factor; at T = 1e4 their
    # product was 0.  The run's mean growth gives the same monodromy.
    up, down = np.diag([0.0, 2.0, -2.0][:n]), np.diag([0.0, -2.0, 2.0][:n])
    on = np.diag([-1.0, 0.0, 0.5][:n])
    L = np.ones((n, n)) - n * np.eye(n)
    off = np.zeros((n, n))
    if wrap:  # the same schedule shifted by 0.7: the run straddles tau = 0
        mdl = _model(n, ([0.0, 0.2, 0.7, 0.9], [down, on, up, down]),
                     ([0.0, 0.2, 0.7], [off, L, off]))
    else:
        mdl = _model(n, ([0.0, 0.2, 0.5], [up, down, on]),
                     ([0.0, 0.5], [off, L]))
    mean = _model(n, ([0.0, 0.5], [(0.2 * up + 0.3 * down) / 0.5, on]),
                  ([0.0, 0.5], [off, L]))
    m = np.array([0.1, 10.0])[:, None]
    T = np.array([1e-2, 1.0, 1e2, 1e4])[None, :]
    lam, status = D.growth_rates(mdl, m, T)
    want, want_status = D.growth_rates(mean, m, T)
    assert np.all(status == "ok") and np.all(want_status == "ok")
    assert np.all(np.abs(lam - want) <= 1e-11)
    # the scalar path fuses the run too, from phase 0 without rotating, so
    # a run that wraps the period end stays split there and still breaks
    # down at T = 1e4
    for i, j in np.ndindex(want.shape):
        if wrap and T[0, j] > 1e2:
            continue
        got = D.growth_rate(mdl, ModelParameters(m[i, 0], T[0, j])).lam
        assert abs(got - want[i, j]) <= 1e-11


def test_rejects_nonpositive_m_and_T():
    mdl = M.builtin("ab1")
    with pytest.raises(ValueError):
        D.growth_rates(mdl, [1.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        D.growth_rates(mdl, 1.0, [1.0, -2.0])


def test_raise_for_status_maps_to_scalar_errors():
    D.raise_for_status(np.array(["ok", "ok"], dtype=object))
    with pytest.raises(D.NonPositiveMonodromy):
        D.raise_for_status(np.array(["ok", "non_positive_monodromy"],
                                    dtype=object))
    with pytest.raises(D.IntegrationFailure):
        D.raise_for_status("error")


_log_point = st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 3.0))


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(["ab1", "abc_two_patch", "three_patch_circular",
                             "unidir_favorable"]),
       point=_log_point,
       others=st.lists(_log_point, min_size=1, max_size=12),
       data=st.data())
def test_cell_is_independent_of_its_batch(name, point, others, data):
    mdl = M.builtin(name)
    pts = 10.0 ** np.array([point] + others)
    order = data.draw(st.permutations(range(len(pts))))
    alone, alone_status = D.growth_rates(mdl, pts[:1, 0], pts[:1, 1])
    lam, status = D.growth_rates(mdl, pts[order, 0], pts[order, 1])
    k = order.index(0)
    assert status[k] == alone_status[0]
    assert np.array_equal(lam[k:k + 1], alone, equal_nan=True)


THREE_PATCH = ["fainshil", "three_patch_circular", "three_patch_reducible",
               "three_patch_reducible(1,-0.8)"]


@pytest.mark.parametrize("name", THREE_PATCH)
def test_three_patch_small_period_matches_mpmath(name):
    # at T = 1e-3 the eigenvalues of Phi(T) all lie within O(T) of 1; the
    # shifted cubic keeps the digits of their spread
    mdl, T = M.builtin(name), 1e-3
    m = np.array([0.01, 0.1, 1.0, 10.0, 100.0])
    lam, status = D.growth_rates(mdl, m, T)
    assert np.all(status == "ok")
    seg = mdl.segments
    for mk, got in zip(m, lam):
        with mp.workdps(40):
            phi = mp.eye(3)
            for w, R, L in zip(seg.widths, seg.R, seg.L):
                phi = mp.expm(mp.matrix((R + mk * L).tolist())
                              * (mp.mpf(float(w)) * T)) * phi
            mu = max(mp.re(v) for v in mp.eig(phi, left=False, right=False))
            want = float(mp.log(mu) / T)
        assert abs(got - want) <= 5e-13, (mk, got - want)


def test_nearly_double_perron_root_takes_eigvals(monkeypatch):
    # two equal diagonal blocks coupled by 1e-9: the Perron root 0.9 + 1e-9
    # is nearly double, so the cubic is ill conditioned there
    eps = 1e-9
    near = np.array([[0.9, eps, 0.2], [eps, 0.9, 0.3], [0.0, 0.0, 0.4]])
    apart = np.array([[0.9, 0.5, 0.2], [0.1, 0.6, 0.3], [0.2, 0.1, 0.4]])
    calls = []
    eigvals = np.linalg.eigvals

    def spy(M):
        calls.append(M.copy())
        return eigvals(M)

    monkeypatch.setattr(np.linalg, "eigvals", spy)
    root = perron_root(np.array([apart, near, np.eye(3)]))
    assert len(calls) == 1 and np.array_equal(calls[0], near[None])
    for P, got in zip((apart, near), root):
        with mp.workdps(40):
            ev = mp.eig(mp.matrix(P.tolist()), left=False, right=False)
            want = max(mp.re(v) for v in ev)
        assert abs(got - want) <= 2e-16 * want
    # a scalar matrix is its own root, off the cubic
    assert root[2] == 1.0


def test_reducible_statuses_at_large_periods():
    # the statuses of the kernel that rescaled every square: a segment
    # factor's smallest entry, e^{-2T/3} of its unit max entry, falls below
    # the subnormal range past T = 1115.7, and each cell from there on is
    # an error cell.  Squares rescaled every fourth step, whose max entry
    # may sit far below 1 in between, must not move that onset
    mdl = M.builtin("three_patch_reducible")
    mv, Tv = np.geomspace(1e-2, 1e2, 24), np.geomspace(1e3, 1e8, 24)
    _, status = D.growth_rates(mdl, mv[:, None], Tv[None, :])
    assert np.all(status[:, 0] == "ok") and np.all(status[:, 1:] == "error")
    _, status = D.growth_rates(mdl, mv[:, None], [[1115.6, 1115.8]])
    assert np.all(status[:, 0] == "ok") and np.all(status[:, 1] == "error")
