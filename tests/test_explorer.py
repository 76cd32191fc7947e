"""Sweeps, critical curves, classification, monotonicity evidence."""

import os
import subprocess
import sys

import numpy as np
import pytest

from digrowth import asymptotics, dynamics, explorer, model as M
from digrowth.dynamics import growth_rate
from digrowth.model import ModelParameters


def test_sweep_basic_and_chi_bound():
    grid = explorer.sweep(M.builtin("ab1"), (0.01, 3.0), (0.1, 100.0), 32)
    assert grid.lam.shape == (32, 32)
    assert np.all(grid.status == "ok")
    assert np.nanmax(grid.lam) <= grid.chi + 1e-9
    # growth region nonempty below m* for large T
    assert np.nanmax(grid.lam) > 0.0


def test_sweep_determinism_and_jobs_independence():
    mdl = M.builtin("ab1")
    g1 = explorer.sweep(mdl, (0.1, 2.0), (0.5, 50.0), 16)
    g2 = explorer.sweep(mdl, (0.1, 2.0), (0.5, 50.0), 16)
    assert np.array_equal(g1.lam, g2.lam)


def test_sweep_equal_rates_constant():
    growth = M.PeriodicMatrixFunction.from_segments(
        [0.0, 0.5], [np.diag([0.4, 0.4]), np.diag([-0.6, -0.6])])
    migration = M.PeriodicMatrixFunction.constant([[-1.0, 1.0], [1.0, -1.0]])
    mdl = M.validated(M.PatchModel(2, growth, migration))
    grid = explorer.sweep(mdl, (0.1, 10.0), (0.1, 10.0), 8)
    assert np.abs(grid.lam + 0.1).max() <= 1e-9


# the segment exponential of each kernel path, the 2x2 closed form and the
# stacked Pade-13 that three patches use, and the product three patches use
@pytest.mark.parametrize("name, exponential", [
    ("ab1", "expm2_scaled"), ("fainshil(0.1,0.1)", "expm_stack_scaled"),
    ("fainshil(0.1,0.1)", "scaled_product")])
def test_sweep_propagates_unexpected_errors(monkeypatch, name, exponential):
    def broken(*args):
        raise ValueError("not a Lambda failure")

    monkeypatch.setattr(dynamics, exponential, broken)
    with pytest.raises(ValueError, match="not a Lambda failure"):
        explorer.sweep(M.builtin(name), (0.1, 2.0), (0.5, 50.0), 4)


def _crossing_links_every_cell(ok, pos):
    """The crossing graph by a visit of every cell, the loop that
    ``explorer._crossing_links`` filters with array operations first."""
    links = {}
    for i in range(ok.shape[0] - 1):
        for j in range(ok.shape[1] - 1):
            if not (ok[i, j] and ok[i + 1, j] and ok[i, j + 1]
                    and ok[i + 1, j + 1]):
                continue
            keys = [key for key, flip in (
                (("h", i, j), pos[i, j] != pos[i + 1, j]),
                (("h", i, j + 1), pos[i, j + 1] != pos[i + 1, j + 1]),
                (("v", i, j), pos[i, j] != pos[i, j + 1]),
                (("v", i + 1, j), pos[i + 1, j] != pos[i + 1, j + 1]))
                if flip]
            if len(keys) == 2:
                pairs = [keys]
            elif len(keys) == 4:
                pairs = list(zip([k for k in keys if k[0] == "h"],
                                 [k for k in keys if k[0] == "v"]))
            else:
                pairs = []
            for a, b in pairs:
                links.setdefault(a, []).append(b)
                links.setdefault(b, []).append(a)
    return links


@pytest.mark.parametrize("seed", range(6))
def test_crossing_links_match_a_visit_of_every_cell(seed):
    # random signs give saddle cells, and unusable corners drop cells
    rng = np.random.default_rng(seed)
    shape = (9 + seed, 14 - seed)
    ok = rng.random(shape) > 0.1 * (seed % 3)
    pos = rng.random(shape) > 0.5
    links = explorer._crossing_links(ok, pos)
    want = _crossing_links_every_cell(ok, pos)
    assert links and list(links.items()) == list(want.items())
    assert all(type(x) is int for key in links for x in key[1:])


def test_sweep_marks_nonpositive_cells():
    grid = explorer.sweep(M.builtin("fainshil(0,0)"), (0.5, 2.0),
                          (0.5, 5.0), 8)
    assert np.all(grid.status == "non_positive_monodromy")


def test_critical_curve_unidir_unfavorable():
    mdl = M.builtin("unidir_unfavorable")
    curve = explorer.critical_curve(mdl, resolution=24)
    assert curve.n_branches >= 1
    verts = curve.vertices()
    stored = np.concatenate(curve.residuals)
    assert np.abs(stored).max() <= explorer.CURVE_TOL
    lam, status = dynamics.growth_rates(mdl, verts[:, 0], verts[:, 1])
    assert np.all(status == "ok")
    assert np.array_equal(lam, stored)


_CURVE_BYTES = """
import hashlib
from digrowth import explorer, model
curve = explorer.critical_curve(model.builtin("fainshil(0.1,0.1)"),
                                resolution=24)
print(hashlib.sha256(b"".join(b.tobytes() for b in curve.branches)).hexdigest())
"""


def test_critical_curve_independent_of_hash_seed():
    digests = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.path.dirname(
            os.path.dirname(explorer.__file__)))
        digests.append(subprocess.run(
            [sys.executable, "-c", _CURVE_BYTES], env=env, check=True,
            capture_output=True, text=True).stdout)
    assert digests[0] == digests[1]


def test_critical_curve_ab1_single_branch():
    mdl = M.builtin("ab1")
    curve = explorer.critical_curve(mdl, (0.01, 3.0), (0.1, 200.0), 48)
    assert curve.n_branches == 1
    verts = curve.vertices()
    assert verts[:, 0].max() < 5.0 / 9.0  # no crossing beyond m*
    # every vertex is a genuine zero
    for mval, Tval in verts[::5]:
        res = growth_rate(mdl, ModelParameters(float(mval), float(Tval))).lam
        assert abs(res) <= 1e-8


def test_critical_curve_sign_correctness():
    mdl = M.builtin("ab1")
    curve = explorer.critical_curve(mdl, (0.01, 3.0), (0.1, 200.0), 32)
    # every vertex is a zero of Lambda, recomputed apart from the refinement
    m, T = curve.vertices().T
    lam, status = dynamics.growth_rates(mdl, m, T)
    assert np.all(status == "ok")
    assert np.abs(lam).max() <= explorer.CURVE_TOL
    # inside the growth region (small m, huge T) Lambda > 0; outside < 0,
    # and the curve crosses T = 150 between the two
    assert growth_rate(mdl, ModelParameters(0.2, 150.0)).lam > 0.0
    assert growth_rate(mdl, ModelParameters(2.0, 150.0)).lam < 0.0
    crossings = []
    for branch in curve.branches:
        logm, logT = np.log(branch).T
        for k in np.flatnonzero((logT[:-1] - np.log(150.0))
                                * (logT[1:] - np.log(150.0)) <= 0.0):
            f = (np.log(150.0) - logT[k]) / (logT[k + 1] - logT[k])
            crossings.append(np.exp(logm[k] + f * (logm[k + 1] - logm[k])))
    assert crossings and all(0.2 < c < 2.0 for c in crossings)


def test_critical_curve_no_crossing():
    growth = M.PeriodicMatrixFunction.constant(np.diag([-0.4, -0.6]))
    migration = M.PeriodicMatrixFunction.constant([[-1.0, 1.0], [1.0, -1.0]])
    mdl = M.validated(M.PatchModel(2, growth, migration))
    with pytest.raises(explorer.NoZeroCrossing):
        explorer.critical_curve(mdl, (0.1, 2.0), (0.5, 20.0), 8)


def test_critical_period_matches_curve():
    mdl = M.builtin("ab1")
    Tc = explorer.critical_period(mdl, 0.3, (0.1, 1e4))
    assert abs(growth_rate(mdl, ModelParameters(0.3, Tc)).lam) <= 1e-8


def test_critical_period_fails_only_before_its_root(monkeypatch):
    # a scan up to T = 1e308 fails at its last point, where T (R + m L)
    # overflows: at m = 0.3 the root comes first and is returned; at m = 2
    # Lambda keeps one sign up to the failed point, whose error is raised
    # after one status check of the whole scan
    ab1 = M.builtin("ab1")
    Ts = np.geomspace(0.1, 1e308, explorer.PERIOD_SCAN_SAMPLES)
    for m in (0.3, 2.0):
        _, status = dynamics.growth_rates(ab1, m, Ts)
        assert status[-1] == "error" and np.all(status[:-1] == "ok")
    Tc = explorer.critical_period(ab1, 0.3, (0.1, 1e308))
    assert Tc < 1e3
    assert abs(growth_rate(ab1, ModelParameters(0.3, Tc)).lam) <= 1e-8
    checks = []
    check = explorer.raise_for_status
    monkeypatch.setattr(explorer, "raise_for_status",
                        lambda status: checks.append(status) or check(status))
    with pytest.raises(dynamics.IntegrationFailure):
        explorer.critical_period(ab1, 2.0, (0.1, 1e308))
    assert len(checks) == 1


def test_classify_case1():
    verdict = explorer.classify_dig(M.builtin("ab1"))
    assert verdict.case == "Case1"
    assert verdict.dig_possible and verdict.all_sinks
    assert verdict.m_star == pytest.approx(5.0 / 9.0, abs=1e-12)


def test_classify_case2():
    verdict = explorer.classify_dig(M.builtin("ab_mstar_inf"))
    assert verdict.case == "Case2"
    assert verdict.dig_possible


def test_classify_not_all_sinks():
    growth = M.PeriodicMatrixFunction.constant(np.diag([0.2, -0.5]))
    migration = M.PeriodicMatrixFunction.constant([[-1.0, 1.0], [1.0, -1.0]])
    mdl = M.validated(M.PatchModel(2, growth, migration))
    verdict = explorer.classify_dig(mdl)
    assert verdict.case == "NotAllSinks"
    assert not verdict.dig_possible


def test_classify_chi_nonpositive():
    growth = M.PeriodicMatrixFunction.constant(np.diag([-0.4, -0.6]))
    migration = M.PeriodicMatrixFunction.constant([[-1.0, 1.0], [1.0, -1.0]])
    mdl = M.validated(M.PatchModel(2, growth, migration))
    verdict = explorer.classify_dig(mdl)
    assert not verdict.dig_possible
    assert verdict.case == "ChiNonpositive"


def test_classify_reducible_empirical():
    verdict = explorer.classify_dig(M.builtin("unidir_favorable"))
    assert verdict.case == "ReducibleUnknown"
    assert verdict.empirical["growth_found"]


def test_monotonicity_ab1_increasing():
    report = explorer.monotonicity_scan(M.builtin("ab1"), [0.1, 0.3, 0.5],
                                        np.geomspace(0.5, 200.0, 8))
    assert all(entry["monotone_increasing"] for entry in report.values())


def test_monotonicity_ab2s_large_m_decreasing():
    report = explorer.monotonicity_scan(M.builtin("ab2s"), [3.0],
                                        np.geomspace(0.5, 200.0, 8))
    assert report[3.0]["monotone_decreasing"]
    assert not report[3.0]["monotone_increasing"]


def test_monotonicity_fainshil_non_monotone():
    report = explorer.monotonicity_scan(M.builtin("fainshil(0.1,0.1)"),
                                        [1.0], [0.2, 1.0, 50.0])
    entry = report[1.0]
    assert not entry["monotone_increasing"]
    assert not entry["monotone_decreasing"]
    # rises to a positive hump then falls back below zero
    assert entry["lambda"][1] > max(entry["lambda"][0], entry["lambda"][2])


def test_max_lambda_over_T_matches_limit_for_monotone_model():
    mdl = M.builtin("ab1")
    best = explorer.max_lambda_over_T(mdl, 0.3, (0.5, 2000.0))
    assert best == pytest.approx(asymptotics.limit_Tinf(mdl, 0.3), abs=1e-3)


@pytest.mark.parametrize("name, m, window", [
    ("ab1", 0.3, explorer.DEFAULT_T_RANGE),
    ("fainshil(0.1,0.1)", 1.0, (0.25, 0.8)),
    ("fainshil(0.1,0.1)", 1.5, (0.25, 0.8)),
    ("fainshil(0.1,0.1)", 1.8, (0.25, 0.8)),
])
def test_max_lambda_over_T_matches_dense_scan(name, m, window):
    # ab1 peaks at the end of the range; fainshil inside it, in the window,
    # where 20 000 points lie close enough to see 1e-9
    mdl = M.builtin(name)
    best = explorer.max_lambda_over_T(mdl, m)
    lam, _ = dynamics.growth_rates(mdl, m, np.geomspace(*window, 20_000))
    assert abs(best - lam.max()) <= 1e-9
    # the dense scan may fall short of the maximum, but not overshoot it
    assert best >= lam.max() - 1e-11


def test_lockstep_polish_equals_one_row_maxima():
    mdl = M.builtin("fainshil(0.1,0.1)")
    ms = np.array([0.5, 1.0, 1.5, 1.8, 2.5])
    Ts = np.geomspace(0.1, 50.0, explorer.T_SCAN_SAMPLES)
    lam, _ = dynamics.growth_rates(mdl, ms[:, None], Ts[None, :])
    g = explorer._polish_max(mdl, ms, Ts, lam)
    one = [explorer.max_lambda_over_T(mdl, m, (0.1, 50.0)) for m in ms]
    assert g.tolist() == one


def test_explorer_makes_no_scalar_lambda_call(monkeypatch):
    def scalar(*args, **kwargs):
        raise AssertionError("scalar growth_rate called")

    monkeypatch.setattr(dynamics, "growth_rate", scalar)
    monkeypatch.setattr(explorer, "growth_rate", scalar, raising=False)
    ab1, fain = M.builtin("ab1"), M.builtin("fainshil(0.1,0.1)")
    assert explorer.critical_curve(ab1, (0.01, 3.0), (0.1, 200.0),
                                   16).n_branches == 1
    assert explorer.critical_period(ab1, 0.3, (0.1, 1e4)) > 0.0
    assert explorer.max_lambda_over_T(fain, 1.0) > 0.0
    lo, hi = explorer.growth_band(fain, (1.2, 5.0), (0.1, 50.0), coarse=12)
    assert hi == pytest.approx(1.807, abs=2e-2)
    assert explorer.classify_dig(ab1).case == "Case1"
