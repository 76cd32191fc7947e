"""End-to-end acceptance checks.

Each test covers one numbered criterion and records a single PASS/FAIL line,
printed in the terminal summary (see conftest), with a wall-clock budget
asserted per criterion.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
from conftest import random_model
from scipy.linalg import expm

from digrowth import asymptotics as A
from digrowth import dynamics as D
from digrowth import explorer as E
from digrowth import model as M
from digrowth import stochastic as S
from digrowth.model import ModelParameters as MP
from digrowth.spectral import is_irreducible, kernel_vector, perron_root

L_SYM = [[-1.0, 1.0], [1.0, -1.0]]


RESULTS: list[str] = []


@contextmanager
def criterion(num, label, budget):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        RESULTS.append(f"criterion {num:2d} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - t0
    RESULTS.append(f"criterion {num:2d} ({label}): PASS [{elapsed:.1f}s]")
    assert elapsed < budget, f"criterion {num} exceeded {budget}s budget"


def test_criterion_01_two_patch_limit_formulas():
    with criterion(1, "ab1 limit formulas, m*, corners", budget=1.0):
        mdl = M.builtin("ab1")
        for m in (0.1, 0.5, 1.0, 2.0, 5.0):
            f0 = -3.0 / 8.0 - 1.5 * m + np.sqrt(1 + 8 * m + 144 * m * m) / 8.0
            finf = (-3.0 / 8.0 - 1.5 * m
                    + np.sqrt(4 + 4 * m + 9 * m * m) / 4.0
                    + np.sqrt(9 - 12 * m + 36 * m * m) / 8.0)
            assert A.limit_T0(mdl, m) == pytest.approx(f0, abs=1e-10)
            assert A.limit_Tinf(mdl, m) == pytest.approx(finf, abs=1e-10)
        assert A.m_star(mdl) == pytest.approx(5.0 / 9.0, abs=1e-12)
        c = A.corners(mdl)
        assert c["lambda_00"] == pytest.approx(-0.25, abs=1e-12)
        assert c["lambda_inf0"] == pytest.approx(-1.0 / 3.0, abs=1e-12)
        assert c["lambda_0inf"] == pytest.approx(0.5, abs=1e-12)


def test_criterion_02_catalog_corner_tables():
    with criterion(2, "catalog corner values and m*", budget=2.0):
        ab2s = M.builtin("ab2s")
        c = A.corners(ab2s)
        assert c["lambda_inf0"] == pytest.approx(-3.0 / 8.0, abs=1e-12)
        assert c["lambda_infinf"] == pytest.approx(-2.0 / 3.0, abs=1e-12)
        assert A.m_star(ab2s) == pytest.approx(0.315, abs=1e-3)

        no_root = M.builtin("ab_mstar_inf")
        assert A.corners(no_root)["lambda_infinf"] == pytest.approx(
            5.0 / 24.0, abs=1e-12)
        assert A.m_star(no_root) is None

        abc = M.builtin("abc_two_patch")
        c = A.corners(abc)
        assert c["lambda_inf0"] == pytest.approx(-453.0 / 3320.0, abs=1e-12)
        assert c["lambda_infinf"] == pytest.approx(-21.0 / 44.0, abs=1e-12)
        assert A.m_star(abc) == pytest.approx(1.764, abs=1e-3)

        for mdl in (ab2s, no_root, abc):
            for m in (0.1, 1.0, 3.0):
                cf = A.two_patch_closed_forms(mdl, m)
                assert cf["lambda_T0"] == pytest.approx(
                    A.limit_T0(mdl, m), abs=1e-10)
                assert cf["lambda_Tinf"] == pytest.approx(
                    A.limit_Tinf(mdl, m), abs=1e-10)


def test_criterion_03_switched_counterexample():
    with criterion(3, "non-monotone three-patch example", budget=1.0):
        mdl = M.builtin("fainshil(0.1,0.1)")
        assert A.limit_T0(mdl, 1.0) < 0.0
        assert A.limit_Tinf(mdl, 1.0) < 0.0
        res = D.growth_rate(mdl, MP(1.0, 2.0))
        assert res.lam > 0.0
        assert res.lam == pytest.approx(0.5 * np.log(res.mu), abs=1e-12)
        # unperturbed endpoint: dominant root of the two-segment product
        base = M.builtin("fainshil(0,0)")
        _, widths, mats = D.merged_segments(base, 1.0)
        prod = np.eye(3)
        for w, Amat in zip(widths, mats):
            prod = expm(w * 2.0 * Amat) @ prod
        mu0 = float(np.max(np.linalg.eigvals(prod).real))
        assert mu0 == pytest.approx(1.669, abs=1e-3)


def test_criterion_04_oracle_equivalence():
    with criterion(4, "monodromy vs long-horizon oracle", budget=60.0):
        rng = np.random.default_rng(2026)
        for k in range(50):
            n = int(rng.integers(2, 5))
            mdl = random_model(rng, n=n)
            params = MP(float(rng.uniform(0.1, 3.0)),
                        float(rng.uniform(0.5, 8.0)))
            lam = D.growth_rate(mdl, params).lam
            oracle = D.growth_rate_oracle(mdl, params)
            assert abs(lam - oracle) <= 1e-3, (k, n, params)


def test_criterion_05_identity_suite():
    with criterion(5, "bounds and integral identities", budget=120.0):
        rng = np.random.default_rng(555)
        for k in range(200):
            constant_L = bool(rng.integers(0, 2))
            mdl = random_model(rng, n=int(rng.integers(2, 4)),
                               constant_migration=constant_L)
            params = MP(float(rng.uniform(0.05, 4.0)),
                        float(rng.uniform(0.2, 20.0)))
            lam = D.growth_rate(mdl, params).lam
            assert lam <= A.chi(mdl) + 1e-9
            assert abs(lam - D.growth_rate_integral(mdl, params)) <= 1e-6
            if constant_L:
                L = mdl.migration.value(0.0)
                floor = float(kernel_vector(L) @ mdl.mean_rates())
                assert lam >= floor - 1e-9
                assert lam >= A.limit_T0(mdl, params.m) - 1e-9
                assert abs(lam - D.growth_rate_h_formula(mdl, params)) <= 1e-6


def test_criterion_06_simplex_dynamics():
    with criterion(6, "periodic simplex solution and attraction",
                   budget=30.0):
        rng = np.random.default_rng(66)
        cases = [(M.builtin("ab1"), MP(0.3, 5.0)),
                 (M.builtin("three_patch_circular"), MP(0.5, 4.0))]
        for mdl, params in cases:
            traj = D.periodic_simplex_solution(mdl, params)
            assert traj.periodic_defect <= 1e-8
            theta0 = traj.states[0]
            starts = rng.dirichlet(np.ones(mdl.n), size=20)
            final = D.propagate_simplex(mdl, params, starts, periods=30)
            assert np.abs(final - theta0).max() <= 1e-6


def test_criterion_07_slow_regime_convergence():
    with criterion(7, "slow-regime boundary-layer decay", budget=20.0):
        for name, m in (("ab1", 1.0), ("three_patch_circular", 1.0)):
            mdl = M.builtin(name)
            devs = [D.verify_slow_curve(mdl, MP(m, T)).sup_deviation
                    for T in (20.0, 80.0, 320.0)]
            assert devs[0] > devs[1] > devs[2], (name, devs)


def test_criterion_08_critical_curves():
    with criterion(8, "critical curve topology and band edges",
                   budget=300.0):
        ab1 = M.builtin("ab1")
        curve = E.critical_curve(ab1, (0.01, 3.0), (0.1, 500.0), 128)
        assert curve.n_branches == 1
        verts = curve.vertices()
        assert 0.0 < verts[:, 0].min() and verts[:, 0].max() < 5.0 / 9.0
        tc = {m: E.critical_period(ab1, m, (0.1, 1e4))
              for m in (0.05, 0.3, 0.55)}
        assert tc[0.05] > tc[0.3] and tc[0.55] > tc[0.3]

        abc = M.builtin("abc_two_patch")
        curve2 = E.critical_curve(abc, (0.05, 20.0), (0.1, 500.0), 128)
        assert curve2.n_branches == 2
        m_star_abc = A.m_star(abc)
        assert D.growth_rate(abc, MP(2.5, 2.0)).lam > 0.0
        assert 2.5 > m_star_abc

        fain = M.builtin("fainshil(0.1,0.1)")
        assert A.m_star(fain) == pytest.approx(0.904, abs=2e-2)
        band = E.growth_band(fain, (1.2, 5.0), (0.1, 50.0), coarse=48)
        assert band[1] == pytest.approx(1.807, abs=2e-2)


def test_criterion_09_reducible_migration():
    with criterion(9, "reducible-migration growth regions", budget=120.0):
        for name in ("unidir_favorable", "unidir_unfavorable"):
            grid = E.sweep(M.builtin(name), (0.05, 10.0), (0.1, 200.0), 64)
            ok = grid.status == "ok"
            assert ok.any()
            assert np.nanmax(grid.lam[ok]) > 0.0, name
        grow = E.sweep(M.builtin("three_patch_reducible(1,-0.8)"),
                       (0.05, 10.0), (0.1, 200.0), 64)
        assert np.nanmax(grow.lam[grow.status == "ok"]) > 0.0
        nogrow = E.sweep(M.builtin("three_patch_reducible(1,-1)"),
                         (0.05, 10.0), (0.1, 200.0), 64)
        ok = nogrow.status == "ok"
        assert not ok.any() or np.nanmax(nogrow.lam[ok]) <= 0.0


def _pm1_twin(eps=0.5):
    a, b = 1.0 - eps, -1.0 - eps
    return S.environment([([a, b], L_SYM), ([b, a], L_SYM)],
                         [[-1.0, 1.0], [1.0, -1.0]])


def test_criterion_10_stochastic_estimator():
    with criterion(10, "switched-environment Lyapunov estimates",
                   budget=180.0):
        # single-state environment collapses to the exact dominant exponent
        env1 = S.environment(
            [([0.5, -1.5], [[-1.0, 2.0], [1.0, -2.0]])], [[0.0]])
        exact = perron_root(env1.matrix(0, 1.3)[None])[0]
        assert S.simulate_lyapunov(env1, 1.3, 1.0, 50.0).lambda_hat == exact

        env = _pm1_twin()
        lims = S.stochastic_limits(env, 1.0)

        # fast switching: median estimate within 3 stderr of the limit
        runs = [S.simulate_lyapunov(env, 1.0, 1e-3, 2.0, seed=s)
                for s in range(10)]
        med = float(np.median([r.lambda_hat for r in runs]))
        se = float(np.median([r.stderr for r in runs]))
        assert abs(med - lims["T0"]) <= 3.0 * se

        # slow switching: per-jump transients bias the estimator by an
        # amount commensurate with its batch-means spread, so the check is
        # a limit trend: the gap to the slow-regime value shrinks with the
        # dilation and lands below 1e-3
        gaps = []
        for T, horizon in ((10.0, 2e4), (100.0, 5e4), (1000.0, 1.5e5)):
            meds = [S.simulate_lyapunov(env, 1.0, T, horizon,
                                        seed=s).lambda_hat
                    for s in range(10)]
            gaps.append(abs(float(np.median(meds)) - lims["Tinf"]))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 1e-3

        # the threshold bound holds for every estimate up to noise
        for T in (0.1, 1.0, 10.0):
            est = S.simulate_lyapunov(env, 1.0, T, 3000.0 * max(T, 1.0),
                                      seed=17)
            assert est.lambda_hat <= lims["chi"] + 3.0 * est.stderr
