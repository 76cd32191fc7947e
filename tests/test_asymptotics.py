"""Limit values, corner values, m*, closed forms, convexity."""

import numpy as np
import pytest
from conftest import random_model

from digrowth import asymptotics as A
from digrowth import dynamics as D
from digrowth import model as M
from digrowth.spectral import perron_root


def test_chi_values():
    assert A.chi(M.builtin("ab1")) == pytest.approx(0.5, abs=1e-14)
    assert A.chi(M.builtin("abc_two_patch")) == pytest.approx(2.0 / 3.0,
                                                             abs=1e-14)
    assert A.chi(M.builtin("fainshil(0.1,0.1)")) == pytest.approx(9.0,
                                                                 abs=1e-12)
    assert A.chi(M.builtin("pm1(0.5)")) == pytest.approx(0.5, abs=1e-14)


def test_chi_equal_rates_is_mean():
    growth = M.PeriodicMatrixFunction.from_segments(
        [0.0, 0.5], [np.diag([0.4, 0.4]), np.diag([-0.6, -0.6])])
    migration = M.PeriodicMatrixFunction.constant([[-1.0, 1.0], [1.0, -1.0]])
    mdl = M.validated(M.PatchModel(2, growth, migration))
    assert A.chi(mdl) == pytest.approx(-0.1, abs=1e-14)


def test_pm1_flat_limits():
    eps = 0.5
    mdl = M.builtin(f"pm1({eps})")
    for m in (0.1, 1.0, 7.0):
        assert A.limit_T0(mdl, m) == pytest.approx(-eps, abs=1e-12)
        assert A.limit_Tinf(mdl, m) == pytest.approx(
            -eps + np.hypot(1.0, m) - m, abs=1e-12)
    assert A.limit_m0(mdl) == pytest.approx(-eps, abs=1e-14)
    assert A.limit_minf(mdl) == pytest.approx(-eps, abs=1e-14)


def test_ab1_limits_against_printed_formulas():
    mdl = M.builtin("ab1")
    for m in (0.1, 0.5, 1.0, 2.0, 5.0):
        f0 = -3.0 / 8.0 - 1.5 * m + np.sqrt(1 + 8 * m + 144 * m * m) / 8.0
        finf = (-3.0 / 8.0 - 1.5 * m
                + np.sqrt(4 + 4 * m + 9 * m * m) / 4.0
                + np.sqrt(9 - 12 * m + 36 * m * m) / 8.0)
        assert A.limit_T0(mdl, m) == pytest.approx(f0, abs=1e-12)
        assert A.limit_Tinf(mdl, m) == pytest.approx(finf, abs=1e-12)


def test_corners_ab1():
    c = A.corners(M.builtin("ab1"))
    assert c["lambda_00"] == pytest.approx(-0.25, abs=1e-14)
    assert c["lambda_inf0"] == pytest.approx(-1.0 / 3.0, abs=1e-12)
    assert c["lambda_0inf"] == pytest.approx(0.5, abs=1e-14)
    assert c["lambda_infinf"] == pytest.approx(-1.0 / 3.0, abs=1e-12)


def test_corners_constant_L_coincide(rng):
    mdl = random_model(rng, constant_migration=True)
    c = A.corners(mdl)
    assert c["lambda_inf0"] == pytest.approx(c["lambda_infinf"], abs=1e-10)


def test_corners_symmetric_migration_uniform_kernel():
    growth = M.PeriodicMatrixFunction.from_segments(
        [0.0, 0.5], [np.diag([0.3, -0.7]), np.diag([-0.5, 0.1])])
    migration = M.PeriodicMatrixFunction.constant([[-1.0, 1.0], [1.0, -1.0]])
    mdl = M.validated(M.PatchModel(2, growth, migration))
    c = A.corners(mdl)
    assert c["lambda_infinf"] == pytest.approx(
        float(mdl.mean_rates().mean()), abs=1e-12)


def test_m_star_cases():
    assert A.m_star(M.builtin("ab1")) == pytest.approx(5.0 / 9.0, abs=1e-12)
    assert A.m_star(M.builtin("ab_mstar_inf")) is None  # growth for all m
    assert A.m_star(M.builtin("three_patch_circular")) == pytest.approx(
        0.172, abs=1e-3)


def test_m_star_none_when_not_all_sinks():
    growth = M.PeriodicMatrixFunction.constant(np.diag([0.2, -0.5]))
    migration = M.PeriodicMatrixFunction.constant([[-1.0, 1.0], [1.0, -1.0]])
    mdl = M.validated(M.PatchModel(2, growth, migration))
    assert A.m_star(mdl) is None


def _migration_times(mdl, c):
    """The model with its migration L replaced by c L."""
    L = mdl.migration
    return M.validated(M.PatchModel(mdl.n, mdl.growth,
                                    M.PeriodicMatrixFunction.from_segments(
                                        L.breaks, [c * Lk for Lk in L.matrices])))


@pytest.mark.parametrize("c", [1e-6, 1e-3, 1e3, 1e6])
def test_m_star_scales_with_the_migration(c):
    # Lambda(m, inf) of the model with migration c L is Lambda(c m, inf) of
    # the model, so its root is m* / c, outside [1e-6, 100] for c = 1e-3,
    # 1e-6 and 1e6
    mdl = M.builtin("ab1")
    want = A.m_star(mdl) / c
    assert A.m_star(_migration_times(mdl, c)) == pytest.approx(want,
                                                               rel=1e-14)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_m_star_bracket_search_is_capped(monkeypatch, sign):
    # a slow-regime curve that never changes sign: positive for every m,
    # or nonpositive for every m; the bracket stops widening at the caps
    calls = []

    def one_sign(model, m):
        calls.append(m)
        return sign

    monkeypatch.setattr(A, "limit_Tinf", one_sign)
    with pytest.raises(A.BracketFailure):
        A.m_star(M.builtin("ab1"))
    # 1e-6 / 100^k and 100 * 100^k pass the caps at k = 148 and 150
    assert len(calls) <= 153
    assert min(calls) < A.M_STAR_LIMITS[0] or max(calls) > A.M_STAR_LIMITS[1]


@pytest.mark.parametrize("name", ["three_patch_reducible",
                                  "three_patch_reducible(1,-0.8)"])
def test_limit_Tinf_of_reducible_segments(name):
    # the favourable patch is its own class in each segment, and a sink in
    # the next: Lambda(m, T) -> (1 + b)/2, not the pointwise abscissa 1
    mdl = M.builtin(name)
    b = -1.0 if name == "three_patch_reducible" else -0.8
    for m in (0.05, 1.0, 20.0):
        lam, status = D.growth_rates(mdl, m, np.array([500.0, 1000.0]))
        assert np.all(status == "ok")
        # Lambda = Lambda(m, inf) + c / T + O(e^{-gT}): cancel the c / T
        assert A.limit_Tinf(mdl, m) == pytest.approx(2.0 * lam[1] - lam[0],
                                                     abs=1e-6)
        assert A.limit_Tinf(mdl, m) == pytest.approx((1.0 + b) / 2.0,
                                                     abs=1e-14)


def test_limit_Tinf_of_irreducible_segments_is_the_period_average():
    for name in M.catalog():
        mdl = M.builtin(name)
        if mdl.validation is not M.ValidationStatus.IRREDUCIBLE_EVERYWHERE:
            continue
        for m in (0.05, 1.0, 20.0):
            _, widths, mats = D.merged_segments(mdl, m)
            assert A.limit_Tinf(mdl, m) == float(sum(
                w * perron_root(Ak[None])[0] for w, Ak in zip(widths, mats)))


def test_m_star_residual():
    mdl = M.builtin("ab1")
    ms = A.m_star(mdl)
    assert abs(A.limit_Tinf(mdl, ms)) <= 1e-10


def test_two_patch_closed_forms_match_limits(rng):
    for _ in range(10):
        mdl = random_model(rng, n=2)
        m = float(rng.uniform(0.05, 5.0))
        cf = A.two_patch_closed_forms(mdl, m)
        assert cf["lambda_T0"] == pytest.approx(A.limit_T0(mdl, m), abs=1e-12)
        assert cf["lambda_Tinf"] == pytest.approx(A.limit_Tinf(mdl, m),
                                                  abs=1e-12)


def test_two_patch_closed_forms_wrong_dimension():
    with pytest.raises(A.WrongDimension):
        A.two_patch_closed_forms(M.builtin("three_patch_circular"), 1.0)


def test_pointwise_lam_max_between_rate_extremes(rng):
    # the instantaneous spectral abscissa is pinched by the patch rates
    for _ in range(10):
        mdl = random_model(rng)
        m = float(rng.uniform(0.05, 5.0))
        for tau in rng.uniform(0.0, 1.0, size=5):
            r = mdl.rates(float(tau))
            Amat = mdl.growth.value(float(tau)) + m * mdl.migration.value(float(tau))
            lam = perron_root(Amat[None])[0]
            assert r.min() - 1e-10 <= lam <= r.max() + 1e-10


def test_convexity_ab1():
    rep = A.convexity_report(M.builtin("ab1"), np.geomspace(0.01, 20.0, 200))
    assert rep.decreasing_T0 and rep.decreasing_Tinf
    assert rep.convex_T0 and rep.convex_Tinf
    assert not rep.degenerate_equal_rates


def test_convexity_equal_rates_flat():
    growth = M.PeriodicMatrixFunction.from_segments(
        [0.0, 0.5], [np.diag([0.4, 0.4]), np.diag([-0.6, -0.6])])
    migration = M.PeriodicMatrixFunction.constant([[-1.0, 1.0], [1.0, -1.0]])
    mdl = M.validated(M.PatchModel(2, growth, migration))
    rep = A.convexity_report(mdl, np.geomspace(0.1, 10.0, 50))
    assert rep.degenerate_equal_rates
    assert abs(rep.worst_increase) <= 1e-10


def test_convexity_random_two_patch(rng):
    grid = np.geomspace(0.05, 10.0, 60)
    for _ in range(10):
        rep = A.convexity_report(random_model(rng, n=2), grid)
        assert rep.decreasing_T0 and rep.decreasing_Tinf
        assert rep.convex_T0 and rep.convex_Tinf


def test_case1_sign_pattern():
    mdl = M.builtin("ab1")
    ms = A.m_star(mdl)
    for m in np.linspace(0.05, 0.95, 10) * ms:
        assert A.limit_Tinf(mdl, float(m)) > 0.0
    for m in ms + np.linspace(0.05, 2.0, 10):
        assert A.limit_Tinf(mdl, float(m)) < 0.0


def test_limit_panel_fields():
    panel = A.limit_panel(M.builtin("ab1"), m=1.0)
    assert panel.infimum == pytest.approx(-1.0 / 3.0, abs=1e-12)
    assert panel.m_star == pytest.approx(5.0 / 9.0, abs=1e-12)
    assert panel.lambda_m_T0 is not None and panel.lambda_m_Tinf is not None
