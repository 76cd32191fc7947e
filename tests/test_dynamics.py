"""Monodromy, growth rate, and periodic simplex dynamics."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from conftest import random_model
# an exponential independent of the one under test
from scipy.linalg import expm

from digrowth import dynamics as D
from digrowth import model as M
from digrowth.spectral import perron_vector


def P(m, T):
    return M.ModelParameters(m=m, T=T)


def test_monodromy_pm1_exponential_product():
    eps, m, T = 0.5, 1.3, 2.0
    mdl = M.builtin(f"pm1({eps})")
    A = np.array([[1 - eps - m, m], [m, -1 - eps - m]])
    B = np.array([[-1 - eps - m, m], [m, 1 - eps - m]])
    expected = expm(T * B / 2) @ expm(T * A / 2)
    assert np.allclose(D.monodromy(mdl, P(m, T)), expected, rtol=1e-12)


def test_monodromy_abc_three_factor_product():
    mdl = M.builtin("abc_two_patch")
    m, T = 0.8, 3.0
    mats = [mdl.growth.value(t) + m * mdl.migration.value(t)
            for t in (0.0, 1.0 / 3.0, 2.0 / 3.0)]
    expected = expm(T * mats[2] / 3) @ expm(T * mats[1] / 3) @ expm(T * mats[0] / 3)
    assert np.allclose(D.monodromy(mdl, P(m, T)), expected, rtol=1e-12)


@pytest.mark.parametrize("m", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("T", [0.5, 3.0, 10.0, 30.0])
def test_monodromy_abc_matches_mpmath_product(m, T):
    # the ordered product of the three segment exponentials at 40 digits
    mdl = M.builtin("abc_two_patch")
    mats = [mdl.growth.value(t) + m * mdl.migration.value(t)
            for t in (0.0, 1.0 / 3.0, 2.0 / 3.0)]
    with mp.workdps(40):
        want = mp.eye(2)
        for A in mats:
            want = mp.expm(mp.matrix((T / 3 * A).tolist())) * want
        want = np.array(want.tolist(), dtype=float)
    got = D.monodromy(mdl, P(m, T))
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_monodromy_m0_is_diagonal_of_mean_rates():
    mdl = M.builtin("ab1")
    T = 4.0
    Phi = D.monodromy(mdl, P(0.0, T))
    assert np.allclose(Phi, np.diag(np.exp(T * mdl.mean_rates())), rtol=1e-12)


def test_growth_rate_requires_positive_m():
    with pytest.raises(ValueError):
        D.growth_rate(M.builtin("ab1"), P(0.0, 1.0))


@pytest.mark.parametrize("m, T", [(1.0, np.inf), (np.inf, 1.0),
                                  (np.inf, np.inf)])
def test_scalar_lambda_rejects_non_finite_m_and_T(m, T):
    # the ValueError of growth_rates on the same input, not a product that
    # broke down; a finite T that overflows stays an IntegrationFailure
    mdl = M.builtin("ab1")
    with pytest.raises(ValueError):
        D.growth_rates(mdl, m, T)
    with pytest.raises(ValueError):
        D.growth_rate(mdl, P(m, T))
    with pytest.raises(ValueError):
        D.monodromy(mdl, P(m, T))
    with pytest.raises(D.IntegrationFailure):
        D.growth_rate(mdl, P(1.0, 1e308))


def test_growth_rate_equal_rates_is_mean():
    # identical rates on every patch: migration is neutral, Lambda = rbar
    growth = M.PeriodicMatrixFunction.from_segments(
        [0.0, 0.5], [np.diag([0.4, 0.4]), np.diag([-0.6, -0.6])])
    migration = M.PeriodicMatrixFunction.constant([[-2.0, 1.0], [2.0, -1.0]])
    mdl = M.validated(M.PatchModel(2, growth, migration))
    for m, T in [(0.3, 0.7), (2.0, 5.0), (10.0, 40.0)]:
        assert D.growth_rate(mdl, P(m, T)).lam == pytest.approx(-0.1, abs=1e-10)


def test_growth_rate_lambda_mu_consistency():
    mdl = M.builtin("ab1")
    res = D.growth_rate(mdl, P(1.0, 5.0))
    assert res.lam == pytest.approx(np.log(res.mu) / 5.0, abs=1e-12)
    assert np.all(res.pi > 0.0)
    assert res.pi.sum() == pytest.approx(1.0, abs=1e-10)


def test_growth_rate_period_concatenation_invariance():
    mdl = M.builtin("ab1")
    m, T, k = 0.7, 3.0, 7
    Phi = D.monodromy(mdl, P(m, T))
    from digrowth.spectral import perron_positive
    lam_k, _ = perron_positive(np.linalg.matrix_power(Phi, k))
    assert np.log(lam_k) / (k * T) == pytest.approx(
        D.growth_rate(mdl, P(m, T)).lam, abs=1e-10)


def test_growth_rate_no_overflow_at_large_lambda_T():
    # fainshil has rates up to 9; Lambda*T is in the thousands here
    mdl = M.builtin("fainshil(0.1,0.1)")
    res = D.growth_rate(mdl, P(0.05, 1000.0))
    assert np.isfinite(res.lam)


def test_nonpositive_monodromy_raises():
    mdl = M.builtin("fainshil(0,0)")
    with pytest.raises(D.NonPositiveMonodromy):
        D.growth_rate(mdl, P(1.0, 2.0))
    with pytest.raises(D.NonPositiveMonodromy):
        D.monodromy(mdl, P(1.0, 2.0))


def test_underflowed_monodromy_is_an_integration_failure():
    # the favorable patch's mass leaves the scaled product at every switch,
    # so the whole product underflows to 0 although Phi(T) > 0
    mdl = M.builtin("three_patch_reducible")
    with pytest.raises(D.IntegrationFailure):
        D.growth_rate(mdl, P(0.01, 1e4))
    lam, status = D.growth_rates(mdl, 0.01, [1e3, 1e4])
    assert list(status) == ["ok", "error"]


def test_propagate_simplex_overflowing_period_is_an_integration_failure():
    # T * A overflows: a typed error, not OverflowError after a NumPy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(D.IntegrationFailure):
            D.propagate_simplex(M.builtin("ab1"), P(1.0, 1e308),
                                np.array([[0.5, 0.5]]))


def test_propagate_simplex_underflowed_state_is_an_integration_failure():
    # the scaled segment exponentials drop every column's mass, which the
    # sub-step propagation returned as an underflowed state
    mdl = M.builtin("three_patch_reducible")
    with pytest.raises(D.IntegrationFailure, match="positive cone"):
        D.propagate_simplex(mdl, P(1.0, 1e4), np.full((1, 3), 1.0 / 3.0))


@pytest.mark.parametrize("name", ["ab1", "three_patch_circular",
                                  "fainshil(0.1,0.1)"])
def test_propagate_simplex_keeps_theta_star(name):
    mdl = M.builtin(name)
    for params in (P(0.3, 0.5), P(1.0, 5.0), P(3.0, 40.0)):
        theta0 = D.periodic_simplex_solution(mdl, params).states[:1]
        after = D.propagate_simplex(mdl, params, theta0)
        assert np.abs(after - theta0).max() <= 1e-12


@pytest.mark.parametrize("name", [n for n in M.catalog()
                                  if M.builtin(n).validation is not
                                  M.ValidationStatus.NO_POSITIVE_MONODROMY])
def test_theta_star_simpson_weights_sum_to_widths(name):
    mdl = M.builtin(name)
    widths = mdl.segments.widths
    for params in (P(0.1, 0.05), P(1.0, 20.0), P(10.0, 300.0)):
        _, theta, seg, weight, _ = D._theta_star(mdl, params)
        assert len(theta) == len(seg) == len(weight)
        # exact sums: the weights, not the summation order, are under test
        for k, w in enumerate(widths):
            assert abs(math.fsum(weight[seg == k]) - w) <= 1e-14
        assert abs(math.fsum(weight) - 1.0) <= 1e-14


def test_slow_curve_compares_the_nodes_outside_every_layer():
    # a node is skipped within SLOW_CURVE_LAYER after a break, or 1e-12
    # before it; tau = 1 is tau = 0 of the next period
    mdl, params = M.builtin("abc_two_patch"), P(0.7, 50.0)
    breaks = mdl.segments.breaks
    tau, theta, seg, _, _ = D._theta_star(mdl, params)
    phase = np.where(tau >= 1.0 - 1e-12, 0.0, tau)
    last = breaks[np.searchsorted(breaks, phase + 1e-12, side="right") - 1]
    outside = phase - last >= D.SLOW_CURVE_LAYER
    v = perron_vector(mdl.segments.R + params.m * mdl.segments.L)[seg]
    report = D.verify_slow_curve(mdl, params)
    assert report.n_compared == outside.sum() > 0
    assert report.sup_deviation == np.abs(theta - v)[outside].max()


def test_integral_formula_of_uniform_growth_is_the_rate():
    # r . theta* = c on the simplex whatever theta* is
    c = -0.7
    growth = M.PeriodicMatrixFunction.from_segments(
        [0.0, 0.3], [c * np.eye(3)] * 2)
    migration = M.PeriodicMatrixFunction.constant(
        [[-1.0, 0.5, 2.0], [1.0, -2.0, 0.0], [0.0, 1.5, -2.0]])
    mdl = M.validated(M.PatchModel(3, growth, migration))
    for m, T in [(0.2, 0.1), (1.0, 5.0), (5.0, 80.0)]:
        assert abs(D.growth_rate_integral(mdl, P(m, T)) - c) <= 1e-12


def test_oracle_agrees_with_monodromy():
    mdl = M.builtin("ab1")
    params = P(0.5, 10.0)
    direct = D.growth_rate(mdl, params).lam
    oracle = D.growth_rate_oracle(mdl, params)
    assert oracle == pytest.approx(direct, abs=1e-4)


def test_periodic_simplex_solution_properties():
    mdl = M.builtin("ab1")
    traj = D.periodic_simplex_solution(mdl, P(1.0, 5.0))
    assert traj.periodic_defect <= 1e-8
    assert np.all(traj.states > 0.0)
    assert np.abs(traj.states.sum(axis=1) - 1.0).max() <= 1e-10
    assert traj.times[0] == 0.0 and traj.times[-1] == pytest.approx(5.0)


def test_theta_star_constant_matrix_is_perron_vector():
    growth = M.PeriodicMatrixFunction.constant(np.diag([0.3, -0.9]))
    migration = M.PeriodicMatrixFunction.constant([[-1.0, 2.0], [1.0, -2.0]])
    mdl = M.validated(M.PatchModel(2, growth, migration))
    traj = D.periodic_simplex_solution(mdl, P(1.0, 3.0))
    A = np.diag([0.3, -0.9]) + np.array([[-1.0, 2.0], [1.0, -2.0]])
    v = perron_vector(A[:, :, None])[0]
    assert np.abs(traj.states - v[None, :]).max() <= 1e-9


def test_theta_star_symmetric_large_m_near_center():
    mdl = M.builtin("pm1(0.5)")
    traj = D.periodic_simplex_solution(mdl, P(100.0, 2.0))
    assert np.abs(traj.states - 0.5).max() <= 0.01


def test_global_asymptotic_stability(rng):
    mdl = M.builtin("ab1")
    params = P(1.0, 5.0)
    target = D.growth_rate(mdl, params).pi
    starts = rng.dirichlet(np.ones(2), size=20)
    final = D.propagate_simplex(mdl, params, starts, periods=30)
    assert np.abs(final - target[None, :]).max() <= 1e-6


def test_integral_formula_matches_growth_rate():
    mdl = M.builtin("ab1")
    for m, T in [(1.0, 5.0), (0.3, 0.5), (2.0, 30.0)]:
        params = P(m, T)
        direct = D.growth_rate(mdl, params).lam
        assert D.growth_rate_integral(mdl, params) == pytest.approx(
            direct, abs=1e-6)


def test_integral_formula_pm1_long_period():
    mdl = M.builtin("pm1(0.5)")
    params = P(1.0, 100.0)
    assert D.growth_rate_integral(mdl, params) == pytest.approx(
        D.growth_rate(mdl, params).lam, abs=1e-6)


def test_h_formula_matches_and_is_bounded_below():
    mdl = M.builtin("ab1")
    for m, T in [(0.5, 2.0), (3.0, 10.0)]:
        params = P(m, T)
        val = D.growth_rate_h_formula(mdl, params)
        assert val == pytest.approx(D.growth_rate(mdl, params).lam, abs=1e-6)
        assert val >= -1.0 / 3.0 - 1e-9  # sum_i p_i rbar_i for this model


def test_h_formula_rejects_time_dependent_migration():
    with pytest.raises(D.NonConstantMigration):
        D.growth_rate_h_formula(M.builtin("ab2s"), P(1.0, 1.0))


def test_h_formula_zero_rates():
    # R = 0: Lambda = 0 and h vanishes at the kernel vector
    growth = M.PeriodicMatrixFunction.constant(np.zeros((2, 2)))
    migration = M.PeriodicMatrixFunction.constant([[-1.0, 2.0], [1.0, -2.0]])
    mdl = M.validated(M.PatchModel(2, growth, migration))
    assert D.growth_rate_h_formula(mdl, P(1.0, 2.0)) == pytest.approx(
        0.0, abs=1e-10)


def test_verify_slow_curve_constant_matrix():
    growth = M.PeriodicMatrixFunction.constant(np.diag([0.3, -0.9]))
    migration = M.PeriodicMatrixFunction.constant([[-1.0, 2.0], [1.0, -2.0]])
    mdl = M.validated(M.PatchModel(2, growth, migration))
    rep = D.verify_slow_curve(mdl, P(1.0, 10.0))
    assert rep.sup_deviation <= 1e-8


def test_verify_slow_curve_decay_ab1():
    mdl = M.builtin("ab1")
    d20 = D.verify_slow_curve(mdl, P(1.0, 20.0)).sup_deviation
    d200 = D.verify_slow_curve(mdl, P(1.0, 200.0)).sup_deviation
    assert d200 < d20


def test_random_models_defect_and_positivity(rng):
    for _ in range(5):
        mdl = random_model(rng)
        params = P(float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.5, 10.0)))
        traj = D.periodic_simplex_solution(mdl, params)
        assert traj.periodic_defect <= 1e-8
        assert np.all(traj.states > 0.0)
