"""Metamorphic properties and bounds of Lambda on random piecewise-constant
models whose growth and migration schedules switch at different times, so
every evaluation runs on a merged refinement of the two schedules."""

import warnings
from unittest import mock

import numpy as np
from conftest import pade_exponentials
from hypothesis import example, given, settings, strategies as st

from digrowth import asymptotics, dynamics as D, model as M
from digrowth.model import PatchModel, PeriodicMatrixFunction, validated
from digrowth.spectral import perron_vector

# breakpoints are multiples of 1/GRID: growth switches at multiples of 4/GRID
# and migration at 2 mod 4, so the two schedules share only tau = 0, and a
# phase shift by a multiple of 1/GRID maps breakpoints onto the grid exactly
GRID = 40
TOL = 1e-11


def _schedule(starts, mats):
    return PeriodicMatrixFunction.from_segments(
        [s / GRID for s in starts], mats)


def _migration(off, n):
    L = np.zeros((n, n))
    L[~np.eye(n, dtype=bool)] = off
    return L - np.diag(L.sum(axis=0))


@st.composite
def schedules(draw, sizes=(2, 3, 4)):
    """(n, growth, migration), each schedule a (starts, matrices) pair with
    starts in units of 1/GRID."""
    n = draw(st.sampled_from(sizes))
    g_inner = draw(st.lists(st.integers(1, 9), unique=True, max_size=2))
    m_inner = draw(st.lists(st.integers(0, 9), unique=True, min_size=1,
                            max_size=2))
    g_starts = [0] + sorted(4 * s for s in g_inner)
    m_starts = [0] + sorted(4 * s + 2 for s in m_inner)
    rate = st.floats(-2.0, 1.0)
    flow = st.floats(0.1, 2.0)
    growth = [np.diag(draw(st.lists(rate, min_size=n, max_size=n)))
              for _ in g_starts]
    migration = [_migration(draw(st.lists(flow, min_size=n * (n - 1),
                                          max_size=n * (n - 1))), n)
                 for _ in m_starts]
    return n, (g_starts, growth), (m_starts, migration)


def _model(n, growth, migration):
    return validated(PatchModel(n, _schedule(*growth), _schedule(*migration)))


def _lam(mdl, m, T):
    lam, status = D.growth_rates(mdl, m, T)
    assert np.all(status == "ok")
    return lam


points = st.tuples(st.floats(0.1, 5.0), st.floats(0.5, 20.0))


@settings(max_examples=30, deadline=None)
@given(spec=schedules(), point=points, c=st.floats(-3.0, 3.0))
def test_rate_shift_shifts_lambda(spec, point, c):
    n, (g_starts, growth), migration = spec
    mdl = _model(*spec)
    assert len(mdl.segments.widths) > len(g_starts)
    shifted = _model(n, (g_starts, [R + c * np.eye(n) for R in growth]),
                     migration)
    assert abs(_lam(shifted, *point) - (_lam(mdl, *point) + c)) <= TOL


@settings(max_examples=30, deadline=None)
@given(spec=schedules(), point=points, data=st.data())
def test_patch_permutation_leaves_lambda(spec, point, data):
    n, (g_starts, growth), (m_starts, migration) = spec
    p = np.array(data.draw(st.permutations(range(n))))
    permuted = _model(n, (g_starts, [R[np.ix_(p, p)] for R in growth]),
                      (m_starts, [L[np.ix_(p, p)] for L in migration]))
    assert abs(_lam(permuted, *point) - _lam(_model(*spec), *point)) <= TOL


def _rotate(starts, mats, shift):
    """The schedule tau -> f(tau + shift / GRID), on the 1/GRID grid."""
    rotated = {(s - shift) % GRID: M for s, M in zip(starts, mats)}
    if 0 not in rotated:
        # the segment that contains the new origin now starts there
        rotated[0] = mats[max(k for k, s in enumerate(starts) if s <= shift)]
    order = sorted(rotated)
    return order, [rotated[s] for s in order]


@settings(max_examples=30, deadline=None)
@given(spec=schedules(), point=points, shift=st.integers(1, GRID - 1))
def test_phase_rotation_leaves_lambda(spec, point, shift):
    n, growth, migration = spec
    rotated = _model(n, _rotate(*growth, shift), _rotate(*migration, shift))
    assert abs(_lam(rotated, *point) - _lam(_model(*spec), *point)) <= TOL


@settings(max_examples=30, deadline=None)
@given(spec=schedules(), point=points)
def test_lambda_is_at_most_chi(spec, point):
    # chi, the period average of the best rate max_i r_i, bounds Lambda
    mdl = _model(*spec)
    assert _lam(mdl, *point) <= asymptotics.chi(mdl) + TOL


@settings(max_examples=30, deadline=None)
@given(spec=schedules(), point=points)
def test_lambda_is_at_least_p_rbar_under_constant_migration(spec, point):
    # Lambda = p . rbar + m int h(theta*) with h >= 0, p the kernel vector
    # of the constant migration matrix: its Perron vector
    n, growth, (_, migration) = spec
    L = migration[0]
    mdl = _model(n, growth, ([0], [L]))
    p = perron_vector(L[:, :, None])[0]
    assert p @ mdl.mean_rates() <= _lam(mdl, *point) + TOL


def _eigvals_root(M):
    return np.linalg.eigvals(M.transpose(2, 0, 1)).real.max(axis=1)


def _both_paths(mdl, m, T):
    """growth_rates through the 2x2 closed forms, which must not warn, and
    with the stacked Pade-13 exponentials and the eigvals root forced on the
    same cells."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lam, status = D.growth_rates(mdl, m, T)
    with mock.patch.multiple(D, expm2_scaled=pade_exponentials,
                             perron_root=_eigvals_root):
        want, want_status = D.growth_rates(mdl, m, T)
    assert np.array_equal(status, want_status)
    ok = status == "ok"
    assert np.all(np.abs(lam[ok] - want[ok]) <= TOL)
    return status


cells = st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-3.0, 4.0)),
                 min_size=1, max_size=16)


@settings(max_examples=40, deadline=None)
@given(spec=schedules(sizes=(2,)), log_cells=cells, flat=st.booleans())
# migration off on [0, 0.35), where patch 2 grows on [0.1, 0.2) and decays
# on [0.2, 0.35): unfused, their rescaled factors multiply to 0 at T = 1e4
@example(spec=(2, ([0, 4, 8], [np.zeros((2, 2)), np.diag([0.0, 1.0]),
                               np.diag([0.0, -1.0])]),
               ([0, 14], [_migration([1.0, 1.0], 2)] * 2)),
         log_cells=[(0.0, 4.0)], flat=True)
def test_two_patch_closed_form_matches_stacked_path(spec, log_cells, flat):
    n, (g_starts, growth), (m_starts, migration) = spec
    if flat:
        # equal rates and no flow on the first merged segment: s = 0 there
        growth = [growth[0][0, 0] * np.eye(2)] + growth[1:]
        migration = [np.zeros((2, 2))] + migration[1:]
    mdl = _model(n, (g_starts, growth), (m_starts, migration))
    m, T = 10.0 ** np.array(log_cells).T
    assert np.all(_both_paths(mdl, m, T) == "ok")


def test_two_patch_paths_agree_where_scaling_breaks_down():
    # the cells of test_scaling_breakdown_is_an_error_cell
    status = _both_paths(M.builtin("ab1"), 1.0, np.array([1.0, 1e308]))
    assert list(status) == ["ok", "error"]
