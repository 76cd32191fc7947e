"""Spectral primitives against dense linear-algebra references."""

import itertools
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.csgraph import connected_components

from digrowth import model as M
from digrowth import spectral as S


def _entry_major(A):
    """The entry-major stack (n, n, N) of a stack of matrices (N, n, n)."""
    return np.ascontiguousarray(A.transpose(1, 2, 0))


def _matrix_major(E):
    """The stack of matrices (N, n, n) of an entry-major stack (n, n, N)."""
    return E.transpose(2, 0, 1)


def _expm(A):
    """e^A of one matrix or of each matrix of a stack, E e^l from
    ``expm_stack_scaled``, NaN where it marks a matrix broken."""
    A = np.asarray(A, dtype=float)
    E, l, broken = S.expm_stack_scaled(
        _entry_major(A.reshape(-1, *A.shape[-2:])))
    E = _matrix_major(E * np.exp(l))
    E[broken] = np.nan
    return E.reshape(A.shape)


def test_expm_matches_series():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    t = 0.7
    expected = np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
    assert np.allclose(_expm(t * A), expected, atol=1e-12)


def _expm_test_stack(rng, n):
    """Diagonal, triangular, zero and tiny-norm matrices, then Metzler
    matrices with 1-norms up to 12, past both theta_13 and the growth-rate
    kernel's step budget of 10."""
    diag = [np.diag(rng.uniform(-10.0, 10.0, n)) for _ in range(4)]
    tri = [np.triu(rng.uniform(-3.0, 3.0, (n, n))) for _ in range(4)]
    tri += [t.T for t in tri]
    special = diag + tri + [np.zeros((n, n)), np.full((n, n), 1e-300),
                            1e-9 * rng.uniform(-1.0, 1.0, (n, n))]
    metzler = rng.uniform(0.0, 1.0, (200, n, n))
    for A in metzler:
        np.fill_diagonal(A, rng.uniform(-3.0, 1.0, n))
    norms = np.concatenate([rng.uniform(0.0, 10.0, 190),
                            [5.37, 5.38, 6.0, 8.0, 9.9, 10.0, 10.5, 11.0,
                             11.5, 12.0]])
    metzler *= (norms / np.abs(metzler).sum(axis=1).max(axis=1))[:, None, None]
    return np.concatenate([np.array(special), metzler])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_expm_stack_matches_scipy(rng, n):
    # against a 40-digit reference, scipy's expm errs by up to about 1.5e-12
    # of the max entry at 1-norms 10 to 20 and Pade-13 by under 3e-14, so
    # the bound is set by scipy's own error
    A = _expm_test_stack(rng, n)
    E = _expm(A)
    assert E.shape == A.shape
    for a, e in zip(A, E):
        ref = scipy.linalg.expm(a)
        assert np.abs(e - ref).max() <= 3e-12 * np.abs(ref).max()


def test_expm_stack_exact_cases(rng):
    zero = _expm(np.zeros((3, 3, 3)))
    assert np.abs(zero - np.eye(3)).max() <= np.finfo(float).eps
    d = rng.uniform(-30.0, 30.0, (50, 3))
    E = _expm(np.stack([np.diag(x) for x in d]))
    assert np.allclose(np.diagonal(E, axis1=1, axis2=2), np.exp(d),
                       rtol=1e-13, atol=0.0)
    assert np.all(E[:, ~np.eye(3, dtype=bool)] == 0.0)
    # symmetric: Q diag(e^w) Q^T from the symmetric eigensolver is accurate
    # to a few ulps of the max entry at any norm
    B = rng.uniform(-1.0, 1.0, (50, 4, 4)) * rng.uniform(0.0, 20.0, (50, 1, 1))
    B = B + B.transpose(0, 2, 1)
    w, Q = np.linalg.eigh(B)
    ref = (Q * np.exp(w)[:, None, :]) @ Q.transpose(0, 2, 1)
    scale = np.abs(ref).max(axis=(1, 2))
    assert np.all(np.abs(_expm(B) - ref).max(axis=(1, 2)) <= 1e-13 * scale)


def test_expm_stack_slices_are_batch_independent(rng):
    # each matrix alone against its stack: the test stack with large norms
    # added for n = 2, 3 and 4, and a stack of 2049 three-patch matrices,
    # one past a power of two
    stacks = [np.concatenate([_expm_test_stack(rng, n),
                              50.0 * rng.uniform(-1.0, 1.0, (8, n, n))])
              for n in (2, 3, 4)]
    big = rng.uniform(0.0, 1.0, (2049, 3, 3)) - 2.0 * np.eye(3)
    stacks.append(big * 10.0 ** rng.uniform(-3.0, 2.5, (2049, 1, 1)))
    for A in stacks:
        A = _entry_major(A)
        E, l, broken = S.expm_stack_scaled(A)
        for c in range(A.shape[2]):
            e, lc, bc = S.expm_stack_scaled(A[:, :, c:c + 1])
            assert np.array_equal(E[:, :, c], e[:, :, 0])
            assert (l[c], broken[c]) == (lc[0], bc[0])


def test_expm_empty_stack():
    E = _expm(np.zeros((0, 3, 3)))
    assert E.shape == (0, 3, 3)


def test_perron_positive_matches_dense(rng):
    for _ in range(25):
        n = int(rng.integers(2, 6))
        A = rng.uniform(0.1, 3.0, size=(n, n))
        lam, v = S.perron_positive(A)
        w = np.linalg.eigvals(A)
        assert lam == pytest.approx(w.real.max(), abs=1e-10)
        assert np.all(v > 0.0)
        assert v.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(A @ v, lam * v, atol=1e-9 * max(1.0, lam))


def test_perron_positive_small_gap_falls_back():
    # nearly equal dominant pair: power iteration alone would crawl
    A = np.array([[1.0, 1e-8], [1e-8, 1.0]])
    lam, v = S.perron_positive(A)
    assert lam == pytest.approx(1.0 + 1e-8, rel=1e-10)


def test_perron_root_of_a_one_way_cycle_does_not_warn():
    # fainshil's averaged matrix is a one-way 3-cycle with equal diagonal:
    # the centred matrix has q = 0 and det != 0, the root comes from
    # cbrt(det), and every patch's mean rate, -0.5, is the root
    mdl = M.builtin("fainshil")
    for m in (1e-6, 1e-2, 0.3, 1.0, 10.0, 100.0):
        seg = mdl.segments
        A = seg.R @ seg.widths + m * (seg.L @ seg.widths)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            root = S.perron_root(A[:, :, None])[0]
        assert abs(root + 0.5) <= 4.0 * np.finfo(float).eps * np.abs(A).sum(
            axis=0).max()


def test_perron_frobenius_metzler(rng):
    for _ in range(25):
        n = int(rng.integers(2, 6))
        A = rng.uniform(0.1, 2.0, size=(n, n))
        np.fill_diagonal(A, rng.uniform(-5.0, 1.0, size=n))
        stack = A[:, :, None]
        lam, v = S.perron_root(stack)[0], S.perron_vector(stack)[0]
        assert lam == pytest.approx(np.linalg.eigvals(A).real.max(), abs=1e-10)
        assert np.all(v > 0.0)
        assert np.allclose(A @ v, lam * v, atol=1e-8)


def test_kernel_vector_known():
    # a migration's kernel direction is its Perron vector: the root is 0
    L = np.array([[-1.0, 2.0], [1.0, -2.0]])
    p = S.perron_vector(L[:, :, None])[0]
    assert np.allclose(p, [2.0 / 3.0, 1.0 / 3.0], atol=1e-14)


def test_kernel_vector_random(rng):
    from conftest import random_migration
    for _ in range(20):
        n = int(rng.integers(2, 6))
        L = random_migration(rng, n)
        p = S.perron_vector(L[:, :, None])[0]
        assert np.all(p > 0.0)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(L @ p, 0.0, atol=1e-10)


def test_kernel_consumers_refuse_reducible_input():
    # perron_vector takes any Metzler stack; each caller that needs a
    # positive kernel direction checks irreducibility first
    from digrowth import asymptotics, dynamics, stochastic
    L = [[0.0, 1.0], [0.0, -1.0]]  # patch 2 drains into patch 1
    mdl = M.validated(M.PatchModel(
        2, M.PeriodicMatrixFunction.from_segments(
            [0.0, 0.5], [np.diag([0.5, -1.5]), np.diag([-1.0, 0.5])]),
        M.PeriodicMatrixFunction.constant(L)))
    with pytest.raises(asymptotics.ReducibleSegment):
        asymptotics.limit_minf(mdl)
    assert np.isnan(asymptotics.corners(mdl)["lambda_inf0"])
    assert asymptotics.limit_panel(mdl).infimum is None
    # no positive monodromy, so no theta* and no h-formula
    with pytest.raises(dynamics.NonPositiveMonodromy):
        dynamics.growth_rate_h_formula(mdl, M.ModelParameters(1.0, 2.0))
    absorbing = stochastic.environment([([0.0, 0.0], L)] * 2,
                                       [[0.0, 0.0], [1.0, -1.0]])
    with pytest.raises(stochastic.ReducibleChain):
        stochastic.stationary_distribution(absorbing)
    env = stochastic.environment([([0.5, -1.5], L), ([-1.5, 0.5], L)],
                                 [[-1.0, 1.0], [1.0, -1.0]])
    corners = stochastic.stochastic_limits(env, 1.0)["corners"]
    assert "lambda_inf0" not in corners and "lambda_infT" not in corners


def test_is_irreducible():
    assert S.is_irreducible(np.array([[-1.0, 2.0], [1.0, -2.0]]))
    assert not S.is_irreducible(np.array([[0.0, 1.0], [0.0, -1.0]]))
    # circular three-patch graph is strongly connected
    L = np.array([[-1.0, 0.0, 1.0], [1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
    assert S.is_irreducible(L)
    # entries at the structural-zero threshold do not count as edges
    tiny = np.array([[-1e-15, 1e-15], [1e-15, -1e-15]])
    assert not S.is_irreducible(tiny)


def test_is_irreducible_matches_connected_components(rng):
    # every off-diagonal 0/1 pattern for n <= 4, with absent edges written
    # as 0 or as entries at EDGE_TOL, which do not count as edges
    tol = S.EDGE_TOL
    checked = 0
    for n in range(1, 5):
        off = ~np.eye(n, dtype=bool)
        for bits in itertools.product((False, True), repeat=n * (n - 1)):
            adj = np.zeros((n, n), dtype=bool)
            adj[off] = bits
            A = np.where(adj, rng.uniform(0.1, 2.0, (n, n)),
                         np.where(rng.random((n, n)) < 0.5, tol, 0.0))
            np.fill_diagonal(A, rng.uniform(-2.0, 0.0, n))
            ncomp, _ = connected_components(adj, directed=True,
                                            connection="strong")
            assert S.is_irreducible(A) == (ncomp == 1), A
            checked += 1
    assert checked == 4165


def _sequential_product(E, l):
    """E[K-1] ... E[0] and the sum of the logs, by a left-to-right loop
    rescaled to unit max entry after every step."""
    P, log = E[0].copy(), float(l[0])
    for k in range(1, len(E)):
        P = E[k] @ P
        c = np.abs(P).max()
        P /= c
        log += l[k] + np.log(c)
    return P, log


def _factors(rng, K, n, shape=()):
    """K factors of unit max entry with logs in [-50, 50]: exponentials of
    Metzler matrices, as the kernels pass them."""
    A = rng.uniform(0.0, 1.0, (K, *shape, n, n))
    idx = np.arange(n)
    A[..., idx, idx] = rng.uniform(-3.0, 1.0, (K, *shape, n))
    E, l, broken = S.expm_stack_scaled(_entry_major(A.reshape(-1, n, n)))
    assert not broken.any()
    return (E.reshape(n, n, K, *shape),
            l.reshape(K, *shape) + rng.uniform(-50.0, 50.0, (K, *shape)))


def _assert_same_product(P, log, want, want_log, l):
    """Both products have unit max entry, so they agree entry by entry to
    1e-14; the logs are sums in another order, and agree to 1e-14 of the
    sum of the magnitudes of their terms."""
    assert np.abs(P).max() == 1.0
    assert np.abs(P - want).max() <= 1e-14
    assert abs(log - want_log) <= 1e-14 * (np.abs(l).sum() + 1.0)


@pytest.mark.parametrize("K", range(1, 10))
def test_scaled_product_matches_a_sequential_loop(rng, K):
    n, cells = 3, 5
    E, l = _factors(rng, K, n, (cells,))
    P, logs, broken = S.scaled_product(E, l)
    assert P.shape == (n, n, cells) and logs.shape == (cells,)
    assert not broken.any()
    for c in range(cells):
        want, want_log = _sequential_product(_matrix_major(E[:, :, :, c]),
                                             l[:, c])
        _assert_same_product(P[:, :, c], logs[c], want, want_log, l[:, c])


def test_scaled_product_of_runs_padded_with_identities(rng):
    # ragged runs of 1 to 9 factors, padded with E = I, l = 0 to the longest
    n, sizes = 4, [1, 9, 3, 6, 2, 8]
    E, l = _factors(rng, max(sizes), n, (len(sizes),))
    for run, size in enumerate(sizes):
        E[:, :, size:, run] = np.eye(n)[:, :, None]
        l[size:, run] = 0.0
    P, logs, broken = S.scaled_product(E, l)
    assert not broken.any()
    for run, size in enumerate(sizes):
        want, want_log = _sequential_product(
            _matrix_major(E[:, :, :size, run]), l[:size, run])
        _assert_same_product(P[:, :, run], logs[run], want, want_log,
                             l[:, run])


@pytest.mark.parametrize("K, zero_at", [(2, 0), (5, 4), (8, 3)])
def test_scaled_product_of_a_zero_factor_is_broken(rng, K, zero_at):
    E, l = _factors(rng, K, 3, (2,))
    E[:, :, zero_at, 1] = 0.0
    _, logs, broken = S.scaled_product(E, l)
    assert list(broken) == [False, True]
    assert np.isfinite(logs[0]) and not np.isfinite(logs[1])


def test_adjugate_solve_matches_lapack():
    # well-conditioned 3x3 systems, as V - U of the Pade-13 step is
    rng = np.random.default_rng(11)
    A = np.eye(3) + 0.1 * rng.normal(size=(500, 3, 3))
    B = rng.normal(size=(500, 3, 3))
    want = np.linalg.solve(A, B)
    scale = np.abs(want).max(axis=(1, 2))[:, None, None]
    got = _matrix_major(S._solve3(_entry_major(A), _entry_major(B)))
    assert np.all(np.abs(got - want) <= 1e-15 * scale)


def test_three_patch_exponential_calls_no_lapack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("per-matrix LAPACK call")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    rng = np.random.default_rng(12)
    A = rng.uniform(0.0, 1.0, (64, 3, 3)) - 2.0 * np.eye(3)
    A *= 10.0 ** rng.uniform(-3.0, 2.0, (64, 1, 1))
    E = _expm(A)
    assert np.all(np.abs(E - scipy.linalg.expm(A)) <= 1e-12 * np.abs(
        E).max(axis=(1, 2))[:, None, None])
