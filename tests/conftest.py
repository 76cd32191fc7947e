"""Shared fixtures and model factories for the test suite."""

from __future__ import annotations

import os

# the matrices are 2 x 2 and 3 x 3: BLAS helper threads woken by every small
# LAPACK call only spin against the test thread.  Set before NumPy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from digrowth.model import (PatchModel, PeriodicMatrixFunction,  # noqa: E402
                            validated)
from digrowth.spectral import expm_stack_scaled  # noqa: E402


def random_migration(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random irreducible migration matrix: all off-diagonals positive,
    columns summing to zero."""
    L = rng.uniform(0.1, 2.0, size=(n, n))
    np.fill_diagonal(L, 0.0)
    L -= np.diag(L.sum(axis=0))
    return L


def random_model(rng: np.random.Generator, n: int | None = None,
                 all_sinks: bool = False,
                 constant_migration: bool = False) -> PatchModel:
    """Seeded random piecewise-constant model, irreducible everywhere."""
    if n is None:
        n = int(rng.integers(2, 5))
    n_seg = int(rng.integers(1, 4))
    if n_seg == 1:
        breaks = [0.0]
    else:
        inner = np.sort(rng.uniform(0.08, 0.92, size=n_seg - 1))
        # keep segments from collapsing
        while np.any(np.diff(np.concatenate([[0.0], inner, [1.0]])) < 0.05):
            inner = np.sort(rng.uniform(0.08, 0.92, size=n_seg - 1))
        breaks = [0.0] + inner.tolist()
    rates = rng.uniform(-2.0, 1.0, size=(n_seg, n))
    if all_sinks:
        widths = np.diff(np.array(breaks + [1.0]))
        rbar = widths @ rates
        rates = rates - rbar[None, :] - rng.uniform(0.05, 0.5, size=n)[None, :]
    growth = PeriodicMatrixFunction.from_segments(
        breaks, [np.diag(r) for r in rates])
    if constant_migration:
        migration = PeriodicMatrixFunction.constant(random_migration(rng, n))
    else:
        migration = PeriodicMatrixFunction.from_segments(
            breaks, [random_migration(rng, n) for _ in range(n_seg)])
    return validated(PatchModel(n, growth, migration))


def pade_exponentials(B):
    """``expm2_scaled`` by the stacked Pade-13 that three patches use: the
    (E, l, broken) of ``expm_stack_scaled`` on the entry-major stack B
    (2, 2, ...), shaped as the closed form returns them."""
    shape = B.shape[2:]
    E, l, broken = expm_stack_scaled(B.reshape(2, 2, -1))
    return E.reshape(B.shape), l.reshape(shape), broken.reshape(shape)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One line per acceptance criterion in the run log."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in RESULTS:
            terminalreporter.write_line(line)
