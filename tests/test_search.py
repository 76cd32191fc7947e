"""Lockstep root and maximum searches: convergence, evaluation counts,
lockstep independence, end cases and the safe fallback steps."""

import numpy as np
import pytest

from digrowth import search

ROOTS = np.geomspace(2e-3, 5e2, 9)
# smooth functions, increasing in log x, with root r
MONOTONE = {
    "sinh": lambda x, r: np.sinh(np.log(x / r)),
    "power": lambda x, r: (x / r) ** 0.7 - 1.0,
    "cubic": lambda x, r: np.log(x / r) ** 3 + np.log(x / r),
    "atan": lambda x, r: np.arctan(3.0 * np.log(x / r)) + 0.2 * np.log(x / r),
    "exp": lambda x, r: 1.0 - r / x,
}


class Recorder:
    """f(idx, x) = g(x, r[idx]), with every evaluated point recorded."""

    def __init__(self, g, r):
        self.g, self.r = g, np.asarray(r, dtype=float)
        self.points = [[] for _ in self.r]

    def __call__(self, idx, x):
        for i, xi in zip(idx, x):
            self.points[i].append(float(xi))
        return self.g(x, self.r[idx])

    def ends(self, lo, hi):
        return self.g(lo, self.r), self.g(hi, self.r)


def _roots(g, r, lo, hi, tol, cap=100):
    f = Recorder(g, r)
    roots, values = search.illinois_roots(f, lo, hi, *f.ends(lo, hi), tol, cap)
    return roots, values, f


@pytest.mark.parametrize("name", sorted(MONOTONE))
@pytest.mark.parametrize("tol, steps", [(1e-8, 9), (0.0, 12)])
def test_roots_converge_in_few_steps(name, tol, steps):
    lo, hi = ROOTS / 7.3, ROOTS * 11.0
    roots, values, f = _roots(MONOTONE[name], ROOTS, lo, hi, tol)
    assert max(len(p) for p in f.points) <= steps
    assert np.array_equal(values, MONOTONE[name](roots, ROOTS))
    if tol:
        assert np.all(np.abs(values) <= tol)
    else:  # to the last few ulp of x
        assert np.all(np.abs(roots / ROOTS - 1.0) <= 8 * np.finfo(float).eps)


@pytest.mark.parametrize("tol", [1e-8, 0.0])
def test_lockstep_roots_equal_one_bracket_runs(tol):
    g = MONOTONE["cubic"]
    lo, hi = ROOTS / 3.0, ROOTS * 40.0
    roots, values, _ = _roots(g, ROOTS, lo, hi, tol)
    for k in range(len(ROOTS)):
        one, value, _ = _roots(g, ROOTS[k:k + 1], lo[k:k + 1], hi[k:k + 1], tol)
        assert one.tobytes() == roots[k:k + 1].tobytes()
        assert value.tobytes() == values[k:k + 1].tobytes()


def test_root_at_an_end_takes_no_step():
    def f(idx, x):
        raise AssertionError("evaluated")

    roots, values = search.illinois_roots(f, [0.5, 2.0], [4.0, 8.0],
                                          [0.0, -1.0], [3.0, 0.0], 0.0, 50)
    assert roots.tolist() == [0.5, 8.0] and values.tolist() == [0.0, 0.0]


def test_capped_bracket_returns_its_best_iterate():
    g = MONOTONE["power"]
    lo, hi = ROOTS[:1] / 7.3, ROOTS[:1] * 11.0
    roots, values, f = _roots(g, ROOTS[:1], lo, hi, 0.0, cap=3)
    evaluated = np.array(f.points[0])
    assert len(evaluated) == 3
    best = np.argmin(np.abs(g(evaluated, ROOTS[0])))
    assert roots[0] == evaluated[best]
    assert values[0] == g(evaluated[best], ROOTS[0])


@pytest.mark.parametrize("f_lo, f_hi", [(-2.0, np.inf), (-1e-300, 2.0)])
def test_root_bisects_where_interpolation_fails(f_lo, f_hi):
    # an infinite end makes the secant point NaN; a tiny one rounds it onto
    # the other end of the bracket.  Either way the step bisects in log x.
    f = Recorder(lambda x, r: np.log(x / r), [np.e])
    search.illinois_roots(f, [np.exp(-1.0)], [np.exp(3.0)], [f_lo], [f_hi],
                          0.0, 1)
    assert f.points[0] == [float(np.exp(1.0))]


def test_short_root_step_crosses_the_root():
    # the root is an ulp below the upper end: the secant step would be
    # shorter than half the closing width, so it goes that far, lands on the
    # other side of the root, and the bracket closes
    r = 2.0 - 2.0 ** -52
    f = Recorder(lambda x, r: np.log(x / r), [r])
    roots, _ = search.illinois_roots(f, [0.5], [2.0], [np.log(0.5 / r)],
                                     [np.log(2.0 / r)], 0.0, 50)
    assert len(f.points[0]) == 1 and f.points[0][0] < 2.0
    assert roots[0] == 2.0


PEAKS = np.array([0.03, 0.7, 1.0, 12.0, 400.0])


def _bump(x, t0):
    """Smooth, skewed maximum of height 1 at x = t0."""
    s = np.log(x / t0)
    return 1.0 - s ** 2 + 0.3 * s ** 3 - 0.05 * s ** 4


def _scan_max(t0, width=1e-6, cap=60):
    """parabolic_max from the argmax triple of a 400-point scan."""
    Ts = np.geomspace(1e-3, 1e4, 400)
    vals = _bump(Ts[None, :], np.asarray(t0)[:, None])
    k = vals.argmax(axis=1)
    rows = np.arange(len(t0))
    f = Recorder(_bump, t0)
    best, fbest = search.parabolic_max(
        f, Ts[k - 1], Ts[k], Ts[k + 1], vals[rows, k - 1], vals[rows, k],
        vals[rows, k + 1], width, cap)
    return best, fbest, f


def test_parabolic_max_converges_in_few_steps():
    best, fbest, f = _scan_max(PEAKS)
    assert max(len(p) for p in f.points) <= 5
    assert np.all(np.abs(np.log(best / PEAKS)) <= 1e-6)
    assert np.all(np.abs(fbest - 1.0) <= 1e-12)
    assert np.array_equal(fbest, _bump(best, PEAKS))


def test_lockstep_max_equals_one_row_runs():
    best, fbest, _ = _scan_max(PEAKS)
    for k in range(len(PEAKS)):
        one, fone, _ = _scan_max(PEAKS[k:k + 1])
        assert one.tobytes() == best[k:k + 1].tobytes()
        assert fone.tobytes() == fbest[k:k + 1].tobytes()


def test_parabolic_max_takes_golden_steps_on_a_flat_function():
    # every parabola through equal values is degenerate: golden section
    f = Recorder(lambda x, r: np.zeros_like(x), [1.0])
    best, fbest = search.parabolic_max(f, [1.0], [2.0], [8.0], [0.0], [0.0],
                                       [0.0], 1e-6, 2)
    a, x, b = np.log([1.0, 2.0, 8.0])
    u = x + search.GOLDEN * (b - x)
    assert f.points[0][0] == float(np.exp(u))
    assert fbest[0] == 0.0


def test_parabolic_step_outside_the_bracket_is_golden():
    # the parabola through these three points has its vertex at -4,
    # left of the bracket (0, 2); x = 1 is its midpoint, so the golden
    # step goes left
    u = search._parabolic_step(*(np.array([v]) for v in (
        0.0, 2.0, 1.0, 0.5, 1.5, 1.0, 0.525, 1.525)))
    assert u[0] == 1.0 - search.GOLDEN
