"""Markov-switched environments: stationary laws, limits, simulation."""

import math
import tracemalloc
import warnings
from bisect import bisect_right

import numpy as np
import pytest
import scipy.linalg
from conftest import pade_exponentials, random_model
from hypothesis import given, settings, strategies as st

from digrowth import dynamics, model as M, stochastic as S
from digrowth.spectral import perron_root

L_SYM = [[-1.0, 1.0], [1.0, -1.0]]


def pm1_twin(eps: float = 0.5) -> S.MarkovEnvironment:
    a, b = 1.0 - eps, -1.0 - eps
    return S.environment([([a, b], L_SYM), ([b, a], L_SYM)],
                         [[-1.0, 1.0], [1.0, -1.0]])


def _circulant_migration(forward: float, backward: float) -> np.ndarray:
    L = np.zeros((3, 3))
    for i in range(3):
        L[(i + 1) % 3, i] = forward
        L[(i + 2) % 3, i] = backward
    return L - np.diag(L.sum(axis=0))


def rotating_three() -> S.MarkovEnvironment:
    """Three states over three patches whose favourable patch and flow
    direction rotate."""
    return S.environment(
        [([0.6, -1.0, -1.2], _circulant_migration(1.0, 0.2)),
         ([-1.2, 0.6, -1.0], _circulant_migration(0.2, 1.0)),
         ([-1.0, -1.2, 0.6], _circulant_migration(0.5, 0.5))],
        [[-1.0, 0.7, 0.3], [0.3, -1.0, 0.7], [0.7, 0.3, -1.0]])


def jordan_twin() -> S.MarkovEnvironment:
    """Two states; at m = 1 the first one's matrix is the Jordan block
    [[0, 0], [1, 0]]."""
    return S.environment([([1.0, 0.0], [[-1.0, 0.0], [1.0, 0.0]]),
                          ([-0.5, 0.2], L_SYM)], [[-1.0, 1.0], [2.0, -2.0]])


def test_stationary_symmetric():
    env = pm1_twin()
    assert np.allclose(S.stationary_distribution(env), [0.5, 0.5], atol=1e-12)


def test_stationary_two_state_asymmetric():
    env = S.environment([([0.0, 0.0], L_SYM), ([0.0, 0.0], L_SYM)],
                        [[-2.0, 2.0], [1.0, -1.0]])
    assert np.allclose(S.stationary_distribution(env),
                       [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)


def test_stationary_cycle_uniform():
    Q = [[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [1.0, 0.0, -1.0]]
    states = [([0.0, 0.0], L_SYM)] * 3
    env = S.environment(states, Q)
    assert np.allclose(S.stationary_distribution(env), np.full(3, 1 / 3),
                       atol=1e-12)


def test_stationary_reducible_raises():
    Q = [[0.0, 0.0], [1.0, -1.0]]  # absorbing first state
    env = S.environment([([0.0, 0.0], L_SYM)] * 2, Q)
    with pytest.raises(S.ReducibleChain):
        S.stationary_distribution(env)


def test_environment_laws_are_computed_once(monkeypatch):
    # the stationary law, the jump laws and the exit scales belong to the
    # environment: computed at first use, then read by every call
    env = rotating_three()
    calls = []
    stationary = S.stationary_distribution
    monkeypatch.setattr(S, "stationary_distribution",
                        lambda e: calls.append(e) or stationary(e))
    first = S.simulate_lyapunov(env, 0.8, 1.0, 300.0, seed=3)
    again = S.simulate_lyapunov(env, 0.8, 1.0, 300.0, seed=3)
    S.stochastic_limits(env, 0.8)
    assert calls == [env]
    assert (first.lambda_hat, first.stderr) == (again.lambda_hat, again.stderr)
    assert np.array_equal(env.stationary, stationary(env))
    assert not env.stationary.flags.writeable
    assert env.exit_scales == (1.0, 1.0, 1.0)
    assert env.jump_cdfs[0] == tuple(S._cdf(np.array([0.0, 0.7, 0.3])))
    assert env.jump_cdfs[2] == tuple(S._cdf(np.array([0.7, 0.3, 0.0])))


def test_environment_validation():
    with pytest.raises(S.StochasticError):
        S.environment([([0.0, 0.0], [[-1.0, -1.0], [1.0, 1.0]])], [[0.0]])
    with pytest.raises(S.StochasticError):
        S.environment([([0.0, 0.0], L_SYM)], [[1.0]])  # bad row sum


@pytest.mark.parametrize("where, value", [
    ("rate", float("nan")), ("rate", float("inf")),
    ("migration", float("nan")), ("Q", float("nan")), ("Q", float("inf")),
])
def test_environment_rejects_non_finite_entries(where, value):
    # no sign or sum check catches NaN, whose comparisons are all false
    rates = np.array([[0.5, -1.5], [-1.5, 0.5]])
    L = np.array(L_SYM)
    Q = np.array([[-1.0, 1.0], [1.0, -1.0]])
    {"rate": rates, "migration": L, "Q": Q}[where][0, 0] = value
    with pytest.raises(S.InvalidEnvironment, match="finite"):
        S.environment([(rates[0], L), (rates[1], L_SYM)], Q)


def test_single_state_collapse():
    env = S.environment([([0.5, -1.5], [[-1.0, 2.0], [1.0, -2.0]])], [[0.0]])
    m = 1.3
    exact = perron_root(env.matrix(0, m)[:, :, None])[0]
    est = S.simulate_lyapunov(env, m, 1.0, 100.0, seed=5)
    assert est.lambda_hat == exact
    lims = S.stochastic_limits(env, m)
    assert lims["T0"] == pytest.approx(exact, abs=1e-12)
    assert lims["Tinf"] == pytest.approx(exact, abs=1e-12)


def test_one_state_stationary_law_is_exactly_one():
    # a 1 x 1 zero generator is irreducible, and its Perron vector is [1]
    env = S.environment([([0.5, -1.5], L_SYM)], [[0.0]])
    assert S.stationary_distribution(env).tolist() == [1.0]


@pytest.mark.parametrize("m", [math.nan, -1.0, math.inf, 1e308])
def test_limits_reject_an_invalid_m(m):
    # at m = 1e308, m L overflows on the entry -2 of the second state
    env = S.environment([([0.5, -1.5], L_SYM),
                         ([-1.5, 0.5], [[-1.0, 2.0], [1.0, -2.0]])],
                        [[-1.0, 1.0], [1.0, -1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected before any NumPy warning
        with pytest.raises(ValueError):
            S.stochastic_limits(env, m)


def test_limits_pm1_twin():
    env = pm1_twin(0.5)
    lims = S.stochastic_limits(env, 1.0)
    assert lims["T0"] == pytest.approx(-0.5, abs=1e-10)
    assert lims["Tinf"] == pytest.approx(-0.5 + np.sqrt(2.0) - 1.0, abs=1e-10)
    assert lims["chi"] == pytest.approx(0.5, abs=1e-14)
    assert lims["corners"]["lambda_0T"] == pytest.approx(-0.5, abs=1e-14)
    assert lims["corners"]["lambda_infT"] == pytest.approx(-0.5, abs=1e-12)
    assert lims["corners"]["sup"] == lims["chi"]


def test_fast_migration_corners_of_an_asymmetric_chain():
    # mu = (1/3, 2/3); kernels (2/3, 1/3) and (1/2, 1/2) per state, and
    # (4/7, 3/7) of Lbar = [[-1, 4/3], [1, -4/3]]
    env = S.environment([([1.0, 0.0], [[-1.0, 2.0], [1.0, -2.0]]),
                         ([0.0, -3.0], L_SYM)], [[-2.0, 2.0], [1.0, -1.0]])
    corners = S.stochastic_limits(env, 1.0)["corners"]
    assert corners["lambda_infT"] == pytest.approx(-7.0 / 9.0, abs=1e-14)
    assert corners["lambda_inf0"] == pytest.approx(-2.0 / 3.0, abs=1e-14)


def test_seed_determinism():
    env = pm1_twin()
    a = S.simulate_lyapunov(env, 1.0, 0.5, 300.0, seed=42)
    b = S.simulate_lyapunov(env, 1.0, 0.5, 300.0, seed=42)
    assert a.lambda_hat == b.lambda_hat and a.stderr == b.stderr
    c = S.simulate_lyapunov(env, 1.0, 0.5, 300.0, seed=43)
    assert c.lambda_hat != a.lambda_hat


def test_degenerate_horizon_raises():
    env = pm1_twin()
    with pytest.raises(S.DegenerateHorizon):
        S.simulate_lyapunov(env, 1.0, 10.0, 50.0, seed=0)


def test_estimator_consistency_across_horizons():
    env = pm1_twin()
    a = S.simulate_lyapunov(env, 1.0, 0.5, 2000.0, seed=3)
    b = S.simulate_lyapunov(env, 1.0, 0.5, 20000.0, seed=4)
    combined = np.hypot(a.stderr, b.stderr)
    assert abs(a.lambda_hat - b.lambda_hat) <= 4.0 * combined


def test_chi_bound_on_estimates():
    env = pm1_twin()
    lims = S.stochastic_limits(env, 1.0)
    for T in (0.1, 1.0, 10.0):
        est = S.simulate_lyapunov(env, 1.0, T, 3000.0 * max(T, 1.0), seed=11)
        assert est.lambda_hat <= lims["chi"] + 3.0 * est.stderr


def test_long_dwell_no_overflow():
    # dwell times of order 1e4 with positive top rate: needs the factored
    # exponent path to stay finite
    env = pm1_twin()
    est = S.simulate_lyapunov(env, 1.0, 1e4, 2e6, seed=9)
    assert np.isfinite(est.lambda_hat)


def test_env_json_round_trip(tmp_path):
    import json
    doc = {"states": [{"R": [0.5, -1.5], "L": L_SYM},
                      {"R": [-1.5, 0.5], "L": L_SYM}],
           "Q": [[-1.0, 1.0], [1.0, -1.0]]}
    path = tmp_path / "env.json"
    path.write_text(json.dumps(doc))
    env = S.load(path)
    assert env.n_states == 2 and env.n_patches == 2
    with pytest.raises(S.StochasticError):
        S.from_dict({"states": []})


@pytest.mark.parametrize("m, T, horizon", [
    (1.0, 0.0, 100.0), (1.0, -1.0, 100.0), (1.0, math.nan, 100.0),
    (1.0, math.inf, 100.0), (1.0, 1.0, 0.0), (1.0, 1.0, -5.0),
    (1.0, 1.0, math.nan), (1.0, 1.0, math.inf), (-0.5, 1.0, 100.0),
    (math.nan, 1.0, 100.0), (math.inf, 1.0, 100.0)])
def test_rejects_parameters_outside_the_domain(m, T, horizon):
    # at T = 0 every dwell is 0, so the clock would never reach the horizon
    single = S.environment([([0.5, -1.5], L_SYM)], [[0.0]])
    for env in (pm1_twin(), single):
        with pytest.raises(ValueError):
            S.simulate_lyapunov(env, m, T, horizon)


def test_rejects_horizons_past_the_jump_cap(monkeypatch):
    # a call that gets past its checks fails at once, at its first set-up
    # step, before its loop starts
    def started(*args):
        raise AssertionError("the simulation loop was set up")

    monkeypatch.setattr(S, "stationary_distribution", started)
    # unit exit rates: a call expects horizon / T jumps
    env = pm1_twin()
    for T, horizon in ((1.0, 1e17), (1e-3, 1.01e5), (1e-300, 1e300)):
        with pytest.raises(ValueError, match="jumps"):
            S.simulate_lyapunov(env, 1.0, T, horizon)
    # the fastest-leaving state sets the rate: 4 * 3e7 jumps
    fast = S.environment([([0.5, -1.5], L_SYM), ([-1.5, 0.5], L_SYM)],
                         [[-4.0, 4.0], [1.0, -1.0]])
    with pytest.raises(ValueError, match="jumps"):
        S.simulate_lyapunov(fast, 1.0, 1.0, 3e7)
    # just under the cap the call is accepted and sets up its loop
    with pytest.raises(AssertionError):
        S.simulate_lyapunov(env, 1.0, 1e-3, 0.99e5)


def test_working_memory_is_bounded_by_the_chunk():
    # the path is drawn and its flows exponentiated a chunk at a time, so
    # ten times the jumps must not take ten times the memory
    env = pm1_twin()

    def peak(horizon):
        tracemalloc.start()
        try:
            S.simulate_lyapunov(env, 1.0, 1e-2, horizon, seed=5)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2.0)  # first-call allocations of NumPy stay out of the figures
    # unit exit rates: about 2e3 and 2e4 jumps, two chunks against twenty
    assert peak(2e2) <= 2.0 * peak(2e1)


def test_zero_migration_is_allowed():
    est = S.simulate_lyapunov(pm1_twin(), 0.0, 1.0, 300.0, seed=1)
    assert np.isfinite(est.lambda_hat)


def test_zero_migration_exponent_is_the_best_mean_rate():
    # without migration the flows are diagonal and commute, so the exponent
    # is max_i sum_s mu_s r_i(s) = -0.5 at every T.  A simulated path with
    # long dwells lets the disfavoured patch underflow to 0 and then loses
    # the other one too
    env = pm1_twin()
    for T, horizon in ((1.0, 300.0), (100.0, 3e4), (1e5, 3e7)):
        est = S.simulate_lyapunov(env, 0.0, T, horizon, seed=4)
        assert est.lambda_hat == -0.5
    lims = S.stochastic_limits(env, 0.0)
    assert lims["corners"]["lambda_0T"] == -0.5
    # the slow limit at m = 0 is the m -> 0+ one, chi
    assert lims["Tinf"] == lims["chi"] == 0.5


class _DwellFlow:
    """x -> e^{A dt} x through a per-state eigendecomposition with the
    dominant exponent split off, the way the simulator applied each dwell
    before it exponentiated whole chunks: (y, log_gain) with
    e^{A dt} x = e^{log_gain} y.  A defective A takes chunked
    ``scipy.linalg.expm`` steps instead."""

    def __init__(self, A: np.ndarray):
        self.A = A
        w, V = np.linalg.eig(A)
        self.shift = float(w.real.max())
        try:
            Vinv = np.linalg.inv(V)
            ok = np.linalg.cond(V) < 1e8
        except np.linalg.LinAlgError:
            ok = False
            Vinv = None
        self.diagonalizable = ok
        if ok:
            self.w = w - self.shift
            self.V, self.Vinv = V, Vinv

    def apply(self, x: np.ndarray, dt: float) -> tuple[np.ndarray, float]:
        if self.diagonalizable:
            y = (self.V @ (np.exp(self.w * dt) * (self.Vinv @ x))).real
            return y, self.shift * dt
        B = self.A - self.shift * np.eye(self.A.shape[0])
        nrm = max(1.0, float(np.abs(B).sum(axis=0).max()))
        chunks = max(1, math.ceil(dt * nrm / 20.0))
        E = scipy.linalg.expm(B * (dt / chunks))
        y = x
        gain = self.shift * dt
        for _ in range(chunks):
            y = E @ y
            s = y.sum()
            gain += math.log(s)
            y = y / s
        return y, gain


def _simulate_with_choice(env, m, T, horizon, seed):
    """The simulator as it was with one ``Generator.choice`` call per jump
    and one ``_DwellFlow`` step per dwell, an independent reference: the
    CDF sampler must draw its path bit for bit, and the chunked flows must
    give its estimate to rounding."""
    n = env.n_patches
    mu = S.stationary_distribution(env)
    rng = np.random.default_rng(seed)
    flows = [_DwellFlow(env.matrix(s, m)) for s in range(env.n_states)]
    exit_rates = -np.diag(env.Q)
    jump_probs = []
    for s in range(env.n_states):
        p = env.Q[s].copy()
        p[s] = 0.0
        jump_probs.append(p / p.sum())

    s = int(rng.choice(env.n_states, p=mu))
    x = np.full(n, 1.0 / n)
    t = 0.0
    jumps = 0
    batch_logs = np.zeros(S.BATCHES)
    batch_time = np.zeros(S.BATCHES)
    total_log = 0.0
    bwidth = horizon / S.BATCHES
    while t < horizon:
        dwell = T * rng.exponential(1.0 / exit_rates[s])
        dt = min(dwell, horizon - t)
        x, gain = flows[s].apply(x, dt)
        norm = x.sum()
        if not np.isfinite(norm) or norm <= 0.0:
            raise S.StochasticError("trajectory left the positive cone")
        gain += math.log(norm)
        x /= norm
        k = min(S.BATCHES - 1, int(t / bwidth))
        batch_logs[k] += gain
        batch_time[k] += dt
        total_log += gain
        t += dt
        if dt == dwell:
            s = int(rng.choice(env.n_states, p=jump_probs[s]))
            jumps += 1
    if jumps < S.MIN_JUMPS:
        raise S.DegenerateHorizon(
            f"only {jumps} jumps over the horizon; lengthen it or shrink T")
    means = batch_logs / np.where(batch_time > 0, batch_time, 1.0)
    used = batch_time > 0.5 * bwidth
    k = int(used.sum())
    stderr = float(means[used].std(ddof=1) / math.sqrt(k)) if k > 1 else math.inf
    return S.LyapunovEstimate(lambda_hat=float(total_log / horizon),
                              stderr=max(stderr, 1e-300), horizon=horizon,
                              renormalizations=jumps, seed=seed)


def _outcome(simulate, *args):
    try:
        est = simulate(*args)
    except S.StochasticError as exc:
        return type(exc), str(exc)
    return est.lambda_hat, est.stderr, est.renormalizations


def _assert_same_path(env, m, T, horizon, seed):
    """The same jumps, or the same error, as the reference; the estimate
    and its standard error to rounding.  The standard error's bound is
    relative, with the estimate's as a floor: where every batch grows at
    the same rate, one side can read exactly 0 and the other rounding."""
    args = (env, m, T, horizon, seed)
    got = _outcome(S.simulate_lyapunov, *args)
    want = _outcome(_simulate_with_choice, *args)
    if len(want) == 2:
        assert got == want
        return got
    assert len(got) == 3 and got[2] == want[2]
    assert abs(got[0] - want[0]) <= 1e-12
    assert abs(got[1] - want[1]) <= max(1e-9 * want[1], 1e-12)
    return got


@st.composite
def switched_environments(draw):
    """2-3 states over 2-3 patches, every migration and chain rate positive."""
    N = draw(st.integers(2, 3))
    n = draw(st.integers(2, 3))
    states = []
    for _ in range(N):
        rates = draw(st.lists(st.floats(-2.0, 1.0), min_size=n, max_size=n))
        L = np.zeros((n, n))
        L[~np.eye(n, dtype=bool)] = draw(st.lists(
            st.floats(0.1, 2.0), min_size=n * (n - 1), max_size=n * (n - 1)))
        states.append((rates, L - np.diag(L.sum(axis=0))))
    Q = np.zeros((N, N))
    Q[~np.eye(N, dtype=bool)] = draw(st.lists(
        st.floats(0.5, 2.0), min_size=N * (N - 1), max_size=N * (N - 1)))
    return S.environment(states, Q - np.diag(Q.sum(axis=1)))


@settings(max_examples=30, deadline=None)
@given(env=switched_environments(), log_m=st.floats(-2.0, 1.0),
       log_T=st.floats(-3.0, 2.0), jumps=st.floats(100.0, 600.0),
       seed=st.integers(0, 2 ** 31))
def test_cdf_sampler_reproduces_choice_path(env, log_m, log_T, jumps, seed):
    T = 10.0 ** log_T
    _assert_same_path(env, 10.0 ** log_m, T, jumps * T, seed)


@pytest.mark.parametrize("T", [1e-3, 0.5, 20.0, 100.0])
def test_defective_state_reproduces_choice_path(T):
    # at m = 1 the first state's matrix is the Jordan block [[0, 0], [1, 0]],
    # where the closed form has s = 0: each dwell's flow is I + dt [[0, 0],
    # [1, 0]] at every T, with no squaring
    env = jordan_twin()
    assert not _DwellFlow(env.matrix(0, 1.0)).diagonalizable
    got = _assert_same_path(env, 1.0, T, 400.0 * T, 17)
    assert got[2] >= S.MIN_JUMPS


@pytest.mark.parametrize("p", [
    [0.25, 0.75], [0.7, 0.3], [1 / 3, 1 / 3, 1 / 3], [0.0, 0.3, 0.7],
    [0.2, 0.0, 0.8], [0.5, 0.5, 0.0], [0.1, 0.0, 0.0, 0.6, 0.3], [1.0],
    [0.0, 1.0], [0.1] * 10])
def test_cdf_draws_what_choice_draws(p):
    # draw for draw on one stream, interleaved with the dwell draws; a NumPy
    # whose choice samples differently fails here
    p = np.array(p)
    cdf = S._cdf(p)
    a, b = np.random.default_rng(2024), np.random.default_rng(2024)
    want, got = [], []
    for _ in range(5000):
        want.append((int(a.choice(len(p), p=p)), a.exponential(0.7)))
        got.append((bisect_right(cdf, b.random()), b.exponential(0.7)))
    assert got == want
    assert {i for i, _ in got} == set(np.flatnonzero(p).tolist())


def _simulate_per_dwell(env, m, T, horizon, seed):
    """``simulate_lyapunov`` with each dwell's batch, its cut at the
    horizon and the batch times taken in the draw loop, dwell by dwell, the
    way the simulator kept them before it derived them from the chunk's
    clock; the chunk's flows go through the module's own ``_carry``.
    (estimate, whether the horizon cut the last dwell)."""
    n = env.n_patches
    mu = S.stationary_distribution(env)
    rng = np.random.default_rng(seed)
    random, exponential = rng.random, rng.exponential
    mats = np.stack([env.matrix(s, m) for s in range(env.n_states)], axis=-1)
    scales = (1.0 / -np.diag(env.Q)).tolist()
    jump_cdfs = []
    for s in range(env.n_states):
        p = env.Q[s].copy()
        p[s] = 0.0
        jump_cdfs.append(S._cdf(p / p.sum()))

    s = bisect_right(S._cdf(mu), random())
    x = np.full(n, 1.0 / n)
    t = 0.0
    jumps = 0
    batch_logs = np.zeros(S.BATCHES)
    batch_time = [0.0] * S.BATCHES
    bwidth = horizon / S.BATCHES
    while t < horizon:
        states, dts, owners = [], [], []
        for _ in range(S._CHUNK_DWELLS):
            dwell = T * exponential(scales[s])
            dt = min(dwell, horizon - t)
            k = min(S.BATCHES - 1, int(t / bwidth))
            states.append(s)
            dts.append(dt)
            owners.append(k)
            batch_time[k] += dt
            t += dt
            if dt == dwell:
                s = bisect_right(jump_cdfs[s], random())
                jumps += 1
            if t >= horizon:
                break
        x = S._carry(mats, states, np.array(dts), np.array(owners), x,
                     batch_logs)
    if jumps < S.MIN_JUMPS:
        raise S.DegenerateHorizon(
            f"only {jumps} jumps over the horizon; lengthen it or shrink T")
    lambda_hat = batch_logs.sum() / horizon
    batch_time = np.array(batch_time)
    means = batch_logs / np.where(batch_time > 0, batch_time, 1.0)
    used = batch_time > 0.5 * bwidth
    k = int(used.sum())
    stderr = float(means[used].std(ddof=1) / math.sqrt(k)) if k > 1 else math.inf
    est = S.LyapunovEstimate(lambda_hat=float(lambda_hat),
                             stderr=max(stderr, 1e-300), horizon=horizon,
                             renormalizations=jumps, seed=seed)
    return est, dt != dwell


@pytest.mark.parametrize("T", [1e-2, 1.0, 1e2])
@pytest.mark.parametrize("name", ["rotating_three", "pm1_twin_pade"])
def test_chunk_clock_is_the_per_dwell_clock(monkeypatch, name, T):
    # the batches, batch times and jump count that the simulator derives
    # from each chunk's cumulative clock are the loop's, bit for bit, over
    # one chunk and over several.  The three-patch flows are the Pade ones;
    # the pm1 twin's are forced onto them too
    if name == "pm1_twin_pade":
        env = pm1_twin()
        monkeypatch.setattr(S, "expm2_scaled", pade_exponentials)
    else:
        env = rotating_three()
    for seed in (3, 29, 2024):
        for jumps in (150.3, 2600.7):
            args = (env, 0.8, T, jumps * T, seed)
            want, cut = _simulate_per_dwell(*args)
            got = S.simulate_lyapunov(*args)
            assert cut
            assert ((got.lambda_hat, got.stderr, got.renormalizations)
                    == (want.lambda_hat, want.stderr,
                        want.renormalizations))


@pytest.mark.parametrize("T", [1e-3, 100.0])
@pytest.mark.parametrize("env", [pm1_twin(), jordan_twin()])
def test_closed_form_flows_match_pade(monkeypatch, env, T):
    # two-patch dwell flows in closed form make the jumps of the stacked
    # Pade-13 path, with the estimate to rounding
    for seed in (5, 17, 301):
        args = (env, 1.0, T, 400.0 * T, seed)
        got = S.simulate_lyapunov(*args)
        with monkeypatch.context() as patch:
            patch.setattr(S, "expm2_scaled", pade_exponentials)
            want = S.simulate_lyapunov(*args)
        assert got.renormalizations == want.renormalizations
        assert abs(got.lambda_hat - want.lambda_hat) <= 1e-13
        assert abs(got.stderr - want.stderr) <= max(1e-9 * want.stderr, 1e-12)


def test_stacks_reach_the_primitives_c_contiguous(monkeypatch):
    # the primitives' einsum loops and reductions run along the stack axis
    # of an entry-major (n, n, ...) array.  An advanced index on that axis
    # returns the stack matrix-major, with strides that cross it, so every
    # array the simulator and the kernel hand them must be C-contiguous
    names = ("expm2_scaled", "expm_stack_scaled", "scaled_product",
             "perron_root")
    seen = set()

    def contiguous(mod, name):
        f = getattr(mod, name)

        def wrapped(*args):
            for a in args:
                assert a.flags.c_contiguous, (mod.__name__, name, a.strides)
            seen.add((mod.__name__, name))
            return f(*args)
        return wrapped

    for mod in (S, dynamics):
        for name in names:
            monkeypatch.setattr(mod, name, contiguous(mod, name))
    for env in (pm1_twin(), rotating_three()):
        for T in (0.05, 5.0):
            S.simulate_lyapunov(env, 0.8, T, 600.0 * T, seed=11)
    mv, Tv = np.geomspace(0.05, 20.0, 5), np.geomspace(1e-2, 50.0, 5)
    for mdl in (M.builtin("ab1"), M.builtin("fainshil"),
                random_model(np.random.default_rng(44), n=4)):
        dynamics.growth_rates(mdl, mv[:, None], Tv[None, :])
    assert seen == {(S.__name__, "expm2_scaled"),
                    (S.__name__, "expm_stack_scaled"),
                    (S.__name__, "scaled_product")} | {
        (dynamics.__name__, name) for name in names}


def test_carry_skips_a_batch_that_no_dwell_starts():
    # a dwell longer than a batch leaves the next batch with no dwell of
    # its own: it gains nothing, and x and the other batches' gains are
    # those of the same chunk without that batch
    env = rotating_three()
    m = 0.8
    mats = np.stack([env.matrix(s, m) for s in range(env.n_states)], axis=-1)
    states = [0, 1, 2, 0, 1, 2, 0]
    dts = np.array([0.21, 1.75, 0.14, 0.28, 0.07, 0.42, 0.14])
    x0 = np.full(3, 1.0 / 3.0)
    want_logs, got_logs = np.zeros(S.BATCHES), np.zeros(S.BATCHES)
    want = S._carry(mats, states, dts, np.array([3, 3, 4, 4, 4, 5, 5]), x0,
                    want_logs)
    got = S._carry(mats, states, dts, np.array([3, 3, 5, 5, 5, 6, 6]), x0,
                   got_logs)
    assert np.array_equal(got, want)
    assert np.array_equal(got_logs[[3, 5, 6]], want_logs[3:6])
    assert got_logs[4] == 0.0 and not got_logs[7:].any()
    # against a product of scipy exponentials, run by run
    y, logs = x0, []
    for run in ([0, 1], [2, 3, 4], [5, 6]):
        for i in run:
            y = scipy.linalg.expm(env.matrix(states[i], m) * dts[i]) @ y
        logs.append(np.log(y.sum()))
        y = y / y.sum()
    assert np.allclose(got, y, rtol=1e-13, atol=0.0)
    assert np.allclose(got_logs[[3, 5, 6]], logs, rtol=1e-12, atol=1e-14)
