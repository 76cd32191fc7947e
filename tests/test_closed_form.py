"""The closed-form 2x2 segment exponential and Perron root of the batched
kernel against 40-digit mpmath values and numpy.linalg.eigvals."""

import math

import mpmath as mp
import numpy as np

from digrowth import dynamics as D
from digrowth.spectral import perron_root

PER_CLASS = 100


def _scaled(rng, B):
    """B rescaled to 1-norms log-uniform in [1e-6, 1e3]."""
    nrm = np.abs(B).sum(axis=1).max(axis=1)
    return B * (10.0 ** rng.uniform(-6.0, 3.0, len(B)) / nrm)[:, None, None]


def _metzler_cases(rng):
    """2x2 Metzler matrices: irreducible, reducible (b = 0 or c = 0),
    s = 0 (a = d, bc = 0) and large |delta| with tiny bc."""
    k = PER_CLASS
    diag = rng.uniform(-1.0, 1.0, (k, 2))
    off = rng.uniform(0.0, 1.0, (k, 2))
    irreducible = np.stack([np.stack([diag[:, 0], off[:, 0]], 1),
                            np.stack([off[:, 1], diag[:, 1]], 1)], 1)
    reducible = irreducible.copy()
    reducible[0::2, 0, 1] = 0.0
    reducible[1::2, 1, 0] = 0.0
    flat = reducible.copy()
    flat[:, 1, 1] = flat[:, 0, 0]
    flat[0::3, 0, 1] = flat[0::3, 1, 0] = 0.0
    delta = rng.choice([-1.0, 1.0], k) * 10.0 ** rng.uniform(0.5, 2.5, k)
    t = rng.uniform(-1.0, 1.0, k) * np.abs(delta)
    tiny = 10.0 ** rng.uniform(-20.0, -5.0, (k, 2))
    split = np.stack([np.stack([t + delta, tiny[:, 0]], 1),
                      np.stack([tiny[:, 1], t - delta], 1)], 1)
    return np.concatenate([_scaled(rng, irreducible), _scaled(rng, reducible),
                           _scaled(rng, flat), split])


def test_exponential_matches_mpmath_entrywise():
    B = _metzler_cases(np.random.default_rng(20231104))
    E, l, broken = D._expm2_scaled(B)
    assert not broken.any()
    for i in range(len(B)):
        with mp.workdps(40):
            ref = mp.expm(mp.matrix(B[i].tolist()))
        tol = 1e-12 * max(1.0, abs(l[i]))
        for got, (j, k) in zip(E, ((0, 0), (0, 1), (1, 0), (1, 1))):
            want, e = ref[j, k], float(got[i])
            if want == 0:
                assert e == 0.0
            elif mp.log(want) - l[i] < -650.0:
                # below the normal range of a double once scaled by e^-l
                assert e < 1e-280
            else:
                assert abs(l[i] + math.log(e) - float(mp.log(want))) <= tol, \
                    (B[i], j, k)


def test_exponential_of_equal_rates_without_flow_is_identity():
    # s = 0: e^B = e^a I exactly
    E, l, broken = D._expm2_scaled(np.array([[[-0.7, 0.0], [0.0, -0.7]]]))
    assert [float(e[0]) for e in E] == [1.0, 0.0, 0.0, 1.0]
    assert l[0] == -0.7 and not broken[0]


def test_perron_root_matches_eigvals():
    rng = np.random.default_rng(7)
    P = rng.uniform(0.0, 1.0, (400, 2, 2)) ** rng.uniform(1.0, 40.0, (400, 1, 1))
    P[0::4, 0, 1] = 0.0
    P[1::4, 1, 0] = 0.0
    P[2::4, 1, 1] = P[2::4, 0, 0]
    root = perron_root(P)
    want = np.linalg.eigvals(P).real.max(axis=1)
    assert np.all(np.abs(root - want) <= 1e-14 * P.max(axis=(1, 2)))
    for i in range(0, len(P), 7):
        p, r, r2, q = (mp.mpf(float(x)) for x in P[i].ravel())
        with mp.workdps(40):
            exact = (p + q) / 2 + mp.sqrt(((p - q) / 2) ** 2 + r * r2)
        assert abs(root[i] - exact) <= 4e-16 * exact
