"""Spectral primitives for Metzler and nonnegative matrices.

Stacks are entry-major: a stack of N n x n matrices has shape (n, n, N),
so M[i, j] is one contiguous array of entry (i, j) over the whole stack.
Each small product of a stack is one ``np.einsum("ij...,jk...->ik...")``,
whose inner loops run along the stack, in place of one ``matmul`` call per
matrix, and every max-entry and 1-norm reduction runs over the two leading
axes.  LAPACK takes matrix-major stacks: where a primitive calls it, it
passes a transposed view.

Contents:

* ``expm_stack_scaled`` — e^A = e^l E for each matrix of a stack (n, n, N),
  by Padé-13 scaling and squaring in NumPy over the whole stack (Higham,
  SIAM J. Matrix Anal. Appl. 26(4), 2005): one scaling and one Padé-13 for
  the stack, its linear system solved for n = 3 on entry arrays from the
  adjugate (no per-matrix LAPACK call) and otherwise by one ``solve``,
  then squarings rescaled to unit max entry every fourth step and once at
  the end, each matrix with its own squaring count from its 1-norm, so a
  matrix's exponential does not depend on the rest of the stack.  It is
  the only scaling-and-squaring loop of the package: the growth rate of
  three or more patches exponentiates every segment of every cell in one
  call, theta* every sub-step, and the switched simulator of three or more
  patches every dwell of a chunk.
* ``expm2_scaled`` — the same e^A = e^l E for 2x2 Metzler matrices in
  closed form, with no Padé step and no squaring: every segment of the
  two-patch growth rate and every dwell of the two-patch switched
  simulator.
* ``scaled_product`` — the ordered product of a stack of factors e^l E,
  pairwise and rescaled to unit max entry with the logs kept apart: every
  scaled Phi(T) of the growth rate and every batch of simulator dwells.
* ``perron_root`` — the Perron root of each Metzler matrix of a stack, in
  closed form for n = 2 and 3, else by one stacked ``eigvals``: the root of
  the growth-rate kernel, of every limit and of the switched model.
* ``perron_vector`` — the unit-sum nonnegative Perron vector of each
  Metzler matrix of a stack, by one stacked ``eig``: the slow curve, and
  the kernels (Perron root 0) of L(tau), its average, and a chain's Q^T.
* ``perron_positive`` — dominant eigenpair of a positive matrix by power
  iteration, finished by the two above where it stalls.
* ``reachability`` — Boolean closure of the graph of off-diagonal entries
  > EDGE_TOL, the zero pattern of e^{tA}; ``is_irreducible``: is it full.
"""

from __future__ import annotations

import math

import numpy as np

POWER_TOL = 1e-12
POWER_MAXITER = 100_000
# entries at or below this are structural zeros of a graph
EDGE_TOL = 1e-14
# if the residual is still above sqrt(POWER_TOL) here, the spectral gap is
# tiny and a dense solve is cheaper than grinding out the remaining iterations
_POWER_STALL = 200
# Padé-13 coefficients b_0 .. b_13, and the 1-norm up to which Padé-13 is
# accurate to double precision without squaring (Higham 2005, table 2.3)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152
# squarings between rescales.  Over four, the max entry (i, j) of a
# nonnegative n x n matrix F of unit max entry grows by at most n^15 and
# stays above F_jj^15 F_ij: from the Pade result at unit max entry, whose
# diagonal is above e^{-2 theta_13}, above e^{-30 theta_13}, about 1e-70
_RESCALE_EVERY = 4
# a 3x3 Perron root x of the shifted cubic p is nearly double, and goes to
# eigvals, where p'(x) < _FLAT_ROOT ||N||_1^2
_FLAT_ROOT = 1e-3
_IDENTITY3 = np.eye(3)[:, :, None]


def _mul(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X Y for each matrix of two entry-major stacks (n, n, ...): one
    einsum, whose inner loops run along the stack."""
    return np.einsum("ij...,jk...->ik...", X, Y)


def expm_stack_scaled(A: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                               np.ndarray]:
    """(E, l, broken) over an entry-major stack (n, n, N), with
    e^{A[:, :, c]} = e^{l[c]} E[:, :, c].

    Padé-13 scaling and squaring (Higham 2005) in one pass over the stack:
    each matrix is scaled once by 2^-s, s = ceil(log2(||A||_1 / theta_13)),
    one Padé-13 runs over all of them, and s squarings follow.  For n = 3
    the Padé system is solved by ``_solve3`` as I + 2 (V - U)^-1 U, else by
    one ``solve`` as (V - U)^-1 (V + U).  The Padé result, every fourth
    square and the result are rescaled to unit max entry, l doubling at
    each squaring and gaining the log of each factor, so no entry overflows
    however large s is.  The stack is sorted by s, largest first, so
    squaring step k runs on the prefix of the matrices with s > k.
    ``broken`` marks matrices whose 1-norm is not finite or whose rescaling
    broke down (a max entry of 0 or not finite); E = I and l = 0 there.
    A matrix's (E, l) does not depend on the rest of the stack.
    """
    n, N = A.shape[0], A.shape[2]
    with np.errstate(over="ignore", divide="ignore"):
        # an infinite norm marks the matrix; a zero norm needs no squaring
        nrm = np.abs(A).sum(axis=0).max(axis=0)
        broken = ~np.isfinite(nrm)
        s = np.ceil(np.log2(np.where(broken, 0.0, nrm) / _THETA13))
    s = np.maximum(s, 0.0).astype(int)
    order = np.argsort(-s, kind="stable")
    s, broken = s[order], broken[order]
    A = np.take(A, order, axis=2)
    A[:, :, broken] = 0.0
    A /= 2.0 ** s
    b = _PADE13
    ident = np.eye(n)[:, :, None]
    A2 = _mul(A, A)
    A4 = _mul(A2, A2)
    A6 = _mul(A4, A2)
    U = _mul(A, _mul(A6, b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident)
    V = (_mul(A6, b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident)
    del A, A2, A4, A6  # only U and V go on: this lowers the peak memory
    if n == 3:
        # e^A = I + 2 (V - U)^-1 U keeps the digits of the diagonal near 1
        V -= U
        U *= 2.0
        E = _solve3(V, U)
        E += ident
    else:
        # LAPACK takes matrix-major stacks: these are views, and so is E
        E = np.linalg.solve((V - U).transpose(2, 0, 1),
                            (V + U).transpose(2, 0, 1)).transpose(1, 2, 0)

    def rescale(F):
        """F / max|F| in place; the logs of the factors."""
        c = np.abs(F).max(axis=(0, 1))
        F /= c
        return np.log(c)

    # prefix lengths: the matrices with s > k lead the stack at step k
    ends = np.searchsorted(-s, -np.arange(s.max(initial=0)), side="left")
    with np.errstate(divide="ignore", invalid="ignore"):
        # a factor that is 0 or not finite leaves l non-finite for good
        l = rescale(E)
        F = E  # the squares of the prefix still squaring
        for k, p in enumerate(ends.tolist(), 1):
            if p < F.shape[2]:  # the matrices past p are done
                E[:, :, p:F.shape[2]] = F[:, :, p:]
                F = F[:, :, :p]
            F = _mul(F, F)
            if not k % _RESCALE_EVERY:
                # l has doubled at each squaring since the last rescale;
                # a power of two scales exactly, so do it here at once
                l[:p] = l[:p] * 2.0 ** _RESCALE_EVERY + rescale(F)
        E[:, :, :F.shape[2]] = F
        l *= 2.0 ** (s % _RESCALE_EVERY)
        l += rescale(E)
    fail = ~np.isfinite(l)
    broken |= fail
    E[:, :, fail] = ident
    l[fail] = 0.0
    inverse = np.empty_like(order)
    inverse[order] = np.arange(N)
    return np.take(E, inverse, axis=2), l[inverse], broken[inverse]


# W[r, c] = A[c % 3, r % 3] over the flat entries 3 (c % 3) + r % 3 of a 3x3
# matrix, r and c in 0..4: every cofactor is a 2x2 window of W
_ADJUGATE_INDEX = np.array((0, 3, 6, 0, 3, 1, 4, 7, 1, 4, 2, 5, 8, 2, 5,
                            0, 3, 6, 0, 3, 1, 4, 7, 1, 4))


def _solve3(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A^-1 B over entry-major stacks (3, 3, N) from the adjugate of each A
    and its determinant, with no per-matrix LAPACK call.  On cyclic indices
    the cofactors carry their own signs: adj(A)_ij = A_{j+1,i+1} A_{j+2,i+2}
    - A_{j+1,i+2} A_{j+2,i+1}, and det A = sum_j A_0j adj(A)_j0."""
    N = A.shape[2]
    W = A.reshape(9, N)[_ADJUGATE_INDEX].reshape(5, 5, N)
    adj = W[1:4, 1:4] * W[2:, 2:]
    adj -= W[1:4, 2:] * W[2:, 1:4]
    del W
    det = A[0, 0] * adj[0, 0] + A[0, 1] * adj[1, 0] + A[0, 2] * adj[2, 0]
    X = _mul(adj, B)
    X /= det
    return X


def expm2_scaled(B: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``expm_stack_scaled`` in closed form for 2x2 Metzler matrices of an
    entry-major stack B (2, 2, ...): (E, l, broken) with e^B = e^l E, every
    entry of E >= 0, and nothing squared.

    For B = [[a, b], [c, d]] with b, c >= 0, t = (a + d)/2,
    delta = (a - d)/2 and s = sqrt(delta^2 + bc) is real, and
    e^B = e^{t+s} [(1 + e^{-2s})/2 I + f (B - t I)] with
    f = -expm1(-2s)/(2s), f = 1 at s = 0 (Bernstein & So, IEEE Trans.
    Autom. Control 38(8), 1993).  The smaller diagonal entry is
    (bc/(s + |delta|) + (s + |delta|) e^{-2s})/(2s), which keeps its digits
    where the direct difference cancels (bc tiny or 0).  A cell is broken
    where twice its 1-norm, max(|a| + |c|, |b| + |d|), is not finite: that
    bounds 2s, s + |delta| and the entries of a product of these factors,
    so none of them overflows.
    """
    A = np.abs(B)
    with np.errstate(over="ignore"):  # an infinite norm marks the cell
        nrm = 2.0 * np.maximum(A[0, 0] + A[1, 0], A[0, 1] + A[1, 1])
    broken = ~np.isfinite(nrm)
    if broken.any():
        B = np.where(broken, 0.0, B)
    (a, b), (c, d) = B
    delta = 0.5 * (a - d)
    g = np.sqrt(b) * np.sqrt(c)  # sqrt(bc), which does not overflow
    s = np.hypot(delta, g)
    distinct = s > 0.0
    s1 = np.where(distinct, s, 1.0)
    minus_2s = -2.0 * s
    decay = np.exp(minus_2s)
    f = np.where(distinct, np.expm1(minus_2s) / (-2.0 * s1), 1.0)
    spread = np.abs(delta)
    u = s1 + spread
    big = 0.5 + 0.5 * decay + f * spread
    small = np.where(distinct, (g * (g / u) + u * decay) / (2.0 * s1), 1.0)
    first = delta >= 0.0
    E = np.array(((np.where(first, big, small), f * b),
                  (f * c, np.where(first, small, big))))
    return E, 0.5 * (a + d) + s, broken


def scaled_product(E: np.ndarray, l: np.ndarray) -> tuple[np.ndarray, ...]:
    """(P, logs, broken) with e^logs P = e^{l[K-1]} E[:, :, K-1] ...
    e^{l[0]} E[:, :, 0] over an entry-major stack E (n, n, K, ...) and its
    logs l (K, ...): P is (n, n, ...).  Pairwise, later factor on the left,
    one einsum per level, an odd last factor carried up a level.  Each
    product is rescaled to unit max entry with the log of the factor added;
    ``broken`` marks a non-finite log (a product that was 0 or not finite).
    For K <= 3 factors of unit max entry the arithmetic is that of a
    left-to-right loop."""
    with np.errstate(divide="ignore", invalid="ignore"):
        # a product that is 0 or not finite leaves its log non-finite
        while E.shape[2] > 1:
            K = E.shape[2]
            even = K - K % 2
            P = _mul(E[:, :, 1:even:2], E[:, :, :even:2])
            c = np.abs(P).max(axis=(0, 1))
            P /= c
            logs = l[:even:2] + l[1:even:2] + np.log(c)
            if even < K:
                P = np.concatenate([P, E[:, :, even:]], axis=2)
                logs = np.concatenate([logs, l[even:]])
            E, l = P, logs
    return E[:, :, 0], l[0], ~np.isfinite(l[0])


def reachability(A: np.ndarray) -> np.ndarray:
    """Reflexive closure of the graph of off-diagonal entries > EDGE_TOL, by
    ceil(log2 n) Boolean squarings: (i, j) is True iff j reaches i.  For a
    Metzler A and t > 0 it is the zero pattern of e^{tA}."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    reach = (np.abs(A) > EDGE_TOL) | np.eye(n, dtype=bool)
    for _ in range(math.ceil(math.log2(n))):
        reach = reach @ reach
    return reach


def is_irreducible(A: np.ndarray) -> bool:
    """True iff the graph of ``reachability`` is strongly connected."""
    return bool(reachability(A).all())


def perron_root(M: np.ndarray) -> np.ndarray:
    """Perron root of each Metzler matrix of an entry-major stack (n, n, N),
    its real eigenvalue of largest real part:
    (p + q)/2 + sqrt(((p - q)/2)^2 + r r2) for [[p, r], [r2, q]],
    ``_perron_root3`` for n = 3, else one eigvals."""
    if M.shape[0] == 2:
        (p, r), (r2, q) = M
        return 0.5 * (p + q) + np.hypot(0.5 * (p - q), np.sqrt(r * r2))
    if M.shape[0] == 3:
        return _perron_root3(M)
    return _top_eigenvalue(M)


def _perron_root3(M: np.ndarray) -> np.ndarray:
    """Perron root of each Metzler 3x3 matrix of an entry-major stack
    (3, 3, N), t + x with t = tr(M)/3 and x the largest real root of the
    characteristic cubic p(x) = x^3 + q x - det N of the traceless
    N = M - t I.

    The root is real and x >= 0 (the eigenvalues of N sum to 0 and none
    has a larger real part), so it is the top root of the trigonometric
    solution where p has three real roots and the one real root of the
    hyperbolic (or, for q = 0, cube-root) solution where it has one; one
    Newton step polishes it.  The shift keeps the digits of N, whose
    eigenvalues are O(T) apart as T -> 0 while those of a monodromy
    matrix all tend to 1.  Where p'(x) < _FLAT_ROOT ||N||_1^2 the root is
    nearly double and ill conditioned in the coefficients of p; those
    matrices take the top eigenvalue of one eigvals.  A scalar M (N = 0)
    has the root t.
    """
    t = np.trace(M) / 3.0
    N = M - t * _IDENTITY3
    a, m01, m02, m10, b, m12, m20, m21, c = N.reshape(9, M.shape[2])
    bc = b * c - m12 * m21
    q = a * b - m01 * m10 + a * c - m02 * m20 + bc
    det = a * bc - m01 * (m10 * c - m12 * m20) + m02 * (m10 * m21 - b * m20)
    with np.errstate(divide="ignore", invalid="ignore"):
        # x = 2 s y with 4 y^3 - 3 y = z for q < 0 and 4 y^3 + 3 y = z for
        # q > 0; z is not finite where s = 0, and 2 s y is then 0 inf
        s = np.sqrt(np.abs(q) / 3.0)
        z = det / (2.0 * s ** 3)
        y = np.where(q < 0.0,
                     np.where(z <= 1.0,
                              np.cos(np.arccos(np.maximum(z, -1.0)) / 3.0),
                              np.cosh(np.arccosh(z) / 3.0)),
                     np.sinh(np.arcsinh(z) / 3.0))
        x = np.where(np.isfinite(z), 2.0 * s * y, np.cbrt(det))
    x2 = x * x
    dp = 3.0 * x2 + q
    x -= np.divide((x2 + q) * x - det, dp, out=np.zeros_like(x),
                   where=dp != 0.0)
    norm = np.abs(N).sum(axis=0).max(axis=0)
    flat = ~(3.0 * x * x + q >= _FLAT_ROOT * norm * norm)
    root = t + x
    if flat.any():
        root[flat] = _top_eigenvalue(M[:, :, flat])
    return root


def _top_eigenvalue(M: np.ndarray) -> np.ndarray:
    """Largest real part of the eigenvalues of each matrix of an
    entry-major stack (n, n, N), from one stacked eigvals."""
    return np.linalg.eigvals(M.transpose(2, 0, 1)).real.max(axis=1)


def perron_vector(M: np.ndarray) -> np.ndarray:
    """Unit-sum nonnegative Perron vector of each Metzler matrix of an
    entry-major stack (n, n, N), as the rows of an (N, n) array: the
    eigenvector of the eigenvalue of largest real part, from one stacked
    eig, in absolute value.  It is positive where M is irreducible."""
    w, V = np.linalg.eig(M.transpose(2, 0, 1))
    k = np.argmax(w.real, axis=1)
    v = np.abs(V[np.arange(len(w)), :, k].real)
    return v / v.sum(axis=1, keepdims=True)


def perron_positive(A: np.ndarray) -> tuple[float, np.ndarray]:
    """Dominant eigenvalue and unit-sum positive eigenvector of A > 0.

    Power iteration to POWER_TOL; ``perron_root`` and ``perron_vector``
    finish the job if convergence stalls (near-degenerate dominant pair) or
    POWER_MAXITER iterations run out.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    v = np.full(n, 1.0 / n)
    lam = 0.0
    prev_res = np.inf
    for it in range(POWER_MAXITER):
        w = A @ v
        lam = w.sum()
        if lam <= 0.0:
            break
        w /= lam
        res = np.abs(w - v).max()
        v = w
        # once under POWER_TOL, keep going while the residual still shrinks:
        # the eigenvalue error tracks the residual, so ride it to the floor
        if res < POWER_TOL and (res == 0.0 or res >= prev_res):
            return float(lam), v
        if it == _POWER_STALL and res > np.sqrt(POWER_TOL):
            break
        prev_res = res
    stack = A[:, :, None]
    return float(perron_root(stack)[0]), perron_vector(stack)[0]

