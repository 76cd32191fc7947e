"""Spectral primitives for Metzler and nonnegative matrices.

Contents:

* ``expm_stack_scaled`` — e^A = e^l E for each matrix of a stack (N, n, n),
  by Padé-13 scaling and squaring in NumPy over the whole stack (Higham,
  SIAM J. Matrix Anal. Appl. 26(4), 2005): one scaling and one Padé-13 for
  the stack, its linear system solved for n = 3 on entry arrays from the
  adjugate (no per-matrix LAPACK call) and otherwise by one ``solve``,
  then squarings rescaled to unit max entry every fourth step and once at
  the end, each matrix with its own squaring count from its 1-norm, so a
  matrix's exponential does not depend on the rest of the stack.  It is
  the only scaling-and-squaring loop and the only matrix exponential of
  the package: the growth rate of three or more patches exponentiates every
  segment of every cell in one call, theta* every sub-step, and the
  switched simulator every dwell of a chunk.
* ``scaled_product`` — the ordered product of a stack of factors e^l E,
  pairwise and rescaled to unit max entry with the logs kept apart: every
  scaled Phi(T) of the growth rate and every batch of simulator dwells.
* ``perron_root`` — the Perron root of each Metzler matrix of a stack, in
  closed form for n = 2 and 3, else by one stacked ``eigvals``: the root of
  the growth-rate kernel, of every limit and of the switched model.
* ``perron_vector`` — the unit-sum nonnegative Perron vector of each
  Metzler matrix of a stack, by one stacked ``eig``: the slow curve.
* ``perron_positive`` — dominant eigenpair of a positive matrix by power
  iteration, finished by the two above where it stalls.
* ``kernel_vector`` — the positive kernel direction of an irreducible
  zero-column-sum Metzler matrix, from the cofactor formula.
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


def expm_stack_scaled(A: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                               np.ndarray]:
    """(E, l, broken) over a stack (N, n, n), with e^{A[c]} = e^{l[c]} E[c].

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
    N, n = len(A), A.shape[-1]
    with np.errstate(over="ignore"):  # an infinite norm marks the matrix
        nrm = np.abs(A).sum(axis=1).max(axis=1)
    broken = ~np.isfinite(nrm)
    s = np.zeros(N, dtype=int)
    big = (nrm > _THETA13) & ~broken
    s[big] = np.ceil(np.log2(nrm[big] / _THETA13))
    order = np.argsort(-s, kind="stable")
    s, broken = s[order], broken[order]
    A = A[order]
    A[broken] = 0.0
    A /= (2.0 ** s)[:, None, None]
    b = _PADE13
    ident = np.eye(n)
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident)
    del A, A2, A4, A6  # only U and V go on: this lowers the peak memory
    if n == 3:
        # e^A = I + 2 (V - U)^-1 U keeps the digits of the diagonal near 1
        V -= U
        U *= 2.0
        E = _solve3(V, U)
        E += ident
    else:
        E = np.linalg.solve(V - U, V + U)

    def rescale(F, p):
        """Write F / max|F| over E[:p]; the logs of the factors."""
        c = np.abs(F.reshape(p, n * n)).max(axis=1)
        np.divide(F, c[:, None, None], out=E[:p])
        return np.log(c)

    # prefix lengths: the matrices with s > k lead the stack at step k
    ends = np.searchsorted(-s, -np.arange(s.max(initial=0)), side="left")
    with np.errstate(divide="ignore", invalid="ignore"):
        # a factor that is 0 or not finite leaves l non-finite for good
        l = rescale(E, N)
        for k, p in enumerate(ends.tolist(), 1):
            l[:p] *= 2.0
            F = E[:p] @ E[:p]
            if k % _RESCALE_EVERY:
                E[:p] = F
            else:
                l[:p] += rescale(F, p)
        l += rescale(E, N)
    fail = ~np.isfinite(l)
    broken |= fail
    E[fail] = ident
    l[fail] = 0.0
    inverse = np.empty_like(order)
    inverse[order] = np.arange(N)
    return E[inverse], l[inverse], broken[inverse]


def _solve3(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A^-1 B over stacks (N, 3, 3) from the adjugate of each A and its
    determinant, with no per-matrix LAPACK call.  On cyclic indices the
    cofactors carry their own signs: adj(A)_ij = A_{j+1,i+1} A_{j+2,i+2}
    - A_{j+1,i+2} A_{j+2,i+1}, and det A = sum_j A_0j adj(A)_j0."""
    # W[:, r, c] = A[:, c % 3, r % 3], read as flat indices 3 (c % 3) + r % 3
    W = A.reshape(len(A), 9)[:, (0, 3, 6, 0, 3, 1, 4, 7, 1, 4, 2, 5, 8, 2, 5,
                                 0, 3, 6, 0, 3, 1, 4, 7, 1, 4)]
    W = W.reshape(len(A), 5, 5)
    adj = W[:, 1:4, 1:4] * W[:, 2:, 2:]
    adj -= W[:, 1:4, 2:] * W[:, 2:, 1:4]
    del W
    a, c = A[:, 0], adj[:, :, 0]
    det = a[:, 0] * c[:, 0] + a[:, 1] * c[:, 1] + a[:, 2] * c[:, 2]
    X = adj @ B
    X /= det[:, None, None]
    return X


def scaled_product(E: np.ndarray, l: np.ndarray) -> tuple[np.ndarray, ...]:
    """(P, logs, broken) with e^logs P = e^{l[K-1]} E[K-1] ... e^{l[0]} E[0]
    over a stack E (K, ..., n, n) and its logs l (K, ...): pairwise, later
    factor on the left, one stacked ``@`` per level, an odd last factor
    carried up a level.  Each product is rescaled to unit max entry with
    the log of the factor added; ``broken`` marks a non-finite log (a
    product that was 0 or not finite).  For K <= 3 factors of unit max
    entry the arithmetic is that of a left-to-right loop."""
    with np.errstate(divide="ignore", invalid="ignore"):
        # a product that is 0 or not finite leaves its log non-finite
        while len(E) > 1:
            even = len(E) - len(E) % 2
            P = E[1:even:2] @ E[:even:2]
            c = np.abs(P).max(axis=(-2, -1))
            P /= c[..., None, None]
            logs = l[:even:2] + l[1:even:2] + np.log(c)
            if even < len(E):
                P = np.concatenate([P, E[even:]])
                logs = np.concatenate([logs, l[even:]])
            E, l = P, logs
    return E[0], l[0], ~np.isfinite(l[0])


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
    """Perron root of each Metzler matrix of a stack (N, n, n), its real
    eigenvalue of largest real part: (p + q)/2 + sqrt(((p - q)/2)^2 + r r2)
    for [[p, r], [r2, q]], ``_perron_root3`` for n = 3, else one eigvals."""
    if M.shape[-1] == 2:
        p, r, r2, q = M[:, 0, 0], M[:, 0, 1], M[:, 1, 0], M[:, 1, 1]
        return 0.5 * (p + q) + np.hypot(0.5 * (p - q), np.sqrt(r * r2))
    if M.shape[-1] == 3:
        return _perron_root3(M)
    return np.linalg.eigvals(M).real.max(axis=1)


def _perron_root3(M: np.ndarray) -> np.ndarray:
    """Perron root of each Metzler 3x3 matrix of a stack, t + x with
    t = tr(M)/3 and x the largest real root of the characteristic cubic
    p(x) = x^3 + q x - det N of the traceless N = M - t I.

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
    t = np.trace(M, axis1=1, axis2=2) / 3.0
    N = M - t[:, None, None] * np.eye(3)
    a, m01, m02, m10, b, m12, m20, m21, c = N.reshape(len(N), 9).T
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
    norm = np.abs(N).sum(axis=1).max(axis=1)
    flat = ~(3.0 * x * x + q >= _FLAT_ROOT * norm * norm)
    root = t + x
    if flat.any():
        root[flat] = np.linalg.eigvals(M[flat]).real.max(axis=1)
    return root


def perron_vector(M: np.ndarray) -> np.ndarray:
    """Unit-sum nonnegative Perron vector of each Metzler matrix of a stack
    (N, n, n): the eigenvector of the eigenvalue of largest real part, from
    one stacked eig, in absolute value.  It is positive where M is
    irreducible."""
    w, V = np.linalg.eig(M)
    k = np.argmax(w.real, axis=1)
    v = np.abs(V[np.arange(len(M)), :, k].real)
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
    return float(perron_root(A[None])[0]), perron_vector(A[None])[0]


def kernel_vector(L: np.ndarray) -> np.ndarray:
    """Positive unit-sum kernel vector of an irreducible Metzler matrix with
    zero column sums, via the all-minors cofactor formula.

    The i-th component is proportional to the determinant of L with row and
    column i deleted, up to the sign (-1)^(n-1); for an irreducible
    zero-column-sum Metzler matrix these are all strictly positive.
    """
    L = np.asarray(L, dtype=float)
    n = L.shape[0]
    sign = (-1.0) ** (n - 1)
    d = np.empty(n)
    idx = np.arange(n)
    for i in range(n):
        keep = idx != i
        d[i] = sign * np.linalg.det(L[np.ix_(keep, keep)])
    total = d.sum()
    if total <= 0.0 or np.any(d <= 0.0):
        raise ValueError("kernel_vector needs an irreducible zero-column-sum "
                         "Metzler matrix")
    return d / total
