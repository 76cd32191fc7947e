"""Lockstep bracketed searches in log coordinates.

Both searches advance many independent brackets together.  Each step makes
one call ``f(idx, x)`` that evaluates f at one point ``x[k]`` of every
bracket ``idx[k]`` still open, so a caller can send all of them through one
batched growth-rate call.  A bracket's iterates depend only on its own
values, so it gives the same result, bit for bit, alone or with others.

* ``illinois_roots``: roots of f on brackets with a sign change, by regula
  falsi in log x with the Illinois modification (Dowell & Jarratt, BIT 11,
  1971): when the same end of a bracket survives twice in a row, its value
  is halved, which keeps the order of convergence near 1.44.
* ``parabolic_max``: the maximum of f near a scan's discrete argmax, by
  successive parabolic interpolation in log x through the three best points
  (Brent, Algorithms for Minimization without Derivatives, 1973).

Each falls back to a safe step, bisection or golden section, where its
interpolated point is not finite or not strictly inside the bracket.
"""

from __future__ import annotations

import numpy as np

# a root bracket closes at this width in log x (times |log x| where that
# exceeds 1): a relative width of a few ulp in x
ROOT_WIDTH = 4.0 * np.finfo(float).eps
GOLDEN = 0.5 * (3.0 - 5.0 ** 0.5)


def _strictly_inside(u, a, b):
    """u in the open interval between a and b; False for NaN."""
    return (u > np.minimum(a, b)) & (u < np.maximum(a, b))


def illinois_roots(f, lo, hi, f_lo, f_hi, tol: float, cap: int):
    """Roots of f on the brackets [lo[e], hi[e]] (all > 0), in lockstep.

    ``f_lo`` and ``f_hi`` are the values at the ends, of opposite sign or
    zero.  A bracket closes at the first point, ends included, where
    |f| <= tol; when it is ROOT_WIDTH wide in log x (scaled as below); or
    after ``cap`` steps.
    Returns (roots, values): per bracket the evaluated point with the
    smallest |f|, and f there.
    """
    lo, hi, fa, fb = (np.array(v, dtype=float) for v in (lo, hi, f_lo, f_hi))
    a, b = np.log(lo), np.log(hi)
    at_lo = np.abs(fa) < np.abs(fb)
    roots, values = np.where(at_lo, lo, hi), np.where(at_lo, fa, fb)
    live = np.abs(values) > tol
    for _ in range(cap):
        # the closing width, relative to |log x| where that exceeds 1, is
        # always a few ulp of the log coordinates
        width = ROOT_WIDTH * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
        live &= np.abs(b - a) > width
        e = np.flatnonzero(live)
        if not e.size:
            break
        with np.errstate(all="ignore"):
            c = b[e] - fb[e] * (b[e] - a[e]) / (fb[e] - fa[e])
        # a step shorter than half the closing width goes that far: next to
        # the root this crosses it, and the bracket closes
        half = 0.5 * width[e]
        c = np.where(np.abs(c - b[e]) < half,
                     b[e] + np.copysign(half, a[e] - b[e]), c)
        c = np.where(_strictly_inside(c, a[e], b[e]), c, 0.5 * (a[e] + b[e]))
        x = np.exp(c)
        fc = np.asarray(f(e, x), dtype=float)
        better = np.abs(fc) < np.abs(values[e])
        roots[e[better]], values[e[better]] = x[better], fc[better]
        live[e[np.abs(fc) <= tol]] = False
        flip = (fc > 0.0) != (fb[e] > 0.0)
        a[e] = np.where(flip, b[e], a[e])
        fa[e] = np.where(flip, fb[e], 0.5 * fa[e])
        b[e], fb[e] = c, fc
    return roots, values


def _parabolic_step(a, b, x, w, v, fx, fw, fv):
    """Vertex, in log x, of the parabola through (x, fx), (w, fw), (v, fv);
    a golden step from x into the larger part of (a, b) where the vertex is
    not finite or not strictly inside (a, b)."""
    r = (x - w) * (fx - fv)
    q = (x - v) * (fx - fw)
    p = (x - v) * q - (x - w) * r
    q = 2.0 * (q - r)
    with np.errstate(all="ignore"):
        u = x - p / q
    golden = np.where(x < 0.5 * (a + b), x + GOLDEN * (b - x),
                      x - GOLDEN * (x - a))
    return np.where(_strictly_inside(u, a, b), u, golden)


def parabolic_max(f, lo, mid, hi, f_lo, f_mid, f_hi, width: float, cap: int):
    """Maxima of f on the brackets [lo[r], hi[r]] (all > 0), in lockstep.

    ``mid[r]`` lies strictly inside its bracket and ``f_mid`` is at least
    ``f_lo`` and ``f_hi``, as at the argmax of a scan.  Each step moves to
    the vertex of the parabola through the row's three best points, in
    log x, or takes a golden step (``_parabolic_step``).  A row stops when
    its step is shorter than ``width`` in log x, or after ``cap`` steps.
    Returns (argmax, max): per row the best evaluated point and f there.
    """
    best, fx = np.array(mid, dtype=float), np.array(f_mid, dtype=float)
    a, b, x = np.log(lo), np.log(hi), np.log(best)
    w, v = a.copy(), b.copy()
    fw, fv = np.array(f_lo, dtype=float), np.array(f_hi, dtype=float)
    live = np.ones(len(x), dtype=bool)
    for _ in range(cap):
        r = np.flatnonzero(live)
        if not r.size:
            break
        u = _parabolic_step(a[r], b[r], x[r], w[r], v[r], fx[r], fw[r], fv[r])
        moves = np.abs(u - x[r]) >= width
        live[r[~moves]] = False
        r, u = r[moves], u[moves]
        if not r.size:
            break
        pu = np.exp(u)
        fu = np.asarray(f(r, pu), dtype=float)
        up, left = fu >= fx[r], u < x[r]
        # the bracket keeps the best point inside
        a[r] = np.where(up, np.where(left, a[r], x[r]), np.where(left, u, a[r]))
        b[r] = np.where(up, np.where(left, x[r], b[r]), np.where(left, b[r], u))
        # the three best points: x, then w, then v
        second = ~up & (fu >= fw[r])
        third = ~up & ~second & (fu >= fv[r])
        shift = up | second
        v[r] = np.where(shift, w[r], np.where(third, u, v[r]))
        fv[r] = np.where(shift, fw[r], np.where(third, fu, fv[r]))
        w[r] = np.where(up, x[r], np.where(second, u, w[r]))
        fw[r] = np.where(up, fx[r], np.where(second, fu, fw[r]))
        x[r], fx[r] = np.where(up, u, x[r]), np.where(up, fu, fx[r])
        best[r] = np.where(up, pu, best[r])
    return best, fx
