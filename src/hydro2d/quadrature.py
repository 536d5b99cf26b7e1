"""Gauss-Laguerre rules and Gauss-Legendre panels, built with numpy alone."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

PANEL_ORDER = 16  # points per panel of ``panel_nodes``: exact to degree 31
_PANEL_X, _PANEL_W = np.polynomial.legendre.leggauss(PANEL_ORDER)


@lru_cache(maxsize=None)
def gauss_laguerre(n: int):
    """Nodes/weights for integral of f(x) exp(-x) on [0, inf).

    Golub-Welsch (Math. Comp. 23 (1969) 221): the nodes are the eigenvalues
    of the Jacobi matrix (diagonal 2k+1, off-diagonal k), all in (0, 4n),
    found by multisection on Sturm counts (Wilkinson 1965, ch. 5): each pass
    cuts every bracket at about 1024/n points and keeps the piece where the
    count of negative pivots of the shifted matrix passes the node's rank,
    until no double lies inside a bracket.  The weights are the Christoffel
    numbers (Gautschi, Orthogonal Polynomials, 2004, sec. 3.1)
    w_i = 1 / sum_{k<n} L_k(x_i)^2, sums of squares of L_k rescaled by powers
    of two, so each is accurate relative to its own size.  Only +, -, *, /
    and exponent shifts are used: the rule is bit-identical on any BLAS,
    LAPACK or SIMD level.
    """
    if n < 1:
        raise ValueError("need at least one node")
    diag = 2.0 * np.arange(n) + 1.0
    rank = np.arange(n)
    pieces = max(2, 1024 // n)  # per bracket and pass: about 1024 trial points in all
    frac = np.arange(1, pieces) / pieces
    lo, hi = np.zeros(n), np.full(n, 4.0 * n)
    with np.errstate(divide="ignore", over="ignore"):  # a zero pivot gives -inf: still a count
        while True:
            trial = lo[:, None] + (hi - lo)[:, None] * frac
            if not np.any((lo[:, None] < trial) & (trial < hi[:, None])):
                break
            pivots = diag[:, None] - trial.ravel()  # row k: the k-th pivot at every trial point
            for k in range(1, n):
                np.subtract(pivots[k], k * k / pivots[k - 1], out=pivots[k])
            below = np.count_nonzero(pivots < 0.0, axis=0).reshape(trial.shape)
            piece = np.count_nonzero(below <= rank[:, None], axis=1)
            edges = np.column_stack([lo, trial, hi])
            lo, hi = edges[rank, piece], edges[rank, piece + 1]
    x = 0.5 * (lo + hi)

    prev, cur, total = np.zeros(n), np.ones(n), np.ones(n)
    expo = np.zeros(n, dtype=int)
    # A step grows max(|L_k|, |L_{k-1}|) by at most 3 + x: rescale before 2**500, so squares fit.
    every = max(1, int(500 / math.log2(3.0 + x[-1])))
    for k in range(1, n):
        prev, cur = cur, ((2 * k - 1 - x) * cur - (k - 1) * prev) / k
        total += cur * cur
        if k % every == 0:
            _, e = np.frexp(np.maximum(np.abs(cur), np.abs(prev)))
            cur, prev, total = np.ldexp(cur, -e), np.ldexp(prev, -e), np.ldexp(total, -2 * e)
            expo += e
    with np.errstate(under="ignore"):
        return x, np.ldexp(1.0 / total, -2 * expo)


def panel_nodes(boundaries: np.ndarray):
    """Gauss-Legendre nodes/weights for a chain of contiguous panels.

    ``boundaries`` is an increasing 1-d array; each consecutive pair is
    one panel of ``PANEL_ORDER`` points.  Returns flat nodes and weights.
    """
    half = 0.5 * np.diff(boundaries)
    mid = 0.5 * (boundaries[1:] + boundaries[:-1])
    nodes = (mid[:, None] + half[:, None] * _PANEL_X[None, :]).ravel()
    weights = (half[:, None] * _PANEL_W[None, :]).ravel()
    return nodes, weights
