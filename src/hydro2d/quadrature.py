"""Gauss-Laguerre rules and Gauss-Legendre panels, built with numpy alone."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

PANEL_ORDER = 16  # points per panel of ``panel_nodes``: exact to degree 31
_PANEL_X, _PANEL_W = np.polynomial.legendre.leggauss(PANEL_ORDER)

# Below this size a squared eigenvector component (good to about 1e-16
# absolute) is worse than the node formula (about 1e-13 relative away from
# x = 0); above it, the formula loses accuracy toward the smallest nodes.
_EIGENVECTOR_WEIGHT_FLOOR = 1e-8


def _laguerre_pair(n: int, x: np.ndarray):
    """L_n(x) and L_{n-1}(x), both scaled by 2**-e, and the exponents e.

    Plain three-term recurrence, rescaled per node by exact powers of two
    so that nothing overflows even at x ~ 4n.
    """
    prev = np.ones_like(x)
    cur = 1.0 - x
    expo = np.zeros(x.shape, dtype=int)
    # One step grows max(|L_k|, |L_{k-1}|) by at most 3 + x: rescale before 2**900.
    every = max(1, int(900 / math.log2(3.0 + x.max(initial=0.0))))
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 - x) * cur - k * prev) / (k + 1)
        if k % every == 0 or k == n - 1:
            _, e = np.frexp(np.maximum(np.abs(cur), np.abs(prev)))
            cur, prev = np.ldexp(cur, -e), np.ldexp(prev, -e)
            expo += e
    return cur, prev, expo


@lru_cache(maxsize=None)
def gauss_laguerre(n: int):
    """Nodes/weights for integral of f(x) exp(-x) on [0, inf).

    Built by Golub-Welsch (Math. Comp. 23 (1969) 221) on the symmetric
    Jacobi matrix (diagonal 2k+1, off-diagonal k) because the library rules
    return NaN weights above a few hundred nodes.  The nodes are its
    eigenvalues, from numpy's dense symmetric solver.  A weight is the
    squared first component of the unit eigenvector while that is at least
    1e-8; those components carry only absolute accuracy, so the smaller
    (tail) weights come from the node formula instead,

        w_i = x_i / ((n+1) L_{n+1}(x_i))^2 = 1 / (x_i L_n'(x_i)^2),

    after one Newton step on L_n polishes the tail node (Glaser, Liu and
    Rokhlin, SIAM J. Sci. Comput. 29 (2007) 1420).  L_n comes from its
    recurrence in scaled form, so every tail weight is accurate relative to
    its own size and is 0.0 only where the true weight underflows.
    """
    if n < 1:
        raise ValueError("need at least one node")
    nodes, vectors = np.linalg.eigh(np.diag(2.0 * np.arange(n) + 1.0)
                                    + np.diag(np.arange(1.0, n), 1), UPLO="U")
    weights = vectors[0] ** 2
    tail = weights < _EIGENVECTOR_WEIGHT_FLOOR
    x = nodes[tail]
    lag, lag_prev, expo = _laguerre_pair(n, x)
    # x L_n' = n (L_n - L_{n-1}) and x L_n'' = (x - 1) L_n' - n L_n.
    d1 = n * (lag - lag_prev) / x
    d2 = ((x - 1.0) * d1 - n * lag) / x
    step = lag / d1
    x = x - step
    d1 = d1 - step * d2  # L_n' at the polished node, to first order in step
    nodes[tail] = x
    with np.errstate(under="ignore"):
        weights[tail] = np.ldexp(1.0 / (x * d1 * d1), -2 * expo)
    return nodes, weights


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
