"""Gauss rules and panels from one elementwise builder; Taylor coefficients by Cauchy's rule."""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from numpy.typing import ArrayLike

from .polys import _integer

PANEL_ORDER = 16  # points per panel of ``panel_nodes``: exact to degree 31


def _gauss_rule(diag: np.ndarray, off2: np.ndarray, mass: float):
    """Nodes/weights of the Jacobi matrix with diagonal a_k = ``diag[k]``, off-diagonal
    b_k = sqrt(``off2[k]``) (b_0 = 0) and a weight function of integral ``mass``.

    Golub-Welsch (Math. Comp. 23 (1969) 221): the nodes are the eigenvalues,
    found by multisection on Sturm counts (Wilkinson 1965, ch. 5) inside the
    Gershgorin interval: each pass cuts every bracket at about 1024/n points and
    keeps the piece where the count of negative pivots of the shifted matrix
    passes the node's rank, until no double lies inside a bracket or it is below
    eps^2 times the Gershgorin width (a node at 0 would sink into the subnormals).
    The weights are the Christoffel numbers mass / sum_{k<n} p_k(x)^2 (Gautschi,
    Orthogonal Polynomials, 2004, sec. 3.1), p_0 = 1, b_k p_k = (x - a_{k-1}) p_{k-1}
    - b_{k-1} p_{k-2}, each step rescaled by a power of two (exact): every weight is
    accurate to its own size.  With only +, -, *, /, sqrt and exponent shifts, the
    rule is bit-identical on any BLAS or SIMD level.
    """
    n = diag.size
    if n < 1:
        raise ValueError("need at least one node")
    b = np.sqrt(off2)
    radius = b + np.append(b[1:], 0.0)
    rank = np.arange(n)
    pieces = max(2, 1024 // n)  # per bracket and pass: about 1024 trial points in all
    frac = np.arange(1, pieces) / pieces
    lo, hi = np.full(n, np.min(diag - radius)), np.full(n, np.max(diag + radius))
    tiny = np.finfo(float).eps ** 2 * (hi[0] - lo[0])
    with np.errstate(divide="ignore", over="ignore"):  # a zero pivot gives -inf: still a count
        while True:
            trial = lo[:, None] + (hi - lo)[:, None] * frac
            inside = (lo[:, None] < trial) & (trial < hi[:, None])
            if not np.any(inside[hi - lo > tiny]):
                break
            pivots = diag[:, None] - trial.ravel()  # row k: the k-th pivot at every trial point
            for k in range(1, n):
                np.subtract(pivots[k], off2[k] / pivots[k - 1], out=pivots[k])
            below = np.count_nonzero(pivots < 0.0, axis=0).reshape(trial.shape)
            piece = np.count_nonzero(below <= rank[:, None], axis=1)
            edges = np.column_stack([lo, trial, hi])
            lo, hi = edges[rank, piece], edges[rank, piece + 1]
    x = 0.5 * (lo + hi)

    prev, cur, total, expo = np.zeros(n), np.ones(n), np.ones(n), np.zeros(n, dtype=int)
    for k in range(1, n):
        prev, cur = cur, ((x - diag[k - 1]) * cur - b[k - 1] * prev) / b[k]
        total += cur * cur
        _, e = np.frexp(np.maximum(np.abs(cur), np.abs(prev)))
        cur, prev, total = np.ldexp(cur, -e), np.ldexp(prev, -e), np.ldexp(total, -2 * e)
        expo += e
    with np.errstate(under="ignore"):
        return x, np.ldexp(mass / total, -2 * expo)


@lru_cache(maxsize=None)
def gauss_laguerre(n: int):
    """Nodes/weights for integral of f(x) exp(-x) on [0, inf): a_k = 2k+1, b_k = k, mass 1."""
    k = np.arange(n, dtype=float)
    return _gauss_rule(2.0 * k + 1.0, k * k, 1.0)


@lru_cache(maxsize=None)
def gauss_legendre(n: int):
    """Nodes/weights for integral of f(x) on [-1, 1]: a_k = 0, b_k^2 = k^2/(4k^2 - 1), mass 2."""
    k = np.arange(n, dtype=float)
    return _gauss_rule(np.zeros(n), k * k / (4.0 * k * k - 1.0), 2.0)


@lru_cache(maxsize=None)
def gauss_hermite(n: int):
    """Nodes/weights for integral of f(x) exp(-x^2) on the real line: a_k = 0, b_k^2 = k/2,
    mass sqrt(pi)."""
    k = np.arange(n, dtype=float)
    return _gauss_rule(np.zeros(n), k / 2.0, math.sqrt(math.pi))


_PANEL_X, _PANEL_W = gauss_legendre(PANEL_ORDER)


def _rule_rows(rule: Callable[[int], tuple], counts: np.ndarray):
    """Nodes and weights of rule(counts[r]) in row r, padded with zeros to the largest count."""
    nodes, weights = np.zeros((2, counts.size, int(np.max(counts, initial=1))))
    for count in set(counts.tolist()):
        nodes[counts == count, :count], weights[counts == count, :count] = rule(count)
    return nodes, weights


def _row_sums(terms: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Row r of terms summed over its first counts[r] entries, in np.sum's order for as many."""
    out = np.empty(counts.size, dtype=terms.dtype)
    for count in set(counts.tolist()):
        out[counts == count] = np.sum(terms[counts == count, :count], axis=-1)
    return out


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


def series_coefficients(fn: Callable[..., ArrayLike], counts: Sequence[int],
                        radius: float = 0.5, nodes: int = 128) -> np.ndarray:
    """Taylor coefficients c[k_1, ..., k_d] of fn by Cauchy quadrature.

    fn takes d complex arguments, one per entry of ``counts``, and must be
    analytic on the polydisk of the given radius.  It is called once, on
    the ``np.ix_`` grid of one circle of ``nodes`` points per argument, and
    returns an array whose first d axes are those node axes; any axes it
    adds after them are batch axes and come back unchanged after the
    coefficient axes, whose lengths are ``counts``.  The radius must be
    finite and nonzero, since the coefficients divide by its powers.

    The trapezoid rule on the circle is exact up to aliasing: with N nodes
    on radius r the error in c_n is the sum over j >= 1 of c_{n+jN} r^{jN},
    which falls like (r/R)^N when the nearest singularity lies at radius R.
    R, not the unit disk, sets the node count: the momentum generating
    function at q0 = 1, p = 0.7 is singular at |t| = 0.75 for |z| = 0.5, so
    64 nodes on r = 0.5 leave a relative error of 2.5e-10 in its
    coefficients, and 128 nodes leave rounding (1.1e-14).  That rounding
    comes back multiplied by r^-n in c_n, so the radius trades aliasing
    against the highest degree wanted.
    """
    nodes = _integer("series_coefficients nodes", nodes)
    counts = [_integer("series_coefficients count", c) for c in counts]
    if not counts or not all(0 < c <= nodes for c in counts):
        raise ValueError("need 0 < count <= nodes on every axis")
    if radius == 0.0 or not np.isfinite(radius):
        raise ValueError(f"Cauchy radius must be finite and nonzero, got {radius!r}")
    d = len(counts)
    circle = radius * np.exp(2j * np.pi * np.arange(nodes) / nodes)
    samples = np.asarray(fn(*np.ix_(*[circle] * d)), dtype=complex)
    hat = np.fft.fftn(samples, axes=range(d)) / nodes**d
    degree = sum(np.ix_(*[np.arange(c) for c in counts]))
    powers = (radius ** degree).reshape(degree.shape + (1,) * (hat.ndim - d))
    return hat[tuple(slice(c) for c in counts)] / powers
