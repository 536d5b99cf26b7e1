"""Gauss rules and panels from one elementwise builder; Taylor coefficients by Cauchy's rule."""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
from numpy.typing import ArrayLike

from .polys import _integer

PANEL_ORDER = 16  # points per panel of ``panel_nodes``: exact to degree 31


def _gauss_rule(diag: np.ndarray, off2: np.ndarray, mass: float, sizes: Sequence[int]):
    """Nodes/weights of the leading s x s block of the Jacobi matrix with diagonal
    a_k = ``diag[k]``, off-diagonal b_k = sqrt(``off2[k]``) (b_0 = 0) and a weight function
    of integral ``mass``, one (x, w) pair per size s in ``sizes``, in their order.

    A family's size-s matrix is the leading block of its largest one, since a_k and b_k
    do not depend on s, so one pass builds every size.  Golub-Welsch (Math. Comp. 23
    (1969) 221): the nodes are the eigenvalues, found by multisection on Sturm counts
    (Wilkinson 1965, ch. 5) inside the largest matrix's Gershgorin interval, which holds
    the eigenvalues of each leading block too (Cauchy interlacing).  The brackets of all
    sizes lie in one array, largest size first, so step k of the pivot recurrence
    d_k = (a_k - t) - b_k^2 / d_(k-1) runs on the prefix of brackets whose size is above k,
    and a bracket of size s counts the negative ones among its own s pivots.  Each pass
    cuts every bracket at about 1024 trial points in all and keeps the piece where that
    count passes the node's rank, until no double lies inside a bracket or it is below
    eps^2 times the Gershgorin width W.  The count is monotone in t in IEEE arithmetic
    (Kahan 1966; Demmel, Dhillon and Ren, ETNA 3 (1995) 116), so a bracket ends on the
    one pair of adjacent doubles where its count passes the rank, whichever trial points
    led there: each rule has the same bits built alone or beside any other sizes.  The
    eps^2 W floor keeps a node at 0 out of the subnormals; a bracket below it holds a node
    below eps W in size, the middle node of an odd symmetric rule, at 0 to rounding, and
    where in it the bracket stopped depends on the trial points, so that node is 0.0.
    The weights are the Christoffel numbers mass / sum_{k<s} p_k(x)^2 (Gautschi,
    Orthogonal Polynomials, 2004, sec. 3.1), p_0 = 1, b_k p_k = (x - a_{k-1}) p_{k-1}
    - b_{k-1} p_{k-2}, on the same prefixes, each step rescaled by a power of two
    (exact): every weight is accurate to its own size.  With only +, -, *, /, sqrt and
    exponent shifts, the rules are bit-identical on any BLAS or SIMD level.
    """
    if not len(sizes) or min(sizes) < 1:
        raise ValueError("need at least one node")
    size = np.array(sorted(sizes, reverse=True))
    n = int(size[0])
    diag, off2 = diag[:n], off2[:n]
    b = np.sqrt(off2)
    radius = b + np.append(b[1:], 0.0)
    rank = np.concatenate([np.arange(s) for s in size.tolist()])
    bracket_size = np.repeat(size, size)
    active = np.searchsorted(-bracket_size, -np.arange(n)).tolist()  # brackets of size > k
    pieces = max(2, 1024 // rank.size)  # per bracket and pass: about 1024 trial points in all
    frac = np.arange(1, pieces) / pieces
    lo, hi = np.full(rank.size, np.min(diag - radius)), np.full(rank.size, np.max(diag + radius))
    tiny = np.finfo(float).eps ** 2 * (hi[0] - lo[0])
    at = np.arange(rank.size)
    with np.errstate(divide="ignore", over="ignore"):  # a zero pivot gives -inf: still a count
        while True:
            trial = lo[:, None] + (hi - lo)[:, None] * frac
            inside = (lo[:, None] < trial) & (trial < hi[:, None])
            if not np.any(inside[hi - lo >= tiny]):
                break
            t = trial.ravel()
            pivot = diag[0] - t
            below = (pivot < 0.0).astype(int)
            for k in range(1, n):  # the pivots of brackets of size above k: a prefix
                d = pivot[:active[k] * (pieces - 1)]
                np.subtract(diag[k] - t[:d.size], np.divide(off2[k], d, out=d), out=d)
                below[:d.size] += d < 0.0
            below = below.reshape(trial.shape)
            piece = np.count_nonzero(below <= rank[:, None], axis=1)
            edges = np.column_stack([lo, trial, hi])
            lo, hi = edges[at, piece], edges[at, piece + 1]
    x = np.where(hi - lo < tiny, 0.0, 0.5 * (lo + hi))
    if not np.any(diag):  # a symmetric weight: each rule's lower half mirrors its upper half
        first = np.repeat(np.cumsum(size) - size, size)
        x = np.where(2 * rank < bracket_size - 1, -x[first + bracket_size - 1 - rank], x)

    prev, cur, total = np.zeros(x.size), np.ones(x.size), np.ones(x.size)
    expo = np.zeros(x.size, dtype=int)
    for k in range(1, n):
        j = active[k]
        step = ((x[:j] - diag[k - 1]) * cur[:j] - b[k - 1] * prev[:j]) / b[k]
        prev[:j] = cur[:j]
        total[:j] += step * step
        _, e = np.frexp(np.maximum(np.abs(step), np.abs(prev[:j])))
        cur[:j], prev[:j] = np.ldexp(step, -e), np.ldexp(prev[:j], -e)
        total[:j] = np.ldexp(total[:j], -2 * e)
        expo[:j] += e
    with np.errstate(under="ignore"):
        w = np.ldexp(mass / total, -2 * expo)
    start = dict(zip(size.tolist(), (np.cumsum(size) - size).tolist()))
    return [(x[start[s]:start[s] + s], w[start[s]:start[s] + s]) for s in sizes]


# Each family's Jacobi matrix at k = 0, 1, ...: diagonal a_k, b_k^2 and the weight's mass.
_FAMILIES = {
    "laguerre": lambda k: (2.0 * k + 1.0, k * k, 1.0),  # f(x) e^(-x) on [0, inf)
    "legendre": lambda k: (np.zeros(k.size), k * k / (4.0 * k * k - 1.0), 2.0),  # f(x) on [-1, 1]
    "hermite": lambda k: (np.zeros(k.size), k / 2.0, math.sqrt(math.pi)),  # f(x) e^(-x^2) on R
}
_RULES = {family: {} for family in _FAMILIES}  # family: {size: (nodes, weights)}


def gauss_rules(family: str, sizes: Sequence[int]) -> list:
    """The Gauss rules of ``family`` (a key of ``_FAMILIES``) with ``sizes`` nodes, one (nodes,
    weights) pair per size in their order, from the family's cache: one ``_gauss_rule`` call
    builds every size it lacks."""
    if not isinstance(family, str) or family not in _FAMILIES:
        raise ValueError(f"gauss_rules family must be one of {', '.join(_FAMILIES)}, "
                         f"got {family!r}")
    for n in sizes:
        if isinstance(n, bool) or _integer("gauss_rules size", n) < 1:
            raise ValueError(f"gauss_rules size must be a positive integer, got {n!r}")
    cache = _RULES[family]
    todo = sorted(set(sizes) - cache.keys())
    if todo:
        diag, off2, mass = _FAMILIES[family](np.arange(todo[-1], dtype=float))
        cache.update(zip(todo, _gauss_rule(diag, off2, mass, todo)))
    return [cache[n] for n in sizes]


def _rule_rows(family: str, counts: np.ndarray):
    """Nodes and weights of the ``family`` rule of counts[r] nodes in row r, padded with zeros
    to the largest count; the distinct counts are built together."""
    nodes, weights = np.zeros((2, counts.size, int(np.max(counts, initial=1))))
    distinct = sorted(set(counts.tolist()))
    for count, rule in zip(distinct, gauss_rules(family, distinct)):
        nodes[counts == count, :count], weights[counts == count, :count] = rule
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
    (x, w), = gauss_rules("legendre", [PANEL_ORDER])
    half = 0.5 * np.diff(boundaries)
    mid = 0.5 * (boundaries[1:] + boundaries[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
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
