"""Numerical Fourier-transform oracle for the momentum-space wavefunctions.

Implements the unitary transform

    psi(p, phi_p) = (1/2 pi) integral e^(-i p.r) psi(rho, phi) d^2 r

directly from position-space data, so the closed-form momentum expressions
can be checked against something that never saw their derivation.  Both
routes take the states (n, m) as arrays at momenta they share; ``_level``
hands each level's states to a route's per-level function, one pass per
level.

``_hankel_rows`` (public row: ``ft_hankel``)
    reduces the angular integral with the plane-wave expansion (Watson 1944,
    sec. 2.22), leaving (-i)^|m| e^(i m phi_p) times the radial integral
    integral_0^inf R_{n,m}(rho) J_|m|(p rho) rho d rho, on Gauss-Legendre panels
    of at least 512 radial nodes, none wider than pi/p: one radial-factor call
    and one Bessel ladder per level, over the panels of all its momenta.

``_levi_civita_rows``
    the paper's own route: the Levi-Civita map r = u^2 with measure
    2 |u|^2 d^2u and the rotation u = R(phi_p/2) w make p.r = p (w1^2 - w2^2),
    rho = |w|^2 and v^|m| e^(i m phi) = (2 q0)^|m| (u1 +- i u2)^(2|m|), the sign
    that of m.  With a = q0 + i p the contours w1 = s1/sqrt(a), w2 = s2/sqrt(conj a)
    leave e^(-s1^2 - s2^2) times a polynomial of degree 2n + 2, so n + 2
    Gauss-Hermite nodes per axis are exact: no radial range, no panel and no
    Bessel function, and the azimuth enters through the rotated nodes.

Independence: this module imports only the momentum-plane point type from
``momentum`` and touches no closed-form momentum wavefunction at all; the
comparison against them lives in ``verify.check_oracle_agreement``.
"""

from __future__ import annotations

import math

import numpy as np

from .momentum import MomentumPoint
from .polys import NEG_I_POW, _bessel_ladder, _level_rows, _power, _turns
from .position import QuantumNumbers, _norms, _one_state, _q0, _radial
from .quadrature import gauss_rules

__all__ = ["ft_hankel"]

PANEL_ORDER = 16  # Gauss-Legendre points per panel of the Hankel route: exact to degree 31
# rho R_{n,m}(rho) oscillates at most like J_0(sqrt(8 rho)) at any n (Hilb's
# formula): a panel this wide holds about six of its zeros near the origin.
_MAX_PANEL_WIDTH = (6.0 * math.pi) ** 2 / 8.0
# Bound on the radial tail that the panel range discards (see _rho_max).
_TAIL_TOL = 1e-9
# Panels of the Hankel route's radial rule at the least: 512 nodes.
_MIN_PANELS = 512 // PANEL_ORDER
# Radial nodes of a level's momenta times its rows; n = 85 at p = 0.01 needs 1.75e6.
_NODE_ROW_BUDGET = 1 << 24
# Highest level of the Levi-Civita route: its sum cancels to 7.7e-12 of the peak at n = 30.
_LEVI_CIVITA_MAX_N = 30
# Terms (states or level rows x momenta x nodes^2) of one block of its sum: 4 MB per complex array.
_TERM_BLOCK = 1 << 18


def _rho_max(n: int) -> float:
    """End of the radial range of level n, where v = 2 q0 rho reaches its cutoff.

    The radial integrand is bounded by poly(v) e^(-v/2), of degree at most n + 2
    with modest coefficients; iterating v = 2 (log(1/_TAIL_TOL) + (n+2) log(v+2)
    + margin) to its fixed point leaves the tail a comfortable factor below _TAIL_TOL.
    """
    q0 = _q0(n)
    margin = math.log(1.0 + 1.0 / (q0 * q0)) + 6.0
    v = 60.0
    for _ in range(60):
        v = 2.0 * (math.log(1.0 / _TAIL_TOL) + (n + 2) * math.log(v + 2.0) + margin)
    return v / (2.0 * q0)


def _level(rows, n: np.ndarray, m: np.ndarray, p: np.ndarray, phi_p: np.ndarray) -> np.ndarray:
    """psi of the states (n, m), one per row, at points every state shares (leading axis 1):
    ``rows(level, m, p, phi_p)`` of each level's states at the flattened points."""
    n, m = np.ravel(n), np.ravel(m)
    p, phi_p = np.broadcast_arrays(p, phi_p)
    shape = (n.size,) + p.shape[1:]
    p, phi_p = p.ravel(), phi_p.ravel()
    out = np.zeros((n.size, p.size), dtype=complex)
    for level in sorted(set(n.tolist()) if p.size else ()):
        at = np.flatnonzero(n == level)
        out[at] = rows(level, m[at], p, phi_p)
    return out.reshape(shape)


def _hankel_level(n: int, m: np.ndarray, p: np.ndarray, phi_p: np.ndarray) -> np.ndarray:
    """Rows of level n by the Hankel route: per distinct momentum ``_MIN_PANELS`` or more panels,
    none wider than pi/p or ``_MAX_PANEL_WIDTH``, all in one node array rho; one ``_radial`` call
    for the distinct |m| and their rows of one Bessel ladder J_0 ... J_top(p rho) give each row,
    (radial integral) (-i)^|m| e^(i m phi_p).  Past ``_NODE_ROW_BUDGET`` it raises before a rule."""
    ams, back = np.unique(np.abs(m), return_inverse=True)
    top, rho_max = int(ams[-1]), _rho_max(n)
    ps, which = np.unique(p, return_inverse=True)
    with np.errstate(over="ignore"):  # float counts: inf past p ~ 1e306, over the budget
        counts = np.maximum(_MIN_PANELS, np.ceil(
            rho_max * np.maximum(ps / math.pi, 1.0 / _MAX_PANEL_WIDTH)))
    size = PANEL_ORDER * (top + 1) * np.sum(counts)
    if size > _NODE_ROW_BUDGET:
        raise ValueError(f"oracle level needs {size:,.0f} radial nodes x rows, above its budget "
                         f"of {_NODE_ROW_BUDGET:,}: split the momenta or lower p")
    counts = counts.astype(int)
    (x, w), = gauss_rules("legendre", [PANEL_ORDER])
    first = np.cumsum(counts) - counts  # each momentum's first panel
    edge = np.arange(1, counts.sum() + 1) - np.repeat(first, counts)  # 1 ... count per momentum
    step = np.repeat(rho_max / counts, counts)
    # Panel edge - 1 to edge: the bounds of np.linspace(0, rho_max, count + 1), bit for bit.
    lo, hi = (edge - 1) * step, np.where(edge == np.repeat(counts, counts), rho_max, edge * step)
    half = 0.5 * (hi - lo)[:, None]
    rho, wts = (0.5 * (hi + lo)[:, None] + half * x).ravel(), (half * w).ravel()
    weighted = wts * rho * _radial(np.full_like(ams, n), ams, 2.0 * _q0(n) * rho[None])
    weighted *= _bessel_ladder(top, np.repeat(ps, PANEL_ORDER * counts) * rho)[ams]
    radial = np.add.reduceat(weighted, PANEL_ORDER * first, axis=1)
    radial = radial * np.array(NEG_I_POW)[ams % 4][:, None]
    return radial[back][:, which] * _turns(m[:, None], phi_p)


def _hankel_rows(n: np.ndarray, m: np.ndarray, p: np.ndarray, phi_p: np.ndarray) -> np.ndarray:
    """``_level`` of the Hankel route (``_hankel_level``)."""
    return _level(_hankel_level, n, m, p, phi_p)


def ft_hankel(qn: QuantumNumbers, mp: MomentumPoint):
    """Oracle momentum wavefunction via the angular-reduction route: the one-state row of
    ``_hankel_rows``, a ``complex`` for a scalar point, else an array of the broadcast shape."""
    return _one_state(_hankel_rows, qn, mp.p, mp.phi_p)


def _levi_civita_block(n: int, m: np.ndarray, p: np.ndarray, phi_p: np.ndarray,
                       s: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Rows of level n at the momenta p, phi_p by the Levi-Civita route (``_levi_civita_rows``)
    on the Gauss-Hermite nodes s and weights w per axis."""
    q0, am = _q0(n), np.abs(m)
    a = q0 + 1j * p
    root = np.sqrt(a)[:, None, None]
    w1, w2 = s[:, None] / root, s / np.conj(root)
    half = 0.5 * phi_p[:, None, None]
    u1 = np.cos(half) * w1 - np.sin(half) * w2
    u2 = np.sin(half) * w1 + np.cos(half) * w2
    rho = u1 * u1 + u2 * u2
    turned = u1 + 1j * np.where(m < 0, -1.0, 1.0)[:, None, None, None] * u2
    terms = _power(turned, 2 * am[:, None, None, None]) * rho
    terms *= _level_rows(n, 2.0 * q0 * rho)[am]
    return ((_norms(n, m)[1] * (2.0 * q0) ** am)[:, None] / (math.pi * np.abs(a))
            * np.sum(terms * (w[:, None] * w), axis=(-2, -1)))


def _levi_civita_rows(n: np.ndarray, m: np.ndarray, p: np.ndarray, phi_p: np.ndarray,
                      refine: int = 1) -> np.ndarray:
    """``_level`` of the Levi-Civita route on refine (n + 2) Gauss-Hermite nodes per axis.

    Per level, with q0 = 1/(n + 1/2), a = q0 + i p and u = R(phi_p/2) w at
    w1 = s1/sqrt(a), w2 = s2/sqrt(conj a) on the product rule, a row is
    N (2 q0)^|m| / (pi |a|) times the weighted sum of
    (u1 +- i u2)^(2|m|) L_{n-|m|}^(2|m|)(2 q0 rho) rho, rho = u1^2 + u2^2: the Laguerre
    rows of every |m| of the level from one ``_level_rows`` pass, over blocks of momenta
    of at most ``_TERM_BLOCK`` terms.  One ``gauss_rules`` call gives the rules of all levels,
    before the first level runs.  ``refine`` = 2 is the node-doubling check's;
    past n = ``_LEVI_CIVITA_MAX_N`` the sum loses its digits to cancellation,
    so that is a ValueError.
    """
    if np.size(n) and np.max(n) > _LEVI_CIVITA_MAX_N:
        raise ValueError(f"the Levi-Civita oracle covers n <= {_LEVI_CIVITA_MAX_N}, "
                         f"got n = {np.max(n)}")

    levels = sorted(set(np.ravel(n).tolist()))
    rules = dict(zip(levels, gauss_rules("hermite", [refine * (k + 2) for k in levels])))

    def rows(n, m, p, phi_p):
        s, w = rules[n]
        step = max(1, _TERM_BLOCK // (max(m.size, n + 1) * s.size ** 2))
        return np.concatenate([_levi_civita_block(n, m, p[j:j + step], phi_p[j:j + step], s, w)
                               for j in range(0, p.size, step)], axis=1)
    return _level(rows, n, m, p, phi_p)
