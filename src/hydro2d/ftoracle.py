"""Numerical Fourier-transform oracle for the momentum-space wavefunctions.

Implements the unitary transform

    psi(p, phi_p) = (1/2 pi) integral e^(-i p.r) psi(rho, phi) d^2 r

directly from position-space data, so the closed-form momentum expressions
can be checked against something that never saw their derivation.  The level
core ``_level`` gives every m of a level at an array of momenta: it integrates
each distinct (p, panel count) pair once, on one Gauss-Legendre radial rule
per panel count, through a route's kernel, and applies e^(i m phi_p).  Empty
momenta give an empty level; a level above ``_NODE_ROW_BUDGET`` radial nodes
times rows is a ValueError.  Each public function is one row of a route:

``ft_hankel``
    reduces the angular integral with the plane-wave harmonic expansion,
    leaving (-i)^|m| times the radial integral
    integral_0^inf R_{n,m}(rho) J_|m|(p rho) rho d rho.

``ft_direct_2d``
    brute-force polar quadrature of the double integral: the trapezoid rule
    in phi, spectrally exact for the periodic integrand on the shifted nodes
    phi_p + 2 pi k / n_phi and folded onto a quarter circle in real
    arithmetic, times the same radial rule.  No Bessel function and no
    (-i)^|m| table enters, which makes the two routes genuinely different
    derivations.

The rule takes only its panel count from p and the least node count
``nodes``, so doubling ``nodes`` refines it only where that floor binds, at
p rho_max / pi < nodes / 16 panels; elsewhere the panel width pi/p sets the
count and both node counts share one integral.

Independence: this module imports only the momentum-plane point type from
``momentum`` and touches no closed-form momentum wavefunction at all; the
comparison against them lives in ``verify.check_oracle_agreement``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .momentum import MomentumPoint
from .polys import (NEG_I_POW, _bessel_ladder, _integer, _point_arrays, _scalar_or_array,
                    _turns)
from .position import QuantumNumbers, radial_wavefunction
from .quadrature import PANEL_ORDER, panel_nodes

__all__ = ["ft_hankel", "ft_direct_2d"]

# rho R_{n,m}(rho) oscillates at most like J_0(sqrt(8 rho)) at any n (Hilb's
# formula): a panel this wide holds about six of its zeros near the origin.
_MAX_PANEL_WIDTH = (6.0 * math.pi) ** 2 / 8.0
# Bound on the radial tail that the panel range discards (see _rho_max).
_TAIL_TOL = 1e-9
# Radial nodes of a level's pairs times its rows; n = 85 at p = 0.01 needs 1.75e6.
_NODE_ROW_BUDGET = 1 << 24


@lru_cache(maxsize=None)
def _rho_max(n: int) -> float:
    """End of the radial range of level n, where v = 2 q0 rho reaches its cutoff.

    The radial integrand is bounded by poly(v) e^(-v/2), of degree at most n + 2
    with modest coefficients; iterating v = 2 (log(1/_TAIL_TOL) + (n+2) log(v+2)
    + margin) to its fixed point leaves the tail a comfortable factor below _TAIL_TOL.
    """
    q0 = QuantumNumbers(n, 0).q0
    margin = math.log(1.0 + 1.0 / (q0 * q0)) + 6.0
    v = 60.0
    for _ in range(60):
        v = 2.0 * (math.log(1.0 / _TAIL_TOL) + (n + 2) * math.log(v + 2.0) + margin)
    return v / (2.0 * q0)


def _panel_count(n: int, p: float, nodes) -> int:
    """Panels of the radial rule on [0, rho_max]: ``nodes`` points or more, none wider
    than pi/p (half a Bessel period) or ``_MAX_PANEL_WIDTH``."""
    nodes = _integer("oracle radial nodes", nodes)
    if nodes < 64:
        raise ValueError(f"oracle radial nodes must be at least 64, got {nodes}")
    return max(math.ceil(nodes / PANEL_ORDER),
               math.ceil(_rho_max(n) * max(p / math.pi, 1.0 / _MAX_PANEL_WIDTH)))


def _radial_rule(n: int, am_max: int, count: int):
    """Radial nodes rho on ``count`` panels and, in row |m| <= am_max, weights times rho R_{n,m}."""
    rho, wts = panel_nodes(np.linspace(0.0, _rho_max(n), count + 1))
    return rho, np.array([wts * rho * radial_wavefunction(QuantumNumbers(n, am), rho)
                          for am in range(am_max + 1)])


def _level(n: int, am_max: int, mp: MomentumPoint, nodes, kernel) -> np.ndarray:
    """psi_{n,m} for m = -am_max ... am_max (rows) at the points of 1-d ``mp`` (columns).

    ``nodes``, the least radial count, broadcasts against the points.
    ``kernel(ps, rules)`` gives row |m| of each distinct (p, panel count) pair's
    radial integral; a point takes its pair's row |m| times ``_turns(m, phi_p)``.
    Past ``_NODE_ROW_BUDGET`` it raises before any rule is built.
    """
    p, phi_p, least = np.broadcast_arrays(*_point_arrays(mp.p, mp.phi_p, real="momentum point"),
                                          np.asarray(nodes))
    ms = np.arange(-am_max, am_max + 1)
    if not p.size:
        return np.zeros((ms.size, 0), dtype=complex)
    pairs: dict = {}
    which = [pairs.setdefault((pk, _panel_count(n, pk, nk)), len(pairs))
             for pk, nk in zip(p.tolist(), least.tolist())]
    size = PANEL_ORDER * (am_max + 1) * sum(c for _, c in pairs)
    if size > _NODE_ROW_BUDGET:
        raise ValueError(f"oracle level needs {size:,} radial nodes x rows, above its budget of "
                         f"{_NODE_ROW_BUDGET:,}: split the momenta or lower p")
    rules = {c: _radial_rule(n, am_max, c) for c in dict.fromkeys(c for _, c in pairs)}
    radial = kernel([pk for pk, _ in pairs], [rules[c] for _, c in pairs])
    return radial[np.abs(ms)][:, which] * _turns(ms[:, None], phi_p)


def _hankel_rows(n: int, am_max: int, mp: MomentumPoint, nodes) -> np.ndarray:
    """``_level`` whose kernel is (-i)^|m| times the radial integral against J_|m|(p rho).

    One Bessel ladder J_0 ... J_am_max covers the arguments p rho of every
    pair.  A row is (radial integral) * (-i)^|m| * e^(i m phi_p), the order of
    the closed forms, so phase comparisons see no reordering.
    """
    def kernel(ps, rules):
        ladder = _bessel_ladder(am_max, np.concatenate([pk * rho for pk, (rho, _)
                                                        in zip(ps, rules)]))
        ends = np.cumsum([rho.size for rho, _ in rules])[:-1]
        radial = np.array([np.sum(weighted * bessel, axis=1) for (_, weighted), bessel
                           in zip(rules, np.split(ladder, ends, axis=1))]).T
        return radial * np.array([NEG_I_POW[am % 4] for am in range(am_max + 1)])[:, None]
    return _level(n, am_max, mp, nodes, kernel)


def _row(rows, qn: QuantumNumbers, mp: MomentumPoint, nodes: int):
    """Row m of the level core ``rows`` over the broadcast shape of ``mp``; complex if scalar."""
    am = abs(qn.m)
    p, phi_p = np.broadcast_arrays(*_point_arrays(mp.p, mp.phi_p, real="momentum point"))
    row = rows(qn.n, am, MomentumPoint(p.ravel(), phi_p.ravel()), nodes)[qn.m + am]
    return _scalar_or_array(row.reshape(p.shape), mp.p, mp.phi_p)


def ft_hankel(qn: QuantumNumbers, mp: MomentumPoint, nodes: int = 512):
    """Oracle momentum wavefunction via the angular-reduction route.

    Row m of ``_hankel_rows``: a ``complex`` for a scalar point, else an array
    of the broadcast shape.  ``nodes``, the least radial count, is an integer
    of at least 64; anything else raises a ``ValueError`` naming it.
    """
    return _row(_hankel_rows, qn, mp, nodes)


def _phi_count(x_osc: float) -> int:
    """Number of trapezoid angles needed at p rho_max = x_osc.

    Aliasing leaks the Bessel orders k = n_phi - |m|, n_phi + |m|, ... into
    the angular sum; n_phi >= 1.25 x_osc + 64 (floored at 256) keeps them
    in the superexponentially small regime J_k(x) with k/x >= 1.25.
    """
    n_phi = 256
    while n_phi < 1.25 * x_osc + 64.0:
        n_phi *= 2
    return n_phi


def _direct_rows(n: int, am_max: int, mp: MomentumPoint, nodes: int) -> np.ndarray:
    """``_level`` whose kernel is the trapezoid rule in phi on the nodes phi_p + theta_k.

    With theta_k = 2 pi k / n_phi the kernel is e^(-i p rho cos theta_k) and
    the state's angular factor e^(i m phi_p) e^(i m theta_k).  cos theta is
    even in theta and odd about pi/2, so the sum over all n_phi nodes (a
    multiple of 4) is one over k = 0 ... n_phi/4 with weights 4/n_phi, 2/n_phi
    at the two ends: cos(p rho cos theta_k) cos(|m| theta_k) for even |m|,
    -i sin(p rho cos theta_k) cos(|m| theta_k) for odd |m|, the -i being that
    of e^(-iy) = cos y - i sin y.  Chunks of at most 2^21 kernel elements are
    projected onto every order 0 ... n of the level, whatever am_max, so rows
    do not depend on it.
    """
    def kernel(ps, rules):
        radial = np.zeros((am_max + 1, len(ps)), dtype=complex)
        for j, (pk, (rho, weighted)) in enumerate(zip(ps, rules)):
            n_phi = _phi_count(pk * _rho_max(n))
            theta = 2.0 * math.pi * np.arange(n_phi // 4 + 1) / n_phi
            proj = np.cos(np.outer(theta, np.arange(n + 1))) * (4.0 / n_phi)
            proj[[0, -1]] *= 0.5
            cosines = np.cos(theta)
            chunk = max(1, (1 << 21) // theta.size)
            for lo in range(0, rho.size, chunk):
                arg = pk * np.outer(rho[lo:lo + chunk], cosines)
                part = np.empty((arg.shape[0], n + 1), dtype=complex)
                part[:, 0::2] = np.einsum("ij,jk->ik", np.cos(arg), proj[:, 0::2])
                if n:  # the odd orders; level 0 has none
                    part[:, 1::2] = -1j * np.einsum("ij,jk->ik", np.sin(arg, out=arg),
                                                    proj[:, 1::2])
                radial[:, j] += np.sum(weighted[:, lo:lo + chunk] * part[:, :am_max + 1].T, axis=1)
        return radial
    return _level(n, am_max, mp, nodes, kernel)


def ft_direct_2d(qn: QuantumNumbers, mp: MomentumPoint, nodes: int = 512):
    """Oracle momentum wavefunction via brute-force polar quadrature.

    Row m of ``_direct_rows``; values and ``nodes`` as for ``ft_hankel``.
    """
    return _row(_direct_rows, qn, mp, nodes)
