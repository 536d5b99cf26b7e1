"""Numerical Fourier-transform oracle for the momentum-space wavefunctions.

Implements the unitary transform

    psi(p, phi_p) = (1/2 pi) integral e^(-i p.r) psi(rho, phi) d^2 r

directly from position-space data, so the closed-form momentum expressions
can be checked against something that never saw their derivation.  The core
``_level`` takes the states (n, m) as arrays at momenta they share; level by
level it integrates each distinct (p, panel count) pair once, on one
Gauss-Legendre radial rule per panel count, through a route's kernel, and
applies e^(i m phi_p).  Each public function is the one-state row of a route:

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
from .polys import NEG_I_POW, _bessel_ladder, _integer, _turns
from .position import QuantumNumbers, _one_state, _radial
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


def _radial_rule(n: int, top: int, count: int):
    """Radial nodes rho on ``count`` panels and, in row |m| <= top, weights times rho R_{n,m}."""
    rho, wts = panel_nodes(np.linspace(0.0, _rho_max(n), count + 1))
    ams, v = np.arange(top + 1), 2.0 * QuantumNumbers(n, 0).q0 * rho[None]
    return rho, wts * rho * _radial(np.full_like(ams, n), ams, v)


def _level(n: np.ndarray, m: np.ndarray, p: np.ndarray, phi_p: np.ndarray, nodes,
           kernel) -> np.ndarray:
    """psi of the states (n, m), one per row, at points every state shares (leading axis 1).

    ``nodes``, the least radial count, broadcasts against the points.  Per
    level, with top the largest |m| of its states, ``kernel(n, top, ps, rules)``
    gives rows 0 ... top of each distinct (p, panel count) pair's radial
    integral; a state takes its pair's row |m| times ``_turns(m, phi_p)``.
    Past ``_NODE_ROW_BUDGET`` a level raises before it builds any rule.
    """
    n, m = np.ravel(n), np.ravel(m)
    p, phi_p, least = np.broadcast_arrays(p, phi_p, np.asarray(nodes))
    shape = (n.size,) + p.shape[1:]
    p, phi_p, least = (a.ravel() for a in (p, phi_p, least))
    out = np.zeros((n.size, p.size), dtype=complex)
    for level in sorted(set(n.tolist()) if p.size else ()):
        at = np.flatnonzero(n == level)
        am = np.abs(m[at])
        top = int(am.max())
        pairs: dict = {}
        which = [pairs.setdefault((pk, _panel_count(level, pk, nk)), len(pairs))
                 for pk, nk in zip(p.tolist(), least.tolist())]
        size = PANEL_ORDER * (top + 1) * sum(c for _, c in pairs)
        if size > _NODE_ROW_BUDGET:
            raise ValueError(f"oracle level needs {size:,} radial nodes x rows, above its budget "
                             f"of {_NODE_ROW_BUDGET:,}: split the momenta or lower p")
        rules = {c: _radial_rule(level, top, c) for c in dict.fromkeys(c for _, c in pairs)}
        radial = kernel(level, top, [pk for pk, _ in pairs], [rules[c] for _, c in pairs])
        out[at] = radial[am][:, which] * _turns(m[at][:, None], phi_p)
        del rules  # before the next level's: held across its build, they fragment the heap
    return out.reshape(shape)


def _hankel_rows(n: np.ndarray, m: np.ndarray, p: np.ndarray, phi_p: np.ndarray,
                 nodes) -> np.ndarray:
    """``_level`` whose kernel is (-i)^|m| times the radial integral against J_|m|(p rho),
    from one Bessel ladder J_0 ... J_top over the arguments p rho of every pair of a level;
    a row is (radial integral) (-i)^|m| e^(i m phi_p), the closed forms' order of factors."""
    def kernel(n, top, ps, rules):
        ladder = _bessel_ladder(top, np.concatenate([pk * rho for pk, (rho, _)
                                                     in zip(ps, rules)]))
        ends = np.cumsum([rho.size for rho, _ in rules])[:-1]
        radial = np.array([np.sum(weighted * bessel, axis=1) for (_, weighted), bessel
                           in zip(rules, np.split(ladder, ends, axis=1))]).T
        return radial * np.array([NEG_I_POW[am % 4] for am in range(top + 1)])[:, None]
    return _level(n, m, p, phi_p, nodes, kernel)


def ft_hankel(qn: QuantumNumbers, mp: MomentumPoint, nodes: int = 512):
    """Oracle momentum wavefunction via the angular-reduction route: the one-state row of
    ``_hankel_rows``, a ``complex`` for a scalar point, else an array of the broadcast shape.
    ``nodes``, the least radial count, is an integer of at least 64, or a ValueError names it."""
    return _one_state(lambda *args: _hankel_rows(*args, nodes), qn, mp.p, mp.phi_p)


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


def _direct_rows(n: np.ndarray, m: np.ndarray, p: np.ndarray, phi_p: np.ndarray,
                 nodes) -> np.ndarray:
    """``_level`` whose kernel is the trapezoid rule in phi on the nodes phi_p + theta_k.

    With theta_k = 2 pi k / n_phi the kernel is e^(-i p rho cos theta_k) and
    the state's angular factor e^(i m phi_p) e^(i m theta_k).  cos theta is
    even in theta and odd about pi/2, so the sum over all n_phi nodes (a
    multiple of 4) is one over k = 0 ... n_phi/4 with weights 4/n_phi, 2/n_phi
    at the two ends: cos(p rho cos theta_k) cos(|m| theta_k) for even |m|,
    -i sin(p rho cos theta_k) cos(|m| theta_k) for odd |m|, the -i being that
    of e^(-iy) = cos y - i sin y.  Chunks of at most 2^21 kernel elements are
    projected onto every order 0 ... n of the level, whatever top, so rows do
    not depend on it.
    """
    def kernel(n, top, ps, rules):
        radial = np.zeros((top + 1, len(ps)), dtype=complex)
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
                radial[:, j] += np.sum(weighted[:, lo:lo + chunk] * part[:, :top + 1].T, axis=1)
        return radial
    return _level(n, m, p, phi_p, nodes, kernel)


def ft_direct_2d(qn: QuantumNumbers, mp: MomentumPoint, nodes: int = 512):
    """Oracle momentum wavefunction via brute-force polar quadrature: the one-state row
    of ``_direct_rows``; values and ``nodes`` as for ``ft_hankel``."""
    return _one_state(lambda *args: _direct_rows(*args, nodes), qn, mp.p, mp.phi_p)
