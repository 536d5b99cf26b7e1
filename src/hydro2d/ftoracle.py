"""Numerical Fourier-transform oracle for the momentum-space wavefunctions.

Implements the unitary transform

    psi(p, phi_p) = (1/2 pi) integral e^(-i p.r) psi(rho, phi) d^2 r

directly from position-space data, so the closed-form momentum expressions
can be checked against something that never saw their derivation.  Two
routes are provided:

``ft_hankel``
    reduces the angular integral with the plane-wave harmonic expansion,
    leaving (-i)^|m| e^(i m phi_p) times the radial integral
    integral_0^inf R_{n,m}(rho) J_|m|(p rho) rho d rho.  In w = q0 rho the
    integrand is w^(m+1) e^(-w) L(2w) J_m(2cw) with c = p/(2 q0); plain
    Gauss-Laguerre converges like c^(2 N) there, so it is used for
    c <= 3/4 and the integral switches to Gauss-Legendre panels of width
    pi/p (half a Bessel oscillation) on a truncated range otherwise.

``ft_direct_2d``
    brute-force polar quadrature of the double integral, trapezoid in phi
    (periodic, so spectrally exact; the node count grows with p rho_max to
    keep the aliased Bessel orders negligible) times the same two radial
    rules.  Slower, but free of the angular reduction, which makes the
    two routes genuinely different derivations.

Independence: this module imports only the momentum-plane point type from
``momentum`` and touches no closed-form momentum wavefunction at all; the
comparison against them lives in ``verify.check_oracle_agreement``.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .momentum import MomentumPoint
from .polys import NEG_I_POW, bessel_j, laguerre
from .position import QuantumNumbers, normalization, radial_wavefunction
from .quadrature import gauss_laguerre, panel_nodes

__all__ = ["ft_hankel", "ft_direct_2d"]

# Gauss-Laguerre handles the radial integral while the Bessel factor
# oscillates slower than the e^(-w) weight decays; c = p/(2 q0) <= 3/4
# keeps its c^(2N) error term far below every tolerance in the suite.
_GL_SWITCH = 0.75
_PANEL_ORDER = 16
# Bound on the radial tail that the panel range discards (see _cutoff_v).
_TAIL_TOL = 1e-9


def _cutoff_v(n: int, q0: float, tol: float) -> float:
    """Truncation point of the scaled radial variable v = 2 q0 rho.

    The radial integrand is bounded by poly(v) e^(-v/2) with polynomial
    degree at most n + 2 and modest coefficients; iterating
    v = 2 (log(1/tol) + (n+2) log(v+2) + margin) to its fixed point makes
    the discarded tail a comfortable factor below tol.
    """
    margin = math.log(1.0 + 1.0 / (q0 * q0)) + 6.0
    v = 60.0
    for _ in range(60):
        v = 2.0 * (math.log(1.0 / tol) + (n + 2) * math.log(v + 2.0) + margin)
    return v


def _radial_rule(qn: QuantumNumbers, p: float, nodes: int):
    """Radial nodes rho and weights times rho R_{n,m}(rho), for integrals in p rho.

    The one place that picks the rule: Gauss-Laguerre in w = q0 rho while
    c = p/(2 q0) <= 3/4, Gauss-Legendre panels of width about pi/p on
    [0, rho_max] beyond.  On the Gauss-Laguerre branch the rule's weight
    e^(-w) supplies the exponential of R_{n,m}, so the weighted factor
    carries only its polynomial part, and raises ``ValueError`` where its
    x^(|m|+1) overflows (|m| >= 93 at 512 nodes, >= 85 at 1024).
    """
    if nodes < 64:
        raise ValueError("oracle needs at least 64 radial nodes")
    am = abs(qn.m)
    q0 = qn.q0
    c = p / (2.0 * q0)
    if c <= _GL_SWITCH:
        x, w = gauss_laguerre(nodes)
        limit = math.floor(math.log(sys.float_info.max) / math.log(x[-1]) - 1.0)
        if am > limit:
            raise ValueError(f"oracle at {nodes} nodes needs |m| <= {limit}: "
                             "x_max^(|m|+1) overflows past it")
        weighted = (normalization(qn) * 2.0**am / (q0 * q0)
                    * w * x ** (am + 1) * laguerre(qn.n - am, 2 * am, 2.0 * x))
        return x / q0, weighted

    rho_max = _cutoff_v(qn.n, q0, _TAIL_TOL) / (2.0 * q0)
    n_panels = max(8, math.ceil(p * rho_max / math.pi))
    bounds = np.linspace(0.0, rho_max, n_panels + 1)
    rho, wts = panel_nodes(bounds, _PANEL_ORDER)
    return rho, wts * rho * radial_wavefunction(qn, rho)


def _radial_integral(qn: QuantumNumbers, p: float, nodes: int) -> float:
    """integral_0^inf R_{n,m}(rho) J_|m|(p rho) rho d rho."""
    rho, weighted = _radial_rule(qn, p, nodes)
    return float(np.sum(weighted * bessel_j(abs(qn.m), p * rho)))


def ft_hankel(qn: QuantumNumbers, mp: MomentumPoint, nodes: int = 512) -> complex:
    """Oracle momentum wavefunction via the angular-reduction route.

    Assembled as (real radial integral) * (-i)^|m| * e^(i m phi_p), the
    same construction order as the closed forms, so phase comparisons are
    not polluted by arithmetic reordering.  ``nodes`` (at least 64) sizes
    the Gauss-Laguerre rule of the small-momentum branch.
    """
    am = abs(qn.m)
    radial = _radial_integral(qn, mp.p, nodes)
    val0 = radial * NEG_I_POW[am % 4]
    return val0 * complex(math.cos(qn.m * mp.phi_p), math.sin(qn.m * mp.phi_p))


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


def ft_direct_2d(qn: QuantumNumbers, mp: MomentumPoint, nodes: int = 512) -> complex:
    """Oracle momentum wavefunction via brute-force polar quadrature.

    ``nodes`` as for ``ft_hankel``.
    """
    q0 = qn.q0
    rho_max = _cutoff_v(qn.n, q0, _TAIL_TOL) / (2.0 * q0)
    rho, base = _radial_rule(qn, mp.p, nodes)

    n_phi = _phi_count(mp.p * rho_max)
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    ang = np.exp(1j * qn.m * phi) / n_phi
    cosines = np.cos(phi - mp.phi_p)

    total = 0.0 + 0.0j
    chunk = max(1, (1 << 21) // n_phi)
    for lo in range(0, rho.size, chunk):
        r_blk = rho[lo:lo + chunk]
        kernel = np.exp(-1j * mp.p * np.outer(r_blk, cosines))
        total += np.dot(base[lo:lo + chunk], kernel @ ang)
    return complex(total)
