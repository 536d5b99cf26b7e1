"""Bound states of the planar Coulomb problem in momentum space.

With the unitary transform convention

    psi(p) = (1/2 pi) integral e^(-i p.r) psi(r) d^2 r

the eigenfunctions have two equivalent closed forms.  Writing q0 = 1/(n+1/2)
and mapping the radial momentum onto the compact spectral variable

    q = (p^2 - q0^2) / (p^2 + q0^2)        (q in [-1, 1))

they are, for |m| <= n:

  associated-Legendre form

    psi_{n,m}(p) = (-i)^|m| sqrt( (n-|m|)! / (2 pi (n+|m|)!) )
                   (2 q0 / (p^2 + q0^2))^(3/2) P_n^|m|(q) e^(i m phi_p)

  Gegenbauer form

    psi_{n,m}(p) = N_{n,m} ((n+1/2)/(|m|+1/2)) (-4i)^|m| q0^(|m|+1) (3/2)_|m|
                   C_{n-|m|}^(|m|+1/2)(q) p^|m| e^(i m phi_p)
                   / (p^2 + q0^2)^(|m|+3/2)

The two are identical: the half-integer Gegenbauer polynomial is a rescaled
|m|-th derivative of the Legendre polynomial, and collapsing the constants
with (3/2)_m = (2m+1)!/(4^m m!) turns one form into the other.  Both are
normalized so that the squared modulus integrates to exactly 1 over the
momentum plane, which is what the unitary convention above demands; the
numerical Fourier transform of the position-space states (see ``ftoracle``)
reproduces them including the (-i)^|m| phase.

The Gegenbauer-form denominator is (p^2 + q0^2)^(|m|+3/2); renderings of
this formula sometimes drop the square on q0, which is dimensionally
inconsistent and is treated here as a typo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from .polys import NEG_I_POW, assoc_legendre, gegenbauer, pochhammer
from .position import QuantumNumbers, _complex_or_array, _point_arrays, normalization

__all__ = [
    "MomentumPoint",
    "q_of_p",
    "psi_momentum",
    "psi_momentum_gegenbauer",
]


@dataclass(frozen=True)
class MomentumPoint:
    """Polar momentum; each field a scalar or an array, broadcast together."""

    p: ArrayLike
    phi_p: ArrayLike

    def __post_init__(self):
        if np.any(np.asarray(self.p) < 0.0):
            raise ValueError("radial momentum p must be >= 0")


def q_of_p(p: ArrayLike, q0: float):
    """Compact spectral variable q = (p^2 - q0^2)/(p^2 + q0^2), float or ndarray like p."""
    p = np.asarray(p, dtype=float)
    if np.any(p < 0.0):
        raise ValueError("q_of_p needs p >= 0")
    if q0 <= 0.0:
        raise ValueError("q_of_p needs q0 > 0")
    return (p * p - q0 * q0) / (p * p + q0 * q0)


def _phase(m: int, phi_p: ArrayLike):
    """e^(i m phi_p) as cos + i sin, for scalar or array phi_p.

    The one angular factor of both closed forms, and of the check that
    psi(p, phi_p) = psi(p, 0) e^(i m phi_p) holds bit for bit.
    """
    angle = m * np.asarray(phi_p, dtype=float)
    return np.cos(angle) + 1j * np.sin(angle)


def psi_momentum(qn: QuantumNumbers, mp: MomentumPoint):
    """Momentum wavefunction in the associated-Legendre form.

    Constructed as (real amplitude) * (-i)^|m| * e^(i m phi_p), so the phase
    relation psi(p, phi_p) = psi(p, 0) e^(i m phi_p) holds exactly and the
    modulus is independent of the sign of m.  Scalar fields of ``mp`` give
    a complex, array fields a complex ndarray of their broadcast shape.
    """
    am = abs(qn.m)
    q0 = qn.q0
    p, phi_p = _point_arrays(mp.p, mp.phi_p)
    q = q_of_p(p, q0)
    ratio = math.factorial(qn.n - am) / math.factorial(qn.n + am)
    amp = (
        math.sqrt(ratio / (2.0 * math.pi))
        * (2.0 * q0 / (p * p + q0 * q0)) ** 1.5
        * assoc_legendre(qn.n, am, q)
    )
    return _complex_or_array(amp * NEG_I_POW[am % 4] * _phase(qn.m, phi_p), mp.p, mp.phi_p)


def psi_momentum_gegenbauer(qn: QuantumNumbers, mp: MomentumPoint):
    """Momentum wavefunction in the Gegenbauer form; equals ``psi_momentum``."""
    am = abs(qn.m)
    q0 = qn.q0
    p, phi_p = _point_arrays(mp.p, mp.phi_p)
    q = q_of_p(p, q0)
    amp = (
        normalization(qn)
        * ((qn.n + 0.5) / (am + 0.5))
        * (4.0**am)
        * q0 ** (am + 1)
        * pochhammer(1.5, am)
        * gegenbauer(qn.n - am, am + 0.5, q)
        * p**am
        / (p * p + q0 * q0) ** (am + 1.5)
    )
    return _complex_or_array(amp * NEG_I_POW[am % 4] * _phase(qn.m, phi_p), mp.p, mp.phi_p)
