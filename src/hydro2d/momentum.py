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

from .polys import (NEG_I_POW, _assoc_legendre_ladder, _degree, _finite, _overflow_free,
                    _point_arrays, _scalar_or_array, _turns, gegenbauer, pochhammer)
from .position import QuantumNumbers, _check_polar, normalization

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
        _check_polar(self.p, self.phi_p, "radial momentum p", "momentum azimuth phi_p")


def q_of_p(p: ArrayLike, q0: float):
    """Compact spectral variable q = (p^2 - q0^2)/(p^2 + q0^2), float or ndarray like p.

    Where p*p overflows, q takes its limit 1.
    """
    ps, = _point_arrays(p, real="q_of_p p")
    if not np.all(ps >= 0.0):  # NaN fails too
        raise ValueError("q_of_p needs p >= 0")
    _finite("q_of_p q0", q0)
    if q0 <= 0.0:
        raise ValueError("q_of_p needs q0 > 0")
    ps, far = _overflow_free(ps, 2)
    return _scalar_or_array(np.where(far, 1.0, (ps * ps - q0 * q0) / (ps * ps + q0 * q0)), p)


def _closed_form(qn: QuantumNumbers, mp: MomentumPoint, amplitude):
    """amplitude(p, q) (-i)^|m| e^(i m phi_p), with the limit 0 where p*p overflows.

    Built this way, the phase relation psi(p, phi_p) = psi(p, 0) e^(i m phi_p)
    holds exactly and the modulus is independent of the sign of m.
    """
    p, phi_p = _point_arrays(mp.p, mp.phi_p, real="momentum point")
    p, far = _overflow_free(p, 2)
    amp = np.where(far, 0.0, amplitude(p, q_of_p(p, qn.q0)))
    return _scalar_or_array(amp * NEG_I_POW[abs(qn.m) % 4] * _turns(qn.m, phi_p),
                            mp.p, mp.phi_p)


def psi_momentum(qn: QuantumNumbers, mp: MomentumPoint):
    """Momentum wavefunction in the associated-Legendre form.

    P_n^|m|(q) is seeded with sqrt(1 - q^2) = 2 p q0 / (p^2 + q0^2), which
    keeps full accuracy at large p, where 1 - q^2 of the rounded q cancels.

    Scalar fields of ``mp`` give a complex, array fields a complex ndarray of
    their broadcast shape; where p*p overflows the value is its limit 0.
    """
    am = abs(qn.m)
    q0 = qn.q0
    return _closed_form(qn, mp, lambda p, q: (
        math.sqrt(qn.factorial_ratio / (2.0 * math.pi))
        * (2.0 * q0 / (p * p + q0 * q0)) ** 1.5
        * _degree(_assoc_legendre_ladder(am, q, 2.0 * p * q0 / (p * p + q0 * q0)),
                  qn.n - am, f"assoc_legendre n={qn.n}, m={am}")
    ))


def psi_momentum_gegenbauer(qn: QuantumNumbers, mp: MomentumPoint):
    """Momentum wavefunction in the Gegenbauer form; equals ``psi_momentum``."""
    am = abs(qn.m)
    q0 = qn.q0
    return _closed_form(qn, mp, lambda p, q: (
        normalization(qn)
        * ((qn.n + 0.5) / (am + 0.5))
        * (4.0**am)
        * q0 ** (am + 1)
        * pochhammer(1.5, am)
        * gegenbauer(qn.n - am, am + 0.5, q)
        * p**am
        / (p * p + q0 * q0) ** (am + 1.5)
    ))
