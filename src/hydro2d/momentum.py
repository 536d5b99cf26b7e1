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

from .polys import (NEG_I_POW, _assoc_legendre_ladder, _degree, _finite, _finite_points,
                    _gegenbauer_ladder, _point_arrays, _power, _scalar_or_array, _turns,
                    pochhammer)
from .position import QuantumNumbers, _check_polar, _column, _norms, _one_state, _q0

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


def _fock(p: np.ndarray, q0):
    """Fock's map of p >= 0 at the scale q0 > 0 (a scalar, or a column against p): q =
    (p^2 - q0^2)/(p^2 + q0^2), its sine 2 p q0/(p^2 + q0^2) and the weight 2 q0/(p^2 + q0^2).

    Where p^2 + q0^2 is not a normal double, p and q0 are first scaled, exactly, by the power
    of two that puts max(p, q0) in [1/2, 1), and the weight is scaled back; elsewhere all
    three are the plain formulas, bit for bit.  So each is finite at every finite p, the
    weight while 2/q0, its value at p = 0, is.
    """
    with np.errstate(over="ignore"):
        sum_sq = p * p + q0 * q0
        e = np.where(np.isfinite(sum_sq) & (sum_sq >= np.finfo(float).tiny), 0,
                     np.frexp(np.maximum(p, q0))[1])
        p, q0 = np.ldexp(p, -e), np.ldexp(q0, -e)
        sum_sq = p * p + q0 * q0
        return (p * p - q0 * q0) / sum_sq, 2.0 * p * q0 / sum_sq, np.ldexp(2.0 * q0 / sum_sq, -e)


def q_of_p(p: ArrayLike, q0: float):
    """Compact spectral variable q = (p^2 - q0^2)/(p^2 + q0^2), float or ndarray like p: the
    closed forms' ``_fock``, finite for every finite p >= 0 and q0 > 0 (1 where p*p overflows)."""
    ps, = _point_arrays(p, real="q_of_p p")
    if not np.all(ps >= 0.0):  # NaN fails too
        raise ValueError("q_of_p needs p >= 0")
    _finite_points("q_of_p p", ps)
    _finite("q_of_p q0", q0)
    if q0 <= 0.0:
        raise ValueError("q_of_p needs q0 > 0")
    return _scalar_or_array(_fock(ps, q0)[0], p)


def _closed_form(n: np.ndarray, m: np.ndarray, p: np.ndarray, phi_p: np.ndarray, q0, amplitude):
    """amplitude(n, |m|, q0, Fock's (q, sine, weight)) (-i)^|m| e^(i m phi_p) of the states
    (n, m) at the scale q0 (one per state, or one for all), one per row of the broadcast
    points' leading axis (of length 1 where they share the points).  So psi(p, phi_p) =
    psi(p, 0) e^(i m phi_p) holds exactly and the modulus is independent of the sign of m.
    """
    p, phi_p = np.broadcast_arrays(p, phi_p)
    am, q0 = _column(np.abs(m), p), _column(q0, p)
    amp = amplitude(_column(n, p), am, q0, *_fock(p, q0))
    return amp * np.array(NEG_I_POW)[am % 4] * _turns(_column(m, p), phi_p)


def _psi_momentum(n: np.ndarray, m: np.ndarray, p: np.ndarray, phi_p: np.ndarray) -> np.ndarray:
    """``psi_momentum`` of the states (n, m) laid out as for ``_closed_form``: one
    associated-Legendre ladder for all the rows."""
    return _closed_form(n, m, p, phi_p, _q0(n), lambda n, am, q0, q, sine, weight: (
        np.sqrt(_norms(n, am)[0] / (2.0 * math.pi)) * weight ** 1.5
        * _degree(_assoc_legendre_ladder(am, q, sine), n - am,
                  f"assoc_legendre n={np.max(n)}, m={np.max(am)}")))


def _gegenbauer_amplitude(n: np.ndarray, am: np.ndarray, q0, q, sine, weight):
    """The Gegenbauer form's amplitude at the scale q0, for ``_closed_form``: the paper's
    p^|m| / (p^2 + q0^2)^(|m|+3/2) is (sine/(2 q0))^|m| (weight/(2 q0))^(3/2)."""
    return (_norms(n, am)[1] * ((n + 0.5) / (am + 0.5)) * 4.0**am * _power(q0, am + 1)
            * np.array([pochhammer(1.5, k) for k in range(np.max(am) + 1)])[am]
            * _degree(_gegenbauer_ladder(am + 0.5, q), n - am, f"gegenbauer k={np.max(n - am)}")
            * _power(sine / (2.0 * q0), am) * (weight / (2.0 * q0)) ** 1.5)


def _psi_momentum_gegenbauer(n: np.ndarray, m: np.ndarray, p: np.ndarray,
                             phi_p: np.ndarray) -> np.ndarray:
    """``psi_momentum_gegenbauer`` of the states (n, m), laid out as for ``_psi_momentum``."""
    return _closed_form(n, m, p, phi_p, _q0(n), _gegenbauer_amplitude)


def psi_momentum(qn: QuantumNumbers, mp: MomentumPoint):
    """Momentum wavefunction in the associated-Legendre form.

    P_n^|m|(q) is seeded with sqrt(1 - q^2) = 2 p q0 / (p^2 + q0^2), which
    keeps full accuracy at large p, where 1 - q^2 of the rounded q cancels.

    Scalar fields of ``mp`` give a complex, array fields a complex ndarray of
    their broadcast shape; it is finite at every finite p >= 0, and its limit 0 where
    Fock's weight underflows.
    """
    return _one_state(_psi_momentum, qn, mp.p, mp.phi_p)


def psi_momentum_gegenbauer(qn: QuantumNumbers, mp: MomentumPoint):
    """Momentum wavefunction in the Gegenbauer form; equals ``psi_momentum``."""
    return _one_state(_psi_momentum_gegenbauer, qn, mp.p, mp.phi_p)
