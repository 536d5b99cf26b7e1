"""Bound states of the planar Coulomb problem in position space.

Unit system
-----------
Lengths are measured in Bohr radii of the reduced mass and energies in
Rydbergs, so the stationary equation reads

    -Laplacian psi - (2/rho) psi = E psi .

The discrete spectrum of the planar problem is

    E_n = -q0^2,    q0 = 1/(n + 1/2),    n = 0, 1, 2, ...

and the normalized eigenfunctions are, with v = 2 q0 rho,

    psi_{n,m}(rho, phi) = N_{n,m} v^|m| e^(-v/2) L_{n-|m|}^(2|m|)(v) e^(i m phi)

    N_{n,m} = sqrt( q0^3 (n-|m|)! / (pi (n+|m|)!) )

for |m| <= n.  The same radial shape normalized at an arbitrary fixed scale
q0 (a Sturmian basis function rather than an eigenfunction) carries

    sqrt( 2 q0^2 (n-|m|)! / (pi (2n+1) (n+|m|)!) )

which reduces to N_{n,m} at the physical q0; ``normalization`` returns the
physical form, and the test suite checks that the two agree.

The wavefunctions are array-first: the fields of a ``PolarPoint`` may be
scalars or arrays that broadcast together.  Scalar fields give a Python
``complex`` (``radial_wavefunction`` and ``radial_ode_residual`` a
``float``), array fields an ndarray of the broadcast shape.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from .polys import (_degree, _integer, _laguerre_ladder, _overflow_free, _point_arrays,
                    _scalar_or_array, _turns)
from .quadrature import gauss_laguerre, series_coefficients

__all__ = [
    "QuantumNumbers",
    "BoundState",
    "PolarPoint",
    "make_bound_state",
    "normalization",
    "radial_wavefunction",
    "psi_position",
    "radial_ode_residual",
    "norm_squared",
    "overlap",
]


@dataclass(frozen=True)
class QuantumNumbers:
    """Principal quantum number n >= 0 and angular number m with |m| <= n."""

    n: int
    m: int

    def __post_init__(self):
        _integer("quantum number n", self.n)
        _integer("quantum number m", self.m)
        if self.n < 0:
            raise ValueError("principal quantum number n must be >= 0")
        if abs(self.m) > self.n:
            raise ValueError("angular quantum number needs |m| <= n")

    @property
    def q0(self) -> float:
        """Spectral scale of the level, q0 = 1/(n + 1/2); E_n = -q0^2."""
        return 1.0 / (self.n + 0.5)

    @property
    def factorial_ratio(self) -> float:
        """(n-|m|)!/(n+|m|)!; ValueError where that is below a normal double (n = |m| >= 86)."""
        ratio = math.factorial(self.n - abs(self.m)) / math.factorial(self.n + abs(self.m))
        if ratio < sys.float_info.min:
            raise ValueError(f"(n-|m|)!/(n+|m|)! at (n, m) = ({self.n}, {self.m}) is below "
                             f"the smallest normal double {sys.float_info.min:.4g}")
        return ratio


@dataclass(frozen=True)
class BoundState:
    qn: QuantumNumbers
    q0: float
    energy: float


@dataclass(frozen=True)
class PolarPoint:
    """Polar coordinates; each field a scalar or an array, broadcast together."""

    rho: ArrayLike
    phi: ArrayLike

    def __post_init__(self):
        _check_polar(self.rho, self.phi, "radial coordinate rho", "azimuth phi")


def _check_polar(radial: ArrayLike, azimuth: ArrayLike, radial_name: str, azimuth_name: str):
    """ValueError naming the field unless both are real, radial is finite and >= 0 and azimuth
    is finite."""
    for value, name in ((radial, radial_name), (azimuth, azimuth_name)):
        if np.iscomplexobj(value):
            raise ValueError(f"{name} must be real")
    radial = np.asarray(radial)
    if not np.all(np.isfinite(radial) & (radial >= 0.0)):
        raise ValueError(f"{radial_name} must be finite and >= 0")
    if not np.all(np.isfinite(azimuth)):
        raise ValueError(f"{azimuth_name} must be finite")


def make_bound_state(qn: QuantumNumbers) -> BoundState:
    """Spectral data for the level n: q0 = 1/(n + 1/2), E = -q0^2."""
    q0 = qn.q0
    return BoundState(qn=qn, q0=q0, energy=-(q0 * q0))


def normalization(qn: QuantumNumbers) -> float:
    """N_{n,m} at the physical q0 of the level."""
    return math.sqrt(qn.q0**3 * qn.factorial_ratio / math.pi)


def _radial(qn: QuantumNumbers, v: np.ndarray) -> np.ndarray:
    """N v^|m| e^(-v/2) L_{n-|m|}^(2|m|)(v) at a real or complex array v; 0 if v^|m| overflows."""
    am = abs(qn.m)
    near, far = _overflow_free(v, am)
    value = (normalization(qn) * near**am * np.exp(-0.5 * v)
             * _degree(_laguerre_ladder(2 * am, v), qn.n - am, f"laguerre k={qn.n - am}"))
    return np.where(far, 0.0, value)


def radial_wavefunction(qn: QuantumNumbers, rho):
    """Radial factor N_{n,m} v^|m| e^(-v/2) L_{n-|m|}^(2|m|)(v), v = 2 q0 rho."""
    r, = _point_arrays(rho, real="radial_wavefunction rho")
    if not np.all(np.isfinite(r) & (r >= 0.0)):  # NaN fails too
        raise ValueError("radial_wavefunction needs rho >= 0 and finite")
    return _scalar_or_array(_radial(qn, 2.0 * qn.q0 * r), rho)


def psi_position(qn: QuantumNumbers, pt: PolarPoint):
    """Full wavefunction psi_{n,m} at a polar point (scalar or broadcast arrays).

    The angular factor is ``_turns(m, phi)`` = cos(m phi) + i sin(m phi); cos is
    even and sin odd bit for bit, so psi(n, -m) == conjugate(psi(n, m)) holds
    exactly, not just to rounding.
    """
    rho, phi = _point_arrays(pt.rho, pt.phi, real="polar point")
    return _scalar_or_array(radial_wavefunction(qn, rho) * _turns(qn.m, phi), pt.rho, pt.phi)


def radial_ode_residual(qn: QuantumNumbers, rho):
    """R'' + R'/rho + (2/rho - q0^2 - m^2/rho^2) R at rho > 0 (scalar or array); ~0 for a state.

    c_k = rho^k R^(k)(rho)/k! of the entire h -> R(rho (1 + h)) come from 64 nodes
    on |h| = 1/2, so R'' + R'/rho = (2 c2 + c1)/rho^2.  Each c_k rounds to about
    eps max|R|, so the floor is eps times the largest term, eps |R|/rho^2 at small
    rho: over n <= 6 it reads 1.5e-10 at rho = 1e-3 and 1.1e-4 at rho = 1e-6.
    """
    r, = _point_arrays(rho, real="radial_ode_residual rho")
    if not np.all(np.isfinite(r) & (r > 0.0)):  # NaN fails too
        raise ValueError("ODE residual needs finite rho > 0")
    v = 2.0 * qn.q0 * r
    c0, c1, c2 = series_coefficients(lambda h: _radial(qn, np.multiply.outer(1.0 + h, v)),
                                     (3,), radius=0.5, nodes=64).real
    q0, m = qn.q0, qn.m
    residual = (2.0 * c2 + c1) / (r * r) + (2.0 / r - q0 * q0 - (m * m) / (r * r)) * c0
    return _scalar_or_array(residual, rho)


def norm_squared(qn: QuantumNumbers) -> float:
    """Squared norm over the plane: ``overlap`` of the state with itself."""
    return overlap(qn, qn).real


def overlap(qn1: QuantumNumbers, qn2: QuantumNumbers) -> complex:
    """2-d overlap <psi_1 | psi_2> by product quadrature, for n1 + n2 <= 254.

    The angular integral uses the periodic trapezoid rule; the radial one
    runs in s = (q0_1 + q0_2) rho where the joint integrand is a polynomial
    of degree n1 + n2 + 1 times e^(-s).  The two radial factors supply that
    e^(-s) themselves, so the sum takes the weights w e^s of the rule, and
    ceil((n1 + n2)/2) + 1 nodes integrate it exactly.  Larger n1 + n2 would
    reach nodes above ~709, where the weights underflow: ValueError.
    """
    if qn1.n + qn2.n > 254:
        raise ValueError("overlap is exact only for n1 + n2 <= 254: larger rules underflow")
    phi = 2.0 * math.pi * np.arange(256) / 256  # exact while |m1 - m2| < 256
    ang = np.mean(np.exp(1j * (qn2.m - qn1.m) * phi)) * 2.0 * math.pi

    a = qn1.q0 + qn2.q0
    s, w = gauss_laguerre((qn1.n + qn2.n + 1) // 2 + 1)
    rho = s / a
    radial = np.sum(w * np.exp(s) * rho * _radial(qn1, 2.0 * qn1.q0 * rho)
                    * _radial(qn2, 2.0 * qn2.q0 * rho)) / a
    return complex(ang * radial)
