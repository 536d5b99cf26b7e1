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
``complex``, array fields a complex ndarray of the broadcast shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from .polys import laguerre
from .quadrature import gauss_laguerre

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
        if self.n < 0:
            raise ValueError("principal quantum number n must be >= 0")
        if abs(self.m) > self.n:
            raise ValueError("angular quantum number needs |m| <= n")

    @property
    def q0(self) -> float:
        """Spectral scale of the level, q0 = 1/(n + 1/2); E_n = -q0^2."""
        return 1.0 / (self.n + 0.5)


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
        if np.any(np.asarray(self.rho) < 0.0):
            raise ValueError("radial coordinate rho must be >= 0")


def make_bound_state(qn: QuantumNumbers) -> BoundState:
    """Spectral data for the level n: q0 = 1/(n + 1/2), E = -q0^2."""
    q0 = qn.q0
    return BoundState(qn=qn, q0=q0, energy=-(q0 * q0))


def normalization(qn: QuantumNumbers) -> float:
    """N_{n,m} at the physical q0 of the level."""
    am = abs(qn.m)
    q0 = qn.q0
    ratio = math.factorial(qn.n - am) / math.factorial(qn.n + am)
    return math.sqrt(q0**3 * ratio / math.pi)


def radial_wavefunction(qn: QuantumNumbers, rho):
    """Radial factor R_{n,m}(rho) = N_{n,m} v^|m| e^(-v/2) L_{n-|m|}^(2|m|)(v)."""
    am = abs(qn.m)
    q0 = qn.q0
    v = 2.0 * q0 * np.asarray(rho, dtype=float)
    value = normalization(qn) * v**am * np.exp(-0.5 * v) * laguerre(qn.n - am, 2 * am, v)
    if np.ndim(rho) == 0:
        return float(value)
    return value


def _point_arrays(*fields):
    """The fields of a point as float arrays of at least one dimension.

    Scalar points then run through the same numpy array loops as array
    points.  numpy's scalar ``**`` rounds differently from its array loop,
    so 0-d arithmetic would make a scalar call differ in the last bits from
    the same point inside an array call.
    """
    return [np.atleast_1d(np.asarray(f, dtype=float)) for f in fields]


def _complex_or_array(value, *fields):
    """A Python complex when every field is a scalar, else the complex ndarray."""
    if all(np.ndim(f) == 0 for f in fields):
        return complex(value[0])
    return value


def psi_position(qn: QuantumNumbers, pt: PolarPoint):
    """Full wavefunction psi_{n,m} at a polar point (scalar or broadcast arrays).

    The angular factor is assembled from cos(|m| phi) and sin(|m| phi) with
    the sign of m applied to the imaginary part, so that
    psi(n, -m) == conjugate(psi(n, m)) holds exactly, not just to rounding.
    """
    rho, phi = _point_arrays(pt.rho, pt.phi)
    amp = radial_wavefunction(qn, rho)
    angle = abs(qn.m) * phi
    sign = -1.0 if qn.m < 0 else 1.0
    return _complex_or_array(amp * (np.cos(angle) + 1j * (sign * np.sin(angle))), pt.rho, pt.phi)


def radial_ode_residual(qn: QuantumNumbers, rho):
    """Residual of the radial equation at rho (scalar or array), by central differences.

    The closed-form radial factor is pushed through

        R'' + R'/rho + (2/rho - q0^2 - m^2/rho^2) R

    with step h = 1e-5 * max(rho, 1); an eigenfunction returns ~0.
    """
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0.0):
        raise ValueError("ODE residual needs rho > 0")
    q0 = qn.q0
    m = qn.m
    h = 1e-5 * np.maximum(rho, 1.0)
    r_minus = radial_wavefunction(qn, rho - h)
    r_0 = radial_wavefunction(qn, rho)
    r_plus = radial_wavefunction(qn, rho + h)
    d2 = (r_plus - 2.0 * r_0 + r_minus) / (h * h)
    d1 = (r_plus - r_minus) / (2.0 * h)
    return d2 + d1 / rho + (2.0 / rho - q0 * q0 - (m * m) / (rho * rho)) * r_0


def norm_squared(qn: QuantumNumbers, nodes: int = 128) -> float:
    """Quadrature of the squared norm over the plane.

    In v = 2 q0 rho the integrand is a polynomial times e^(-v), so
    Gauss-Laguerre is exact here up to rounding.
    """
    am = abs(qn.m)
    q0 = qn.q0
    x, w = gauss_laguerre(nodes)
    lag = laguerre(qn.n - am, 2 * am, x)
    radial = float(np.sum(w * x ** (2 * am + 1) * lag * lag))
    return 2.0 * math.pi * normalization(qn) ** 2 * radial / (4.0 * q0 * q0)


def overlap(qn1: QuantumNumbers, qn2: QuantumNumbers, nodes: int = 128, phi_nodes: int = 256) -> complex:
    """2-d overlap <psi_1 | psi_2> by product quadrature.

    The angular integral uses the periodic trapezoid rule; the radial one
    runs in s = (q0_1 + q0_2) rho where the joint integrand is again a
    polynomial times e^(-s).  The rule's weight supplies that e^(-s), so
    each state contributes only its polynomial part N v^|m| L(v).
    """
    phi = 2.0 * math.pi * np.arange(phi_nodes) / phi_nodes
    ang = np.mean(np.exp(1j * (qn2.m - qn1.m) * phi)) * 2.0 * math.pi

    a = qn1.q0 + qn2.q0
    s, w = gauss_laguerre(nodes)
    rho = s / a

    def polynomial(qn):
        am = abs(qn.m)
        v = 2.0 * qn.q0 * rho
        return normalization(qn) * v**am * laguerre(qn.n - am, 2 * am, v)
    radial = np.sum(w * rho * polynomial(qn1) * polynomial(qn2)) / a
    return complex(ang * radial)
