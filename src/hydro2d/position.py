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

which reduces to N_{n,m} at the physical q0, as the tests check.  ``_q0`` and
``_norms`` hold q0, (n-|m|)!/(n+|m|)! and N_{n,m} for every core, on arrays.

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
                    _power, _scalar_or_array, _turns)
from .quadrature import _row_sums, _rule_rows, series_coefficients

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
        return _q0(self.n)

    @property
    def factorial_ratio(self) -> float:
        """(n-|m|)!/(n+|m|)!; ValueError where that is below a normal double (n = |m| >= 86)."""
        return float(_norms(self.n, self.m)[0])


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


def _q0(n):
    """q0 = 1/(n + 1/2) of the level n, an int or an int array: the one definition of q0."""
    return 1.0 / (n + 0.5)


def _norms(n, m) -> np.ndarray:
    """(n-|m|)!/(n+|m|)! and N_{n,m}, stacked, of the states n, m: Python floats once per
    distinct (n, |m|), as one state rounds them; ValueError below the smallest normal double.
    N is 2^-100 sqrt(2^200 q0^3 ratio / pi): unscaled, the root's argument is subnormal at 85."""
    n, am = np.broadcast_arrays(n, np.abs(m))
    states, table = list(zip(n.ravel().tolist(), am.ravel().tolist())), {}
    for k, a in dict.fromkeys(states):
        ratio = math.factorial(k - a) / math.factorial(k + a)
        if ratio < sys.float_info.min:
            raise ValueError(f"(n-|m|)!/(n+|m|)! at (n, |m|) = ({k}, {a}) is below "
                             f"the smallest normal double {sys.float_info.min:.4g}")
        scaled = _q0(k) ** 3 * math.ldexp(ratio, 200) / math.pi
        table[k, a] = ratio, math.ldexp(math.sqrt(scaled), -100)
    return np.reshape(np.array([table[s] for s in states]).T, (2,) + n.shape)


def normalization(qn: QuantumNumbers) -> float:
    """N_{n,m} at the physical q0 of the level."""
    return float(_norms(qn.n, qn.m)[1])


def _one_state(core, qn: QuantumNumbers, *fields):
    """core(n, m, *points) of the one state qn at the fields as one row of points, as each of
    the seven public evaluators of a state takes it: a Python scalar where every field is a
    scalar, else an ndarray of their broadcast shape."""
    points = _point_arrays(*fields)
    return _scalar_or_array(core(qn.n, qn.m, *(x[None] for x in points))[0], *fields)


def _column(values, points: np.ndarray) -> np.ndarray:
    """One value per state as a column against ``points``, whose leading axis is the states'."""
    return np.reshape(values, (-1,) + (1,) * (points.ndim - 1))


def _radial(n: np.ndarray, m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """N v^|m| e^(-v/2) L_{n-|m|}^(2|m|)(v) of the states (n, m), one per row of a real or
    complex v, from one Laguerre ladder; 0 where v^|m| overflows."""
    am, deg = _column(np.abs(m), v), _column(n - np.abs(m), v)
    near, far = _overflow_free(v, am)
    value = (_column(_norms(n, m)[1], v) * _power(near, am) * np.exp(-0.5 * v)
             * _degree(_laguerre_ladder(2 * am, v), deg, f"laguerre k={np.max(deg)}"))
    return np.where(far, 0.0, value)


def radial_wavefunction(qn: QuantumNumbers, rho):
    """Radial factor N_{n,m} v^|m| e^(-v/2) L_{n-|m|}^(2|m|)(v), v = 2 q0 rho."""
    r, = _point_arrays(rho, real="radial_wavefunction rho")
    if not np.all(np.isfinite(r) & (r >= 0.0)):  # NaN fails too
        raise ValueError("radial_wavefunction needs rho >= 0 and finite")
    return _one_state(lambda n, m, r: _radial(n, m, 2.0 * qn.q0 * r), qn, rho)


def _psi_position(n: np.ndarray, m: np.ndarray, rho: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """psi of the states (n, m), one per row of the broadcast points' leading axis (of
    length 1 where the states share the points)."""
    rho, phi = np.broadcast_arrays(rho, phi)
    return _radial(n, m, 2.0 * _column(_q0(n), rho) * rho) * _turns(_column(m, phi), phi)


def psi_position(qn: QuantumNumbers, pt: PolarPoint):
    """Full wavefunction psi_{n,m} at a polar point (scalar or broadcast arrays).

    The angular factor is ``_turns(m, phi)`` = cos(m phi) + i sin(m phi); cos is
    even and sin odd bit for bit, so psi(n, -m) == conjugate(psi(n, m)) holds
    exactly, not just to rounding.
    """
    return _one_state(_psi_position, qn, pt.rho, pt.phi)


def _ode_residual(n: np.ndarray, m: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``radial_ode_residual`` of the states (n, m), one per row of r's leading axis."""
    q0 = _column(_q0(n), r)
    v = 2.0 * q0 * r
    c0, c1, c2 = series_coefficients(  # the circle's nodes as a last axis, moved first
        lambda h: np.moveaxis(_radial(n, m, v[..., None] * (1.0 + h)), -1, 0),
        (3,), radius=0.5, nodes=64).real
    return (2.0 * c2 + c1) / (r * r) + (2.0 / r - q0 * q0 - _column(m * m, r) / (r * r)) * c0


def radial_ode_residual(qn: QuantumNumbers, rho):
    """R'' + R'/rho + (2/rho - q0^2 - m^2/rho^2) R at rho > 0 (scalar or array); ~0 for a state.

    c_k = rho^k R^(k)(rho)/k! of the entire h -> R(rho (1 + h)) come from 64 nodes
    on |h| = 1/2, so R'' + R'/rho = (2 c2 + c1)/rho^2.  Each c_k rounds to about
    eps max|R|, so the floor is eps times the largest term, eps |R|/rho^2 at small
    rho: over n <= 6 it reads 1.5e-10 at rho = 1e-3 and 1.1e-4 at rho = 1e-6.
    rho below 1e-150 is a ValueError: there rho^2 leaves the normal doubles and
    m^2/rho^2 nears overflow, so the residual would read inf - inf.
    """
    r, = _point_arrays(rho, real="radial_ode_residual rho")
    if not np.all(np.isfinite(r) & (r >= 1e-150)):  # NaN fails too
        raise ValueError("ODE residual needs finite rho > 0, at least 1e-150")
    return _one_state(_ode_residual, qn, rho)


def norm_squared(qn: QuantumNumbers) -> float:
    """Squared norm over the plane: ``overlap`` of the state with itself."""
    return overlap(qn, qn).real


def _overlaps(n1: np.ndarray, m1: np.ndarray, n2: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """2-d overlap <psi_1 | psi_2> of each pair of states by product quadrature, n1 + n2 <= 254.

    The angular integral is the periodic trapezoid rule on 256 angles over conj(``_turns``
    (m1, phi)) ``_turns``(m2, phi), as ``psi_position`` has them, once per distinct (m1, m2).
    The radial one runs in s = (q0_1 + q0_2) rho where the joint integrand is a polynomial
    of degree n1 + n2 + 1 times e^(-s).  The two radial factors supply that e^(-s)
    themselves, so the sum takes the weights w e^s of the rule, and ceil((n1 + n2)/2) + 1
    nodes integrate it exactly: each pair keeps that rule, padded with zero weights.
    Larger n1 + n2 would reach nodes above ~709, where the weights underflow: ValueError.
    """
    if np.any(n1 + n2 > 254):
        raise ValueError("overlap is exact only for n1 + n2 <= 254: larger rules underflow")
    if not n1.size:
        return np.zeros(0, dtype=complex)
    phi = 2.0 * math.pi * np.arange(256) / 256  # exact while |m1 - m2| < 256
    pairs = {}  # distinct (m1, m2): its row of ang
    pair = np.array([pairs.setdefault(mm, len(pairs)) for mm in zip(m1.tolist(), m2.tolist())])
    ms = np.array(list(pairs)).T
    ang = (2.0 * math.pi / 256) * np.sum(np.conj(_turns(ms[:1].T, phi)) * _turns(ms[1:].T, phi),
                                         axis=-1)
    q01, q02 = _q0(n1)[:, None], _q0(n2)[:, None]
    counts = (n1 + n2 + 1) // 2 + 1
    s, w = _rule_rows("laguerre", counts)
    rho = s / (q01 + q02)
    r1, r2 = np.split(_radial(np.concatenate([n1, n2]), np.concatenate([m1, m2]),
                              np.concatenate([2.0 * q01 * rho, 2.0 * q02 * rho])), 2)
    return ang[pair] * (_row_sums(w * np.exp(s) * rho * r1 * r2, counts)
                        / (q01 + q02)[:, 0])


def overlap(qn1: QuantumNumbers, qn2: QuantumNumbers) -> complex:
    """2-d overlap <psi_1 | psi_2> for n1 + n2 <= 254: the one pair of ``_overlaps``."""
    return complex(_overlaps(*np.array([[qn1.n], [qn1.m], [qn2.n], [qn2.m]]))[0])
