"""Generating functions in closed form, with truncated-series verifiers.

Closed forms implemented here:

    laguerre_gf         sum_k z^k L_k^(r)(v)            = (1-z)^-(r+1) e^(-zv/(1-z))
    shifted_laguerre_gf sum_{n>=m} z^n L_{n-m}^(2m)(v)  = z^m (1-z)^-(2m+1) e^(-zv/(1-z))
    coordinate_gf       position-space generating function of the scaled basis
    gegenbauer_gf       sum_k z^k C_k^alpha(q)          = (1 - 2qz + z^2)^-alpha
    new_legendre_gf     sum_{n>=m} z^n (2n+1)/(2m+1)!! P_n^m(t)
                        = (1-t^2)^(m/2) (1-z^2) z^m / (1 - 2zt + z^2)^(m+3/2)

The last identity holds with the associated Legendre functions defined
without the Condon-Shortley sign (as in ``polys``); the sum starts at n = m
since P_n^m vanishes for n < m.  Each closed form has a ``*_series``
companion that sums the defining series to a cutoff and reports a geometric
tail estimate, so closed form and series can be compared without trusting
either side.

Taylor coefficients of arbitrary analytic functions are recovered by
trapezoid quadrature of the Cauchy integral on a circle, which is exact up
to aliasing: with N nodes on radius r the error in c_n is a sum of
c_{n+jN} r^{jN} terms, negligible for r <= 0.5 and N >= 64 against the
unit-disk growth of everything handled here.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .polys import assoc_legendre, double_factorial, gegenbauer, laguerre
from .position import PolarPoint

__all__ = [
    "SeriesTruncation",
    "laguerre_gf",
    "laguerre_gf_series",
    "shifted_laguerre_gf",
    "shifted_laguerre_gf_series",
    "coordinate_basis_term",
    "coordinate_gf",
    "coordinate_gf_series",
    "gegenbauer_gf",
    "gegenbauer_gf_series",
    "new_legendre_gf",
    "new_legendre_gf_series",
    "series_coefficients_1d",
    "series_coefficients_2d",
]


@dataclass(frozen=True)
class SeriesTruncation:
    """Cutoff and geometric tail estimate attached to a partial sum."""

    n_max: int
    tail_bound: float

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("series cutoff must be a positive integer")
        if self.tail_bound < 0.0:
            raise ValueError("tail bound must be >= 0")


def _reject_z(z: complex) -> None:
    if abs(z) >= 1.0:
        raise ValueError("generating variable must satisfy |z| < 1")


def _tail(r: float, n_max: int, scales: Sequence[float], abs_sum: float) -> float:
    """Truncation-plus-rounding bound for a partial sum.

    The geometric part is amp * r^(n_max+1) / (1 - r), where ``scales``
    holds |term_k| / r^k for the last few computed terms and their maximum
    (floored at 1) estimates the subgeometric amplitude.  The rounding part
    is the first-order forward-error model (4 n_max + 8) eps sum|term|:
    each term passes through a recurrence of length <= n_max at roughly
    four flops per step, so the summation error scales with the term
    magnitudes times the operation count.  It dominates once the truncation
    tail drops below float precision.
    """
    rounding = (4 * n_max + 8) * math.ulp(1.0) * abs_sum
    if r == 0.0:
        return rounding
    amp = max(scales, default=1.0)
    return max(amp, 1.0) * r ** (n_max + 1) / (1.0 - r) + rounding


def _partial_sum(z: complex, n_lo: int, n_max: int, coeff: Callable[[int], float]
                 ) -> tuple[complex, SeriesTruncation]:
    """sum_{k=n_lo}^{n_max} z^k coeff(k), with its truncation-plus-rounding bound."""
    total = 0.0 + 0.0j
    az = abs(z)
    abs_sum = 0.0
    scales = []
    for k in range(n_lo, n_max + 1):
        term = z**k * coeff(k)
        total += term
        abs_sum += abs(term)
        if az > 0.0 and k > n_max - 5:
            scales.append(abs(term) / az**k)
    return total, SeriesTruncation(n_max, _tail(az, n_max, scales, abs_sum))


def laguerre_gf(z: complex, r: float, v: float) -> complex:
    """Closed form of the generalized Laguerre generating function."""
    _reject_z(z)
    return (1.0 - z) ** (-(r + 1.0)) * cmath.exp(-z * v / (1.0 - z))


def laguerre_gf_series(z: complex, r: float, v: float, n_max: int = 80
                       ) -> tuple[complex, SeriesTruncation]:
    _reject_z(z)
    return _partial_sum(z, 0, n_max, lambda k: laguerre(k, r, v))


def shifted_laguerre_gf(z: complex, m: int, v: float) -> complex:
    """Closed form of sum_{n>=m} z^n L_{n-m}^(2m)(v), the index-shifted series."""
    if m < 0:
        raise ValueError("angular index m must be >= 0")
    _reject_z(z)
    return z**m * laguerre_gf(z, 2 * m, v)


def shifted_laguerre_gf_series(z: complex, m: int, v: float, n_max: int = 80
                               ) -> tuple[complex, SeriesTruncation]:
    if m < 0:
        raise ValueError("angular index m must be >= 0")
    _reject_z(z)
    return _partial_sum(z, m, n_max, lambda n: laguerre(n - m, 2 * m, v))


def coordinate_basis_term(n: int, m: int, q0: float, pt: PolarPoint) -> complex:
    """Bare scaled basis function v^m e^(-v/2) L_{n-m}^(2m)(v) e^(i m phi).

    v = 2 q0 rho with the caller's fixed q0; no normalization constant.
    Only m >= 0 is meaningful here, the generating function sums over the
    non-negative ladder.
    """
    if not 0 <= m <= n:
        raise ValueError("need 0 <= m <= n")
    if q0 <= 0.0:
        raise ValueError("scale q0 must be > 0")
    v = 2.0 * q0 * pt.rho
    real_part = v**m * math.exp(-0.5 * v) * laguerre(n - m, 2 * m, v)
    return real_part * cmath.exp(1j * m * pt.phi)


def coordinate_gf(z: complex, t: complex, q0: float, pt: PolarPoint) -> complex:
    """Position-space generating function of the bare scaled basis.

    Equals sum over n >= 0, 0 <= m <= n of z^n (t^m / m!) times
    ``coordinate_basis_term``; in closed form

        (1/(1-z)) exp(-q0 rho) exp(-2 z q0 rho/(1-z) + 2 t z q0 rho e^(i phi)/(1-z)^2).

    The e^(i phi) branch pairs with the m >= 0 ladder; negative m follows by
    conjugating the result.
    """
    _reject_z(z)
    if q0 <= 0.0:
        raise ValueError("scale q0 must be > 0")
    one_minus = 1.0 - z
    w = pt.rho * cmath.exp(1j * pt.phi)
    expo = (-q0 * pt.rho
            - 2.0 * z * q0 * pt.rho / one_minus
            + 2.0 * t * z * q0 * w / (one_minus * one_minus))
    return cmath.exp(expo) / one_minus


def coordinate_gf_series(z: complex, t: complex, q0: float, pt: PolarPoint,
                         n_max: int = 40) -> tuple[complex, SeriesTruncation]:
    # Not a _partial_sum: the rounding estimate sums |piece| over every m of
    # a degree, not |term| of the collapsed degree.
    _reject_z(z)
    total = 0.0 + 0.0j
    az = abs(z)
    abs_sum = 0.0
    scales = []
    for n in range(n_max + 1):
        inner = 0.0
        term = 0.0 + 0.0j
        for m in range(n + 1):
            piece = t**m / math.factorial(m) * coordinate_basis_term(n, m, q0, pt)
            term += z**n * piece
            inner += abs(z) ** n * abs(piece)
        total += term
        abs_sum += inner
        if az > 0.0 and n > n_max - 5:
            scales.append(abs(term) / az**n)
    return total, SeriesTruncation(n_max, _tail(az, n_max, scales, abs_sum))


def gegenbauer_gf(z: complex, q: float, alpha: float) -> complex:
    """Closed form (1 - 2qz + z^2)^(-alpha), principal branch."""
    _reject_z(z)
    return (1.0 - 2.0 * q * z + z * z) ** (-alpha)


def gegenbauer_gf_series(z: complex, q: float, alpha: float, n_max: int = 80
                         ) -> tuple[complex, SeriesTruncation]:
    _reject_z(z)
    return _partial_sum(z, 0, n_max, lambda k: gegenbauer(k, alpha, q))


def new_legendre_gf(z: complex, t: float, m: int) -> complex:
    """Closed form (1-t^2)^(m/2) (1-z^2) z^m / (1 - 2zt + z^2)^(m+3/2).

    Generates (2n+1)/(2m+1)!! times the associated Legendre functions, see
    ``new_legendre_gf_series``.
    """
    if m < 0:
        raise ValueError("angular index m must be >= 0")
    _reject_z(z)
    if not -1.0 < t < 1.0:
        raise ValueError("argument t must lie in (-1, 1)")
    return ((1.0 - t * t) ** (0.5 * m) * (1.0 - z * z) * z**m
            / (1.0 - 2.0 * z * t + z * z) ** (m + 1.5))


def new_legendre_gf_series(z: complex, t: float, m: int, n_max: int = 80
                           ) -> tuple[complex, SeriesTruncation]:
    if m < 0:
        raise ValueError("angular index m must be >= 0")
    _reject_z(z)
    if not -1.0 < t < 1.0:
        raise ValueError("argument t must lie in (-1, 1)")
    dfact = double_factorial(2 * m + 1)
    return _partial_sum(z, m, n_max, lambda n: (2 * n + 1) / dfact * assoc_legendre(n, m, t))


def series_coefficients_1d(fn: Callable[[complex], complex], n_coeffs: int,
                           radius: float = 0.5, nodes: int = 128) -> np.ndarray:
    """Taylor coefficients c_0 .. c_{n_coeffs-1} of fn by Cauchy quadrature.

    fn must be analytic on |z| <= radius.  Trapezoid rule on the circle is
    spectrally accurate; nodes should comfortably exceed n_coeffs so the
    aliased c_{n+nodes} radius^nodes contamination is negligible.
    """
    if not 0 < n_coeffs <= nodes:
        raise ValueError("need 0 < n_coeffs <= nodes")
    samples = np.empty(nodes, dtype=complex)
    for k in range(nodes):
        samples[k] = fn(radius * cmath.exp(2j * math.pi * k / nodes))
    hat = np.fft.fft(samples) / nodes
    powers = radius ** np.arange(n_coeffs)
    return hat[:n_coeffs] / powers


def series_coefficients_2d(fn: Callable[[complex, complex], complex],
                           n_coeffs: int, m_coeffs: int,
                           radius_z: float = 0.5, radius_t: float = 0.5,
                           nodes_z: int = 128, nodes_t: int = 64) -> np.ndarray:
    """Double Taylor coefficients c[n, m] of fn(z, t) by nested Cauchy quadrature."""
    if not 0 < n_coeffs <= nodes_z:
        raise ValueError("need 0 < n_coeffs <= nodes_z")
    if not 0 < m_coeffs <= nodes_t:
        raise ValueError("need 0 < m_coeffs <= nodes_t")
    samples = np.empty((nodes_z, nodes_t), dtype=complex)
    for j in range(nodes_z):
        zj = radius_z * cmath.exp(2j * math.pi * j / nodes_z)
        for k in range(nodes_t):
            samples[j, k] = fn(zj, radius_t * cmath.exp(2j * math.pi * k / nodes_t))
    hat = np.fft.fft2(samples) / (nodes_z * nodes_t)
    pz = radius_z ** np.arange(n_coeffs)
    pt = radius_t ** np.arange(m_coeffs)
    return hat[:n_coeffs, :m_coeffs] / np.outer(pz, pt)
