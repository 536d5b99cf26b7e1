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
trapezoid quadrature of the Cauchy integral on a circle (one circle per
variable), which is exact up to aliasing: with N nodes on radius r the
error in c_n is the sum over j >= 1 of c_{n+jN} r^{jN}, which falls like
(r/R)^N when the nearest singularity lies at radius R.  R, not the unit
disk, sets the node count: the momentum generating function at q0 = 1,
p = 0.7 is singular at |t| = 0.75 for |z| = 0.5, so 64 nodes on r = 0.5
leave a relative error of 2.5e-10 in its coefficients, and 128 nodes
leave rounding (1.1e-14).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.typing import ArrayLike

from .polys import assoc_legendre, double_factorial, gegenbauer, laguerre
from .position import PolarPoint, _complex_or_array, _point_arrays

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
    "series_coefficients",
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


def _reject_z(z: ArrayLike) -> None:
    if np.any(np.abs(z) >= 1.0):
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


def gegenbauer_gf(z: ArrayLike, q: ArrayLike, alpha: float):
    """Closed form (1 - 2qz + z^2)^(-alpha), principal branch; z and q broadcast."""
    _reject_z(z)
    zs, qs = _point_arrays(z, q)
    value = np.emath.power(1.0 - 2.0 * qs * zs + zs * zs, -alpha)
    return _complex_or_array(value.astype(complex), z, q)


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


def series_coefficients(fn: Callable[..., ArrayLike], counts: Sequence[int],
                        radius: float = 0.5, nodes: int = 128) -> np.ndarray:
    """Taylor coefficients c[k_1, ..., k_d] of fn by Cauchy quadrature.

    fn takes d complex arguments, one per entry of ``counts``, and must be
    analytic on the polydisk of the given radius.  It is called once, on
    the ``np.ix_`` grid of one circle of ``nodes`` points per argument, and
    returns an array whose first d axes are those node axes; any axes it
    adds after them are batch axes and come back unchanged after the
    coefficient axes, whose lengths are ``counts``.
    """
    if not counts or not all(0 < c <= nodes for c in counts):
        raise ValueError("need 0 < count <= nodes on every axis")
    d = len(counts)
    circle = radius * np.exp(2j * np.pi * np.arange(nodes) / nodes)
    samples = np.asarray(fn(*np.ix_(*[circle] * d)), dtype=complex)
    hat = np.fft.fftn(samples, axes=range(d)) / nodes**d
    degree = sum(np.ix_(*[np.arange(c) for c in counts]))
    powers = (radius ** degree).reshape(degree.shape + (1,) * (hat.ndim - d))
    return hat[tuple(slice(c) for c in counts)] / powers
