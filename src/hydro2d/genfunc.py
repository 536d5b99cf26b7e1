"""Generating functions in closed form.

Closed forms implemented here:

    laguerre_gf         sum_k z^k L_k^(r)(v)            = (1-z)^-(r+1) e^(-zv/(1-z))
    shifted_laguerre_gf sum_{n>=m} z^n L_{n-m}^(2m)(v)  = z^m (1-z)^-(2m+1) e^(-zv/(1-z))
    coordinate_gf       position-space generating function of the scaled basis
    gegenbauer_gf       sum_k z^k C_k^alpha(q)          = (1 - 2qz + z^2)^-alpha
    new_legendre_gf     sum_{n>=m} z^n (2n+1)/(2m+1)!! P_n^m(t)
                        = (1-t^2)^(m/2) (1-z^2) z^m / (1 - 2zt + z^2)^(m+3/2)

The last identity holds with the associated Legendre functions defined
without the Condon-Shortley sign (as in ``polys``); the sum starts at n = m
since P_n^m vanishes for n < m.  Each returns a finite value or raises a
ValueError naming itself.  The verification suites check each closed form
one way: its Taylor coefficients from ``quadrature.series_coefficients``
against the rows of the polynomial ladder of its series.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import ArrayLike

from .polys import (_finite, _finite_points, _finite_result, _integer, _point_arrays,
                    _scalar_or_array)
from .position import PolarPoint

__all__ = [
    "laguerre_gf",
    "shifted_laguerre_gf",
    "coordinate_gf",
    "gegenbauer_gf",
    "new_legendre_gf",
]


def _reject_z(z: ArrayLike) -> None:
    if not np.all(np.abs(z) < 1.0):  # NaN fails too
        raise ValueError("generating variable must satisfy |z| < 1")


@_finite_result
def laguerre_gf(z: ArrayLike, r: float, v: ArrayLike):
    """Closed form of the generalized Laguerre generating function; z and v broadcast."""
    _reject_z(z)
    _finite("laguerre_gf r", r)
    zs, vs = _point_arrays(z, v)
    _finite_points("laguerre_gf v", vs)
    value = (1.0 - zs) ** (-(r + 1.0)) * np.exp(-zs * vs / (1.0 - zs))
    return _scalar_or_array(value.astype(complex), z, v)


@_finite_result
def shifted_laguerre_gf(z: ArrayLike, m: int, v: ArrayLike):
    """Closed form of sum_{n>=m} z^n L_{n-m}^(2m)(v), the index-shifted series."""
    m = _integer("shifted_laguerre_gf m", m)
    if m < 0:
        raise ValueError("angular index m must be >= 0")
    _reject_z(z)
    zs, vs = _point_arrays(z, v)
    _finite_points("shifted_laguerre_gf v", vs)
    value = zs**m * ((1.0 - zs) ** (-(2 * m + 1.0)) * np.exp(-zs * vs / (1.0 - zs)))
    return _scalar_or_array(value.astype(complex), z, v)


@_finite_result
def coordinate_gf(z: ArrayLike, t: ArrayLike, q0: float, pt: PolarPoint):
    """Position-space generating function of the bare scaled basis.

    Equals sum over n >= 0, 0 <= m <= n of z^n (t^m / m!) times the bare
    basis term v^m e^(-v/2) L_{n-m}^(2m)(v) e^(i m phi), v = 2 q0 rho with
    this fixed q0 and no normalization constant; in closed form

        (1/(1-z)) exp(-q0 rho) exp(-2 z q0 rho/(1-z) + 2 t z q0 rho e^(i phi)/(1-z)^2).

    The e^(i phi) branch pairs with the m >= 0 ladder; negative m follows by
    conjugating the result.  z, t and the fields of pt broadcast together.
    """
    _reject_z(z)
    _finite("coordinate_gf q0", q0)
    if q0 <= 0.0:
        raise ValueError("scale q0 must be > 0")
    fields = (z, t, pt.rho, pt.phi)
    z, t, rho, phi = _point_arrays(*fields)
    _finite_points("coordinate_gf t", t)
    one_minus = 1.0 - z
    w = rho * np.exp(1j * phi)
    expo = (-q0 * rho
            - 2.0 * z * q0 * rho / one_minus
            + 2.0 * t * z * q0 * w / (one_minus * one_minus))
    return _scalar_or_array(np.exp(expo) / one_minus, *fields)


@_finite_result
def gegenbauer_gf(z: ArrayLike, q: ArrayLike, alpha: float):
    """Closed form (1 - 2qz + z^2)^(-alpha), principal branch; z and q broadcast."""
    _reject_z(z)
    _finite("gegenbauer_gf alpha", alpha)
    zs, qs = _point_arrays(z, q)
    _finite_points("gegenbauer_gf q", qs)
    value = np.emath.power(1.0 - 2.0 * qs * zs + zs * zs, -alpha)
    return _scalar_or_array(value.astype(complex), z, q)


@_finite_result
def new_legendre_gf(z: ArrayLike, t: ArrayLike, m: int):
    """Closed form (1-t^2)^(m/2) (1-z^2) z^m / (1 - 2zt + z^2)^(m+3/2); z and t broadcast.

    Generates (2n+1)/(2m+1)!! times the associated Legendre functions P_n^m(t), n >= m.
    """
    m = _integer("new_legendre_gf m", m)
    if m < 0:
        raise ValueError("angular index m must be >= 0")
    _reject_z(z)
    zs, ts = _point_arrays(z, t)
    if not np.all((-1.0 < ts) & (ts < 1.0)):
        raise ValueError("argument t must lie in (-1, 1)")
    value = ((1.0 - ts * ts) ** (0.5 * m) * (1.0 - zs * zs) * zs**m
             / (1.0 - 2.0 * zs * ts + zs * zs) ** (m + 1.5))
    return _scalar_or_array(value.astype(complex), z, t)
