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

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
from numpy.typing import ArrayLike

from .polys import (_assoc_legendre_ladder, _gegenbauer_ladder, _laguerre_ladder, _overflow_guard,
                    _point_arrays, _scalar_or_array, double_factorial)
from .position import PolarPoint

__all__ = [
    "SeriesTruncation",
    "laguerre_gf",
    "laguerre_gf_series",
    "shifted_laguerre_gf",
    "shifted_laguerre_gf_series",
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
    """Cutoff, truncation-plus-rounding tail bound and its rounding part, for a partial sum."""

    n_max: int
    tail_bound: float
    rounding: float = 0.0

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("series cutoff must be a positive integer")
        if self.tail_bound < 0.0:
            raise ValueError("tail bound must be >= 0")
        if not 0.0 <= self.rounding <= self.tail_bound:
            raise ValueError("rounding estimate must lie in [0, tail_bound]")


def _reject_z(z: ArrayLike) -> None:
    if np.any(np.abs(z) >= 1.0):
        raise ValueError("generating variable must satisfy |z| < 1")


def _reject_t(t: ArrayLike) -> None:
    t = np.asarray(t)
    if not np.all((-1.0 < t) & (t < 1.0)):
        raise ValueError("argument t must lie in (-1, 1)")


def _tail(r: float, n_max: int, scales: Sequence[float], abs_sum: float) -> SeriesTruncation:
    """Truncation-plus-rounding bound for a partial sum.

    The geometric part is amp * r^(n_max+1) / (1 - r), where ``scales``
    holds |term_k| / r^k for the last few computed terms and their maximum
    (floored at 1) estimates the subgeometric amplitude.  The caller takes
    |term_k| / r^k as the modulus of the degree-k total, never dividing by
    r^k, which underflows for small r.  The rounding part is the
    first-order forward-error model (4 n_max + 8) eps sum|term|: each term
    passes through a recurrence of length <= n_max at roughly four flops
    per step, so the summation error scales with the term magnitudes times
    the operation count.  It dominates once the truncation
    tail drops below float precision.
    """
    rounding = (4 * n_max + 8) * math.ulp(1.0) * abs_sum
    tail = 0.0 if r == 0.0 else max(1.0, *scales) * r ** (n_max + 1) / (1.0 - r)
    return SeriesTruncation(n_max, tail + rounding, rounding)


def _partial_sum(z: complex, n_lo: int, n_max: int, degrees: Iterable[ArrayLike], what: str
                 ) -> tuple[complex, SeriesTruncation]:
    """sum_{k=n_lo}^{n_max} z^k (pieces of degree k), with its truncation-plus-rounding bound.

    ``degrees`` yields the pieces of degree n_lo, n_lo + 1, ..., one number
    or an array of them per degree: the term is z^k times their total, and
    the rounding estimate sums |z^k piece| over every piece.  A ladder that
    overflows float64 on the way raises a ValueError naming ``what``.
    """
    total = 0.0 + 0.0j
    az = abs(z)
    abs_sum = 0.0
    scales = []
    with _overflow_guard(what):
        for k, pieces in zip(range(n_lo, n_max + 1), degrees):
            zk = z**k
            pieces = np.asarray(pieces)
            piece_sum = pieces.sum().item()
            total += zk * piece_sum
            abs_sum += float(np.abs(zk * pieces).sum())
            if k > n_max - 5:
                scales.append(abs(piece_sum))
    return total, _tail(az, n_max, scales, abs_sum)


def laguerre_gf(z: ArrayLike, r: float, v: ArrayLike):
    """Closed form of the generalized Laguerre generating function; z and v broadcast."""
    _reject_z(z)
    zs, vs = _point_arrays(z, v)
    value = (1.0 - zs) ** (-(r + 1.0)) * np.exp(-zs * vs / (1.0 - zs))
    return _scalar_or_array(value.astype(complex), z, v)


def laguerre_gf_series(z: complex, r: float, v: float, n_max: int = 80
                       ) -> tuple[complex, SeriesTruncation]:
    _reject_z(z)
    return _partial_sum(z, 0, n_max, _laguerre_ladder(r, _point_arrays(float(v))[0]),
                        f"laguerre_gf_series n_max={n_max}")


def shifted_laguerre_gf(z: ArrayLike, m: int, v: ArrayLike):
    """Closed form of sum_{n>=m} z^n L_{n-m}^(2m)(v), the index-shifted series."""
    if m < 0:
        raise ValueError("angular index m must be >= 0")
    _reject_z(z)
    zs, vs = _point_arrays(z, v)
    return _scalar_or_array(zs**m * laguerre_gf(zs, 2 * m, vs), z, v)


def shifted_laguerre_gf_series(z: complex, m: int, v: float, n_max: int = 80
                               ) -> tuple[complex, SeriesTruncation]:
    if m < 0:
        raise ValueError("angular index m must be >= 0")
    _reject_z(z)
    return _partial_sum(z, m, n_max, _laguerre_ladder(2 * m, _point_arrays(float(v))[0]),
                        f"shifted_laguerre_gf_series m={m}, n_max={n_max}")


def _coordinate_ladder(m: int, q0: float, rho: np.ndarray, phi: np.ndarray
                       ) -> Iterator[np.ndarray]:
    """The bare basis terms (m, m), (m + 1, m), ...: v^m e^(-v/2) L_j^(2m)(v) e^(i m phi)."""
    if q0 <= 0.0:
        raise ValueError("scale q0 must be > 0")
    v = 2.0 * q0 * rho
    head = v**m * np.exp(-0.5 * v)
    phase = np.exp(1j * m * phi)
    for lag in _laguerre_ladder(2 * m, v):
        yield head * lag * phase


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
    if q0 <= 0.0:
        raise ValueError("scale q0 must be > 0")
    fields = (z, t, pt.rho, pt.phi)
    z, t, rho, phi = _point_arrays(*fields)
    one_minus = 1.0 - z
    w = rho * np.exp(1j * phi)
    expo = (-q0 * rho
            - 2.0 * z * q0 * rho / one_minus
            + 2.0 * t * z * q0 * w / (one_minus * one_minus))
    return _scalar_or_array(np.exp(expo) / one_minus, *fields)


def coordinate_gf_series(z: complex, t: complex, q0: float, pt: PolarPoint,
                         n_max: int = 40) -> tuple[complex, SeriesTruncation]:
    _reject_z(z)
    rho, phi = _point_arrays(float(pt.rho), float(pt.phi))

    def degrees():
        # Degree n adds the ladder of m = n; every ladder steps once per degree.
        ladders = []
        for n in itertools.count():
            ladders.append(_coordinate_ladder(n, q0, rho, phi))
            yield [t**m / math.factorial(m) * next(lad) for m, lad in enumerate(ladders)]
    return _partial_sum(z, 0, n_max, degrees(), f"coordinate_gf_series n_max={n_max}")


def gegenbauer_gf(z: ArrayLike, q: ArrayLike, alpha: float):
    """Closed form (1 - 2qz + z^2)^(-alpha), principal branch; z and q broadcast."""
    _reject_z(z)
    zs, qs = _point_arrays(z, q)
    value = np.emath.power(1.0 - 2.0 * qs * zs + zs * zs, -alpha)
    return _scalar_or_array(value.astype(complex), z, q)


def gegenbauer_gf_series(z: complex, q: float, alpha: float, n_max: int = 80
                         ) -> tuple[complex, SeriesTruncation]:
    _reject_z(z)
    return _partial_sum(z, 0, n_max, _gegenbauer_ladder(alpha, _point_arrays(float(q))[0]),
                        f"gegenbauer_gf_series n_max={n_max}")


def new_legendre_gf(z: ArrayLike, t: ArrayLike, m: int):
    """Closed form (1-t^2)^(m/2) (1-z^2) z^m / (1 - 2zt + z^2)^(m+3/2); z and t broadcast.

    Generates (2n+1)/(2m+1)!! times the associated Legendre functions, see
    ``new_legendre_gf_series``.
    """
    if m < 0:
        raise ValueError("angular index m must be >= 0")
    _reject_z(z)
    _reject_t(t)
    zs, ts = _point_arrays(z, t)
    value = ((1.0 - ts * ts) ** (0.5 * m) * (1.0 - zs * zs) * zs**m
             / (1.0 - 2.0 * zs * ts + zs * zs) ** (m + 1.5))
    return _scalar_or_array(value.astype(complex), z, t)


def new_legendre_gf_series(z: complex, t: float, m: int, n_max: int = 80
                           ) -> tuple[complex, SeriesTruncation]:
    if m < 0:
        raise ValueError("angular index m must be >= 0")
    _reject_z(z)
    _reject_t(t)
    dfact = double_factorial(2 * m + 1)
    ladder = _assoc_legendre_ladder(m, _point_arrays(float(t))[0])
    return _partial_sum(z, m, n_max, ((2 * n + 1) / dfact * p
                                      for n, p in zip(itertools.count(m), ladder)),
                        f"new_legendre_gf_series m={m}, n_max={n_max}")


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
