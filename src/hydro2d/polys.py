"""Orthogonal polynomials and Bessel functions used by the planar Coulomb solver.

Everything is evaluated with upward three-term recurrences in the degree,
which are stable for these families on their natural domains.  Series
expansions appear only in the test suite, where they serve as independent
oracles.

Conventions
-----------
* ``assoc_legendre`` does NOT include the Condon-Shortley phase:

      P_n^m(t) = (1 - t^2)^(m/2) * d^m P_n(t) / dt^m

  so P_1^1(0) = +1.  Callers keep any (-1)^m factors explicit.
* ``double_factorial`` uses (-1)!! = 0!! = 1 and exact integers.
* Gegenbauer polynomials of negative degree are identically zero; several
  generating-function identities are stated most cleanly with that choice.
* ``bessel_j`` is an integer-order J_m evaluator for 0 <= m <= 160:
  ascending series at small argument, Miller's normalized downward
  recurrence at moderate argument (each argument seeded at its own order
  x + 10 x^(1/3) + 1.5 m + 30), and a phase/amplitude expansion at large
  argument so that oscillatory radial quadratures stay cheap far out on the
  axis.  Past order 160 the recurrence would overflow just above the series
  range, so larger orders raise ``ValueError``.

All functions are pure and accept numpy arrays in the evaluation-point slot.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "NEG_I_POW",
    "pochhammer",
    "double_factorial",
    "laguerre",
    "gegenbauer",
    "legendre",
    "assoc_legendre",
    "bessel_j",
]

# (-i)^k for k % 4, kept as exact complex constants.  Shared by the
# momentum-space wavefunctions and the Fourier oracle so that phase
# comparisons between the two are bit-for-bit meaningful.
NEG_I_POW = (1 + 0j, 0 - 1j, -1 + 0j, 0 + 1j)


def _as_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _scalar_or_array(arr, scalar: bool):
    return float(arr) if scalar else arr


def pochhammer(a: float, k: int) -> float:
    """Rising factorial a (a+1) ... (a+k-1); the empty product is 1.

    Evaluated in floating point, so very large k (around 150 and up,
    depending on a) overflows to inf rather than raising.
    """
    if k < 0:
        raise ValueError("pochhammer order k must be >= 0")
    out = 1.0
    for i in range(k):
        out *= a + i
    return out


def double_factorial(k: int) -> int:
    """k!! as an exact integer, with (-1)!! = 0!! = 1."""
    if k < -1:
        raise ValueError("double factorial needs k >= -1")
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def laguerre(k: int, alpha: float, x):
    """Generalized Laguerre polynomial L_k^(alpha)(x).

    Upward recurrence in the degree:

        (i+1) L_{i+1} = (2i + 1 + alpha - x) L_i - (i + alpha) L_{i-1}
    """
    if k < 0:
        raise ValueError("laguerre degree k must be >= 0")
    xs, scalar = _as_array(x)
    p0 = np.ones_like(xs)
    if k == 0:
        return _scalar_or_array(p0, scalar)
    p1 = 1.0 + alpha - xs
    for i in range(1, k):
        p0, p1 = p1, ((2.0 * i + 1.0 + alpha - xs) * p1 - (i + alpha) * p0) / (i + 1.0)
    return _scalar_or_array(p1, scalar)


def gegenbauer(k: int, lam: float, q):
    """Gegenbauer (ultraspherical) polynomial C_k^(lam)(q).

    Negative degree returns 0, which is the natural value in the
    difference identities this package verifies.
    """
    qs, scalar = _as_array(q)
    if k < 0:
        return _scalar_or_array(np.zeros_like(qs), scalar)
    c0 = np.ones_like(qs)
    if k == 0:
        return _scalar_or_array(c0, scalar)
    c1 = 2.0 * lam * qs
    for i in range(1, k):
        c0, c1 = c1, (2.0 * (i + lam) * qs * c1 - (i + 2.0 * lam - 1.0) * c0) / (i + 1.0)
    return _scalar_or_array(c1, scalar)


def legendre(n: int, t):
    """Legendre polynomial P_n(t) by the Bonnet recurrence."""
    if n < 0:
        raise ValueError("legendre degree n must be >= 0")
    ts, scalar = _as_array(t)
    p0 = np.ones_like(ts)
    if n == 0:
        return _scalar_or_array(p0, scalar)
    p1 = ts.copy()
    for i in range(1, n):
        p0, p1 = p1, ((2.0 * i + 1.0) * ts * p1 - i * p0) / (i + 1.0)
    return _scalar_or_array(p1, scalar)


def assoc_legendre(n: int, m: int, t):
    """Associated Legendre function P_n^m(t) without the Condon-Shortley phase.

    Built from the diagonal seed P_m^m = (2m-1)!! (1-t^2)^(m/2) and the
    upward recurrence (n-m+1) P_{n+1}^m = (2n+1) t P_n^m - (n+m) P_{n-1}^m.
    The factor (1-t^2)^(m/2) is formed as ((1-t)(1+t))^(m/2), which keeps
    full relative accuracy near the endpoints.
    """
    if n < 0 or m < 0 or m > n:
        raise ValueError("assoc_legendre needs 0 <= m <= n")
    ts, scalar = _as_array(t)
    if np.any(np.abs(ts) > 1.0):
        raise ValueError("assoc_legendre needs |t| <= 1")
    s = (1.0 - ts) * (1.0 + ts)
    pmm = float(double_factorial(2 * m - 1)) * s ** (0.5 * m)
    if n == m:
        return _scalar_or_array(pmm, scalar)
    pm1 = (2.0 * m + 1.0) * ts * pmm
    for i in range(m + 1, n):
        pmm, pm1 = pm1, ((2.0 * i + 1.0) * ts * pm1 - (i + m) * pmm) / (i - m + 1.0)
    return _scalar_or_array(pm1, scalar)


# ---------------------------------------------------------------------------
# Bessel J_m
# ---------------------------------------------------------------------------

_ASYMPTOTIC_CUT = 160.0
_BESSEL_MAX_ORDER = 160


def _bessel_series(m: int, x: np.ndarray) -> np.ndarray:
    # Ascending series; safe from cancellation when x is small or the order
    # dominates the argument.
    half = 0.5 * x
    term = half**m / math.factorial(m)
    total = term.copy()
    msq = -(half * half)
    for j in range(1, 40):
        term = term * msq / (j * (j + m))
        total += term
    return total


def _bessel_miller(m: int, x: np.ndarray) -> np.ndarray:
    # Downward recurrence from an order where J is negligible, normalized by
    # J_0 + 2 (J_2 + J_4 + ...) = 1.  Each argument starts at its own even
    # order x + 10 x^(1/3) + 1.5 m + 30, so the values it passes through stay
    # far from overflow.  Sorted by that seed, the arguments under way at
    # order k are a prefix of the arrays; one sweep serves them all.
    seed = (x + 10.0 * np.cbrt(x) + 1.5 * m + 30.0).astype(np.int64)
    seed += seed % 2
    order = np.argsort(-seed, kind="stable")
    seed = seed[order]
    two_over_x = 2.0 / x[order]
    top = int(seed[0])
    started = np.searchsorted(-seed, -np.arange(top, 0, -1), side="right")
    jp = np.zeros_like(two_over_x)
    jc = np.full_like(two_over_x, 1e-35)
    norm = np.zeros_like(two_over_x)
    for k, a in zip(range(top, 0, -1), started):
        below = (k * two_over_x[:a]) * jc[:a] - jp[:a]
        jp[:a] = jc[:a]
        jc[:a] = below
        if k - 1 == m:
            captured = jc.copy()
        if k - 1 >= 2 and (k - 1) % 2 == 0:
            norm[:a] += 2.0 * jc[:a]
    norm += jc  # jc now holds the unnormalized J_0
    out = np.empty_like(norm)
    out[order] = captured / norm
    return out


def _bessel_asymptotic(m: int, x: np.ndarray) -> np.ndarray:
    # Large-argument phase/amplitude expansion:
    #   J_m(x) = sqrt(2/(pi x)) [P cos(chi) - Q sin(chi)],
    #   chi = x - (2m+1) pi/4, with P, Q built from the Hankel symbols.
    mu = 4.0 * m * m
    term = np.ones_like(x)
    p_sum = np.ones_like(x)
    q_sum = np.zeros_like(x)
    for k in range(16):
        term = term * (mu - (2.0 * k + 1.0) ** 2) / (8.0 * x * (k + 1.0))
        if k % 4 == 0:
            q_sum += term
        elif k % 4 == 1:
            p_sum -= term
        elif k % 4 == 2:
            q_sum -= term
        else:
            p_sum += term
    chi = x - (2 * m + 1) * (math.pi / 4.0)
    return np.sqrt(2.0 / (math.pi * x)) * (p_sum * np.cos(chi) - q_sum * np.sin(chi))


def bessel_j(m: int, x):
    """Bessel function of the first kind J_m(x) for integer 0 <= m <= 160, x >= 0.

    Accurate to about 1e-13 absolute over that whole range; orders past 160
    raise ``ValueError`` rather than overflow in the Miller recurrence.
    """
    if not 0 <= m <= _BESSEL_MAX_ORDER:
        raise ValueError(f"bessel_j order m must be in [0, {_BESSEL_MAX_ORDER}]")
    xs, scalar = _as_array(x)
    if np.any(xs < 0.0):
        raise ValueError("bessel_j argument must be >= 0")
    xs = np.atleast_1d(xs)
    out = np.empty_like(xs)

    series_cut = max(9.0, 1.8 * math.sqrt(m + 1.0))
    sel = xs <= series_cut
    if np.any(sel):
        out[sel] = _bessel_series(m, xs[sel])

    asym_cut = _ASYMPTOTIC_CUT if m <= 12 else max(_ASYMPTOTIC_CUT, 20.0 * m * m)
    sel = xs >= asym_cut
    if np.any(sel):
        out[sel] = _bessel_asymptotic(m, xs[sel])

    middle = (xs > series_cut) & (xs < asym_cut)
    if np.any(middle):
        out[middle] = _bessel_miller(m, xs[middle])

    if scalar:
        return float(out[0])
    return out
