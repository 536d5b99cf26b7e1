"""Orthogonal polynomials and Bessel functions used by the planar Coulomb solver.

Everything is evaluated with upward three-term recurrences in the degree,
which are stable for these families on their natural domains; only
``_level_rows``, every Laguerre row of one level, runs downward in the order,
and only ``bessel_j`` sums series: the ascending series and the large-argument
expansion below.

Conventions
-----------
* ``assoc_legendre`` does NOT include the Condon-Shortley phase:

      P_n^m(t) = (1 - t^2)^(m/2) * d^m P_n(t) / dt^m

  so P_1^1(0) = +1.  Callers keep any (-1)^m factors explicit.
* ``double_factorial`` uses (-1)!! = 0!! = 1 and exact integers.
* Gegenbauer polynomials of negative degree are identically zero; several
  generating-function identities are stated most cleanly with that choice.
* ``bessel_j(m, x)`` is row m of a ladder J_0 ... J_M, 0 <= M <= 160:
  ascending series at small argument, Miller's normalized downward
  recurrence at moderate argument (one sweep gives every order), and from
  x = max(20, M) on a phase/amplitude expansion of J_0 and J_1 carried to
  every higher order by the upward recurrence, so that oscillatory radial
  quadratures stay cheap far out on the axis.  Past order 160 the Miller
  recurrence would overflow just above the series range, so larger orders
  raise ``ValueError``.

All functions are pure and array-first: the evaluation point may be a real
scalar or array.  A scalar runs through the same array loops as an array
(``_point_arrays``) and comes back as a Python float (``_scalar_or_array``);
the rest of the package uses the same pair for its points and fields.  Each
recurrence is a private ladder that yields every degree in turn, so the
generating-function checks take every expected coefficient from one pass.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Iterator

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


def _turns(m, phi) -> np.ndarray:
    """e^(i m phi) as cos + i sin, m and phi broadcast together (a column of m: one row each).

    The one angular factor of the closed forms in both spaces, of the Fourier oracle
    and of the check that psi(p, phi_p) = psi(p, 0) e^(i m phi_p) bit for bit.
    """
    turn = np.multiply(m, phi)
    return np.cos(turn) + 1j * np.sin(turn)


def _point_arrays(*fields, real: str = ""):
    """The fields as float arrays of at least one dimension, complex ones complex unless
    ``real`` names them: then a complex field is a ValueError with that name.

    Scalars then run through the same numpy array loops as arrays: numpy's
    0-d ``**`` rounds differently from its array loop, so 0-d arithmetic
    would make a scalar call differ in the last bits from an array call.
    """
    if real and any(np.iscomplexobj(f) for f in fields):
        raise ValueError(f"{real} must be real")
    return [np.atleast_1d(np.asarray(f, dtype=complex if np.iscomplexobj(f) else float))
            for f in fields]


def _scalar_or_array(value: np.ndarray, *fields):
    """A Python float or complex (after value's dtype) when every field is a scalar, else value."""
    if all(np.ndim(f) == 0 for f in fields):
        return value[0].item()
    return value


def _integer(name: str, value) -> int:
    """value as an int, a numpy integer too but not a bool; else a ValueError naming ``name``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _finite(name: str, value: float) -> None:
    """A ValueError naming the scalar parameter ``name`` if it is complex, NaN or infinite."""
    if np.iscomplexobj(value):
        raise ValueError(f"{name} must be real, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _finite_points(name: str, values: np.ndarray) -> None:
    """A ValueError naming the point ``name`` if any of its values is NaN or infinite."""
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite")


def _finite_result(fn):
    """fn without numpy's float warnings; a ValueError naming it if it returns NaN or inf."""
    @functools.wraps(fn)
    def checked(*args, **kwargs):
        with np.errstate(all="ignore"):
            value = fn(*args, **kwargs)
        if not np.isfinite(np.asarray(value)).all():
            raise ValueError(f"{fn.__name__} is not finite at these arguments")
        return value
    return checked


def _power(xs: np.ndarray, k):
    """xs ** k for a scalar k or a column of one k per row of xs's leading axis.

    Each row takes its k as a Python scalar, so it rounds as a one-state call does:
    numpy makes x ** 2 a square and x ** 0.5 a sqrt, which pow need not match.
    """
    ks = np.ravel(k)
    if len(set(ks.tolist())) == 1:
        return xs ** ks.tolist()[0]
    out = np.empty(np.broadcast_shapes(xs.shape, np.shape(k)), dtype=np.result_type(xs, 1.0))
    xs = np.broadcast_to(xs, out.shape)
    for value in set(ks.tolist()):
        out[ks == value] = xs[ks == value] ** value
    return out


def pochhammer(a: float, k: int) -> float:
    """Rising factorial a (a+1) ... (a+k-1); the empty product is 1.

    Evaluated in floating point: a product past the largest double (around
    k = 150 and up, depending on a) raises a ValueError naming a and k.
    """
    k = _integer("pochhammer order k", k)
    if k < 0:
        raise ValueError("pochhammer order k must be >= 0")
    _finite("pochhammer a", a)
    out = 1.0
    for i in range(k):
        out *= a + i
        if math.isinf(out):
            raise ValueError(f"pochhammer a={a}, k={k} overflows float64")
    return out


def double_factorial(k: int) -> int:
    """k!! as an exact integer, with (-1)!! = 0!! = 1."""
    k = _integer("double factorial k", k)
    if k < -1:
        raise ValueError("double factorial needs k >= -1")
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def _degree(ladder: Iterator[np.ndarray], k, what: str) -> np.ndarray:
    """Item k of a ladder, run to degree k; a ValueError naming ``what`` if it overflows.

    k may also be an array of degrees that broadcasts against the items: each entry of
    the result is the same entry of item k there (0 where k < 0).  A column takes row r
    of item k[r]; a leading axis of degrees, k = arange(count)[:, None] - shift, takes a
    series' whole table of coefficients.  The ladder runs to the largest degree, and
    only the items taken must stay finite.  Each degree's entries are written in place
    into one output of the broadcast shape of k and the items taken so far; an item
    wider than that (item 0, ``ones_like`` of the points, is narrower than items that
    broadcast with a column of parameters) costs one widening copy.
    """
    out = np.zeros(())
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for j, item in zip(range(int(np.max(k, initial=0)) + 1), ladder):
                at = k == j
                if np.any(at):
                    shape = np.broadcast_shapes(out.shape, np.shape(at), np.shape(item))
                    if out.shape != shape or out.dtype != np.result_type(out, item):
                        out = np.broadcast_to(out, shape).astype(np.result_type(out, item))
                    np.copyto(out, item, where=at)
    except OverflowError:  # an integer seed too large for a float
        pass
    else:
        if np.isfinite(out).all():
            return out
    raise ValueError(f"{what} overflows float64")


def _laguerre_ladder(alpha: float, xs: np.ndarray) -> Iterator[np.ndarray]:
    """L_0^(alpha)(xs), L_1^(alpha)(xs), ...: one recurrence step per degree."""
    p0, p1 = np.ones_like(xs), 1.0 + alpha - xs
    yield p0
    for i in itertools.count(1):
        yield p1
        p0, p1 = p1, ((2.0 * i + 1.0 + alpha - xs) * p1 - (i + alpha) * p0) / (i + 1.0)


def _level_rows(n: int, x: np.ndarray) -> np.ndarray:
    """f_a = L_(n-a)^(2a)(x), a = 0 ... n, as an (n + 1,) + x.shape array, x real or complex:
    from f_n = 1, f_(n-1) = 2n - 1 - x down the contiguous relation in mu of Whittaker's
    M_(n+1/2, mu) (DLMF 13.15), x^2 f_(a+1) = (2a(2a+1) - 2a(2n+1) x/(2a-1)) f_a
    - (n-a+1)(n+a)(2a+1)/(2a-1) f_(a-1); upward it loses every digit at small x.  A
    ValueError if a row overflows (inf or NaN in any row reaches row 0)."""
    f = np.empty((n + 1,) + x.shape, dtype=np.result_type(x, 1.0))
    with np.errstate(over="ignore", invalid="ignore"):
        f[n], f[n - 1:n], square = 1.0, 2.0 * n - 1.0 - x, x * x  # f[-1:0] is empty at n = 0
        for a in range(n - 1, 0, -1):
            slope = 2.0 * a * (2.0 * n + 1.0) / (2.0 * a - 1.0)
            scale = (2.0 * a - 1.0) / ((n - a + 1.0) * (n + a) * (2.0 * a + 1.0))
            f[a - 1] = ((4.0 * a * a + 2.0 * a - slope * x) * f[a] - square * f[a + 1]) * scale
    if not np.isfinite(f[0]).all():
        raise ValueError(f"laguerre k={n} overflows float64")
    return f


def laguerre(k: int, alpha: float, x):
    """Generalized Laguerre polynomial L_k^(alpha)(x).

    Upward recurrence in the degree:

        (i+1) L_{i+1} = (2i + 1 + alpha - x) L_i - (i + alpha) L_{i-1}
    """
    k = _integer("laguerre degree k", k)
    if k < 0:
        raise ValueError("laguerre degree k must be >= 0")
    _finite("laguerre alpha", alpha)
    xs, = _point_arrays(x, real="laguerre x")
    _finite_points("laguerre x", xs)
    return _scalar_or_array(_degree(_laguerre_ladder(alpha, xs), k, f"laguerre k={k}"), x)


def _gegenbauer_ladder(lam: float, qs: np.ndarray) -> Iterator[np.ndarray]:
    """C_0^(lam)(qs), C_1^(lam)(qs), ...: one recurrence step per degree."""
    c0, c1 = np.ones_like(qs), 2.0 * lam * qs
    yield c0
    for i in itertools.count(1):
        yield c1
        c0, c1 = c1, (2.0 * (i + lam) * qs * c1 - (i + 2.0 * lam - 1.0) * c0) / (i + 1.0)


def gegenbauer(k: int, lam: float, q):
    """Gegenbauer (ultraspherical) polynomial C_k^(lam)(q).

    Negative degree returns 0, which is the natural value in the
    difference identities this package verifies.
    """
    k = _integer("gegenbauer degree k", k)
    _finite("gegenbauer lam", lam)
    qs, = _point_arrays(q, real="gegenbauer q")
    _finite_points("gegenbauer q", qs)
    if k < 0:
        return _scalar_or_array(np.zeros_like(qs), q)
    return _scalar_or_array(_degree(_gegenbauer_ladder(lam, qs), k, f"gegenbauer k={k}"), q)


def legendre(n: int, t):
    """Legendre polynomial P_n(t) = C_n^(1/2)(t): the Gegenbauer ladder is then Bonnet's."""
    n = _integer("legendre degree n", n)
    if n < 0:
        raise ValueError("legendre degree n must be >= 0")
    ts, = _point_arrays(t, real="legendre t")
    _finite_points("legendre t", ts)
    return _scalar_or_array(_degree(_gegenbauer_ladder(0.5, ts), n, f"legendre n={n}"), t)


def _odd_factorials(m) -> np.ndarray:
    """(2m-1)!! as a float for each order in m, an int or an array of them, in m's shape."""
    return np.reshape([float(double_factorial(2 * k - 1)) for k in np.ravel(m).tolist()],
                      np.shape(m))


def _assoc_legendre_ladder(m, ts: np.ndarray, sine=None) -> Iterator[np.ndarray]:
    """P_m^m(ts), P_{m+1}^m(ts), ...: the diagonal seed, then one recurrence step per degree.

    ``m`` is an order, or a column of orders, one per row of ts's leading axis.  A
    caller that knows sqrt(1 - ts^2) better than the rounded ts does passes it as ``sine``.
    """
    seed = _power((1.0 - ts) * (1.0 + ts), 0.5 * m) if sine is None else _power(sine, m)
    pmm = _odd_factorials(m) * seed
    pm1 = (2.0 * m + 1.0) * ts * pmm
    yield pmm
    for j in itertools.count(1):
        yield pm1
        i = m + j
        pmm, pm1 = pm1, ((2.0 * i + 1.0) * ts * pm1 - (i + m) * pmm) / (i - m + 1.0)


def assoc_legendre(n: int, m: int, t):
    """Associated Legendre function P_n^m(t) without the Condon-Shortley phase.

    Built from the diagonal seed P_m^m = (2m-1)!! (1-t^2)^(m/2) and the
    upward recurrence (n-m+1) P_{n+1}^m = (2n+1) t P_n^m - (n+m) P_{n-1}^m.
    The factor (1-t^2)^(m/2) is formed as ((1-t)(1+t))^(m/2), which keeps
    full relative accuracy near the endpoints.
    """
    n, m = _integer("assoc_legendre degree n", n), _integer("assoc_legendre order m", m)
    if n < 0 or m < 0 or m > n:
        raise ValueError("assoc_legendre needs 0 <= m <= n")
    ts, = _point_arrays(t, real="assoc_legendre t")
    if not np.all(np.abs(ts) <= 1.0):  # NaN fails too
        raise ValueError("assoc_legendre needs |t| <= 1")
    return _scalar_or_array(_degree(_assoc_legendre_ladder(m, ts), n - m,
                                   f"assoc_legendre n={n}, m={m}"), t)


# ---------------------------------------------------------------------------
# Bessel J_m
# ---------------------------------------------------------------------------

_BESSEL_MAX_ORDER = 160


def _bessel_ascending(m: int, x: np.ndarray) -> np.ndarray:
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


def _bessel_miller(tops: np.ndarray, x: np.ndarray, M: int) -> np.ndarray:
    # Downward recurrence from an order where J is negligible, normalized by
    # J_0 + 2 (J_2 + J_4 + ...) = 1, keeping orders M ... 0.  Each argument
    # starts at its own even order x + 10 x^(1/3) + 1.5 top + 30, top being the
    # highest order it is needed at, so its values stay far from overflow.
    # Sorted by that seed, the arguments under way at order k are a prefix.
    seed = (x + 10.0 * np.cbrt(x) + 1.5 * tops + 30.0).astype(np.int64)
    seed += seed % 2
    order = np.argsort(-seed, kind="stable")
    seed = seed[order]
    two_over_x = 2.0 / x[order]
    top = int(seed[0])
    started = np.searchsorted(-seed, -np.arange(top, 0, -1), side="right")
    jp = np.zeros_like(two_over_x)
    jc = np.full_like(two_over_x, 1e-35)
    norm = np.zeros_like(two_over_x)
    captured = np.zeros((M + 1, x.size))  # orders above every seed stay 0
    for k, a in zip(range(top, 0, -1), started):
        below = (k * two_over_x[:a]) * jc[:a] - jp[:a]
        jp[:a] = jc[:a]
        jc[:a] = below
        if k - 1 <= M:
            captured[k - 1] = jc
        if k - 1 >= 2 and (k - 1) % 2 == 0:
            norm[:a] += 2.0 * jc[:a]
    norm += jc  # jc now holds the unnormalized J_0
    out = np.empty_like(captured)
    out[:, order] = captured / norm
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


def _bessel_ladder(M: int, xs: np.ndarray) -> np.ndarray:
    """J_0(xs) ... J_M(xs) as an (M+1, xs.size) array, for 0 <= M <= 160 and xs >= 0.

    Order m takes the ascending series for x <= max(9, 1.8 sqrt(m+1)), its row
    of one Miller sweep over the arguments of every order up to x = max(20, M), and
    from there on the asymptotic expansion (m <= 1) or the upward recurrence.
    """
    if not 0 <= M <= _BESSEL_MAX_ORDER:
        raise ValueError(f"Bessel order must be in [0, {_BESSEL_MAX_ORDER}]")
    if np.any(xs < 0.0):
        raise ValueError("Bessel argument must be >= 0")
    series_cuts = [max(9.0, 1.8 * math.sqrt(m + 1.0)) for m in range(M + 1)]
    out = np.empty((M + 1, xs.size))
    # From 20 on the expansion of J_0 and J_1 reads 6.0e-16 (3.2e-15 from 18), and from M on
    # the upward recurrence to M is stable.
    cut = max(20.0, M)
    middle = (xs > series_cuts[0]) & (xs < cut)
    if np.any(middle):
        # An argument is needed up to the highest order whose series range ends below it.
        x = xs[middle]
        out[:, middle] = _bessel_miller(np.searchsorted(series_cuts, x) - 1, x, M)
    far = xs >= cut
    x = xs[far]
    for m in range(M + 1):
        sel = xs <= series_cuts[m]
        if np.any(sel):
            out[m, sel] = _bessel_ascending(m, xs[sel])
        # J_m = (2(m-1)/x) J_(m-1) - J_(m-2) runs upward stably where x >= max(20, M) >= m.
        out[m, far] = (_bessel_asymptotic(m, x) if m < 2
                       else (2.0 * (m - 1) / x) * out[m - 1, far] - out[m - 2, far])
    return out


def bessel_j(m: int, x):
    """Bessel function of the first kind J_m(x) for integer 0 <= m <= 160, x >= 0.

    Row m of ``_bessel_ladder(m, x)``, accurate to about 1e-13 absolute;
    orders past 160 raise ``ValueError`` rather than overflow in the Miller
    recurrence.
    """
    m = _integer("bessel_j order m", m)
    xs, = _point_arrays(x, real="bessel_j x")
    _finite_points("bessel_j x", xs)
    return _scalar_or_array(_bessel_ladder(m, xs)[m], x)
