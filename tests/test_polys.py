"""Polynomial and Bessel kernels against scipy and against hand values.

scipy is the independent oracle here: the package evaluators are upward
recurrences written from scratch, scipy's come from Cephes/Boost, so
agreement means something.  Tolerances were chosen by measuring the worst
deviation on each grid and padding it by an order of magnitude.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import eval_gegenbauer, eval_genlaguerre, eval_legendre, jv, lpmv

from hydro2d import polys
from hydro2d.polys import (
    NEG_I_POW,
    _bessel_ladder,
    assoc_legendre,
    bessel_j,
    double_factorial,
    gegenbauer,
    laguerre,
    legendre,
    pochhammer,
)

# First positive zero of J_0, located independently by bisection in
# test_bessel_first_zero_by_bisection below.
J0_FIRST_ZERO = 2.404825557695773


def test_pochhammer_hand_values():
    assert pochhammer(7.3, 0) == 1.0
    assert pochhammer(1.5, 2) == 3.75  # 1.5 * 2.5
    assert pochhammer(2.0, 3) == 24.0  # 2 * 3 * 4
    with pytest.raises(ValueError):
        pochhammer(1.0, -1)


def test_pochhammer_overflow_raises_naming_the_limit():
    # Float evaluation: a product past the largest double raises instead of saturating.
    assert math.isfinite(pochhammer(2.0, 160))
    with pytest.raises(ValueError, match="pochhammer a=2.0, k=400 overflows float64"):
        pochhammer(2.0, 400)


def test_double_factorial_hand_values():
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(1) == 1
    assert double_factorial(5) == 15
    assert double_factorial(6) == 48
    assert isinstance(double_factorial(21), int)
    assert double_factorial(21) == 13749310575  # exact integer, no float rounding
    with pytest.raises(ValueError):
        double_factorial(-2)


def test_laguerre_hand_values():
    assert laguerre(0, 2.0, 5.0) == 1.0
    assert laguerre(1, 2.0, 1.0) == 2.0  # alpha + 1 - x
    assert laguerre(2, 0.0, 1.0) == pytest.approx(-0.5, abs=1e-15)
    with pytest.raises(ValueError):
        laguerre(-1, 0.0, 1.0)


def test_laguerre_against_scipy():
    x = np.linspace(0.0, 40.0, 41)
    worst = 0.0
    for n in range(26):
        for alpha in (0.0, 0.5, 2.0, 7.0):
            ref = eval_genlaguerre(n, alpha, x)
            err = np.max(np.abs(laguerre(n, alpha, x) - ref) / np.maximum(1.0, np.abs(ref)))
            worst = max(worst, err)
    assert worst <= 1e-11  # measured 1.1e-12


def test_gegenbauer_hand_values():
    assert gegenbauer(0, 1.5, 0.3) == 1.0
    assert gegenbauer(1, 1.5, 0.5) == 1.5  # 2 lambda q
    assert gegenbauer(2, 1.5, 0.5) == pytest.approx(0.375, abs=1e-15)
    assert gegenbauer(-1, 1.5, 0.5) == 0.0
    assert gegenbauer(-3, 0.5, -0.2) == 0.0


def test_gegenbauer_against_scipy():
    q = np.linspace(-1.0, 1.0, 41)
    worst = 0.0
    for k in range(26):
        for lam in (0.5, 1.5, 2.5, 4.0):
            ref = eval_gegenbauer(k, lam, q)
            err = np.max(np.abs(gegenbauer(k, lam, q) - ref) / np.maximum(1.0, np.abs(ref)))
            worst = max(worst, err)
    assert worst <= 1e-11  # measured 7.7e-13


def test_legendre_hand_values():
    assert legendre(0, 0.7) == 1.0
    assert legendre(2, 0.0) == -0.5
    assert legendre(3, 1.0) == 1.0
    with pytest.raises(ValueError):
        legendre(-2, 0.5)


def test_legendre_against_scipy():
    t = np.linspace(-1.0, 1.0, 41)
    worst = max(np.max(np.abs(legendre(n, t) - eval_legendre(n, t))) for n in range(31))
    assert worst <= 1e-13  # measured 3.3e-15


def test_assoc_legendre_hand_values():
    # No Condon-Shortley phase: P_1^1(0) = +1, P_2^2(0) = +3.
    assert assoc_legendre(1, 1, 0.0) == 1.0
    assert assoc_legendre(2, 2, 0.0) == 3.0
    assert assoc_legendre(5, 0, 0.4) == legendre(5, 0.4)


def test_assoc_legendre_against_scipy():
    # scipy.special.lpmv includes the Condon-Shortley factor, ours does not,
    # so the comparison carries an explicit (-1)^m.
    t = np.linspace(-1.0, 1.0, 41)
    worst = 0.0
    for n in range(13):
        for m in range(n + 1):
            ref = (-1.0) ** m * lpmv(m, n, t)
            err = np.max(np.abs(assoc_legendre(n, m, t) - ref) / np.maximum(1.0, np.abs(ref)))
            worst = max(worst, err)
    assert worst <= 1e-12  # measured 1.1e-13


def test_assoc_legendre_domain_errors():
    with pytest.raises(ValueError):
        assoc_legendre(1, 2, 0.0)
    with pytest.raises(ValueError):
        assoc_legendre(2, -1, 0.0)
    with pytest.raises(ValueError):
        assoc_legendre(2, 1, 1.5)


@pytest.mark.parametrize("call, limit", [
    (lambda: assoc_legendre(160, 150, 0.3), "assoc_legendre n=160, m=150"),
    (lambda: laguerre(300, 0.0, 5000.0), "laguerre k=300"),
    # (2m-1)!! of the seed is already past the largest double.
    (lambda: assoc_legendre(300, 200, 0.5), "assoc_legendre n=300, m=200"),
], ids=["assoc_legendre-recurrence", "laguerre-recurrence", "assoc_legendre-seed"])
def test_overflow_raises_naming_the_limit(call, limit):
    with pytest.raises(ValueError, match=f"{limit} overflows float64"):
        call()


def test_degree_matches_a_where_per_degree():
    # Items that widen (item 0 narrower than the rest) and turn complex, degrees below 0
    # and past an item that overflows where it is not taken: the in-place writes must
    # give what one np.where per degree gives.
    items = [np.arange(3.0), np.full((2, 3), 2.0), np.full((2, 3), np.inf),
             np.full((2, 3), 3.0 - 1j)]
    k = np.array([[[0], [3]], [[-1], [1]]])
    want = 0.0
    for j, item in enumerate(items):
        want = np.where(k == j, item, want)
    got = polys._degree(iter(items), k, "test ladder")
    assert got.shape == want.shape == (2, 2, 3) and got.dtype == want.dtype == complex
    assert np.array_equal(got, want)
    with pytest.raises(ValueError, match="test ladder overflows float64"):
        polys._degree(iter(items), 2, "test ladder")


def test_bessel_trivial_values():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(3, 0.0) == 0.0
    with pytest.raises(ValueError):
        bessel_j(-1, 1.0)
    with pytest.raises(ValueError):
        bessel_j(0, -0.5)


def test_bessel_against_scipy_core_range():
    # Contract range: absolute accuracy 1e-12 on [0, 60].
    x = np.linspace(0.0, 60.0, 601)
    worst = max(np.max(np.abs(bessel_j(m, x) - jv(m, x))) for m in range(13))
    assert worst <= 1e-12  # measured 3.8e-14


def test_bessel_against_scipy_large_arguments():
    # The oscillatory quadratures push J_m far beyond 60; past 160 the
    # expansion of J_0 and J_1 and the upward recurrence from them have to
    # stay accurate out there too.
    worst = 0.0
    for m in range(9):
        for x in (80.0, 120.0, 159.0, 161.0, 300.0, 1000.0, 5000.0):
            worst = max(worst, abs(bessel_j(m, x) - jv(m, x)))
    assert worst <= 1e-12  # measured 3.4e-15


def test_bessel_against_scipy_large_orders():
    # Below 160 every argument needs its own Miller seed order, or the small
    # ones overflow to NaN; past 160 the upward recurrence carries these
    # orders out to 20 m^2.
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in range(13, 25):
            x = np.linspace(0.0, 20.0 * m * m, 4001)
            worst = max(worst, float(np.max(np.abs(bessel_j(m, x) - jv(m, x)))))
    assert worst <= 1e-12  # measured 8.0e-15


def test_bessel_order_limit():
    # Order 160 is the last one the recurrence carries without overflow.
    x = np.linspace(0.0, 200.0, 2001)
    assert np.max(np.abs(bessel_j(160, x) - jv(160, x))) <= 1e-12  # measured 2.9e-15
    with pytest.raises(ValueError):
        bessel_j(161, 1.0)


def _ladder_error(top, x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = _bessel_ladder(top, x)
    return max(float(np.max(np.abs(rows[m] - jv(m, x)))) for m in range(top + 1))


def test_bessel_ladder_against_scipy_small_top():
    # Every row up to order 12 on the core range and far into the asymptotic one.
    x = np.concatenate([np.linspace(0.0, 60.0, 601), [80.0, 159.0, 161.0, 300.0, 1000.0, 5000.0]])
    assert _ladder_error(12, x) <= 1e-12  # measured 3.8e-14


def test_bessel_ladder_against_scipy_wide_miller_range():
    # Every row leaves the Miller sweep at 160; row 24 then comes from the
    # upward recurrence out to 20 * 24^2.
    assert _ladder_error(24, np.linspace(0.0, 20.0 * 24 * 24, 4001)) <= 1e-12  # measured 1.6e-14


def test_bessel_ladder_against_scipy_top_order():
    # One sweep seeded for order 160 must not overflow for the low rows near x = 9.
    assert _ladder_error(160, np.linspace(0.0, 200.0, 2001)) <= 1e-12  # measured 3.8e-14
    with pytest.raises(ValueError):
        _bessel_ladder(161, np.ones(1))


def test_bessel_ladder_against_scipy_far_field_top_order():
    # From 160 on, order 160 is 159 upward steps from J_0 and J_1; the recurrence
    # is stable there, and its worst error (row 159 near x = 1.2e4) stays small.
    assert _ladder_error(160, np.geomspace(160.0, 1e5, 5001)) <= 1e-12  # measured 9.9e-14


def test_bessel_far_field_expands_only_orders_0_and_1(monkeypatch):
    # One far-field path: every higher order comes from the upward recurrence,
    # so the expansion runs twice per ladder, whatever the top order.
    orders, asymptotic = [], polys._bessel_asymptotic

    def counted(m, x):
        orders.append(m)
        return asymptotic(m, x)
    monkeypatch.setattr(polys, "_bessel_asymptotic", counted)
    x = np.linspace(0.0, 1e4, 4001)
    rows = _bessel_ladder(40, x)
    assert orders == [0, 1]
    assert np.max(np.abs(rows - jv(np.arange(41)[:, None], x))) <= 1e-12  # measured 1.5e-14


def test_bessel_j_is_a_ladder_row():
    x = np.linspace(0.0, 400.0, 4001)
    rows = _bessel_ladder(40, x)
    worst = max(float(np.max(np.abs(bessel_j(m, x) - rows[m]))) for m in range(41))
    assert worst <= 1e-14  # measured 4.5e-16


def test_bessel_first_zero_by_bisection():
    # Locate the first zero of J_0 with our own evaluator and compare with
    # the classical value; then check the evaluator vanishes there.
    lo, hi = 2.0, 3.0
    assert bessel_j(0, lo) > 0.0 > bessel_j(0, hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if bessel_j(0, lo) * bessel_j(0, mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    assert 0.5 * (lo + hi) == pytest.approx(J0_FIRST_ZERO, abs=1e-14)
    assert abs(bessel_j(0, J0_FIRST_ZERO)) <= 1e-10


def test_neg_i_powers_table():
    for k in range(8):
        assert NEG_I_POW[k % 4] == (-1j) ** k


def test_determinism_bitwise():
    args = [(laguerre, (7, 2.0, 3.3)), (gegenbauer, (9, 2.5, -0.4)),
            (assoc_legendre, (6, 3, 0.21)), (bessel_j, (2, 47.0))]
    for fn, a in args:
        assert fn(*a) == fn(*a)


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

@settings(max_examples=80)
@given(st.integers(min_value=1, max_value=8),
       st.floats(min_value=0.5, max_value=50.0, allow_nan=False))
def test_bessel_three_term_recurrence(m, x):
    lhs = bessel_j(m - 1, x) + bessel_j(m + 1, x)
    rhs = 2.0 * m / x * bessel_j(m, x)
    assert lhs == pytest.approx(rhs, abs=5e-12)


@settings(max_examples=80)
@given(st.integers(min_value=1, max_value=15),
       st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
       st.sampled_from([0.0, 1.0, 2.0, 4.0]))
def test_laguerre_three_term_recurrence(k, x, alpha):
    lhs = (k + 1.0) * laguerre(k + 1, alpha, x)
    rhs = (2.0 * k + 1.0 + alpha - x) * laguerre(k, alpha, x) - (k + alpha) * laguerre(k - 1, alpha, x)
    scale = max(1.0, abs(lhs))
    assert abs(lhs - rhs) / scale <= 1e-13


@settings(max_examples=80)
@given(st.integers(min_value=0, max_value=15),
       st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
       st.sampled_from([0.5, 1.5, 2.5]))
def test_gegenbauer_parity(k, q, lam):
    left = gegenbauer(k, lam, -q)
    right = (-1.0) ** k * gegenbauer(k, lam, q)
    assert left == pytest.approx(right, abs=1e-12, rel=1e-12)


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=10))
def test_legendre_endpoint_values(n):
    assert legendre(n, 1.0) == pytest.approx(1.0, abs=1e-14)
    assert legendre(n, -1.0) == pytest.approx((-1.0) ** n, abs=1e-14)
