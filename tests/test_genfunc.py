"""Generating functions: closed forms vs defining series, coefficient extraction.

Every closed form is compared against its own truncated series, and the
series carries a tail bound that the measured difference must respect.
That double bookkeeping is the point: neither side is trusted alone.
"""

import math

import numpy as np
import pytest

from hydro2d.genfunc import (
    SeriesTruncation,
    coordinate_gf,
    coordinate_gf_series,
    gegenbauer_gf,
    gegenbauer_gf_series,
    laguerre_gf,
    laguerre_gf_series,
    new_legendre_gf,
    new_legendre_gf_series,
    series_coefficients,
    shifted_laguerre_gf,
    shifted_laguerre_gf_series,
)
from hydro2d.polys import gegenbauer
from hydro2d.position import PolarPoint


def test_truncation_record_validation():
    SeriesTruncation(10, 1e-12)
    with pytest.raises(ValueError):
        SeriesTruncation(0, 1e-12)
    with pytest.raises(ValueError):
        SeriesTruncation(10, -1.0)
    SeriesTruncation(10, 1e-12, 1e-12)
    with pytest.raises(ValueError):
        SeriesTruncation(10, 1e-12, 2e-12)  # rounding is a part of the bound


def test_truncation_splits_off_rounding():
    # At 60 terms and |z| = 0.5 the geometric part is 1.3e-17 against 1.3e-13
    # of rounding, and the series error sits below the rounding part.
    value, trunc = laguerre_gf_series(0.5, 2.0, 1.5, n_max=60)
    assert 0.0 < trunc.rounding <= trunc.tail_bound <= trunc.rounding * (1.0 + 1e-3)
    assert abs(value - laguerre_gf(0.5, 2.0, 1.5)) <= trunc.rounding


def test_laguerre_gf_hand_values():
    assert laguerre_gf(0.0, 2.0, 3.0) == 1.0  # only the k=0 term
    assert laguerre_gf(0.5, 0.0, 0.0) == 2.0  # 1/(1-z)


def test_laguerre_gf_series_converges():
    value, trunc = laguerre_gf_series(0.5, 2.0, 1.5, n_max=60)
    closed = laguerre_gf(0.5, 2.0, 1.5)
    assert abs(value - closed) <= 1e-10
    assert abs(value - closed) <= trunc.tail_bound
    assert trunc.n_max == 60


@pytest.mark.parametrize("series, closed", [
    (lambda: gegenbauer_gf_series(1e-5, 0.3, 1.5, 80), lambda: gegenbauer_gf(1e-5, 0.3, 1.5)),
    (lambda: laguerre_gf_series(1e-200, 0.0, 1.0, 80), lambda: laguerre_gf(1e-200, 0.0, 1.0)),
], ids=["gegenbauer", "laguerre"])
def test_series_at_tiny_z_where_z_to_the_k_underflows(series, closed):
    # |z|^k underflows to 0 well before k = 80; the tail estimate must not divide by it.
    value, trunc = series()
    assert abs(value - closed()) <= trunc.tail_bound


def test_shifted_laguerre_gf():
    assert shifted_laguerre_gf(0.0, 1, 2.0) == 0.0  # leading z^m factor
    assert shifted_laguerre_gf(0.4, 0, 1.0) == laguerre_gf(0.4, 0.0, 1.0)
    value, trunc = shifted_laguerre_gf_series(0.35, 2, 1.2)
    assert abs(value - shifted_laguerre_gf(0.35, 2, 1.2)) <= trunc.tail_bound
    with pytest.raises(ValueError):
        shifted_laguerre_gf(0.3, -1, 1.0)


def test_coordinate_gf_collapses_at_z_zero():
    pt = PolarPoint(1.7, 0.9)
    assert coordinate_gf(0.0, 0.0, 1.2, pt) == complex(math.exp(-1.2 * 1.7), 0.0)


def test_coordinate_gf_angle_independent_at_t_zero():
    # t = 0 keeps only the m = 0 ladder, so the angle must drop out.
    a = coordinate_gf(0.3 + 0.1j, 0.0, 0.8, PolarPoint(2.0, 0.0))
    b = coordinate_gf(0.3 + 0.1j, 0.0, 0.8, PolarPoint(2.0, 2.6))
    assert a == pytest.approx(b, rel=1e-15)


def test_coordinate_gf_series_converges():
    pt = PolarPoint(1.5, 0.7)
    value, trunc = coordinate_gf_series(0.3, 0.2, 1.0, pt)
    assert abs(value - coordinate_gf(0.3, 0.2, 1.0, pt)) <= trunc.tail_bound
    # complex z and t as well
    value, trunc = coordinate_gf_series(0.25 + 0.15j, 0.4 - 0.2j, 0.9, pt)
    assert abs(value - coordinate_gf(0.25 + 0.15j, 0.4 - 0.2j, 0.9, pt)) <= trunc.tail_bound


def test_gegenbauer_gf_hand_values():
    assert gegenbauer_gf(0.0, 0.7, 2.5) == 1.0
    assert gegenbauer_gf(0.5, 1.0, 1.5) == pytest.approx(8.0, rel=1e-14)  # (1-z)^-3 at z=1/2
    value, trunc = gegenbauer_gf_series(0.4, -0.6, 2.5)
    assert abs(value - gegenbauer_gf(0.4, -0.6, 2.5)) <= trunc.tail_bound


def test_new_legendre_gf_values():
    assert new_legendre_gf(0.0, 0.3, 0) == pytest.approx(1.0, rel=1e-15)
    # t -> 1 limit at m = 0, z = 1/2: (1 - z^2)/(1 - z)^3 = 6
    assert new_legendre_gf(0.5, 1.0 - 1e-12, 0) == pytest.approx(6.0, abs=1e-9)
    value, trunc = new_legendre_gf_series(0.45, 0.3, 2)
    assert abs(value - new_legendre_gf(0.45, 0.3, 2)) <= trunc.tail_bound
    with pytest.raises(ValueError):
        new_legendre_gf(0.5, 1.0, 0)
    with pytest.raises(ValueError):
        new_legendre_gf(0.5, 0.3, -2)


@pytest.mark.parametrize("bad_z", [1.0, -1.0, 0.8 + 0.7j])
def test_unit_disk_enforced(bad_z):
    with pytest.raises(ValueError):
        laguerre_gf(bad_z, 0.0, 1.0)
    with pytest.raises(ValueError):
        gegenbauer_gf(bad_z, 0.3, 1.5)
    with pytest.raises(ValueError):
        coordinate_gf(bad_z, 0.0, 1.0, PolarPoint(1.0, 0.0))
    with pytest.raises(ValueError):
        new_legendre_gf(bad_z, 0.3, 1)


@pytest.mark.parametrize("call, limit", [
    (lambda: laguerre_gf_series(0.5, 0.0, 5000.0, 300), "laguerre_gf_series n_max=300"),
    # (2m-1)!! of the ladder's seed is already past the largest double.
    (lambda: new_legendre_gf_series(0.5, 0.3, 160, 300), "new_legendre_gf_series m=160, n_max=300"),
], ids=["laguerre-recurrence", "new_legendre-seed"])
def test_series_overflow_raises_naming_the_limit(call, limit):
    # The series run their ladders under the same guard as the polys functions.
    with pytest.raises(ValueError, match=f"{limit} overflows float64"):
        call()


def test_cauchy_coefficients_of_exp():
    coeffs = series_coefficients(np.exp, (12,))
    want = np.array([1.0 / math.factorial(k) for k in range(12)])
    assert np.max(np.abs(coeffs - want)) <= 1e-12  # measured 2.9e-14


def test_cauchy_coefficients_recover_gegenbauer():
    coeffs = series_coefficients(lambda z: gegenbauer_gf(z, 0.3, 1.5), (11,))
    worst = max(abs(coeffs[k] - gegenbauer(k, 1.5, 0.3)) for k in range(11))
    assert worst <= 1e-12  # measured 1.8e-14


def test_cauchy_coefficients_2d():
    coeffs = series_coefficients(lambda z, t: np.exp(z) / (1.0 - t), (6, 6))
    want = np.array([[1.0 / math.factorial(n)] * 6 for n in range(6)])
    assert np.max(np.abs(coeffs - want)) <= 1e-12  # measured 2.0e-15


def test_cauchy_argument_validation():
    with pytest.raises(ValueError):
        series_coefficients(np.exp, (0,))
    with pytest.raises(ValueError):
        series_coefficients(np.exp, (200,), nodes=128)
    with pytest.raises(ValueError):
        series_coefficients(lambda z, t: 1.0, (70, 4), nodes=64)
