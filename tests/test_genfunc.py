"""Generating functions: closed-form hand values and domains, coefficient extraction.

The closed forms are checked against their defining series in the
``genfunc`` verification suite, which compares their Taylor coefficients
from ``series_coefficients`` with the polynomial ladders; here they get
hand values, limits and argument validation, and the extractor gets
functions with known coefficients.
"""

import math

import numpy as np
import pytest

import hydro2d
from hydro2d import genfunc, quadrature
from hydro2d.genfunc import (
    coordinate_gf,
    gegenbauer_gf,
    laguerre_gf,
    new_legendre_gf,
    shifted_laguerre_gf,
)
from hydro2d.polys import gegenbauer
from hydro2d.position import PolarPoint
from hydro2d.quadrature import series_coefficients


def test_laguerre_gf_hand_values():
    assert laguerre_gf(0.0, 2.0, 3.0) == 1.0  # only the k=0 term
    assert laguerre_gf(0.5, 0.0, 0.0) == 2.0  # 1/(1-z)


def test_shifted_laguerre_gf():
    assert shifted_laguerre_gf(0.0, 1, 2.0) == 0.0  # leading z^m factor
    assert shifted_laguerre_gf(0.4, 0, 1.0) == laguerre_gf(0.4, 0.0, 1.0)
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


def test_gegenbauer_gf_hand_values():
    assert gegenbauer_gf(0.0, 0.7, 2.5) == 1.0
    assert gegenbauer_gf(0.5, 1.0, 1.5) == pytest.approx(8.0, rel=1e-14)  # (1-z)^-3 at z=1/2


def test_new_legendre_gf_values():
    assert new_legendre_gf(0.0, 0.3, 0) == pytest.approx(1.0, rel=1e-15)
    # t -> 1 limit at m = 0, z = 1/2: (1 - z^2)/(1 - z)^3 = 6
    assert new_legendre_gf(0.5, 1.0 - 1e-12, 0) == pytest.approx(6.0, abs=1e-9)
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


def test_coordinate_gf_rejects_a_zero_scale():
    with pytest.raises(ValueError, match="scale q0 must be > 0"):
        coordinate_gf(0.1, 0.1, 0.0, PolarPoint(1.0, 0.0))


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
    # The coefficients divide by radius^k: a zero or non-finite radius has none.
    for radius in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="radius"):
            series_coefficients(np.exp, (4,), radius=radius)


def test_cauchy_node_and_count_values_are_integers():
    # nodes=8.5 read c0 = 1.097 - 0.009i for exp; a float count died in slicing.
    with pytest.raises(ValueError, match="^series_coefficients nodes must be an integer"):
        series_coefficients(np.exp, (3,), nodes=8.5)
    with pytest.raises(ValueError, match="^series_coefficients count must be an integer"):
        series_coefficients(np.exp, (3.0,))
    np.testing.assert_array_equal(series_coefficients(np.exp, (np.int64(3),), nodes=np.int32(8)),
                                  series_coefficients(np.exp, (3,), nodes=8))


def test_series_coefficients_lives_in_quadrature():
    # One home and one route to it: the package takes it from quadrature, and
    # genfunc neither re-exports nor imports it.
    assert hydro2d.series_coefficients is series_coefficients is quadrature.series_coefficients
    assert not hasattr(genfunc, "series_coefficients")
