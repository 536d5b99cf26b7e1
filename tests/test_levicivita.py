"""Quadratic-form determinant, Gaussian reduction, momentum generating function.

The one subtle constant behind this module is the measure factor of the
squaring map: its Jacobian is 4 u^2, but the map covers the plane twice, so
pulled-back integrals pick up a factor 2.  That constant is measured here by
two independent quadratures of the same integral rather than trusted.
"""

import cmath
import math

import numpy as np
import pytest
from scipy.special import roots_legendre

from hydro2d.levicivita import GenFuncParams, det_x, gen_func_momentum, quadratic_form_matrix
from hydro2d.momentum import MomentumPoint
from hydro2d.polys import bessel_j
from hydro2d.quadrature import gauss_rules


@pytest.mark.parametrize("k, a", [(0, 1.0), (1, 2.0)], ids=["exp-rho", "rho-exp-2rho"])
def test_measure_factor_by_independent_quadratures(k, a):
    # f = rho^k e^(-a rho).  Plane side: 2 pi int rho^(k+1) e^(-a rho) d rho by
    # Gauss-Laguerre in s = a rho.  Covering side: 2 pi int u^(2k+3) e^(-a u^2) du
    # truncated at u = 9 (tail < 1e-31) by scipy's Gauss-Legendre, a rule the
    # package does not use.  The ratio is the measure factor.
    (s, w), = gauss_rules("laguerre", [128])
    plane = 2.0 * math.pi * float(np.sum(w * s ** (k + 1))) / a ** (k + 2)
    x, gw = roots_legendre(160)
    u = 4.5 * (x + 1.0)
    cover = 2.0 * math.pi * float(np.sum(4.5 * gw * u ** (2 * k + 3) * np.exp(-a * u * u)))
    assert plane / cover == pytest.approx(2.0, abs=1e-8)


def test_params_validation():
    GenFuncParams(z=0.5j, t=2.0, q0=0.1)
    with pytest.raises(ValueError):
        GenFuncParams(z=1.0, t=0.0, q0=1.0)
    with pytest.raises(ValueError):
        GenFuncParams(z=0.0, t=0.0, q0=0.0)
    with pytest.raises(ValueError):
        GenFuncParams(z=0.0, t=0.0, q0=1.0, beta=-0.5)


def test_matrix_entries_at_origin_parameters():
    # z = t = beta = 0 gives A = q0, B = 0, so the matrix is
    # [[q0 + i px, i py], [i py, q0 - i px]].
    gp = GenFuncParams(z=0.0, t=0.0, q0=1.5)
    p = MomentumPoint(2.0, 0.0)  # px = 2, py = 0
    m = quadratic_form_matrix(gp, p)
    assert m.a11 == 1.5 + 2.0j
    assert m.a22 == 1.5 - 2.0j
    assert m.a12 == 0.0


def test_det_at_origin_parameters():
    gp = GenFuncParams(z=0.0, t=0.0, q0=1.5)
    p = MomentumPoint(2.0, 1.1)
    want = 1.5**2 + 2.0**2
    assert det_x(gp, p) == pytest.approx(want, rel=1e-15)
    assert quadratic_form_matrix(gp, p).det() == pytest.approx(want, rel=1e-14)


def test_det_closed_form_at_t_zero():
    # With t = 0 the determinant is {[(1+z) q0 + beta (1-z)]^2 + p^2 (1-z)^2}/(1-z)^2
    # for any complex z in the disk.
    z, q0, beta, p = 0.3 - 0.4j, 1.2, 0.8, 0.9
    gp = GenFuncParams(z=z, t=0.0, q0=q0, beta=beta)
    mp = MomentumPoint(p, 2.0)
    one = 1.0 - z
    want = (((1.0 + z) * q0 + beta * one) ** 2 + p * p * one * one) / (one * one)
    assert det_x(gp, mp) == pytest.approx(want, rel=1e-14)
    assert quadratic_form_matrix(gp, mp).det() == pytest.approx(want, rel=1e-13)


def test_gen_func_values_by_hand():
    gp = GenFuncParams(z=0.25 + 0.1j, t=0.3, q0=1.1, beta=0.7)
    mp = MomentumPoint(0.9, 1.2)
    one = 1.0 - gp.z
    head = (1.0 + gp.z) * gp.q0 + gp.beta * one
    s = head * head + 0.81 * one * one + 4j * gp.t * gp.z * gp.q0 * 0.9 * cmath.exp(1.2j)
    vals = gen_func_momentum(gp, mp)
    assert vals.g_beta == pytest.approx(1.0 / cmath.sqrt(s), rel=1e-15)


def test_g_is_negated_beta_derivative():
    gp0 = GenFuncParams(z=0.3 + 0.2j, t=0.4, q0=1.1, beta=0.0)
    mp = MomentumPoint(0.9, 0.7)
    h = 5e-7
    at0 = gen_func_momentum(gp0, mp).g_beta
    at2h = gen_func_momentum(GenFuncParams(z=gp0.z, t=gp0.t, q0=gp0.q0, beta=2 * h), mp).g_beta
    fd = (at0 - at2h) / (2.0 * h)
    g = gen_func_momentum(gp0, mp).g
    assert abs(fd - g) / abs(g) <= 1e-5  # measured 5.8e-7, O(h^2) truncation


def test_branch_cut_rejected():
    # These parameters land S exactly on the negative real axis (-1.75);
    # the square root must refuse rather than pick a side silently.
    gp = GenFuncParams(z=0.5, t=1j, q0=1.0)
    mp = MomentumPoint(4.0, 0.0)
    assert det_x(gp, mp) * (1.0 - 0.5) ** 2 == pytest.approx(-1.75, rel=1e-14)
    with pytest.raises(ValueError):
        gen_func_momentum(gp, mp)


def test_constant_anchor_against_bessel_quadrature():
    # The (z^0 t^0) coefficient of g is the unitary transform of e^(-q0 rho),
    # computed here from scratch as int_0^inf e^(-q0 rho) J_0(p rho) rho d rho
    # and matched against both the closed form and g at z = t = 0.
    for q0, p in ((1.3, 0.8), (2.0, 0.3), (0.7, 1.1)):
        (s, w), = gauss_rules("laguerre", [512])
        by_quadrature = float(np.sum(w * s * bessel_j(0, (p / q0) * s))) / (q0 * q0)
        g = gen_func_momentum(GenFuncParams(z=0.0, t=0.0, q0=q0), MomentumPoint(p, 0.0)).g
        assert by_quadrature == pytest.approx(q0 / (p * p + q0 * q0) ** 1.5, abs=1e-13)
        assert complex(g) == pytest.approx(complex(by_quadrature), abs=1e-13)
