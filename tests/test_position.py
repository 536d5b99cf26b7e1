"""Position-space states: spectrum, normalization, nodes, ODE residual."""

import math

import pytest

from hydro2d.position import (
    PolarPoint,
    QuantumNumbers,
    make_bound_state,
    norm_squared,
    normalization,
    overlap,
    psi_position,
    radial_ode_residual,
    radial_wavefunction,
)

SQRT_8_OVER_PI = math.sqrt(8.0 / math.pi)  # N_00 at q0 = 2


def test_quantum_number_validation():
    QuantumNumbers(3, -3)
    with pytest.raises(ValueError):
        QuantumNumbers(2, 3)
    with pytest.raises(ValueError):
        QuantumNumbers(-1, 0)


def test_polar_point_validation():
    PolarPoint(0.0, -7.0)
    with pytest.raises(ValueError):
        PolarPoint(-0.1, 0.0)


def test_spectrum_ground_and_excited():
    st = make_bound_state(QuantumNumbers(0, 0))
    assert st.q0 == 2.0
    assert st.energy == -4.0
    st = make_bound_state(QuantumNumbers(1, -1))
    assert st.q0 == pytest.approx(2.0 / 3.0, rel=1e-16)
    assert st.energy == -0.4444444444444444
    st = make_bound_state(QuantumNumbers(2, 0))
    assert st.energy == pytest.approx(-4.0 / 25.0, rel=1e-15)


def test_normalization_values():
    assert normalization(QuantumNumbers(0, 0)) == pytest.approx(SQRT_8_OVER_PI, rel=1e-15)
    # N_11 = sqrt(q0^3 0!/(pi 2!)) = sqrt(4/(27 pi)) at q0 = 2/3
    assert normalization(QuantumNumbers(1, 1)) == pytest.approx(
        math.sqrt(4.0 / (27.0 * math.pi)), rel=1e-15)
    for n, m in ((3, 2), (5, 1), (7, 7)):
        assert normalization(QuantumNumbers(n, m)) == normalization(QuantumNumbers(n, -m))


def test_normalization_matches_fixed_scale_form():
    # The Sturmian normalization at a fixed scale q0,
    # sqrt(2 q0^2 (n-|m|)! / (pi (2n+1) (n+|m|)!)), collapses to N_{n,m} at
    # the physical q0 = 1/(n + 1/2).
    for n in range(21):
        q0 = 1.0 / (n + 0.5)
        for m in range(-n, n + 1):
            ratio = math.factorial(n - abs(m)) / math.factorial(n + abs(m))
            fixed_scale = math.sqrt(2.0 * q0 * q0 * ratio / (math.pi * (2 * n + 1)))
            assert normalization(QuantumNumbers(n, m)) == pytest.approx(fixed_scale, rel=1e-12)


def test_psi_at_origin():
    val = psi_position(QuantumNumbers(0, 0), PolarPoint(0.0, 2.1))
    assert val == complex(normalization(QuantumNumbers(0, 0)), 0.0)
    assert val.real == pytest.approx(SQRT_8_OVER_PI, rel=1e-15)
    # v^|m| kills every m != 0 state at the origin
    assert psi_position(QuantumNumbers(1, 1), PolarPoint(0.0, 0.0)) == 0.0


def test_radial_node_of_first_excited_state():
    # L_1^0(v) = 1 - v vanishes at v = 1, i.e. rho = 3/4 for q0 = 2/3.
    assert abs(radial_wavefunction(QuantumNumbers(1, 0), 0.75)) <= 1e-15
    # and the wavefunction does not vanish just off the node
    assert abs(radial_wavefunction(QuantumNumbers(1, 0), 0.8)) > 1e-3


def test_conjugation_is_exact():
    for n, m in ((1, 1), (2, 1), (5, 3), (6, 6)):
        for pt in (PolarPoint(0.4, 0.9), PolarPoint(2.7, -2.0)):
            a = psi_position(QuantumNumbers(n, -m), pt)
            b = psi_position(QuantumNumbers(n, m), pt).conjugate()
            assert a == b  # bitwise, by construction


def test_modulus_independent_of_angle():
    qn = QuantumNumbers(4, 2)
    base = abs(psi_position(qn, PolarPoint(1.5, 0.0)))
    for phi in (0.3, 1.7, 4.4):
        assert abs(psi_position(qn, PolarPoint(1.5, phi))) == pytest.approx(base, rel=1e-15)


def test_norm_squared_is_one():
    for n, m in ((0, 0), (1, 1), (4, 0), (6, 5), (10, 7)):
        assert norm_squared(QuantumNumbers(n, m)) == pytest.approx(1.0, abs=1e-12)


def test_overlap_orthogonality():
    # same m, different n
    assert abs(overlap(QuantumNumbers(2, 1), QuantumNumbers(4, 1))) <= 1e-13
    # same n, different m: the angular mean vanishes identically
    assert overlap(QuantumNumbers(3, 1), QuantumNumbers(3, 2)) == 0.0
    # self-overlap is the norm
    assert overlap(QuantumNumbers(3, 1), QuantumNumbers(3, 1)).real == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("nodes", [256, 1024])
def test_overlap_large_rules(nodes):
    # Rules this large reach s > 709, where e^s overflows and the radial
    # factors underflow; the overlap must carry only the polynomial parts.
    qn = QuantumNumbers(2, 1)
    assert abs(overlap(qn, qn, nodes=nodes) - 1.0) <= 1e-12  # measured 1.3e-15
    assert abs(overlap(qn, QuantumNumbers(4, 1), nodes=nodes)) <= 1e-12  # measured 1.6e-15


def test_ode_residual_examples():
    # The closed forms are exact solutions; the residual is limited only by
    # the finite-difference truncation of the second derivative.
    assert abs(radial_ode_residual(QuantumNumbers(0, 0), 1.0)) <= 1e-5
    assert abs(radial_ode_residual(QuantumNumbers(3, 2), 0.5)) <= 1e-4
    assert abs(radial_ode_residual(QuantumNumbers(1, 0), 10.0)) <= 1e-5


def test_ode_residual_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        radial_ode_residual(QuantumNumbers(0, 0), 0.0)


def test_ode_residual_detects_wrong_energy():
    # Sanity check that the residual is not trivially zero: a deliberately
    # detuned radial profile must leave a visible residual.  Evaluate the
    # n=0 profile against the operator while pretending it solves n=1.
    r0 = radial_wavefunction(QuantumNumbers(0, 0), 1.0)
    q0_wrong = 1.0 / (1 + 0.5)
    h = 1e-5
    rm = radial_wavefunction(QuantumNumbers(0, 0), 1.0 - h)
    rp = radial_wavefunction(QuantumNumbers(0, 0), 1.0 + h)
    d2 = (rp - 2.0 * r0 + rm) / (h * h)
    d1 = (rp - rm) / (2.0 * h)
    res = d2 + d1 + (2.0 - q0_wrong**2) * r0
    assert abs(res) > 1e-2
