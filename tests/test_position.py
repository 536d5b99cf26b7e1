"""Position-space states: spectrum, normalization, nodes, ODE residual."""

import math
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from hydro2d import position
from hydro2d.position import (
    PolarPoint,
    _ode_residual,
    _overlaps,
    _psi_position,
    _radial,
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
    assert QuantumNumbers(np.int64(3), np.int32(-2)) == QuantumNumbers(3, -2)
    for n, m in ((2.5, 1), (2, 1.0), ("2", 1)):
        with pytest.raises(ValueError, match="must be an integer"):
            QuantumNumbers(n, m)


def test_polar_point_validation():
    PolarPoint(0.0, -7.0)
    with pytest.raises(ValueError):
        PolarPoint(-0.1, 0.0)


@pytest.mark.parametrize("rho, phi, field", [
    (math.inf, 0.0, "radial coordinate rho"),
    (np.array([1.0, math.nan]), 0.0, "radial coordinate rho"),
    (1.0, math.nan, "azimuth phi"),
    (1.0, np.array([0.0, -math.inf]), "azimuth phi"),
])
def test_polar_point_rejects_non_finite(rho, phi, field):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        PolarPoint(rho, phi)


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


def test_normalization_rejects_underflowing_factorial_ratio():
    assert QuantumNumbers(85, 85).factorial_ratio > 0.0  # 1/170!, still a normal double
    with pytest.raises(ValueError, match="smallest normal double"):
        normalization(QuantumNumbers(92, 92))


# pi to 60 digits, for the decimal references below
_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494")


def test_every_normalization_matches_a_decimal_reference():
    # N_{n,m} = sqrt(q0^3 (n-|m|)!/(pi (n+|m|)!)) in 50-digit decimal arithmetic, for every
    # |m| <= n <= 85, through the state-axis table and one state at a time.  At (85, +-85)
    # q0^3 ratio / pi is a subnormal double (2.2e-313): taken there, N would be 6.7e-12 off.
    n, m = (a.ravel() for a in np.tril_indices(86))
    table = position._norms(n, m)[1].tolist()
    worst = 0.0
    with localcontext() as ctx:
        ctx.prec = 50
        for k, a, got in zip(n.tolist(), m.tolist(), table):
            want = ((Decimal(2) / (2 * k + 1)) ** 3 * math.factorial(k - a)
                    / (math.factorial(k + a) * _PI)).sqrt()
            assert got == normalization(QuantumNumbers(k, -a)), (k, a)
            worst = max(worst, float(abs(Decimal(got) / want - 1)))
    assert worst <= 1e-15  # measured 3.1e-16


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


def test_norm_squared_at_the_largest_order():
    # The closed form's limit is n = |m| = 85; v^|m| is formed per state, so
    # nothing like x^(2|m|+1) overflows on the way.
    assert abs(norm_squared(QuantumNumbers(85, 85)) - 1.0) <= 1e-10  # measured 1.3e-11


def test_norm_squared_past_the_rule_degree_raises():
    # n + 1 Gauss-Laguerre nodes integrate degree 2 n + 1 exactly; past
    # n1 + n2 = 254 the rules reach nodes where the weights underflow.
    assert abs(norm_squared(QuantumNumbers(127, 0)) - 1.0) <= 1e-12  # measured 1.8e-15
    with pytest.raises(ValueError, match="n1 \\+ n2 <= 254"):
        norm_squared(QuantumNumbers(128, 0))


def test_overlap_orthogonality():
    # same m, different n
    assert abs(overlap(QuantumNumbers(2, 1), QuantumNumbers(4, 1))) <= 1e-13
    # same n, different m: the angular mean vanishes identically
    assert overlap(QuantumNumbers(3, 1), QuantumNumbers(3, 2)) == 0.0
    # self-overlap is the norm
    assert overlap(QuantumNumbers(3, 1), QuantumNumbers(3, 1)).real == pytest.approx(1.0, abs=1e-12)


def test_psi_position_is_zero_where_v_to_the_m_overflows():
    # v^|m| = inf at rho = 1e200 while e^(-v/2) = 0: the limit 0, not inf * 0 = nan.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert psi_position(QuantumNumbers(2, 2), PolarPoint(1e200, 0.0)) == 0
        both = psi_position(QuantumNumbers(2, 2), PolarPoint(np.array([1e200, 0.7]), 0.3))
    assert both[0] == 0 and both[1] == psi_position(QuantumNumbers(2, 2), PolarPoint(0.7, 0.3))
    with pytest.raises(ValueError, match="overflows float64"):  # n > |m|: the ladder's limit
        psi_position(QuantumNumbers(4, 2), PolarPoint(1e200, 0.0))


def _radial_reference(n, m, v):
    """N v^|m| e^(-v/2) L_{n-|m|}^(2|m|)(v) at the double v: the Laguerre sum exact in
    fractions, the rest in 50-digit decimal arithmetic."""
    a, k = abs(m), n - abs(m)
    x = Fraction(v)
    ladder = sum(Fraction((-1) ** j * math.comb(k + 2 * a, k - j), math.factorial(j)) * x ** j
                 for j in range(k + 1))
    with localcontext() as ctx:
        ctx.prec = 50
        norm = ((Decimal(2) / (2 * n + 1)) ** 3 * math.factorial(k)
                / (math.factorial(n + a) * _PI)).sqrt()
        return (norm * Decimal(v) ** a * (Decimal(v) / -2).exp()
                * (Decimal(ladder.numerator) / Decimal(ladder.denominator)))


@pytest.mark.parametrize("n, m", [(20, 0), (40, 5), (60, 0), (85, 3)])
def test_radial_is_accurate_out_to_v_1400(n, m):
    # Past the largest zero of the Laguerre factor (below 4n + 2) out to v = 1400, the
    # radial factor is within 1e-13 relative of the reference.  e^(-v/2) is formed on its
    # own, so beyond that it loses digits as the factor turns subnormal (v ~ 1417) and
    # reads 0 past v ~ 1490: (85, 3) is 1.1e-9 off at v = 1450 and 0.0 at v = 2000,
    # where the radial factor is 1.09e-287.
    v = np.linspace(4.0 * n + 4.0, 1400.0, 60)
    got = _radial(np.array([n]), np.array([m]), v[None])[0]
    worst = max(float(abs(Decimal(g) / _radial_reference(n, m, x) - 1))
                for g, x in zip(got.tolist(), v.tolist()))
    assert worst <= 1e-13  # measured 1.1e-15 ... 1.8e-15; out to 1450, up to 7.7e-8


def test_ode_residual_examples():
    assert abs(radial_ode_residual(QuantumNumbers(0, 0), 1.0)) <= 1e-12
    assert abs(radial_ode_residual(QuantumNumbers(3, 2), 0.5)) <= 1e-12
    assert abs(radial_ode_residual(QuantumNumbers(1, 0), 10.0)) <= 1e-12
    assert abs(radial_ode_residual(QuantumNumbers(2, 1), 1e-3)) <= 1e-12


def test_ode_residual_rejects_nonpositive_radius():
    for rho in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="rho > 0"):
            radial_ode_residual(QuantumNumbers(0, 0), rho)
    assert abs(radial_ode_residual(QuantumNumbers(0, 0), 1e-6)) <= 1e-3  # eps |R|/rho^2
    # Below 1e-150, rho^2 underflows and the residual would read inf - inf.
    with pytest.raises(ValueError, match="at least 1e-150"):
        radial_ode_residual(QuantumNumbers(3, 1), 1e-300)
    assert np.isfinite(radial_ode_residual(QuantumNumbers(85, 85), 1e-150))


def test_ode_residual_detects_wrong_energy(monkeypatch):
    # q0 off by 1e-6 in both the closed form and the equation.  The residual is
    # absolute, and R itself is below 1e-3 for n = |m| = 6 at these radii, so each
    # state's residual is measured against its largest |R| there (2.0e-7 at the
    # least, 2.0e-5 at the most; 2.6e-5 absolute at the most).
    rhos = np.array([0.1, 0.5, 1.0, 2.0, 5.0, 10.0])  # the radii of radial-ode-residual
    states = [QuantumNumbers(n, m) for n in range(7) for m in range(-n, n + 1)]
    scale = {qn: np.max(np.abs(radial_wavefunction(qn, rhos))) for qn in states}
    for qn in states:
        assert np.max(np.abs(radial_ode_residual(qn, rhos))) <= 1e-12
    true_q0 = position._q0
    monkeypatch.setattr(position, "_q0", lambda n: true_q0(n) * (1.0 + 1e-6))
    for qn in states:
        assert np.max(np.abs(radial_ode_residual(qn, rhos))) >= 1e-7 * scale[qn]


def test_batched_cores_equal_the_public_functions_bit_for_bit():
    # Every state with n <= 10 in one call of each core, and a few past it: a row must
    # not depend on the rows beside it, or the checks would judge values that table
    # never prints.  From n = 12 on numpy's array ** rounds q0^3 apart from Python's.
    states = [QuantumNumbers(n, m) for n in range(11) for m in range(-n, n + 1)]
    states += [QuantumNumbers(n, m) for n, m in ((12, 0), (12, -5), (12, 12), (40, 0),
                                                  (40, 17), (85, 3), (85, -85))]
    n, m = np.array([(qn.n, qn.m) for qn in states]).T
    q0 = np.array([qn.q0 for qn in states])[:, None]
    rho = np.concatenate([[0.0], np.geomspace(1e-3, 200.0, 40)])
    phi = np.array([0.0, 0.7, -2.9, 5.5])
    radial = _radial(n, m, 2.0 * q0 * rho)
    psi = _psi_position(n, m, rho[None, :, None], phi[None, None, :])
    residual = _ode_residual(n, m, rho[None, 1::4])
    for i, qn in enumerate(states):
        assert radial[i].tobytes() == radial_wavefunction(qn, rho).tobytes()
        assert psi[i].tobytes() == psi_position(qn, PolarPoint(rho[:, None], phi)).tobytes()
        assert residual[i].tobytes() == radial_ode_residual(qn, rho[1::4]).tobytes()
    # At rho = 1e200 v^|m| overflows for m != 0 and the rows take the limit 0; n = |m|
    # keeps the Laguerre degree 0, which cannot overflow.
    top = n == np.abs(m)
    assert not np.any(_radial(n[top], m[top], 2.0 * q0[top] * 1e200))
    # Pairs of rule sizes 1 ... 11 in one batch: each must be summed as on its own.
    pairs = np.array([(a.n, a.m, b.n, b.m) for a in states[::6] for b in states]).T
    batched = _overlaps(*pairs)
    for value, (n1, m1, n2, m2) in zip(batched, pairs.T.tolist()):
        assert value == overlap(QuantumNumbers(n1, m1), QuantumNumbers(n2, m2))
