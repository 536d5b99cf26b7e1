"""Momentum-space states: unitary normalization, spectral variable, two forms.

The transform convention is the unitary 1/(2 pi) one, which pins the ground
state at p = 0 to exactly 1/sqrt(2 pi).  Everything here cross-checks the
two closed forms against each other and against hand-derived special points;
the quadrature-based comparison with the Fourier oracle lives in
test_ftoracle and the verification suites.
"""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydro2d.momentum import (
    MomentumPoint,
    _fock,
    _psi_momentum,
    _psi_momentum_gegenbauer,
    psi_momentum,
    psi_momentum_gegenbauer,
    q_of_p,
)
from hydro2d.position import QuantumNumbers

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def test_momentum_point_validation():
    MomentumPoint(0.0, 3.0)
    with pytest.raises(ValueError):
        MomentumPoint(-0.1, 0.0)


@pytest.mark.parametrize("p, phi_p, field", [
    (math.inf, 0.0, "radial momentum p"),
    (math.nan, 0.0, "radial momentum p"),
    (1.0, math.inf, "momentum azimuth phi_p"),
    (1.0, math.nan, "momentum azimuth phi_p"),
])
def test_momentum_point_rejects_non_finite(p, phi_p, field):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        MomentumPoint(p, phi_p)


def test_q_of_p_special_points():
    assert q_of_p(0.0, 2.0) == -1.0
    assert q_of_p(2.0 / 3.0, 2.0 / 3.0) == 0.0
    assert q_of_p(1.2, 0.6) == pytest.approx(0.6, rel=1e-15)  # p = 2 q0 gives 3/5
    with pytest.raises(ValueError):
        q_of_p(-1.0, 2.0)
    with pytest.raises(ValueError):
        q_of_p(1.0, 0.0)


def test_q_of_p_range():
    for p in (0.0, 0.01, 1.0, 7.0, 300.0):
        q = q_of_p(p, 0.4)
        assert -1.0 <= q < 1.0
    # p^2 + q0^2 outside the normal doubles: finite, not 0/0 or inf/inf.
    assert q_of_p(0.0, 1e-200) == -1.0
    assert q_of_p(1e-170, 1e-170) == 0.0
    assert q_of_p(0.0, 1e200) == -1.0 and q_of_p(1e300, 1.0) == 1.0
    extremes = [0.0, 5e-324, 1e-170, 1.0, 1e170, 1.7e308]
    for q0 in extremes[1:]:
        qs = q_of_p(np.array(extremes), q0)
        assert np.all(np.abs(qs) <= 1.0) and qs[0] == -1.0


@settings(max_examples=200)
@given(p=st.lists(st.tuples(st.floats(0.0, 1e160), st.floats(0.0, 1e160)), min_size=1,
                  max_size=8),
       q0=st.tuples(st.floats(1e-160, 1e160), st.floats(1e-160, 1e160)), column=st.booleans())
def test_fock_is_the_plain_map_where_the_sum_is_normal(p, q0, column):
    # Wherever p^2 + q0^2 is a normal double, Fock's map is the three plain formulas bit for
    # bit, with q0 one scalar for all points or a column of one per row.
    p = np.array(p).T
    q0 = np.array(q0)[:, None] if column else q0[0]
    with np.errstate(all="ignore"):
        sum_sq = p * p + q0 * q0
        plain = np.broadcast_arrays((p * p - q0 * q0) / sum_sq, 2.0 * p * q0 / sum_sq,
                                    2.0 * q0 / sum_sq)
    normal = np.isfinite(sum_sq) & (sum_sq >= np.finfo(float).tiny)
    for got, want in zip(_fock(p, q0), plain):
        assert got.shape == p.shape and got[normal].tobytes() == want[normal].tobytes()


def test_fock_is_finite_at_the_extremes():
    # The extremes of test_q_of_p_range: p^2 + q0^2 underflows or overflows, and the map
    # scales p and q0 by a power of two instead of reading 0/0 or inf/inf.  Past p = 1.3e154
    # p*p overflows, the weight underflows to 0, and both momentum forms read their limit 0.
    extremes = np.array([0.0, 5e-324, 1e-170, 1.0, 1e170, 1.7e308])
    for q0 in [1e-170, 1.0 / 85.5, 1.0, 2.0, 1e170, 1.7e308]:
        q, sine, weight = _fock(extremes, q0)
        assert np.all(np.isfinite(q) & np.isfinite(sine) & np.isfinite(weight)), q0
        assert np.all(np.abs(q) <= 1.0) and q[0] == -1.0 and sine[0] == 0.0, q0
        assert np.all(weight >= 0.0) and np.all(weight[1:] <= weight[0]), q0
    for psi in (psi_momentum, psi_momentum_gegenbauer):
        for n, m in [(0, 0), (3, 1), (20, -3), (85, 85)]:
            values = psi(QuantumNumbers(n, m), MomentumPoint(extremes[-2:], 0.3))
            assert np.all(values == 0.0), (psi.__name__, n, m)


def test_ground_state_at_zero_momentum():
    # q0 = 2 makes (2 q0/(p^2+q0^2))^(3/2) = 1 and P_0(-1) = 1, so the value
    # is the bare unitary constant.
    val = psi_momentum(QuantumNumbers(0, 0), MomentumPoint(0.0, 0.0))
    assert val == complex(INV_SQRT_2PI, 0.0)
    assert val.real == pytest.approx(0.3989422804014327, abs=0.0)


def test_nodes_of_low_states():
    # P_1(q) = q vanishes at q = 0, i.e. p = q0.
    assert psi_momentum(QuantumNumbers(1, 0), MomentumPoint(2.0 / 3.0, 0.0)) == 0.0
    # P_1^1(q) vanishes at q = -1, i.e. p = 0 (and the p^|m| route agrees).
    assert psi_momentum(QuantumNumbers(1, 1), MomentumPoint(0.0, 0.0)) == 0.0
    assert psi_momentum_gegenbauer(QuantumNumbers(1, 1), MomentumPoint(0.0, 0.0)) == 0.0


def test_two_closed_forms_agree():
    worst = 0.0
    for n in range(9):
        for m in range(n + 1):
            for p in (0.05, 0.3, 1.0, 2.5):
                for phi in (0.0, 1.1):
                    a = psi_momentum(QuantumNumbers(n, m), MomentumPoint(p, phi))
                    b = psi_momentum_gegenbauer(QuantumNumbers(n, m), MomentumPoint(p, phi))
                    if abs(a) > 0.0:
                        worst = max(worst, abs(a - b) / abs(a))
    assert worst <= 1e-12  # measured 1.0e-13


def test_phase_factorization_is_exact():
    # psi(p, phi_p) = psi(p, 0) e^(i m phi_p) bit for bit, because that is
    # literally how the value is assembled.
    for n, m in ((2, 1), (3, -2), (5, 5)):
        qn = QuantumNumbers(n, m)
        base = psi_momentum(qn, MomentumPoint(0.8, 0.0))
        for phi in (0.7, -2.2):
            expect = base * complex(math.cos(m * phi), math.sin(m * phi))
            assert psi_momentum(qn, MomentumPoint(0.8, phi)) == expect


def test_negative_m_symmetries():
    qn_plus, qn_minus = QuantumNumbers(2, 1), QuantumNumbers(2, -1)
    mp = MomentumPoint(0.7, 1.3)
    # flipping m equals flipping the azimuth
    assert psi_momentum(qn_minus, mp) == psi_momentum(qn_plus, MomentumPoint(0.7, -1.3))
    # and equals (-1)^|m| times the conjugate at the same azimuth
    assert psi_momentum(qn_minus, mp) == -psi_momentum(qn_plus, mp).conjugate()
    # modulus never depends on the sign
    assert abs(psi_momentum(qn_minus, mp)) == abs(psi_momentum(qn_plus, mp))


def test_phase_is_minus_i_per_angular_unit():
    # At phi_p = 0 the m = 1 value must be purely imaginary with negative
    # imaginary part near p = 0.5 (the (-i)^|m| factor), not purely real.
    val = psi_momentum(QuantumNumbers(1, 1), MomentumPoint(0.5, 0.0))
    assert val.real == 0.0
    assert val.imag < 0.0
    # m = 2 picks up (-i)^2 = -1: purely real and negative at small p
    val2 = psi_momentum(QuantumNumbers(2, 2), MomentumPoint(0.5, 0.0))
    assert val2.imag == 0.0
    assert val2.real < 0.0


def test_large_p_envelope():
    # |psi| ~ (2 q0)^(3/2) / (2 pi)^(1/2) / p^3 for n = 0; check the decade scaling.
    a = abs(psi_momentum(QuantumNumbers(0, 0), MomentumPoint(100.0, 0.0)))
    b = abs(psi_momentum(QuantumNumbers(0, 0), MomentumPoint(1000.0, 0.0)))
    assert a / b == pytest.approx(1e3, rel=1e-2)


@pytest.mark.parametrize("n,m", [(30, 30), (20, 5), (10, 4)])
def test_two_forms_agree_at_large_momentum(n, m):
    # 1 - q^2 cancels toward p = 1e4; the Legendre form seeds P_n^|m| with
    # the exact sine 2 p q0 / (p^2 + q0^2), so it keeps full relative accuracy.
    qn = QuantumNumbers(n, m)
    mp = MomentumPoint(np.geomspace(1.0, 1e4, 25), 0.4)
    a, b = psi_momentum(qn, mp), psi_momentum_gegenbauer(qn, mp)
    assert np.max(np.abs(a - b) / np.abs(b)) <= 1e-12  # measured 5.6e-15 at (30, 30)


@pytest.mark.parametrize("psi", [psi_momentum, psi_momentum_gegenbauer])
@pytest.mark.parametrize("m", [1, -2])
def test_limit_zero_where_p_squared_overflows(psi, m):
    # p*p = inf at p = 1e160: both forms return their limit 0 instead of
    # inf/inf = nan, and leave the finite points of the same array alone.
    qn = QuantumNumbers(3, m)
    assert psi(qn, MomentumPoint(1e160, 0.3)) == 0.0
    both = psi(qn, MomentumPoint(np.array([1e160, 0.7]), 0.3))
    assert both[0] == 0.0 and both[1] == psi(qn, MomentumPoint(np.array([0.7]), 0.3))[0]
    assert q_of_p(1e160, qn.q0) == 1.0


def test_both_forms_finite_and_agree_out_to_p_1e160():
    # From |m| = 3 on, p^|m| overflows before p*p does (from p = 5.6e102 at |m| = 3); the
    # Gegenbauer form read inf/inf there, and now returns its limit 0 like the Legendre form.
    # Both read Fock's map, so they stay finite out to the largest double, past p*p's overflow.
    p = np.concatenate([[0.0], np.geomspace(1e-3, 1e160, 2000), np.geomspace(1e160, 1.7e308, 300)])
    for n in range(21):
        for m in range(-n, n + 1):
            qn, mp = QuantumNumbers(n, m), MomentumPoint(p, 0.7)
            a, b = psi_momentum(qn, mp), psi_momentum_gegenbauer(qn, mp)
            assert np.isfinite(a).all() and np.isfinite(b).all(), (n, m)
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(a)), (n, m)  # measured 4.7e-15
    assert psi_momentum_gegenbauer(QuantumNumbers(3, 3), MomentumPoint(1e150, 0.0)) == 0.0
    # From |m| = 83 on p^|m| and (p^2 + q0^2)^(|m|+3/2) each leave the doubles where their
    # ratio does not: the Gegenbauer form read 0/0 at p = 1e-3, and 0 at p = 1e3 where
    # the Legendre form is 9.3e-282 at (60, 60).  Pointwise now, 0 where both underflow.
    mp = MomentumPoint(np.array([1e-3, 1e3]), 0.7)
    for n, m in [(60, 60), (80, -80)] + [(n, s * am) for n in (83, 84, 85)
                                         for am in range(83, n + 1) for s in (1, -1)]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a, b = psi_momentum(QuantumNumbers(n, m), mp), psi_momentum_gegenbauer(
                QuantumNumbers(n, m), mp)
        assert np.all(np.abs(a - b) <= 1e-12 * np.abs(a)), (n, m)  # measured 3.7e-15


def test_gegenbauer_route_uses_signed_phase_too():
    qn = QuantumNumbers(3, -2)
    mp = MomentumPoint(1.1, 0.6)
    assert psi_momentum_gegenbauer(qn, mp) == pytest.approx(
        psi_momentum(qn, mp), rel=1e-12)
    assert cmath.isclose(
        psi_momentum_gegenbauer(qn, MomentumPoint(1.1, -0.6)),
        psi_momentum_gegenbauer(QuantumNumbers(3, 2), mp), rel_tol=1e-15)


@pytest.mark.parametrize("psi", [psi_momentum, psi_momentum_gegenbauer])
def test_underflowing_normalization_raises(psi):
    # (n-|m|)!/(n+|m|)! = 1/184! at (92, 92) is not a double; no silent 0j.
    with pytest.raises(ValueError, match="smallest normal double"):
        psi(QuantumNumbers(92, 92), MomentumPoint(1.0, 0.0))


@pytest.mark.parametrize("core, psi", [(_psi_momentum, psi_momentum),
                                       (_psi_momentum_gegenbauer, psi_momentum_gegenbauer)])
def test_batched_cores_equal_the_public_functions_bit_for_bit(core, psi):
    # Every state with n <= 10 in one call, and a few past it, on shared points and on
    # points of their own (the layout of momentum-parseval); p = 1e160 is overflow-masked.
    # From n = 12 on numpy's array ** rounds q0^3 apart from Python's.
    states = [QuantumNumbers(n, m) for n in range(11) for m in range(-n, n + 1)]
    states += [QuantumNumbers(n, m) for n, m in ((12, 0), (12, 7), (12, -12), (40, -20),
                                                  (40, 40), (85, 1), (85, -60))]
    n, m = np.array([(qn.n, qn.m) for qn in states]).T
    q0 = np.array([qn.q0 for qn in states])[:, None]
    p = np.concatenate([np.geomspace(0.05, 1e4, 30), [1e160]])
    phi = np.array([0.0, 0.9, -2.3, 4.4])
    shared = core(n, m, p[None, :, None], phi[None, None, :])
    own = core(n, m, q0 * p[None, :-1], 0.0)
    for i, qn in enumerate(states):
        assert shared[i].tobytes() == psi(qn, MomentumPoint(p[:, None], phi)).tobytes()
        assert own[i].tobytes() == psi(qn, MomentumPoint(qn.q0 * p[:-1], 0.0)).tobytes()
    assert not np.any(shared[:, -1])
