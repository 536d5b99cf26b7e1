"""Fourier-transform oracle: hand-checkable points and structural independence.

The oracle exists to referee the closed-form momentum wavefunctions, so its
own tests avoid those closed forms wherever a value can be pinned down
independently (p = 0 radial integrals, symmetry relations, decay envelopes).
Where a test does compare with the closed form, the comparison happens
here, never inside the oracle module.
"""

import ast
import inspect
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_genlaguerre, gammaln

import hydro2d.ftoracle
import hydro2d.verify
from hydro2d.ftoracle import (_MIN_PANELS, _TAIL_TOL, PANEL_ORDER, _hankel_rows,
                              _levi_civita_rows, _rho_max, ft_hankel)
from hydro2d.momentum import MomentumPoint, _psi_momentum, psi_momentum
from hydro2d.polys import _turns
from hydro2d.position import QuantumNumbers
from hydro2d.reporting import VerificationReport
from hydro2d.verify import SUITES, _states, acceptance_grid, check_oracle_agreement, run_suite

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _level_rows(rows, n, mp, **kwargs):
    """The core ``rows`` for m = -n ... n of level n at the 1-d momenta of ``mp``."""
    return rows(np.full(2 * n + 1, n), np.arange(-n, n + 1), mp.p[None], mp.phi_p[None], **kwargs)


def _levi_civita(qn, mp):
    """The Levi-Civita route's one row for the state qn at the momenta of ``mp``."""
    return _levi_civita_rows(np.array([qn.n]), np.array([qn.m]),
                             np.atleast_1d(mp.p)[None], np.atleast_1d(mp.phi_p)[None])[0]


def test_ground_state_at_zero_momentum():
    # Radial integral in closed form: N_00 int e^(-2 rho) rho d rho = N_00/4,
    # and N_00/4 = sqrt(8/pi)/4 = 1/sqrt(2 pi).
    val = ft_hankel(QuantumNumbers(0, 0), MomentumPoint(0.0, 0.0))
    assert val.imag == 0.0
    assert abs(val.real - INV_SQRT_2PI) <= 1e-8  # measured 1.4e-15


def test_m_nonzero_vanishes_at_zero_momentum():
    # J_1(0) = 0 annihilates the radial integrand.
    assert abs(ft_hankel(QuantumNumbers(1, 1), MomentumPoint(0.0, 0.0))) <= 1e-10


def test_hankel_matches_closed_form_at_recorded_point():
    qn, mp = QuantumNumbers(2, 1), MomentumPoint(1.0, 0.5)
    err = abs(ft_hankel(qn, mp) - psi_momentum(qn, mp))
    assert err <= 1e-6  # measured 1.1e-16


def test_two_oracles_agree():
    qn, mp = QuantumNumbers(0, 0), MomentumPoint(0.5, 0.0)
    assert abs(_levi_civita(qn, mp)[0] - ft_hankel(qn, mp)) <= 1e-7  # measured 6.7e-16


def test_hankel_symmetry_under_m_flip():
    # Same assembly as the closed form: flipping m equals flipping phi_p.
    a = ft_hankel(QuantumNumbers(1, -1), MomentumPoint(0.5, 1.0))
    b = ft_hankel(QuantumNumbers(1, 1), MomentumPoint(0.5, -1.0))
    assert a == b


def test_direct_symmetry_under_m_flip():
    # The Levi-Civita route is the direct 2-d transform: flipping m flips phi_p
    # and conjugates, from the rotated nodes alone.
    a = _levi_civita(QuantumNumbers(1, -1), MomentumPoint(0.5, 1.0))[0]
    b = _levi_civita(QuantumNumbers(1, 1), MomentumPoint(0.5, -1.0))[0]
    c = _levi_civita(QuantumNumbers(1, 1), MomentumPoint(0.5, 1.0))[0]
    assert abs(a - b) <= 1e-12  # measured 5.6e-17
    assert abs(a + c.conjugate()) <= 1e-12  # psi(n,-m) = (-1)^|m| conj(psi(n,m)); 5.6e-17


def test_direct_large_momentum_tail():
    # Far tail must both be tiny (p^-3 envelope) and still match the closed
    # form; the contours w = s/sqrt(a) carry the oscillation, not a panel rule.
    qn, mp = QuantumNumbers(1, 0), MomentumPoint(50.0, 0.0)
    val = _levi_civita(qn, mp)[0]
    assert 0.0 < abs(val) <= 1e-4  # measured 4.9e-6
    assert abs(val - psi_momentum(qn, mp)) <= 1e-8  # measured 3.6e-20


def test_direct_rows_at_large_momentum():
    # p = 20 at n = 4: signs and phases of every m come out of the rotated
    # nodes, not a table.
    rows = _level_rows(_levi_civita_rows, 4, MomentumPoint(np.array([20.0]), np.array([1.3])))[:, 0]
    worst = max(abs(rows[m + 4] - psi_momentum(QuantumNumbers(4, m), MomentumPoint(20.0, 1.3)))
                for m in range(-4, 5))
    assert worst <= 1e-12  # measured 6.9e-20


_WIDE_P = np.concatenate([acceptance_grid().p, [50.0, 1e3]])
_WIDE_PHI = np.concatenate([acceptance_grid().phi_p, [0.3, -1.1]])


def test_levi_civita_rows_match_closed_form_and_hankel():
    # n <= 6 on the acceptance grid and at p = 50 and 1e3: the route is exact
    # up to rounding, absolutely and relative to the closed form.  The Hankel
    # route is compared up to p = 50; at 1e3 its levels exceed the node budget.
    n, m = _states(6, signed=True)
    rows = _levi_civita_rows(n, m, _WIDE_P[None], _WIDE_PHI[None])
    want = _psi_momentum(n, m, _WIDE_P[None], _WIDE_PHI[None])
    err = np.abs(rows - want)
    assert err.max() <= 1e-13  # measured 1.8e-14
    assert np.max(err / np.abs(want), where=np.abs(want) > 1e-8, initial=0.0) <= 1e-11  # 8.4e-13
    hankel = _hankel_rows(n, m, _WIDE_P[None, :-1], _WIDE_PHI[None, :-1])
    assert np.max(np.abs(rows[:, :-1] - hankel)) <= 1e-13  # measured 3.0e-14


def test_node_count_invariance():
    # n + 2 Gauss-Hermite nodes per axis are exact, so twice as many change
    # rounding only, up to n = 10.
    n, m = _states(10, signed=True)
    mp = acceptance_grid()
    exact = _levi_civita_rows(n, m, mp.p[None], mp.phi_p[None])
    doubled = _levi_civita_rows(n, m, mp.p[None], mp.phi_p[None], refine=2)
    assert np.max(np.abs(exact - doubled)) <= 1e-12  # measured 1.0e-13


@pytest.mark.parametrize("n", range(5))
def test_node_doubling_refines_where_the_floor_binds(n):
    # oracle-node-doubling compares the n + 2 node floor with a second rule of
    # 2 (n + 2) nodes: the two sums differ at 19 or more of the 20 acceptance
    # momenta of every level, so the check never compares a sum with itself,
    # and by rounding only.
    grid = acceptance_grid()
    lo = _level_rows(_levi_civita_rows, n, grid)
    hi = _level_rows(_levi_civita_rows, n, grid, refine=2)
    assert np.sum(np.any(lo != hi, axis=0)) >= 19  # measured 19, 20, 20, 20, 20 at n = 0 ... 4
    assert np.max(np.abs(lo - hi)) <= 1e-13  # measured 3.3e-16 ... 8.5e-15


def test_one_node_short_is_off(monkeypatch):
    # n + 1 nodes per axis integrate only to degree 2n + 1 < 2n + 2: the
    # exactness is sharp, so the node-doubling check can fail.
    n, m = _states(4, signed=True)
    mp = acceptance_grid()
    exact = _levi_civita_rows(n, m, mp.p[None], mp.phi_p[None])
    rules = hydro2d.ftoracle.gauss_rules
    monkeypatch.setattr(hydro2d.ftoracle, "gauss_rules",
                        lambda family, sizes: rules(family, [count - 1 for count in sizes]))
    short = _levi_civita_rows(n, m, mp.p[None], mp.phi_p[None])
    for level in range(5):
        assert np.max(np.abs(short - exact)[n == level]) > 1e-3  # measured 0.40 ... 4.1


@pytest.mark.parametrize("levels", [0, 1, 3, 6])
def test_levi_civita_rows_ask_for_their_rules_once(monkeypatch, levels):
    # One gauss_rules call per _levi_civita_rows call, at any number of levels
    # and either refinement: the blocks reuse its rules, with no second lookup.
    calls = []
    rules = hydro2d.ftoracle.gauss_rules
    monkeypatch.setattr(hydro2d.ftoracle, "gauss_rules",
                        lambda family, sizes: calls.append((family, sorted(sizes)))
                        or rules(family, sizes))
    monkeypatch.setattr(hydro2d.ftoracle, "_TERM_BLOCK", 1)  # one block per momentum
    n, m = _states(levels - 1, signed=True) if levels else (np.zeros(0, dtype=int),) * 2
    mp = acceptance_grid()
    for refine in (1, 2):
        calls.clear()
        _levi_civita_rows(n, m, mp.p[None], mp.phi_p[None], refine=refine)
        assert calls == [("hermite", [refine * (k + 2) for k in range(levels)])]


def test_levi_civita_phase_comes_from_the_nodes():
    # The azimuth enters through the rotated nodes, not a factored e^(i m phi_p):
    # the rows at phi_p are those at 0 times _turns(m, phi_p) to rounding, and
    # not bit for bit, so oracle-phase-correctness judges the oracle's numerics.
    n, m = _states(6, signed=True)
    p = np.array([[0.5, 2.0]])
    at_zero = _levi_civita_rows(n, m, p, np.zeros_like(p))
    for angle in (0.9, -2.4):
        rows = _levi_civita_rows(n, m, p, np.full_like(p, angle))
        turned = at_zero * _turns(m[:, None], angle)
        assert np.max(np.abs(rows - turned)) <= 1e-13  # measured 4.0e-16
        assert np.any(rows != turned)


def test_levi_civita_range_guard():
    # Past n = 30 the sum cancels (7.7e-12 of the peak at n = 30, 7.9e-11 at
    # 40): a ValueError names the limit, also through run_suite.
    mp = acceptance_grid()
    _levi_civita_rows(np.array([30]), np.array([-3]), mp.p[None, :1], mp.phi_p[None, :1])
    with pytest.raises(ValueError, match="n <= 30, got n = 31"):
        _levi_civita_rows(np.array([2, 31]), np.array([0, 1]), mp.p[None], mp.phi_p[None])
    with pytest.raises(ValueError, match="n <= 30"):
        run_suite("ft", n_max=31)


@pytest.mark.parametrize("n, m, p", [(13, 13, 2.0), (15, 14, 1.0), (20, 16, 3.0)])
def test_hankel_large_order(n, m, p):
    # Past p rho = 160 the high orders come from the upward recurrence, which
    # starts there close to its top order; the oracle must stay finite and
    # agree with the closed form there too.
    qn, mp = QuantumNumbers(n, m), MomentumPoint(p, 0.0)
    val = ft_hankel(qn, mp)
    assert np.isfinite(val.real) and np.isfinite(val.imag)
    assert abs(val - psi_momentum(qn, mp)) <= 1e-12  # measured 1.2e-14


@pytest.mark.parametrize("oracle", [ft_hankel])
@pytest.mark.parametrize("n, m, p", [(85, 85, 0.01), (85, 0, 0.0), (85, 0, 0.01),
                                     (40, 0, 0.0), (40, 0, 0.01)])
def test_largest_order_matches_closed_form(oracle, n, m, p):
    # n = |m| = 85 is the closed form's own limit (measured 6.7e-12).  At
    # m = 0 the n zeros of R_{n,0} crowd toward the origin, which only the
    # width cap _MAX_PANEL_WIDTH resolves (measured <= 1.1e-14; 9e-3 at
    # (85, 0), p = 0 with 32 panels of 512 nodes and no cap).
    qn, mp = QuantumNumbers(n, m), MomentumPoint(p, 0.3)
    want = psi_momentum(qn, mp)
    assert abs(oracle(qn, mp) - want) <= 1e-10 * abs(want)


@pytest.mark.parametrize("oracle", [ft_hankel])
def test_past_largest_order_raises_like_closed_form(oracle):
    qn, mp = QuantumNumbers(95, 95), MomentumPoint(0.01, 0.0)
    with pytest.raises(ValueError, match="smallest normal double"):
        psi_momentum(qn, mp)
    with pytest.raises(ValueError, match="smallest normal double"):
        oracle(qn, mp)


def _bessel_arguments(monkeypatch):
    """The sizes of the arguments the Hankel route passes to its Bessel ladder, call by call."""
    passed, ladder = [], hydro2d.ftoracle._bessel_ladder
    monkeypatch.setattr(hydro2d.ftoracle, "_bessel_ladder",
                        lambda m, xs: passed.append(xs.size) or ladder(m, xs))
    return passed


@pytest.mark.parametrize("n", [0, 4])
def test_radial_rule_counts(n, monkeypatch):
    # At small p and n <= 12 the rule has exactly 512 points; at p = 20 the
    # panel width pi/p sets the count alone (as _MAX_PANEL_WIDTH does at small
    # p from n = 13 on): 1,824 points at n = 0 and 26,800 at n = 4.
    passed = _bessel_arguments(monkeypatch)
    for p in (0.05, 20.0):
        ft_hankel(QuantumNumbers(n, 0), MomentumPoint(p, 0.0))
    assert PANEL_ORDER * _MIN_PANELS == 512
    assert passed == [512, {0: 1824, 4: 26800}[n]]


def _radial_tail(n, am, rho_max):
    """Integral from rho_max to inf of |R_{n,m}(rho)| rho d rho, R from scipy's Laguerre."""
    q0 = 1.0 / (n + 0.5)
    log_norm = 0.5 * (3.0 * math.log(q0) + gammaln(n - am + 1) - gammaln(n + am + 1)
                      - math.log(math.pi))

    def integrand(rho):
        v = 2.0 * q0 * rho
        return abs(math.exp(log_norm + am * math.log(v) - 0.5 * v)
                   * eval_genlaguerre(n - am, 2 * am, v)) * rho
    return quad(integrand, rho_max, math.inf, epsabs=0.0, epsrel=1e-8, limit=200)[0]


@pytest.mark.parametrize("n", [0, 1, 3, 10, 40, 85])
def test_radial_range_discards_a_tail_below_its_tolerance(n):
    # The Hankel route integrates on [0, _rho_max(n)]: what lies past it of every state's
    # |R| rho is below _TAIL_TOL.  The range is sized far past that: the tail reads
    # 5.4e-15 at n = 0, 1.4e-16 at n = 3 and 6.9e-150 at n = 85.
    rho_max = _rho_max(n)
    for am in sorted({0, n // 2, n}):
        assert _radial_tail(n, am, rho_max) <= _TAIL_TOL, am


@pytest.mark.parametrize("oracle", [ft_hankel])
def test_array_call_matches_stacked_scalar_calls(oracle):
    # Like psi_momentum: an array point gives the row over its broadcast
    # shape (tests/test_array_contract.py).
    qn = QuantumNumbers(2, -1)
    ps, angles = np.array([[0.1, 0.5, 2.0], [0.0, 0.7, 1.3]]), np.array([0.4, -1.1, 2.5])
    values = oracle(qn, MomentumPoint(ps, angles))
    assert isinstance(values, np.ndarray) and values.shape == (2, 3)
    stacked = np.empty((2, 3), dtype=complex)
    for (i, j), p in np.ndenumerate(ps):
        scalar = oracle(qn, MomentumPoint(float(p), float(angles[j])))
        assert type(scalar) is complex
        stacked[i, j] = scalar
    np.testing.assert_allclose(values, stacked, rtol=1e-15, atol=0.0)
    # No momenta give an empty row, as psi_momentum does.
    for shape in [(0,), (2, 0)]:
        empty = oracle(qn, MomentumPoint(np.zeros(shape), np.zeros(shape)))
        assert empty.shape == shape and empty.dtype == complex


_BATCH_P = (0.0, 0.05, 0.7, 3.0, 20.0)
_BATCH_PHI = (0.0, 0.9, 2.2, -1.4, 1.3)


@pytest.mark.parametrize("n", range(5))
def test_batched_rows_equal_point_calls(n):
    # The checks read every (m, p) of a level from one batched call; the
    # one-point calls must give the same values on both routes.
    mp = MomentumPoint(np.array(_BATCH_P), np.array(_BATCH_PHI))
    hankel, levi_civita = (_level_rows(rows, n, mp) for rows in (_hankel_rows, _levi_civita_rows))
    worst_h = worst_lc = 0.0
    for m in range(-n, n + 1):
        qn = QuantumNumbers(n, m)
        for j, point in enumerate(zip(_BATCH_P, _BATCH_PHI)):
            one = MomentumPoint(*point)
            worst_h = max(worst_h, abs(hankel[m + n, j] - ft_hankel(qn, one)))
            worst_lc = max(worst_lc, abs(levi_civita[m + n, j] - _levi_civita(qn, one)[0]))
    assert worst_h <= 1e-15  # measured 1.4e-16: one Bessel sweep seeded at |m|, one at n
    assert worst_lc <= 1e-15  # measured 0


def test_hankel_rows_skipping_orders_equal_the_full_level(monkeypatch):
    # A level-6 batch whose |m| skips orders takes radial rows for its distinct
    # |m| alone, and each of its rows is that of the full level; only the
    # Bessel ladder's seed differs, J_0 ... J_4 against J_0 ... J_6.
    received, radial = [], hydro2d.ftoracle._radial
    monkeypatch.setattr(hydro2d.ftoracle, "_radial",
                        lambda *args: received.append(args[1].tolist()) or radial(*args))
    mp = MomentumPoint(np.array(_BATCH_P), np.array(_BATCH_PHI))
    m = np.array([-4, 4, 1])
    rows = _hankel_rows(np.full(3, 6), m, mp.p[None], mp.phi_p[None])
    assert received == [[1, 4]]
    full = _level_rows(_hankel_rows, 6, mp)
    assert np.max(np.abs(rows - full[m + 6])) <= 1e-15  # measured 1.4e-17


def test_hankel_route_integrates_each_momentum_once(monkeypatch):
    # A 6-momentum by 8-angle mesh passes PANEL_ORDER Bessel arguments per
    # panel of each distinct momentum, once, to one Bessel ladder and one
    # radial-factor call, and equals its per-point calls bit for bit.
    passed, radial_calls, radial = _bessel_arguments(monkeypatch), [], hydro2d.ftoracle._radial
    monkeypatch.setattr(hydro2d.ftoracle, "_radial",
                        lambda *args: radial_calls.append(args[2].size) or radial(*args))
    qn, ps = QuantumNumbers(2, -1), [0.0, 0.05, 0.3, 1.0, 2.5, 6.0]
    p, phi = np.meshgrid(ps, np.linspace(-3.0, 3.0, 8), indexing="ij")
    mesh = ft_hankel(qn, MomentumPoint(p, phi))
    assert passed == [512 + 512 + 512 + 608 + 1504 + 3600]  # one count per momentum
    assert radial_calls == passed  # one radial-factor call over the same nodes
    points = np.array([ft_hankel(qn, MomentumPoint(pk, fk))
                       for pk, fk in zip(p.ravel().tolist(), phi.ravel().tolist())])
    assert np.array_equal(mesh, points.reshape(p.shape))


@pytest.mark.parametrize("oracle, rows", [(ft_hankel, _hankel_rows)])
def test_public_oracle_is_its_one_state_core_row(oracle, rows):
    # A scalar point gives the core's one value as a complex, an array point its row.
    ps, angles = np.array([[0.1, 0.5, 2.0], [0.0, 0.7, 1.3]]), np.array([0.4, -1.1, 2.5])
    for qn in (QuantumNumbers(0, 0), QuantumNumbers(2, -1), QuantumNumbers(3, 3)):
        state = np.array([qn.n]), np.array([qn.m])
        assert np.array_equal(oracle(qn, MomentumPoint(ps, angles)),
                              rows(*state, ps[None], angles[None])[0])
        scalar = oracle(qn, MomentumPoint(0.7, 0.3))
        assert type(scalar) is complex
        assert scalar == rows(*state, np.array([[0.7]]), np.array([[0.3]]))[0, 0]


@pytest.mark.parametrize("rows", [_hankel_rows, _levi_civita_rows])
def test_shuffled_states_of_several_levels_equal_per_level_calls(rows):
    # The core groups the states by level; their order and mix change no bit.
    n = np.repeat(np.arange(4), 2 * np.arange(4) + 1)
    m = np.concatenate([np.arange(-k, k + 1) for k in range(4)])
    order = np.random.default_rng(7).permutation(n.size)
    mp = MomentumPoint(np.array(_BATCH_P[:4]), np.array(_BATCH_PHI[:4]))
    mixed = rows(n[order], m[order], mp.p[None], mp.phi_p[None])
    levels = {k: _level_rows(rows, k, mp) for k in range(4)}
    for row, k, j in zip(mixed, n[order].tolist(), m[order].tolist()):
        assert np.array_equal(row, levels[k][j + k])


def test_direct_route_integrates_each_pair_once(monkeypatch):
    # A 6-momentum by 8-angle mesh passes each of its 48 (p, phi_p) pairs to
    # the Levi-Civita sum once, and equals its per-point calls bit for bit.
    seen = []
    block = hydro2d.ftoracle._levi_civita_block
    monkeypatch.setattr(hydro2d.ftoracle, "_levi_civita_block",
                        lambda n, m, p, phi_p, s, w: seen.extend(zip(p, phi_p))
                        or block(n, m, p, phi_p, s, w))
    qn = QuantumNumbers(2, -1)
    p, phi = np.meshgrid([0.0, 0.05, 0.3, 1.0, 2.5, 6.0], np.linspace(-3.0, 3.0, 8),
                         indexing="ij")
    mesh = _levi_civita(qn, MomentumPoint(p.ravel(), phi.ravel()))
    assert sorted(seen) == sorted(zip(p.ravel().tolist(), phi.ravel().tolist()))
    points = np.array([_levi_civita(qn, MomentumPoint(pk, fk))[0]
                       for pk, fk in zip(p.ravel().tolist(), phi.ravel().tolist())])
    assert np.array_equal(mesh, points)


def test_levi_civita_blocks_change_no_bit(monkeypatch):
    # A level's momenta are summed in blocks of at most _TERM_BLOCK terms; the
    # blocks split the momenta only, so one momentum per block gives the same bits.
    n, m = _states(4, signed=True)
    mp = acceptance_grid()
    whole = _levi_civita_rows(n, m, mp.p[None], mp.phi_p[None])
    monkeypatch.setattr(hydro2d.ftoracle, "_TERM_BLOCK", 1)
    assert np.array_equal(_levi_civita_rows(n, m, mp.p[None], mp.phi_p[None]), whole)


# The per-level loops that the state-axis ft checks replaced.

def _loop_agreement(cap):
    mp = acceptance_grid()
    for n in range(cap + 1):
        for m, want in zip(range(-n, n + 1), _level_rows(_levi_civita_rows, n, mp)):
            err = np.abs(psi_momentum(QuantumNumbers(n, m), mp) - want)
            yield err, np.where(np.abs(want) > 1e-8, np.abs(want), 0.0)


def _loop_two_oracles(cap):
    mp = MomentumPoint(np.geomspace(0.05, 3.0, 10), np.resize(hydro2d.verify._PHI_CYCLE, 10))
    for n in range(min(cap, 3) + 1):
        hankel, levi_civita = (_level_rows(rows, n, mp)
                               for rows in (_hankel_rows, _levi_civita_rows))
        yield np.abs(hankel - levi_civita), 1.0


def _loop_phase(cap):
    angles = np.array([0.0, 0.9, -2.4])
    mp = MomentumPoint(np.repeat([0.5, 2.0], angles.size), np.tile(angles, 2))
    for n in range(min(cap, 6) + 1):
        vals = _level_rows(_levi_civita_rows, n, mp).reshape(2 * n + 1, 2, angles.size)
        diff = (np.angle(vals) - np.angle(vals[..., :1])
                - np.arange(-n, n + 1)[:, None, None] * angles)
        wrapped = np.abs((diff + math.pi) % (2.0 * math.pi) - math.pi)
        yield np.where(np.abs(vals[..., :1]) > 1e-6, wrapped, 0.0), 1.0


def _loop_doubling(cap):
    grid = acceptance_grid()
    for n in range(cap + 1):
        yield np.abs(_level_rows(_levi_civita_rows, n, grid)
                     - _level_rows(_levi_civita_rows, n, grid, refine=2)), 1.0


_FT_LOOPS = {fn.__name__: (fn, loop) for fn, loop in zip(
    SUITES["ft"], (_loop_agreement, _loop_two_oracles, _loop_phase, _loop_doubling))}


@pytest.mark.parametrize("name", list(_FT_LOOPS))
def test_ft_check_equals_its_per_level_loop(name):
    check, loop = _FT_LOOPS[name]
    default = inspect.signature(check).parameters["n_max"].default
    for n_max in sorted({1, 3, default}):
        rep = check(n_max=n_max)
        want = VerificationReport.from_errors(rep.check_name, "", loop(n_max), rep.tolerance)
        assert (rep.max_abs_err, rep.max_rel_err, rep.passed) == \
            (want.max_abs_err, want.max_rel_err, want.passed), n_max


@pytest.mark.parametrize("name", list(_FT_LOOPS))
def test_ft_check_calls_the_core_as_often_at_any_cap(monkeypatch, name):
    # A per-level loop calls the core once per level; a state-axis check calls
    # it as often at n_max 3 as at its default.  Counted, not timed.
    calls = []
    for core in ("_hankel_rows", "_levi_civita_rows"):
        original = getattr(hydro2d.verify, core)
        monkeypatch.setattr(hydro2d.verify, core,
                            lambda *args, _core=core, _original=original, **kwargs:
                            calls.append(_core) or _original(*args, **kwargs))
    check = _FT_LOOPS[name][0]
    counts = []
    for n_max in (3, inspect.signature(check).parameters["n_max"].default):
        calls.clear()
        check(n_max=n_max)
        counts.append(sorted(calls))
    assert counts[0] == counts[1]
    assert 1 <= len(counts[0]) <= 2


def test_empty_level_has_every_row():
    empty = np.zeros((1, 0))
    for rows in (_hankel_rows, _levi_civita_rows):
        assert rows(np.full(5, 3), np.arange(-2, 3), empty, empty).shape == (5, 0)


@pytest.mark.parametrize("oracle", [ft_hankel])
def test_node_row_budget_raises_before_any_allocation(oracle, monkeypatch):
    # (1, 1) at p = 1e6 would need 19,675,984 panels, 3.1e8 radial nodes; the
    # level core must refuse it before building a rule or a Bessel argument,
    # also where the panel count is past any int64 or rho_max p overflows.
    def unreachable(*args):
        raise AssertionError("allocated past the budget")
    monkeypatch.setattr(hydro2d.ftoracle, "gauss_rules", unreachable)
    monkeypatch.setattr(hydro2d.ftoracle, "_bessel_ladder", unreachable)
    for p in (1e6, 1e20, 1e308):
        with pytest.raises(ValueError, match="budget of 16,777,216"):
            oracle(QuantumNumbers(1, 1), MomentumPoint(p, 0.0))


def test_oracle_report_single_point():
    # The ground state over the acceptance grid, through the shared sweep.
    rep = check_oracle_agreement(n_max=0)
    assert rep.passed
    assert rep.max_abs_err <= 1e-8
    assert rep.check_name == "momentum-vs-ft-oracle"
    assert rep.grid_desc == "|m| <= n <= 0, 20 momentum points"


def test_oracle_is_structurally_independent():
    # The whole point of the oracle is that it never computes through the
    # closed-form momentum expressions.  Enforce that at the AST level: the
    # module-level import from the momentum module brings in only the point
    # type, and the name psi_momentum appears in no function at all.
    tree = ast.parse(inspect.getsource(hydro2d.ftoracle))
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module and "momentum" in node.module:
            assert {alias.name for alias in node.names} == {"MomentumPoint"}
    offenders = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            pulled = any(
                isinstance(sub, ast.ImportFrom)
                and any(alias.name == "psi_momentum" for alias in sub.names)
                for sub in ast.walk(node))
            if ("psi_momentum" in used) or pulled:
                offenders.append(node.name)
    assert offenders == []


def _names(node):
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def test_direct_route_uses_no_bessel_function():
    # The two oracles stay separate derivations: nothing that the direct 2-d
    # route, _levi_civita_rows, reaches through any chain of module functions
    # names a Bessel routine, the Hankel route's phase table or azimuthal
    # factor, or the radial factor and panels it integrates.
    tree = ast.parse(inspect.getsource(hydro2d.ftoracle))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    reached, todo = set(), ["_levi_civita_rows"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += sorted(_names(defs[name]) & defs.keys())
    assert {"_levi_civita_rows", "_levi_civita_block", "_level"} <= reached
    named = set().union(*(_names(defs[name]) for name in reached))
    assert not named & {"_bessel_ladder", "bessel_j", "jv", "NEG_I_POW", "_turns",
                        "_radial", "PANEL_ORDER", "_MIN_PANELS", "_MAX_PANEL_WIDTH", "_rho_max"}
    assert "_bessel_ladder" in _names(defs["_hankel_level"])


def test_every_check_returns_through_from_errors():
    # One reduction decides every verdict.  verify builds reports only with
    # VerificationReport.from_errors, and each check returns that report,
    # directly or from a module helper that builds it.
    tree = ast.parse(inspect.getsource(hydro2d.verify))
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name) and node.func.id == "VerificationReport"]
    used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "VerificationReport"}
    assert used == {"from_errors"}
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    builders = {name for name, node in defs.items()
                if not name.startswith("check_") and "from_errors" in _names(node)}
    checks = {name: node for name, node in defs.items() if name.startswith("check_")}
    assert set(checks) == {fn.__name__ for fns in SUITES.values() for fn in fns}
    for name, node in checks.items():
        ret = node.body[-1]
        assert isinstance(ret, ast.Return) and isinstance(ret.value, ast.Call), name
        func = ret.value.func
        assert (isinstance(func, ast.Attribute) and func.attr == "from_errors"
                or isinstance(func, ast.Name) and func.id in builders), name
    # The retired reductions are gone from the package, not just unused.
    for path in Path(hydro2d.verify.__file__).parent.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        for retired in ("_worst", "from_abs", "from_rel"):
            assert retired not in text, (path.name, retired)
