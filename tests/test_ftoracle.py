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

import hydro2d.ftoracle
import hydro2d.verify
from hydro2d.ftoracle import (_direct_rows, _hankel_rows, _panel_count, _phi_count, _radial_rule,
                              _rho_max, ft_direct_2d, ft_hankel)
from hydro2d.momentum import MomentumPoint, psi_momentum
from hydro2d.position import QuantumNumbers
from hydro2d.quadrature import PANEL_ORDER
from hydro2d.reporting import VerificationReport
from hydro2d.verify import (SUITES, _acceptance_rows, acceptance_grid, check_node_doubling,
                            check_oracle_agreement)

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _level_rows(rows, n, mp, nodes):
    """The core ``rows`` for m = -n ... n of level n at the 1-d momenta of ``mp``."""
    return rows(np.full(2 * n + 1, n), np.arange(-n, n + 1), mp.p[None], mp.phi_p[None], nodes)


def test_config_validation():
    qn, mp = QuantumNumbers(1, 0), MomentumPoint(0.5, 0.0)
    ft_hankel(qn, mp, nodes=64)
    with pytest.raises(ValueError):
        ft_hankel(qn, mp, nodes=32)
    with pytest.raises(ValueError):
        ft_direct_2d(qn, mp, nodes=32)


@pytest.mark.parametrize("oracle", [ft_hankel, ft_direct_2d])
@pytest.mark.parametrize("nodes", [100.5, math.nan, math.inf, 63, 512.0, "512", None])
def test_bad_node_count_is_named(oracle, nodes):
    # A least node count that is not an integer of at least 64 is a named
    # usage error on both routes, not a silent rule or a conversion error.
    with pytest.raises(ValueError, match="oracle radial nodes"):
        oracle(QuantumNumbers(1, 0), MomentumPoint(0.5, 0.0), nodes=nodes)


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
    assert abs(ft_direct_2d(qn, mp) - ft_hankel(qn, mp)) <= 1e-7  # measured 5.6e-17


def test_hankel_symmetry_under_m_flip():
    # Same assembly as the closed form: flipping m equals flipping phi_p.
    a = ft_hankel(QuantumNumbers(1, -1), MomentumPoint(0.5, 1.0))
    b = ft_hankel(QuantumNumbers(1, 1), MomentumPoint(0.5, -1.0))
    assert a == b


def test_direct_symmetry_under_m_flip():
    a = ft_direct_2d(QuantumNumbers(1, -1), MomentumPoint(0.5, 1.0))
    b = ft_direct_2d(QuantumNumbers(1, 1), MomentumPoint(0.5, -1.0))
    c = ft_direct_2d(QuantumNumbers(1, 1), MomentumPoint(0.5, 1.0))
    assert abs(a - b) <= 1e-12
    assert abs(a + c.conjugate()) <= 1e-12  # psi(n,-m) = (-1)^|m| conj(psi(n,m))


def test_direct_large_momentum_tail():
    # Far tail must both be tiny (p^-3 envelope) and still match the closed
    # form; this exercises the oscillatory panel quadrature.
    qn, mp = QuantumNumbers(1, 0), MomentumPoint(50.0, 0.0)
    val = ft_direct_2d(qn, mp)
    assert 0.0 < abs(val) <= 1e-4
    assert abs(val - psi_momentum(qn, mp)) <= 1e-8


def test_node_count_invariance():
    qn, mp = QuantumNumbers(3, 2), MomentumPoint(0.7, 0.4)
    lo = ft_hankel(qn, mp, nodes=512)
    hi = ft_hankel(qn, mp, nodes=1024)
    assert abs(lo - hi) <= 1e-12


@pytest.mark.parametrize("n, m, p", [(13, 13, 2.0), (15, 14, 1.0), (20, 16, 3.0)])
def test_hankel_large_order(n, m, p):
    # Past p rho = 160 the high orders come from the upward recurrence, which
    # starts there close to its top order; the oracle must stay finite and
    # agree with the closed form there too.
    qn, mp = QuantumNumbers(n, m), MomentumPoint(p, 0.0)
    val = ft_hankel(qn, mp)
    assert np.isfinite(val.real) and np.isfinite(val.imag)
    assert abs(val - psi_momentum(qn, mp)) <= 1e-12  # measured 1.2e-14


@pytest.mark.parametrize("oracle", [ft_hankel, ft_direct_2d])
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


@pytest.mark.parametrize("oracle", [ft_hankel, ft_direct_2d])
def test_past_largest_order_raises_like_closed_form(oracle):
    qn, mp = QuantumNumbers(95, 95), MomentumPoint(0.01, 0.0)
    with pytest.raises(ValueError, match="smallest normal double"):
        psi_momentum(qn, mp)
    with pytest.raises(ValueError, match="smallest normal double"):
        oracle(qn, mp)


@pytest.mark.parametrize("n", [0, 4])
def test_radial_rule_counts(n):
    # At small p and n <= 12 the rule has exactly ``nodes`` points, so
    # doubling them refines it; at p = 20 the panel width pi/p sets the count
    # alone (as _MAX_PANEL_WIDTH does at small p from n = 13 on).
    for nodes in (512, 1024):
        rho, weighted = _radial_rule(n, n, _panel_count(n, 0.05, nodes))
        assert rho.size == nodes and weighted.shape == (n + 1, nodes)
    count = _panel_count(n, 20.0, 512)
    assert count == _panel_count(n, 20.0, 1024) and count * PANEL_ORDER > 1024


@pytest.mark.parametrize("oracle", [ft_hankel, ft_direct_2d])
def test_array_call_matches_stacked_scalar_calls(oracle):
    # Like psi_momentum: an array point gives the row over its broadcast
    # shape (tests/test_array_contract.py; too slow there for the direct route).
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


# At p = 0 and 0.05 every rule has exactly ``nodes`` points.  The panel
# width pi/p adds panels (p rho_max / pi > nodes / 16) at p = 0.7 from n = 3
# on at 512 nodes, at p = 3 from n = 1 on (n = 2 at 1024) and at p = 20 always.
_BATCH_P = (0.0, 0.05, 0.7, 3.0, 20.0)
_BATCH_PHI = (0.0, 0.9, 2.2, -1.4, 1.3)


@pytest.mark.parametrize("nodes", [512, 1024])
@pytest.mark.parametrize("n", range(5))
def test_batched_rows_equal_point_calls(n, nodes):
    # The checks read every (m, p) of a level from one batched call; the
    # public one-point functions must give the same values.  The direct
    # route's kernel grows with p rho_max, to 2.6e4 radial nodes times 2049
    # quarter-circle angles at n = 4, p = 20, so beyond n = 0 it is compared
    # at p <= 3.
    mp = MomentumPoint(np.array(_BATCH_P), np.array(_BATCH_PHI))
    hankel = _level_rows(_hankel_rows, n, mp, nodes)
    cols = len(_BATCH_P) if n == 0 else 4
    direct = _level_rows(_direct_rows, n, MomentumPoint(mp.p[:cols], mp.phi_p[:cols]), nodes)
    worst_h = worst_d = 0.0
    for m in range(-n, n + 1):
        qn = QuantumNumbers(n, m)
        for j, point in enumerate(zip(_BATCH_P, _BATCH_PHI)):
            one = MomentumPoint(*point)
            worst_h = max(worst_h, abs(hankel[m + n, j] - ft_hankel(qn, one, nodes)))
            if j < cols:
                worst_d = max(worst_d, abs(direct[m + n, j] - ft_direct_2d(qn, one, nodes)))
    assert worst_h <= 1e-15  # measured 1.4e-16: one Bessel sweep seeded at |m|, one at n
    assert worst_d <= 1e-15  # measured 0


@pytest.mark.parametrize("n", range(5))
def test_acceptance_halves_equal_separate_calls(n):
    # One call over both node counts integrates each (p, panel count) pair
    # once; every Bessel value is elementwise in its argument, so each half
    # is bit for bit the call at its own node count.
    for half, nodes in zip(_acceptance_rows(n), (512, 1024)):
        level = half[-(2 * n + 1):]  # level n is the last 2n + 1 rows of the cap-n states
        assert np.array_equal(level, _level_rows(_hankel_rows, n, acceptance_grid(), nodes))


@pytest.mark.parametrize("n", [0, 2, 4])
def test_mixed_node_counts_equal_per_count_calls(n):
    # nodes broadcasts against the points; each column is the call at its own count.
    nodes = np.array([512, 1024, 512, 1024, 1024])
    mp = MomentumPoint(np.array(_BATCH_P), np.array(_BATCH_PHI))
    mixed = _level_rows(_hankel_rows, n, mp, nodes)
    for count in (512, 1024):
        cols = nodes == count
        alone = _level_rows(_hankel_rows, n, MomentumPoint(mp.p[cols], mp.phi_p[cols]), count)
        assert np.array_equal(mixed[:, cols], alone)


@pytest.mark.parametrize("n", range(5))
def test_node_doubling_refines_where_the_floor_binds(n):
    # Doubling the least count still refines the rule at 9 or more of the 20
    # acceptance momenta; the two halves differ there and agree bit for bit
    # wherever the panel width pi/p sets one count for both.
    lo, hi = (half[-(2 * n + 1):] for half in _acceptance_rows(n))
    refined = np.array([_panel_count(n, p, 1024) > _panel_count(n, p, 512)
                        for p in acceptance_grid().p])
    assert refined.sum() >= 9  # measured 18, 14, 12, 10, 9 at n = 0 ... 4
    assert not np.array_equal(lo[:, refined], hi[:, refined])
    assert np.array_equal(lo[:, ~refined], hi[:, ~refined])


def test_acceptance_passes_integrate_each_panel_once(monkeypatch):
    # The agreement and node-doubling checks pass PANEL_ORDER Bessel arguments
    # per panel of each distinct (p, panel count) pair, 325,920 in all where
    # integrating both passes in full took 552,288.
    passed = []
    ladder = hydro2d.ftoracle._bessel_ladder
    monkeypatch.setattr(hydro2d.ftoracle, "_bessel_ladder",
                        lambda m, xs: passed.append(xs.size) or ladder(m, xs))
    _acceptance_rows.cache_clear()
    try:
        assert check_oracle_agreement().passed and check_node_doubling().passed
    finally:
        _acceptance_rows.cache_clear()
    panels = sum(count for n in range(5) for _, count in
                 {(p, _panel_count(n, p, nodes)) for p in acceptance_grid().p.tolist()
                  for nodes in (512, 1024)})
    assert sum(passed) == PANEL_ORDER * panels == 325_920


@pytest.mark.parametrize("oracle, rows", [(ft_hankel, _hankel_rows), (ft_direct_2d, _direct_rows)])
def test_public_oracle_is_its_one_state_core_row(oracle, rows):
    # A scalar point gives the core's one value as a complex, an array point its row.
    ps, angles = np.array([[0.1, 0.5, 2.0], [0.0, 0.7, 1.3]]), np.array([0.4, -1.1, 2.5])
    for qn in (QuantumNumbers(0, 0), QuantumNumbers(2, -1), QuantumNumbers(3, 3)):
        state = np.array([qn.n]), np.array([qn.m])
        assert np.array_equal(oracle(qn, MomentumPoint(ps, angles), 1024),
                              rows(*state, ps[None], angles[None], 1024)[0])
        scalar = oracle(qn, MomentumPoint(0.7, 0.3))
        assert type(scalar) is complex
        assert scalar == rows(*state, np.array([[0.7]]), np.array([[0.3]]), 512)[0, 0]


@pytest.mark.parametrize("rows", [_hankel_rows, _direct_rows])
def test_shuffled_states_of_several_levels_equal_per_level_calls(rows):
    # The core groups the states by level; their order and mix change no bit.
    n = np.repeat(np.arange(4), 2 * np.arange(4) + 1)
    m = np.concatenate([np.arange(-k, k + 1) for k in range(4)])
    order = np.random.default_rng(7).permutation(n.size)
    mp = MomentumPoint(np.array(_BATCH_P[:4]), np.array(_BATCH_PHI[:4]))
    mixed = rows(n[order], m[order], mp.p[None], mp.phi_p[None], 512)
    levels = {k: _level_rows(rows, k, mp, 512) for k in range(4)}
    for row, k, j in zip(mixed, n[order].tolist(), m[order].tolist()):
        assert np.array_equal(row, levels[k][j + k])


# The per-level loops that the state-axis ft checks replaced.

def _loop_agreement(cap):
    mp = acceptance_grid()
    for n in range(cap + 1):
        for m, want in zip(range(-n, n + 1), _level_rows(_hankel_rows, n, mp, 512)):
            err = np.abs(psi_momentum(QuantumNumbers(n, m), mp) - want)
            yield err, np.where(np.abs(want) > 1e-8, np.abs(want), 0.0)


def _loop_two_oracles(cap):
    mp = MomentumPoint(np.geomspace(0.05, 3.0, 10), np.resize(hydro2d.verify._PHI_CYCLE, 10))
    for n in range(min(cap, 3) + 1):
        hankel, direct = (_level_rows(rows, n, mp, 512) for rows in (_hankel_rows, _direct_rows))
        yield np.abs(hankel - direct), 1.0


def _loop_phase(cap):
    angles = np.array([0.0, 0.9, -2.4])
    mp = MomentumPoint(np.repeat([0.5, 2.0], angles.size), np.tile(angles, 2))
    for n in range(min(cap, 6) + 1):
        vals = _level_rows(_hankel_rows, n, mp, 512).reshape(2 * n + 1, 2, angles.size)
        diff = (np.angle(vals) - np.angle(vals[..., :1])
                - np.arange(-n, n + 1)[:, None, None] * angles)
        wrapped = np.abs((diff + math.pi) % (2.0 * math.pi) - math.pi)
        yield np.where(np.abs(vals[..., :1]) > 1e-6, wrapped, 0.0), 1.0


def _loop_doubling(cap):
    grid = acceptance_grid()
    for n in range(cap + 1):
        yield np.abs(_level_rows(_hankel_rows, n, grid, 512)
                     - _level_rows(_hankel_rows, n, grid, 1024)), 1.0


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
    for core in ("_hankel_rows", "_direct_rows"):
        original = getattr(hydro2d.verify, core)
        monkeypatch.setattr(hydro2d.verify, core,
                            lambda *args, _core=core, _original=original:
                            calls.append(_core) or _original(*args))
    check = _FT_LOOPS[name][0]
    counts = []
    for n_max in (3, inspect.signature(check).parameters["n_max"].default):
        calls.clear()
        _acceptance_rows.cache_clear()
        try:
            check(n_max=n_max)
        finally:
            _acceptance_rows.cache_clear()
        counts.append(sorted(calls))
    assert counts[0] == counts[1]
    assert 1 <= len(counts[0]) <= 2


def test_empty_level_has_every_row():
    empty = np.zeros((1, 0))
    for rows in (_hankel_rows, _direct_rows):
        assert rows(np.full(5, 3), np.arange(-2, 3), empty, empty, 512).shape == (5, 0)


@pytest.mark.parametrize("oracle", [ft_hankel, ft_direct_2d])
def test_node_row_budget_raises_before_any_allocation(oracle, monkeypatch):
    # (1, 1) at p = 1e6 would need 19,675,984 panels, 3.1e8 radial nodes; the
    # level core must refuse it before building a rule or a Bessel argument.
    def unreachable(*args):
        raise AssertionError("allocated past the budget")
    monkeypatch.setattr(hydro2d.ftoracle, "panel_nodes", unreachable)
    monkeypatch.setattr(hydro2d.ftoracle, "_bessel_ladder", unreachable)
    with pytest.raises(ValueError, match="budget of 16,777,216"):
        oracle(QuantumNumbers(1, 1), MomentumPoint(1e6, 0.0))


def test_direct_route_integrates_each_pair_once(monkeypatch):
    # A 6-momentum by 8-angle mesh has 6 distinct (p, panel count) pairs, and
    # the mesh equals its per-point calls bit for bit.
    calls = []
    phi_count = hydro2d.ftoracle._phi_count
    monkeypatch.setattr(hydro2d.ftoracle, "_phi_count",
                        lambda x: calls.append(x) or phi_count(x))
    qn = QuantumNumbers(2, -1)
    p, phi = np.meshgrid([0.0, 0.05, 0.3, 1.0, 2.5, 6.0], np.linspace(-3.0, 3.0, 8),
                         indexing="ij")
    mesh = ft_direct_2d(qn, MomentumPoint(p, phi))
    assert len(calls) == 6
    points = np.array([ft_direct_2d(qn, MomentumPoint(pk, fk))
                       for pk, fk in zip(p.ravel().tolist(), phi.ravel().tolist())])
    assert np.array_equal(mesh, points.reshape(p.shape))


def _full_circle_rows(n, p, phi_p, shifted):
    """Every m of level n at one point by the unfolded trapezoid sum over all n_phi angles.

    Shifted: nodes phi_p + theta_k, kernel e^(-i p rho cos theta_k) and
    angular factor e^(i m phi_p) e^(i m theta_k).  Unshifted: nodes
    phi_k = 2 pi k / n_phi, kernel e^(-i p rho cos(phi_k - phi_p)).
    """
    rho, weighted = _radial_rule(n, n, _panel_count(n, p, 512))
    n_phi = _phi_count(p * _rho_max(n))
    angles = 2.0 * math.pi * np.arange(n_phi) / n_phi
    if shifted:
        kernel = np.exp(-1j * p * np.outer(rho, np.cos(angles)))
    else:
        kernel = np.exp(-1j * p * np.outer(rho, np.cos(angles - phi_p)))
    rows = []
    for m in range(-n, n + 1):
        circle = np.exp(1j * m * angles) / n_phi
        turn = np.exp(1j * m * phi_p) if shifted else 1.0
        rows.append(turn * (weighted[abs(m)] @ kernel @ circle))
    return np.array(rows)


@pytest.mark.parametrize("n, p, phi_p", [(2, 0.7, 0.9), (3, 3.0, -1.4)])
def test_quarter_fold_equals_full_circle_sum(n, p, phi_p):
    # The quarter-circle sum in real arithmetic is the full trapezoid sum on
    # the shifted nodes, regrouped; moving the nodes from phi_k = 2 pi k /
    # n_phi to phi_p + 2 pi k / n_phi changes only aliasing-level terms.
    rows = _level_rows(_direct_rows, n, MomentumPoint(np.array([p]), np.array([phi_p])), 512)[:, 0]
    shifted = _full_circle_rows(n, p, phi_p, shifted=True)
    unshifted = _full_circle_rows(n, p, phi_p, shifted=False)
    assert np.max(np.abs(rows - shifted)) <= 1e-14  # measured 4.6e-16
    assert np.max(np.abs(rows - unshifted)) <= 1e-13  # measured 7.5e-16


def test_direct_rows_at_large_momentum():
    # p = 20 at n = 4: 2.6e4 radial nodes by 8192 angles, folded to 2049.
    # Signs and phases of every m come out of the quadrature, not a table.
    rows = _level_rows(_direct_rows, 4, MomentumPoint(np.array([20.0]), np.array([1.3])), 512)[:, 0]
    worst = max(abs(rows[m + 4] - psi_momentum(QuantumNumbers(4, m), MomentumPoint(20.0, 1.3)))
                for m in range(-4, 5))
    assert worst <= 1e-12  # measured 9.6e-16


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
    # The two oracles stay separate derivations: nothing that ft_direct_2d
    # reaches, through any chain of module functions, names a Bessel routine
    # or the Hankel route's phase table.
    tree = ast.parse(inspect.getsource(hydro2d.ftoracle))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    reached, todo = set(), ["ft_direct_2d"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += sorted(_names(defs[name]) & defs.keys())
    assert {"_direct_rows", "_radial_rule", "_phi_count"} <= reached
    named = set().union(*(_names(defs[name]) for name in reached))
    assert not named & {"bessel_j", "_bessel_ladder", "jv"}
    # Nor the Hankel route's (-i)^|m| table: the direct route's phases are numerical.
    assert "NEG_I_POW" not in named
    assert "_bessel_ladder" in _names(defs["_hankel_rows"])


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
