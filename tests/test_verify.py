"""Verification registry: suite wiring, caps, overrides, adjudication notes.

The heavy numerical content of each check is exercised by the acceptance
tests; here the suites are run at reduced caps to keep this file fast, and
the contract-level properties (names, note strings, tolerance plumbing) are
pinned down.
"""

import ast
import cmath
import inspect
import itertools
import math
import random
import sys

import numpy as np
import pytest

from hydro2d import ftoracle, genfunc, momentum, polys, position, verify
from hydro2d.levicivita import (GenFuncParams, GenFuncValues, gen_func_momentum,
                                quadratic_form_matrix)
from hydro2d.momentum import MomentumPoint, psi_momentum, psi_momentum_gegenbauer, q_of_p
from hydro2d.polys import assoc_legendre, double_factorial, gegenbauer, laguerre, pochhammer
from hydro2d.position import (PolarPoint, QuantumNumbers, norm_squared, overlap, psi_position,
                              radial_ode_residual)
from hydro2d.quadrature import gauss_rules, series_coefficients
from hydro2d.reporting import VerificationReport
from hydro2d.verify import (
    SUITE_ORDER,
    SUITES,
    acceptance_grid,
    check_coefficient_consistency,
    check_coordinate_gf,
    check_gegenbauer_gf,
    check_laguerre_derivative,
    check_laguerre_gf,
    check_measure_factor,
    check_new_legendre_gf,
    check_parseval,
    check_position_normalization,
    check_shifted_laguerre_gf,
    check_two_form_equality,
    run_suite,
)


def test_registry_layout():
    assert SUITE_ORDER == ("polys", "position", "momentum", "levicivita", "genfunc", "ft")
    assert set(SUITES) == set(SUITE_ORDER)
    assert sum(len(v) for v in SUITES.values()) == 29


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        run_suite("nope")


def test_acceptance_grid_shape():
    grid = acceptance_grid()
    assert grid.p.shape == grid.phi_p.shape == (20,)
    assert grid.p[0] == pytest.approx(0.05)
    assert grid.p[-1] == pytest.approx(20.0)
    # log spacing: constant ratio
    r = grid.p[1] / grid.p[0]
    for a, b in zip(grid.p, grid.p[1:]):
        assert b / a == pytest.approx(r, rel=1e-12)


def test_polys_suite_passes():
    reports = run_suite("polys")
    assert [r.check_name for r in reports] == [
        "gegenbauer-gf-coefficients", "gegenbauer-difference-recurrence",
        "gegenbauer-legendre-connection", "laguerre-derivative",
        "polys-determinism"]
    assert all(r.passed for r in reports)


def test_position_suite_passes_at_reduced_cap():
    reports = run_suite("position", n_max=4)
    assert all(r.passed for r in reports)
    norm = next(r for r in reports if r.check_name == "position-normalization")
    assert "n <= 4" in norm.grid_desc


def test_momentum_suite_notes():
    reports = run_suite("momentum", n_max=4)
    assert all(r.passed for r in reports)
    parseval = next(r for r in reports if r.check_name == "momentum-parseval")
    assert "1/(2pi)" in parseval.notes
    two_form = next(r for r in reports if r.check_name == "momentum-two-form-equality")
    assert "typo" in two_form.notes
    assert "q0" in two_form.notes


def test_levicivita_suite_adjudication_note():
    reports = run_suite("levicivita")
    assert all(r.passed for r in reports)
    meas = next(r for r in reports if r.check_name == "measure-factor-adjudication")
    assert "c = 2" in meas.notes
    coeff = next(r for r in reports if r.check_name == "genfunc-coefficient-consistency")
    assert "constant 1 asserted" in coeff.notes


def test_genfunc_suite_passes():
    reports = run_suite("genfunc", n_max=6)
    assert all(r.passed for r in reports)
    names = {r.check_name for r in reports}
    assert "gegenbauer-reindexing-identity" in names
    assert "gegenbauer-chain-consistency" in names


def test_identity_suites_pass_at_n_max_20():
    # Past the default caps: no rule or error measure of these checks loses
    # accuracy as the degree grows.
    reports = [r for suite in SUITE_ORDER[:-1] for r in run_suite(suite, n_max=20)]
    assert [r.check_name for r in reports if not r.passed] == []


def test_scaled_momentum_wavefunction_fails_parseval(monkeypatch):
    original = verify._psi_momentum
    monkeypatch.setattr(verify, "_psi_momentum", lambda *args: (1.0 + 1e-6) * original(*args))
    assert not check_parseval().passed


def test_scaled_derivative_side_fails_laguerre_derivative(monkeypatch):
    # The right-hand side L_{n-1}^(alpha+1) is the one ladder on the unshifted grid.
    original, grid = verify._laguerre_ladder, np.linspace(0.1, 10.0, 12)

    def off(alpha, xs):
        scale = 1.0 + 1e-5 if np.array_equal(np.ravel(xs), grid) else 1.0
        return (scale * item for item in original(alpha, xs))
    monkeypatch.setattr(verify, "_laguerre_ladder", off)
    assert not check_laguerre_derivative().passed


def test_tolerance_override_forces_failure():
    reports = run_suite("position", n_max=2, tol=1e-30)
    assert any(not r.passed for r in reports)
    assert all(r.tolerance == 1e-30 for r in reports)


def test_zero_tolerance_is_an_override():
    # 0.0 is set, not a request for each check's default
    reports = run_suite("position", n_max=2, tol=0.0)
    assert any(not r.passed for r in reports)
    assert all(r.tolerance == 0.0 for r in reports)


def test_single_check_report_fields():
    rep = check_measure_factor()
    assert rep.passed
    assert rep.tolerance == 1e-8
    rep = check_two_form_equality(n_max=3)
    assert rep.passed
    assert rep.max_rel_err <= rep.tolerance == 1e-12


def test_empty_sweeps_fail():
    # At n_max = 0 these three sweeps compare nothing; a report of 0.0 over
    # no points must not pass.
    failed = [r.check_name for r in run_suite("all", 0) if not r.passed]
    assert failed == ["laguerre-derivative", "position-orthogonality-same-m",
                      "position-orthogonality-same-n"]


def _assert_nan_fails(rep):
    assert rep.passed is False
    assert math.isnan(rep.max_abs_err)


def test_nan_at_first_point_fails_two_form_equality(monkeypatch):
    original = verify._psi_momentum_gegenbauer

    def first_point_nan(*args):
        value = np.array(original(*args))
        value.flat[0] = np.nan
        return value
    monkeypatch.setattr(verify, "_psi_momentum_gegenbauer", first_point_nan)
    _assert_nan_fails(check_two_form_equality(n_max=3))


def test_nan_norm_fails_position_normalization(monkeypatch):
    original = verify._overlaps

    def nan_at_3_1(n1, m1, n2, m2):
        return np.where((n1 == 3) & (m1 == 1), math.nan, original(n1, m1, n2, m2))
    monkeypatch.setattr(verify, "_overlaps", nan_at_3_1)
    _assert_nan_fails(check_position_normalization())


def test_nan_in_second_case_fails_gegenbauer_gf(monkeypatch):
    # One circle node of the second case (alpha = 1.5): not the first value
    # reduced, so a max() seeded with it would drop it.
    original = genfunc.gegenbauer_gf

    def second_case_nan(z, q, alpha):
        value = original(z, q, alpha)
        if alpha == 1.5:
            value.flat[7] = complex(math.nan, 0.0)
        return value
    monkeypatch.setattr(genfunc, "gegenbauer_gf", second_case_nan)
    _assert_nan_fails(check_gegenbauer_gf())


_GF_CHECKS = {"laguerre_gf": check_laguerre_gf, "shifted_laguerre_gf": check_shifted_laguerre_gf,
              "coordinate_gf": check_coordinate_gf, "gegenbauer_gf": check_gegenbauer_gf,
              "new_legendre_gf": check_new_legendre_gf}


@pytest.mark.parametrize("closed_form", list(_GF_CHECKS))
def test_gf_check_fails_when_its_closed_form_is_scaled(monkeypatch, closed_form):
    # Every coefficient moves by 1e-6 of itself, far above each tolerance.
    original = getattr(genfunc, closed_form)
    monkeypatch.setattr(genfunc, closed_form, lambda *args: (1.0 + 1e-6) * original(*args))
    rep = _GF_CHECKS[closed_form]()
    assert not rep.passed
    assert rep.max_rel_err == pytest.approx(1e-6, rel=1e-3)


def test_doubled_momentum_generating_function_fails_coefficient_consistency(monkeypatch):
    # A constant fitted to the coefficients would absorb the factor 2.
    original = verify.gen_func_momentum
    monkeypatch.setattr(verify, "gen_func_momentum",
                        lambda gp, mp: GenFuncValues(*(2.0 * v for v in original(gp, mp))))
    rep = check_coefficient_consistency()
    assert not rep.passed
    assert rep.max_rel_err == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("core", ["_psi_momentum_gegenbauer", "_levi_civita_rows"])
def test_scaled_core_fails_measure_factor(monkeypatch, core):
    # Either side of the fit off by 1e-7 of itself moves c by 2e-7, above the 1e-8 tolerance.
    original = getattr(verify, core)
    monkeypatch.setattr(verify, core, lambda *args: (1.0 + 1e-7) * original(*args))
    rep = check_measure_factor()
    assert not rep.passed
    assert rep.max_abs_err == pytest.approx(2e-7, rel=1e-3)


def test_doubled_gegenbauer_amplitude_fails_coefficient_consistency(monkeypatch):
    original = verify._gegenbauer_amplitude
    monkeypatch.setattr(verify, "_gegenbauer_amplitude", lambda *args: 2.0 * original(*args))
    rep = check_coefficient_consistency()
    assert not rep.passed
    assert rep.max_rel_err == pytest.approx(0.5, rel=1e-9)


def test_scaled_radial_factor_fails_coordinate_gf(monkeypatch):
    original = verify._radial
    monkeypatch.setattr(verify, "_radial", lambda *args: (1.0 + 1e-7) * original(*args))
    rep = check_coordinate_gf()
    assert not rep.passed
    assert rep.max_rel_err == pytest.approx(1e-7, rel=1e-3)


def _gaussian_draws(monkeypatch):
    # The draws of the Gaussian check, by capturing its _accepted_draws call.
    calls = []
    original = verify._accepted_draws
    monkeypatch.setattr(verify, "_accepted_draws", lambda *args: calls.append(args) or original(*args))
    verify.check_gaussian_integral()
    return quadratic_form_matrix(*original(*calls[0]))


def test_polar_sum_matches_a_dense_tensor_sum(monkeypatch):
    # Reference: 64 panels of 16-point Gauss-Legendre per axis on [-8.31, 8.31],
    # exp(-u^T X u) formed pointwise.  lambda_min(Re X) >= 0.5 bounds the
    # discarded tail by exp(-0.5 * 8.31^2) ~ 1e-15.
    x = _gaussian_draws(monkeypatch)
    re_x = np.moveaxis(np.array([[x.a11, x.a12], [x.a12, x.a22]]).real, -1, 0)
    assert np.linalg.eigvalsh(re_x)[:, 0].min() >= 0.5
    xg, wg = np.polynomial.legendre.leggauss(16)
    half = 8.31 / 64
    u = (-8.31 + half * (2 * np.arange(64) + 1)[:, None] + half * xg).ravel()
    w = np.tile(half * wg, 64)
    assert u.size == 1024
    polar = verify._polar_sum(x, 256)
    for k in range(0, 20, 5):
        ex, ey = np.exp(-x.a11[k] * u * u) * w, np.exp(-x.a22[k] * u * u) * w
        dense = np.sum(ex[:, None] * np.exp(-2.0 * x.a12[k] * np.outer(u, u)) * ey[None, :])
        assert abs(polar[k] - dense) <= 1e-13  # measured <= 4.6e-15 on all 20 draws


def test_polar_sum_has_converged_at_128_angles(monkeypatch):
    x = _gaussian_draws(monkeypatch)
    assert x.a11.shape == (20,)
    assert np.max(np.abs(verify._polar_sum(x, 128) - verify._polar_sum(x, 256))) <= 1e-14


def test_scaled_gaussian_closed_form_fails(monkeypatch):
    # pi / sqrt(det X) scaled by 1 + 1e-6: every draw is off by 1e-6 of its value.
    original = verify.det_x
    monkeypatch.setattr(verify, "det_x", lambda gp, mp: original(gp, mp) / (1.0 + 1e-6) ** 2)
    rep = verify.check_gaussian_integral()
    assert not rep.passed
    assert rep.max_abs_err > 10.0 * rep.tolerance


def _all_draws_filtered(seed, count, limit, accept, z_cap, p_cap, q0_lo, q0_hi, beta_cap):
    # Every one of the limit draws at once, then the first count accepted.
    rng = random.Random(seed)
    u = np.array([[rng.random() for _ in range(8)] for _ in range(limit)])
    gp = GenFuncParams(z=z_cap * np.sqrt(u[:, 0]) * np.exp(1j * (2.0 * math.pi * u[:, 1])),
                       t=np.sqrt(u[:, 2]) * np.exp(1j * (2.0 * math.pi * u[:, 3])),
                       q0=q0_lo + (q0_hi - q0_lo) * u[:, 4], beta=beta_cap * u[:, 5])
    mp = MomentumPoint(p_cap * u[:, 6], 2.0 * math.pi * u[:, 7])
    keep = np.flatnonzero(accept(gp, mp))
    return keep, (gp.z[keep[:count]], gp.t[keep[:count]], gp.q0[keep[:count]],
                  gp.beta[keep[:count]], mp.p[keep[:count]], mp.phi_p[keep[:count]])


def test_lazy_draws_are_the_first_accepted_of_all_draws(monkeypatch):
    calls = []
    original = verify._accepted_draws
    monkeypatch.setattr(verify, "_accepted_draws", lambda *args: calls.append(args) or original(*args))
    verify.check_det_identity()
    verify.check_gaussian_integral()
    assert [args[:3] for args in calls] == [(verify._SEED, 100, 400),
                                            (verify._SEED + 1, 20, 80)]
    for args in calls:
        gp, mp = original(*args)
        _, want = _all_draws_filtered(*args)
        for got, ref in zip((gp.z, gp.t, gp.q0, gp.beta, mp.p, mp.phi_p), want):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def test_a_filter_that_accepts_too_few_raises():
    caps = (0.8, 10.0, 0.3, 2.5, 2.0)

    def slow(gp, mp):
        return mp.p < 0.05  # about 1 draw in 200
    keep, _ = _all_draws_filtered(7, 50, 2000, slow, *caps)
    assert 0 < keep.size < 50
    with pytest.raises(RuntimeError, match=f"accepted {keep.size} of 2000 draws, not 50"):
        verify._accepted_draws(7, 50, 2000, slow, *caps)
    with pytest.raises(RuntimeError, match="accepted 0 of 300 draws, not 5"):
        verify._accepted_draws(7, 5, 300, lambda gp, mp: np.zeros(mp.p.shape, bool), *caps)


# The per-state loops that the batched checks replaced, written through the
# public functions.  overlap and norm_squared take the same _turns angular
# factor as the batched core, so every field must agree bit for bit.

def _each_state(cap, signed):
    return [QuantumNumbers(n, m) for n in range(cap + 1) for m in range(-n if signed else 0, n + 1)]


def _loop_recurrence(cap):
    qs = np.linspace(-1.0, 1.0, 21)
    for qn in _each_state(cap, signed=False):
        n, m = qn.n, qn.m
        lhs = (n + 0.5) * gegenbauer(n - m, m + 0.5, qs)
        hi = (m + 0.5) * gegenbauer(n - m, m + 1.5, qs)
        lo = (m + 0.5) * gegenbauer(n - m - 2, m + 1.5, qs)
        scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.maximum(np.abs(hi), np.abs(lo))))
        yield np.abs(lhs - (hi - lo)), scale


def _loop_connection(cap):
    ts = np.linspace(-0.99, 0.99, 21)
    for qn in _each_state(cap, signed=False):
        n, m = qn.n, qn.m
        lhs = (float(double_factorial(2 * m - 1)) * gegenbauer(n - m, m + 0.5, ts)
               * ((1.0 - ts) * (1.0 + ts)) ** (0.5 * m))
        rhs = assoc_legendre(n, m, ts)
        yield np.abs(lhs - rhs), np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))


def _loop_normalization(cap):
    return ((abs(norm_squared(qn) - 1.0), 1.0) for qn in _each_state(cap, signed=True))


def _loop_same_m(cap):
    return ((abs(overlap(qn, QuantumNumbers(n2, qn.m))), 1.0)
            for qn in _each_state(cap, signed=True) for n2 in range(qn.n + 1, cap + 1))


def _loop_same_n(cap):
    return ((abs(overlap(qn, QuantumNumbers(qn.n, m2))), 1.0)
            for qn in _each_state(cap, signed=True) for m2 in range(qn.m + 1, qn.n + 1))


def _loop_ode(cap):
    rhos = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0)
    return ((np.abs(radial_ode_residual(qn, rhos)), 1.0) for qn in _each_state(cap, signed=True))


def _loop_conjugation(cap):
    pt = PolarPoint(np.array([[0.3], [1.0], [4.0]]), np.array([0.35, 2.1, 5.0]))
    return ((np.abs(psi_position(QuantumNumbers(qn.n, -qn.m), pt) - np.conj(psi_position(qn, pt))),
             1.0) for qn in _each_state(cap, signed=False))


def _loop_parseval(cap):
    for qn in _each_state(cap, signed=True):
        (q, w), = gauss_rules("legendre", [qn.n + 1])
        p = qn.q0 * np.sqrt((1.0 + q) / (1.0 - q))
        dens = np.abs(psi_momentum(qn, MomentumPoint(p, 0.0))) ** 2
        yield abs(2.0 * math.pi * float(np.sum(w * dens * (qn.q0 / (1.0 - q)) ** 2)) - 1.0), 1.0


def _loop_two_form(cap):
    p = np.geomspace(0.05, 1e4, 20)
    mp = MomentumPoint(p[:, None], np.array([0.0, math.pi / 3.0, math.pi]))
    for qn in _each_state(cap, signed=True):
        am, q0, q = abs(qn.m), qn.q0, q_of_p(p, qn.q0)
        largest = np.max([np.abs(assoc_legendre(k, am, q)) for k in range(am, qn.n + 1)], 0)
        scale = (math.sqrt(qn.factorial_ratio / (2.0 * math.pi))
                 * (2.0 * q0 / (p * p + q0 * q0)) ** 1.5 * largest)
        yield np.abs(psi_momentum(qn, mp) - psi_momentum_gegenbauer(qn, mp)), scale[:, None]


def _loop_phase(cap):
    ps, phis = np.array([[0.3], [1.7]]), np.array([0.9, -2.3, 4.4])
    for qn in _each_state(cap, signed=True):
        base = psi_momentum(qn, MomentumPoint(ps, 0.0))
        turns = np.cos(qn.m * phis) + 1j * np.sin(qn.m * phis)
        yield np.abs(psi_momentum(qn, MomentumPoint(ps, phis)) - base * turns), 1.0


def _coefficient_reference(n, m, q0, mp):
    # The coefficient check's reference for one state: the Gegenbauer form at the scale q0
    # over N m!, as a one-element array.
    core = momentum._closed_form(np.array([n]), np.array([m]), np.array([[mp.p]]),
                                 np.array([[mp.phi_p]]), q0, momentum._gegenbauer_amplitude)
    return core[:, 0] / (position._norms(n, m)[1] * np.array([math.factorial(m)]))


def _loop_coefficients(cap):
    q0, mp = 1.0, MomentumPoint(0.7, 0.3)
    coeffs = series_coefficients(
        lambda z, t: gen_func_momentum(GenFuncParams(z, t, q0, 0.0), mp).g, (cap + 1, cap + 1))
    for qn in _each_state(cap, signed=False):
        ref = _coefficient_reference(qn.n, qn.m, q0, mp)
        yield np.abs(coeffs[qn.n, qn.m] - ref), np.abs(ref)


def _series_errors(coeffs, ladder, shift=0):
    # The series checks' former reading: want[n] is item n - shift of the ladder, taken
    # one by one, and 0 for n < shift.
    want = np.zeros_like(coeffs)
    for n, row in zip(range(shift, len(coeffs)), ladder):
        want[n] = row
    return np.abs(coeffs - want), np.maximum(1.0, np.abs(want))


def _loop_gegenbauer_gf_coefficients(cap):
    qs = np.linspace(-1.0, 1.0, 21)
    for lam in (0.5, 1.5, 2.5, 3.5):
        coeffs = series_coefficients(lambda z: genfunc.gegenbauer_gf(z[:, None], qs, lam),
                                     (cap + 1,), **verify._GF_CIRCLE)
        yield _series_errors(coeffs, polys._gegenbauer_ladder(lam, qs))


def _loop_laguerre_derivative(cap):
    vs = np.linspace(0.1, 10.0, 12)
    for alpha in (0.0, 1.0, 2.0, 4.0):
        def degrees(h):
            ladder = polys._laguerre_ladder(alpha, np.multiply.outer(1.0 + h, vs))
            return np.stack(list(itertools.islice(ladder, cap + 1)), axis=1)
        coeffs = series_coefficients(degrees, (2,), radius=0.5, nodes=64)
        want = (-vs * laguerre(n - 1, alpha + 1.0, vs) for n in range(1, cap + 1))
        yield _series_errors(coeffs[1, 1:], want)


def _gf_case(gf, *params):
    return series_coefficients(lambda z: gf(z[:, None], *params), (31,), **verify._GF_CIRCLE)


def _loop_laguerre_gf(cap):
    for r, v in ((2.0, 1.5), (0.0, 0.0), (4.5, 3.0), (1.0, 2.0)):
        vs = np.array([v])
        yield _series_errors(_gf_case(genfunc.laguerre_gf, r, vs), polys._laguerre_ladder(r, vs))


def _loop_shifted_laguerre_gf(cap):
    for m, v in ((0, 1.0), (2, 1.0), (1, 2.5), (4, 0.5)):
        vs = np.array([v])
        yield _series_errors(_gf_case(genfunc.shifted_laguerre_gf, m, vs),
                             polys._laguerre_ladder(2 * m, vs), shift=m)


_COORDINATE_CASES = ((1.0, 1.5, 0.7), (0.8, 0.6, 2.0), (1.3, 3.0, 4.2))


def _coordinate_reference(n, m, v, phi):
    # The coordinate-gf check's reference for one state: the radial factor times the angular
    # one, over N m!, at the arrays v and phi of the cases.
    return (position._radial(np.array([n]), np.array([m]), v[None])[0] * polys._turns(m, phi)
            / (position._norms(n, m)[1] * np.array([math.factorial(m)])))


def _loop_coordinate_gf(cap):
    for q0, rho, phi in _COORDINATE_CASES:
        coeffs = series_coefficients(
            lambda z, t: genfunc.coordinate_gf(z, t, q0, PolarPoint(rho, phi)), (11, 11))
        want = np.zeros_like(coeffs)
        for qn in _each_state(10, signed=False):
            want[qn.n, qn.m] = _coordinate_reference(qn.n, qn.m, np.array([2.0 * q0 * rho]),
                                                     np.array([phi]))[0]
        yield np.abs(coeffs - want), np.maximum(1.0, np.abs(want))


def test_gegenbauer_core_is_the_papers_coefficient():
    # The reference of genfunc-coefficient-consistency against the paper's coefficient
    # written out term by term in Python floats, with libm phases, at the check's point and
    # at three more (q0, p, phi_p), q0 a free scale of the Gegenbauer core.
    for q0, mp in ((1.0, MomentumPoint(0.7, 0.3)), (1.0, MomentumPoint(2.5, -2.0)),
                   (0.37, MomentumPoint(0.7, 0.3)), (2.2, MomentumPoint(0.15, 5.1))):
        q, denom = q_of_p(mp.p, q0), mp.p**2 + q0**2
        for qn in _each_state(8, signed=False):
            n, m = qn.n, qn.m
            amp = ((2 * n + 1) * (4.0**m) * q0 ** (m + 1) * pochhammer(1.5, m)
                   * gegenbauer(n - m, m + 0.5, q) * mp.p**m
                   / ((2 * m + 1) * math.factorial(m) * denom ** (m + 1.5)))
            want = amp * ((-1j) ** (m % 4)) * cmath.exp(1j * m * mp.phi_p)
            got = complex(_coefficient_reference(n, m, q0, mp)[0])
            assert abs(got - want) <= 1e-14 * abs(want), (q0, mp, n, m)


def test_radial_core_is_the_coordinate_basis_term():
    # The reference of coordinate-gf against v^m e^(-v/2) L_{n-m}^(2m)(v) e^(i m phi) / m!
    # written out in Python floats, with libm phases.
    for q0, rho, phi in _COORDINATE_CASES:
        v = 2.0 * q0 * rho
        for qn in _each_state(10, signed=False):
            n, m = qn.n, qn.m
            want = (v**m * math.exp(-0.5 * v) * cmath.exp(1j * m * phi) / math.factorial(m)
                    * laguerre(n - m, 2 * m, v))
            got = complex(_coordinate_reference(n, m, np.array([v]), np.array([phi]))[0])
            # (L_1^(2)(3) = 3 - 3 is exactly 0 on both sides)
            assert abs(got - want) <= 1e-14 * abs(want), (q0, rho, phi, n, m)


def _loop_gegenbauer_gf(cap):
    for q, alpha in ((0.3, 2.5), (1.0, 1.5), (-0.8, 0.5)):
        qs = np.array([q])
        yield _series_errors(_gf_case(genfunc.gegenbauer_gf, qs, alpha),
                             polys._gegenbauer_ladder(alpha, qs))


def _loop_new_legendre_gf(cap):
    for t, m in ((0.3, 0), (0.3, 2), (-0.6, 1), (0.0, 3)):
        ts = np.array([t])
        weighted = ((2 * n + 1) / double_factorial(2 * m + 1) * p
                    for n, p in zip(itertools.count(m), polys._assoc_legendre_ladder(m, ts)))
        yield _series_errors(_gf_case(genfunc.new_legendre_gf, ts, m), weighted, shift=m)


def _reindexing_cases(cap):
    for m in range(5):
        yield m, series_coefficients(
            lambda z: ((1.0 - z * z) * z**m)[:, None]
            * genfunc.gegenbauer_gf(z[:, None], verify._REINDEX_QS, m + 1.5),
            (cap + 1,), radius=0.8, nodes=256)


def _loop_reindexing(cap):
    for m, coeffs in _reindexing_cases(cap):
        ladder = polys._gegenbauer_ladder(m + 1.5, verify._REINDEX_QS)
        lagged = itertools.chain((0.0, 0.0), polys._gegenbauer_ladder(m + 1.5, verify._REINDEX_QS))
        yield _series_errors(coeffs, (c - b for c, b in zip(ladder, lagged)), shift=m)


def _loop_chain(cap):
    for m, coeffs in _reindexing_cases(cap):
        ladder = polys._gegenbauer_ladder(m + 0.5, verify._REINDEX_QS)
        yield _series_errors(coeffs[m:], ((2.0 * n + 1.0) / (2.0 * m + 1.0) * c
                                          for n, c in zip(itertools.count(m), ladder)))


_LOOPS = {
    "gegenbauer-gf-coefficients": (verify.check_gegenbauer_gf_coefficients,
                                   _loop_gegenbauer_gf_coefficients),
    "gegenbauer-difference-recurrence": (verify.check_gegenbauer_recurrence, _loop_recurrence),
    "gegenbauer-legendre-connection": (verify.check_legendre_connection, _loop_connection),
    "position-normalization": (check_position_normalization, _loop_normalization),
    "position-orthogonality-same-m": (verify.check_position_orthogonality, _loop_same_m),
    "position-orthogonality-same-n": (verify.check_angular_orthogonality, _loop_same_n),
    "radial-ode-residual": (verify.check_ode_residual, _loop_ode),
    "position-conjugation": (verify.check_position_conjugation, _loop_conjugation),
    "momentum-parseval": (check_parseval, _loop_parseval),
    "momentum-two-form-equality": (check_two_form_equality, _loop_two_form),
    "momentum-phase-structure": (verify.check_momentum_phase_structure, _loop_phase),
    "genfunc-coefficient-consistency": (check_coefficient_consistency, _loop_coefficients),
    "laguerre-derivative": (check_laguerre_derivative, _loop_laguerre_derivative),
    "laguerre-gf": (check_laguerre_gf, _loop_laguerre_gf),
    "shifted-laguerre-gf": (check_shifted_laguerre_gf, _loop_shifted_laguerre_gf),
    "coordinate-gf": (check_coordinate_gf, _loop_coordinate_gf),
    "gegenbauer-gf": (check_gegenbauer_gf, _loop_gegenbauer_gf),
    "new-legendre-gf": (check_new_legendre_gf, _loop_new_legendre_gf),
    "gegenbauer-reindexing-identity": (verify.check_reindexing_identity, _loop_reindexing),
    "gegenbauer-chain-consistency": (verify.check_reindexing_chain, _loop_chain),
}
# The checks among them that judge the absolute error; the rest judge the relative one.
_ABSOLUTE = ("position", "radial", "momentum-parseval", "momentum-phase")


@pytest.mark.parametrize("name", list(_LOOPS))
def test_batched_check_equals_its_per_state_loop(name):
    check, loop = _LOOPS[name]
    default = inspect.signature(check).parameters["n_max"].default
    for n_max in dict.fromkeys((1, 3, 10, default)):  # a default of None: a fixed case set
        rep = check(n_max=n_max)
        want = VerificationReport.from_errors(name, "", loop(n_max), rep.tolerance,
                                              relative=not name.startswith(_ABSOLUTE))
        assert rep.check_name == name
        assert (rep.max_abs_err, rep.max_rel_err, rep.passed) == \
            (want.max_abs_err, want.max_rel_err, want.passed), n_max


_LADDERS = ("_laguerre_ladder", "_assoc_legendre_ladder", "_gegenbauer_ladder")


@pytest.mark.parametrize("name", list(_LOOPS))
def test_batched_check_starts_as_many_ladders_at_any_cap(monkeypatch, name):
    # A per-state loop starts ladders in proportion to the states; a batched
    # check starts the same few at n_max 3 as at 10.  Counted, not timed.
    started = []
    for ladder in _LADDERS:
        original = getattr(polys, ladder)

        def counted(*args, _ladder=ladder, _original=original, **kwargs):
            started.append(_ladder)
            return _original(*args, **kwargs)
        for module in (polys, position, momentum, verify):
            if hasattr(module, ladder):
                monkeypatch.setattr(module, ladder, counted)
    counts = []
    for n_max in (3, 10):
        started.clear()
        _LOOPS[name][0](n_max=n_max)
        counts.append(sorted(started))
    assert counts[0] == counts[1]
    assert 1 <= len(counts[0]) <= 3


_ONE_STATE = {"QuantumNumbers", "psi_position", "psi_momentum", "psi_momentum_gegenbauer",
              "radial_wavefunction", "radial_ode_residual", "overlap", "norm_squared",
              "ft_hankel"}


def _named(module):
    tree = ast.parse(inspect.getsource(module))
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def test_checks_take_states_only_through_the_state_axis_cores():
    # verify neither builds one state nor calls a one-state evaluator, and the
    # oracle takes its radial factor from the state-axis core, not the public one.
    assert not _named(verify) & _ONE_STATE
    assert "radial_wavefunction" not in _named(ftoracle)


def test_checks_keep_no_private_formula_or_quadrature():
    # measure-factor-adjudication, genfunc-coefficient-consistency and coordinate-gf read the
    # shipped cores, not a toy quadrature or a hand-written copy of a closed form, and
    # momentum-two-form-equality takes its q and weight from Fock's map.
    assert not _named(verify) & {"gauss_rules", "panel_nodes", "pochhammer", "q_of_p", "cmath"}
    reads = {"check_measure_factor": {"_psi_momentum_gegenbauer", "_levi_civita_rows"},
             "check_coefficient_consistency": {"_closed_form", "_gegenbauer_amplitude"},
             "check_coordinate_gf": {"_radial", "_turns"},
             "check_two_form_equality": {"_fock"}}
    for name, cores in reads.items():
        assert cores <= _named(getattr(verify, name)), name


def test_checks_build_no_quantum_numbers(monkeypatch):
    # The cores take q0 and N from position._q0 and position._norms, not from a validated
    # QuantumNumbers per distinct state (1,707 of them in one run of all, 2,804 in the
    # five identity suites at n_max = 10 when a per-state helper built them).
    built = []
    original = QuantumNumbers.__post_init__

    def counted(qn):
        built.append((qn.n, qn.m))
        original(qn)
    monkeypatch.setattr(QuantumNumbers, "__post_init__", counted)
    QuantumNumbers(2, 1)  # the counter sees a build
    assert built == [(2, 1)]
    built.clear()
    run_suite("all")
    assert built == []
    for suite in SUITE_ORDER[:-1]:  # every suite but ft
        run_suite(suite, n_max=10)
    assert built == []


def test_one_q0_moves_every_consumer(monkeypatch):
    # q0 = 1/(n + 1/2) has one definition, position._q0.  Detuned in every module that
    # binds it, every consumer moves, and the two Fourier oracles still agree: each takes
    # the detuned q0 for its own nodes and contour, not only through N.
    n, m, p, phi = 3, -2, 0.6, 0.4
    qn, mp = QuantumNumbers(n, m), MomentumPoint(p, phi)
    rows = (np.array([n]), np.array([m]), np.array([[p]]), np.array([[phi]]))

    def values():
        return {"q0": qn.q0, "psi_position": psi_position(qn, PolarPoint(1.3, phi)),
                "radial_ode_residual": radial_ode_residual(qn, 1.3),
                "psi_momentum": psi_momentum(qn, mp),
                "psi_momentum_gegenbauer": psi_momentum_gegenbauer(qn, mp),
                "ft_hankel": ftoracle.ft_hankel(qn, mp),
                "levi_civita": complex(ftoracle._levi_civita_rows(*rows)[0, 0])}
    before = values()
    true_q0 = position._q0
    binders = [module for name, module in sorted(sys.modules.items())
               if name.startswith("hydro2d.") and getattr(module, "_q0", None) is true_q0]
    assert {position, momentum, ftoracle, verify} <= set(binders)
    for module in binders:
        monkeypatch.setattr(module, "_q0", lambda n: true_q0(n) * (1.0 + 1e-6))
    try:
        after = values()
    finally:
        monkeypatch.undo()
    assert [name for name in before if after[name] == before[name]] == []
    assert abs(after["ft_hankel"] - after["levi_civita"]) <= 1e-9 * abs(after["levi_civita"])


def test_series_checks_make_one_cauchy_call_each(monkeypatch):
    calls = []
    original = verify.series_coefficients
    monkeypatch.setattr(verify, "series_coefficients",
                        lambda *args, **kwargs: calls.append(1) or original(*args, **kwargs))
    counts = {}
    for check in SUITES["polys"] + SUITES["genfunc"]:
        calls.clear()
        name = check().check_name
        counts[name] = len(calls)
    assert sum(counts.values()) == 9 and set(counts.values()) == {0, 1}, counts
    assert counts["laguerre-derivative"] == counts["gegenbauer-chain-consistency"] == 1


def _is_ladder_call(node):
    name = getattr(node, "func", None)
    name = getattr(name, "id", None) or getattr(name, "attr", "")
    return isinstance(node, ast.Call) and name.startswith("_") and name.endswith("_ladder")


def test_verify_reads_every_ladder_through_degree():
    # No ladder is consumed item by item in verify: no itertools, and no for loop,
    # comprehension or zip iterates a _*_ladder(...) call.
    tree = ast.parse(inspect.getsource(verify))
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "itertools" not in modules
    iterated = [node.iter for node in ast.walk(tree)
                if isinstance(node, (ast.For, ast.comprehension))]
    iterated += [arg for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "zip"
                 for arg in node.args]
    assert iterated
    assert [ast.unparse(node) for node in iterated if _is_ladder_call(node)] == []
