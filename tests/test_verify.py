"""Verification registry: suite wiring, caps, overrides, adjudication notes.

The heavy numerical content of each check is exercised by the acceptance
tests; here the suites are run at reduced caps to keep this file fast, and
the contract-level properties (names, note strings, tolerance plumbing) are
pinned down.
"""

import math

import numpy as np
import pytest

from hydro2d import genfunc, verify
from hydro2d.levicivita import GenFuncParams, GenFuncValues, quadratic_form_matrix
from hydro2d.momentum import MomentumPoint
from hydro2d.position import QuantumNumbers
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
    original = verify.psi_momentum
    monkeypatch.setattr(verify, "psi_momentum", lambda qn, mp: (1.0 + 1e-6) * original(qn, mp))
    assert not check_parseval().passed


def test_scaled_derivative_side_fails_laguerre_derivative(monkeypatch):
    # The right-hand side L_{n-1}^(alpha+1) is the one call on the unshifted grid.
    original, grid = verify.laguerre, np.linspace(0.1, 10.0, 12)

    def off(n, alpha, v):
        return original(n, alpha, v) * (1.0 + 1e-5 if np.array_equal(v, grid) else 1.0)
    monkeypatch.setattr(verify, "laguerre", off)
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
    original = verify.psi_momentum_gegenbauer

    def first_point_nan(qn, mp):
        value = np.array(original(qn, mp))
        value.flat[0] = np.nan
        return value
    monkeypatch.setattr(verify, "psi_momentum_gegenbauer", first_point_nan)
    _assert_nan_fails(check_two_form_equality(n_max=3))


def test_nan_norm_fails_position_normalization(monkeypatch):
    original = verify.norm_squared
    monkeypatch.setattr(verify, "norm_squared",
                        lambda qn: math.nan if qn == QuantumNumbers(3, 1) else original(qn))
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
    u = np.random.default_rng(seed).uniform(size=(limit, 8))
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
