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
from hydro2d.levicivita import GenFuncValues
from hydro2d.position import QuantumNumbers
from hydro2d.verify import (
    SUITE_ORDER,
    SUITES,
    acceptance_grid,
    check_coefficient_consistency,
    check_coordinate_gf,
    check_gegenbauer_gf,
    check_laguerre_gf,
    check_measure_factor,
    check_new_legendre_gf,
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
