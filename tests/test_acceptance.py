"""Acceptance criteria, one test per criterion, one printed line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.  Each test
exercises the full stated scope at the stated tolerance and also enforces
the stated runtime budget.  Tolerance interpretations that needed a
decision:

* criterion 1 compares energies at 5e-16 relative, i.e. a couple of ulps,
  because -(1/(n+1/2))^2 and -1/(n+1/2)^2 round differently for some n;
* criterion 6 treats the 1e-10 identity tolerance as a residual scaled by
  the largest participating term, since the raw terms reach 1e15 at n = 20
  and no float identity can hold to 1e-10 absolute there;
* criterion 9's 1e-12 relative equality is evaluated on p up to 1e4, with
  each error scaled by the largest term of the associated-Legendre ladder, so
  that points next to a radial node (all below p = 1) are measured against
  the terms that cancel there rather than against the vanishing value.
"""

import io
import contextlib
import time

from hydro2d.cli import main
from hydro2d.verify import (
    check_det_identity,
    check_gaussian_integral,
    check_gegenbauer_recurrence,
    check_coordinate_gf,
    check_gegenbauer_gf,
    check_laguerre_gf,
    check_legendre_connection,
    check_measure_factor,
    check_new_legendre_gf,
    check_ode_residual,
    check_oracle_agreement,
    check_parseval,
    check_position_normalization,
    check_reindexing_chain,
    check_reindexing_identity,
    check_shifted_laguerre_gf,
    check_two_form_equality,
    check_two_oracles,
)


def _emit(num, ok, label, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'}  {label}  ({detail})")


def _finish(num, label, ok, detail, elapsed, budget):
    ok = ok and elapsed < budget
    _emit(num, ok, label, f"{detail}, runtime {elapsed:.2f}s < {budget:.0f}s")
    assert ok, f"criterion {num}: {label}: {detail}, runtime {elapsed:.2f}s"


def test_criterion_1_spectrum_exact():
    t0 = time.perf_counter()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["eigen", "--n-max", "10"])
    rows = buf.getvalue().splitlines()[1:]
    worst = 0.0
    for row in rows:
        n_txt, _, e_txt = row.split(",")
        want = -1.0 / (int(n_txt) + 0.5) ** 2
        worst = max(worst, abs(float(e_txt) - want) / abs(want))
    ok = code == 0 and len(rows) == 11 and worst <= 5e-16
    _finish(1, "spectrum E_n = -1/(n+1/2)^2 exact for n <= 10", ok,
            f"worst rel dev {worst:.2e} (<= 5e-16, a 2-ulp rounding allowance)",
            time.perf_counter() - t0, 1.0)


def test_criterion_2_position_normalization():
    t0 = time.perf_counter()
    rep = check_position_normalization(n_max=10)
    ok = rep.passed and rep.max_abs_err <= 1e-8
    _finish(2, "position norm = 1 +/- 1e-8 for all |m| <= n <= 10", ok,
            f"max abs dev {rep.max_abs_err:.2e}", time.perf_counter() - t0, 5.0)


def test_criterion_3_ode_residual():
    t0 = time.perf_counter()
    rep = check_ode_residual(n_max=6)
    ok = rep.passed and rep.max_abs_err <= 1e-4
    _finish(3, "radial ODE residual <= 1e-4 on the stated rho grid, n <= 6", ok,
            f"max residual {rep.max_abs_err:.2e}", time.perf_counter() - t0, 5.0)


def test_criterion_4_fourier_oracle():
    t0 = time.perf_counter()
    main_rep = check_oracle_agreement()   # n <= 4, 20 log-spaced p in [0.05, 20]
    cross_rep = check_two_oracles()       # n <= 3, hankel vs Levi-Civita
    ok = (main_rep.passed and main_rep.max_abs_err <= 1e-6
          and cross_rep.passed and cross_rep.max_abs_err <= 1e-7)
    _finish(4, "closed forms match the FT oracle (1e-6) and the two oracles "
               "match each other (1e-7)", ok,
            f"closed-vs-oracle {main_rep.max_abs_err:.2e}, "
            f"oracle-vs-oracle {cross_rep.max_abs_err:.2e}",
            time.perf_counter() - t0, 120.0)


def test_criterion_5_parseval():
    t0 = time.perf_counter()
    rep = check_parseval(n_max=6)
    ok = rep.passed and rep.max_abs_err <= 1e-6
    _finish(5, "momentum norm = 1 +/- 1e-6 for n <= 6", ok,
            f"max abs dev {rep.max_abs_err:.2e}", time.perf_counter() - t0, 10.0)


def test_criterion_6_recurrence_and_connection():
    t0 = time.perf_counter()
    rec = check_gegenbauer_recurrence(n_max=20)
    con = check_legendre_connection(n_max=12)
    ok = (rec.passed and rec.max_rel_err <= 1e-10
          and con.passed and con.max_rel_err <= 1e-10)
    _finish(6, "Gegenbauer difference recurrence (n <= 20) and Legendre "
               "connection (n <= 12) hold to 1e-10 (term-scaled residual)", ok,
            f"recurrence {rec.max_rel_err:.2e}, connection {con.max_rel_err:.2e}",
            time.perf_counter() - t0, 5.0)


def test_criterion_7_generating_functions():
    t0 = time.perf_counter()
    reports = [check_laguerre_gf(), check_shifted_laguerre_gf(),
               check_coordinate_gf(), check_gegenbauer_gf(),
               check_new_legendre_gf(), check_reindexing_identity(),
               check_reindexing_chain()]
    worst_by_tol = max(r.max_rel_err / r.tolerance for r in reports)  # all seven are relative
    ok = all(r.passed for r in reports)
    _finish(7, "every generating-function closed form's Taylor coefficients match "
               "its series at the stated tolerances (1e-8 .. 1e-10)", ok,
            f"{len(reports)} checks, worst error/tolerance ratio {worst_by_tol:.2g}",
            time.perf_counter() - t0, 30.0)


def test_criterion_8_levicivita_machinery():
    t0 = time.perf_counter()
    det = check_det_identity()          # 100 random draws, 1e-12 relative
    gauss = check_gaussian_integral()   # 20 draws, 1e-7 absolute
    meas = check_measure_factor()
    ok = (det.passed and det.max_rel_err <= 1e-12
          and gauss.passed and gauss.max_abs_err <= 1e-7
          and meas.passed and "c = 2" in meas.notes)
    _finish(8, "determinant identity (1e-12 rel, 100 draws), Gaussian "
               "integral (1e-7, 20 draws), measured measure factor stated "
               "in the report", ok,
            f"det {det.max_rel_err:.2e}, gauss {gauss.max_abs_err:.2e}, "
            f"note: {meas.notes.split(';')[0]}",
            time.perf_counter() - t0, 30.0)


def test_criterion_9_two_form_equality():
    t0 = time.perf_counter()
    rep = check_two_form_equality(n_max=8)
    ok = (rep.passed and rep.max_rel_err <= 1e-12
          and "typo" in rep.notes and "q0" in rep.notes)
    _finish(9, "Gegenbauer and associated-Legendre momentum forms equal to "
               "1e-12 relative, report names the denominator typo correction", ok,
            f"max rel {rep.max_rel_err:.2e}, note: {rep.notes.split(';')[1].strip()}",
            time.perf_counter() - t0, 5.0)
