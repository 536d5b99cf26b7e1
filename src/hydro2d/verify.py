"""Named verification checks, grouped into suites for the CLI.

Every check returns a VerificationReport and is deterministic: random draws
come from the stdlib ``random.Random`` at a fixed seed, grids are fixed, and
nothing depends on wall-clock state.
Each check's signature carries its default n_max (the cap stated in the
module contracts) and its default tolerance; ``run_suite`` passes on only
the overrides that are set.  A check that takes n_max scans every level up
to it; only ``two-oracle-agreement`` caps it, for cost.  Checks on fixed
parameter sets accept n_max and ignore it.

Most checks take every (n, m) from ``_states`` as two arrays: a state axis
that the cores of ``position``, ``momentum`` and ``ftoracle`` evaluate in one
pass.  Each series check samples its closed form in one Cauchy call, its cases
on a trailing batch axis, and reads every expected coefficient from one
``_degree`` table of a polynomial ladder.  Every check hands its (error,
scale) pairs to ``VerificationReport.from_errors``, the one reduction to a
verdict: the largest error is max_abs_err, the largest error/scale is
max_rel_err, a NaN error fails the check and so does a sweep that compared
nothing.  Checks about an absolute error use scale 1, so the two agree.

A recurring pattern here is the *scaled* residual: polynomial identities at
degree 20 involve terms of magnitude 1e15, where float64 cannot do better
than ~1e-1 absolutely.  Such checks divide the residual by the largest
participating term (floored at 1), report that as the relative error, and
say so in the notes; the raw residual is still recorded as max_abs_err.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import genfunc
from .ftoracle import _hankel_rows, _levi_civita_rows
from .levicivita import (GenFuncParams, QuadraticFormMatrix, _principal_sqrt, _s_invariant,
                         det_x, gen_func_momentum, quadratic_form_matrix)
from .momentum import (MomentumPoint, _closed_form, _fock, _gegenbauer_amplitude, _psi_momentum,
                       _psi_momentum_gegenbauer)
from .polys import (_assoc_legendre_ladder, _degree, _gegenbauer_ladder, _laguerre_ladder,
                    _odd_factorials, _power, _turns, assoc_legendre, bessel_j, gegenbauer,
                    laguerre, legendre)
from .position import (PolarPoint, _norms, _ode_residual, _overlaps, _psi_position, _q0,
                       _radial)
from .quadrature import _row_sums, _rule_rows, series_coefficients
from .reporting import VerificationReport

_SEED = 20260814

# Momentum azimuths cycled over p-grids so phases get exercised without
# blowing up the point count.
_PHI_CYCLE = (0.0, 0.9, 2.2, -1.4, 0.5 * math.pi)

# The one-variable series checks read up to k = 30 off one circle of radius 0.75.
# The samples' rounding reaches c_k multiplied by max|f| r^-k, so a larger circle
# raises the first factor and a smaller one the second: at r = 0.8 the
# (1-z)^-9 of shifted-laguerre-gf at m = 4 reads 1.5e-11, at r = 0.5 r^-30 = 2^30.
_GF_CIRCLE = {"radius": 0.75, "nodes": 256}
_GF_NOTES = ("coefficients by Cauchy quadrature, r = 0.75, 256 nodes; "
             "errors scaled by max(1, |value|)")


def _grid_points(p_values: np.ndarray) -> MomentumPoint:
    """The momenta ``p_values`` as one array point, azimuths cycling through _PHI_CYCLE."""
    return MomentumPoint(p_values, np.resize(_PHI_CYCLE, p_values.size))


def acceptance_grid() -> MomentumPoint:
    """The oracle acceptance run's 20 log-spaced momenta on [0.05, 20], as one array point."""
    return _grid_points(np.geomspace(0.05, 20.0, 20))


def _states(cap: int, signed: bool) -> Tuple[np.ndarray, np.ndarray]:
    """Arrays n, m of every state with n <= cap: m in [-n, n] when signed, else in [0, n]."""
    return tuple(np.array([(n, m) for n in range(cap + 1)
                           for m in range(-n if signed else 0, n + 1)]).T)


# ---------------------------------------------------------------------------
# polys suite
# ---------------------------------------------------------------------------

def _ladder_errors(coeffs: np.ndarray, want: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(|c - want|, max(1, |want|)), the pair ``from_errors(relative=True)`` reduces, for the
    Taylor coefficients c of a generating function and the table ``want`` of its series,
    read off a ladder by one ``_degree`` pass with a leading axis of degrees n - shift.
    """
    return np.abs(coeffs - want), np.maximum(1.0, np.abs(want))


def check_gegenbauer_gf_coefficients(n_max: int = 12, tol: float = 1e-9) -> VerificationReport:
    """Gegenbauer values vs Taylor coefficients of (1-2qz+z^2)^(-lam)."""
    qs, lams = np.linspace(-1.0, 1.0, 21), (0.5, 1.5, 2.5, 3.5)
    coeffs = series_coefficients(  # c[k, q, lam]
        lambda z: np.stack([genfunc.gegenbauer_gf(z[:, None], qs, lam) for lam in lams], -1),
        (n_max + 1,), **_GF_CIRCLE)
    want = _degree(_gegenbauer_ladder(np.array(lams), qs[:, None]),
                   np.arange(n_max + 1)[:, None, None], "gegenbauer")
    return VerificationReport.from_errors(
        "gegenbauer-gf-coefficients",
        f"k <= {n_max}, lam in {{1/2,3/2,5/2,7/2}}, q on 21-point grid of [-1,1]",
        [_ladder_errors(coeffs, want)], tol, relative=True, notes=_GF_NOTES)


def check_gegenbauer_recurrence(n_max: int = 20, tol: float = 1e-10) -> VerificationReport:
    """(n+1/2) C_{n-m}^(m+1/2) = (m+1/2)[C_{n-m}^(m+3/2) - C_{n-m-2}^(m+3/2)]."""
    qs = np.linspace(-1.0, 1.0, 21)[None]
    n, m = (a[:, None] for a in _states(n_max, signed=False))
    # C_(n-m)^(m+1/2), C_(n-m)^(m+3/2) and C_(n-m-2)^(m+3/2) as the rows of one ladder
    ladder = _gegenbauer_ladder(np.concatenate([m + 0.5, m + 1.5, m + 1.5]), qs)
    c, hi, lo = np.split(_degree(ladder, np.concatenate([n - m, n - m, n - m - 2]), "gegenbauer"),
                         3)
    lhs, hi, lo = (n + 0.5) * c, (m + 0.5) * hi, (m + 0.5) * lo
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.maximum(np.abs(hi), np.abs(lo))))
    return VerificationReport.from_errors(
        "gegenbauer-difference-recurrence",
        f"0 <= m <= n <= {n_max}, q on 21-point grid of [-1,1]",
        [(np.abs(lhs - (hi - lo)), scale)], tol, relative=True,
        notes="residual scaled by largest term; raw magnitudes reach ~1e15 at n=20")


def check_legendre_connection(n_max: int = 12, tol: float = 1e-10) -> VerificationReport:
    """(2m-1)!! C_{n-m}^(m+1/2)(t) (1-t^2)^(m/2) = P_n^m(t), no Condon-Shortley."""
    ts = np.linspace(-0.99, 0.99, 21)[None]
    n, m = (a[:, None] for a in _states(n_max, signed=False))
    lhs = (_odd_factorials(m) * _degree(_gegenbauer_ladder(m + 0.5, ts), n - m, "gegenbauer")
           * _power((1.0 - ts) * (1.0 + ts), 0.5 * m))
    rhs = _degree(_assoc_legendre_ladder(m, ts), n - m, "assoc_legendre")
    return VerificationReport.from_errors(
        "gegenbauer-legendre-connection",
        f"0 <= m <= n <= {n_max}, |t| <= 0.99 on 21-point grid",
        [(np.abs(lhs - rhs), np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs))))],
        tol, relative=True,
        notes="both sides use the convention without the Condon-Shortley sign; "
              "residual scaled by largest term")


def check_laguerre_derivative(n_max: int = 10, tol: float = 1e-6) -> VerificationReport:
    """v L_n^(a)'(v) = -v L_{n-1}^(a+1)(v): row n of c[1] of h -> L_n^(a)(v (1 + h)) is v L_n'."""
    vs, alphas = np.linspace(0.1, 10.0, 12)[:, None], np.array([0.0, 1.0, 2.0, 4.0])
    degrees = np.arange(n_max + 1)[:, None, None]
    coeffs = series_coefficients(  # c[j, n, v, alpha]: L_0 ... L_{n_max} at v (1 + h)
        lambda h: _degree(_laguerre_ladder(alphas, (1.0 + h)[:, None, None, None] * vs),
                          degrees, "laguerre"), (2,), radius=0.5, nodes=64)
    want = -vs * _degree(_laguerre_ladder(alphas + 1.0, vs), degrees[:-1], "laguerre")
    return VerificationReport.from_errors(
        "laguerre-derivative",
        f"1 <= n <= {n_max}, alpha in {{0,1,2,4}}, v in [0.1, 10]",
        [_ladder_errors(coeffs[1, 1:], want)], tol, relative=True,
        notes="v L_n' by Cauchy coefficients on |h| = 1/2, 64 nodes; scaled by largest term")


def check_polys_determinism(n_max: Optional[int] = None, tol: float = 0.0) -> VerificationReport:
    """Identical inputs must give bit-identical outputs."""
    xs = np.linspace(0.0, 12.0, 7)
    ts = np.linspace(-1.0, 1.0, 7)
    samples: List[float] = []
    for _ in range(2):
        vals = [laguerre(7, 2.0, xs), gegenbauer(9, 2.5, ts), legendre(11, ts),
                assoc_legendre(9, 4, ts),
                np.array([bessel_j(m, x) for m in (0, 3) for x in (0.5, 25.0, 200.0)])]
        samples.append(np.concatenate([np.atleast_1d(v) for v in vals]))
    return VerificationReport.from_errors(
        "polys-determinism", "repeated evaluation of a fixed mixed batch",
        [(np.abs(samples[0] - samples[1]), 1.0)], tol, notes="bitwise reproducibility")


# ---------------------------------------------------------------------------
# position suite
# ---------------------------------------------------------------------------

def _pair_overlaps(cap: int, partner: Callable[[int, int], Iterator]) -> np.ndarray:
    """|overlap| of each state with n <= cap and each of its partners (n2, m2)."""
    overlaps = _overlaps(*np.array([(n, m, n2, m2) for n, m in zip(*_states(cap, signed=True))
                                    for n2, m2 in partner(n, m)]).reshape(-1, 4).T)
    return np.hypot(overlaps.real, overlaps.imag)  # abs() of a complex; np.abs may round apart


def check_position_normalization(n_max: int = 10, tol: float = 1e-8) -> VerificationReport:
    n, m = _states(n_max, signed=True)
    return VerificationReport.from_errors(
        "position-normalization", f"|m| <= n <= {n_max}, Gauss-Laguerre n + 1 nodes",
        [(np.abs(_overlaps(n, m, n, m).real - 1.0), 1.0)],
        tol, notes="integrand is polynomial x e^(-v): rule is exact")


def check_position_orthogonality(n_max: int = 6, tol: float = 1e-7) -> VerificationReport:
    return VerificationReport.from_errors(
        "position-orthogonality-same-m", f"n < n' <= {n_max}, shared m",
        [(_pair_overlaps(n_max, lambda n, m: ((n2, m) for n2 in range(n + 1, n_max + 1))), 1.0)],
        tol, notes="distinct eigenvalues of one Hamiltonian")


def check_angular_orthogonality(n_max: int = 6, tol: float = 1e-12) -> VerificationReport:
    return VerificationReport.from_errors(
        "position-orthogonality-same-n", f"n <= {n_max}, distinct m",
        [(_pair_overlaps(n_max, lambda n, m: ((n, m2) for m2 in range(m + 1, n + 1))), 1.0)],
        tol, notes="angular integral vanishes identically")


def check_ode_residual(n_max: int = 6, tol: float = 1e-4) -> VerificationReport:
    rhos = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0)
    return VerificationReport.from_errors(
        "radial-ode-residual", f"n <= {n_max}, |m| <= n, rho in {rhos}",
        [(np.abs(_ode_residual(*_states(n_max, signed=True), np.array([rhos]))), 1.0)],
        tol, notes="R' and R'' by Cauchy coefficients on |h| = 1/2, 64 nodes")


def check_position_conjugation(n_max: int = 6, tol: float = 0.0) -> VerificationReport:
    n, m = _states(n_max, signed=False)
    psi = _psi_position(np.tile(n, 2), np.concatenate([m, -m]),
                        np.array([[[0.3], [1.0], [4.0]]]), np.array([[0.35, 2.1, 5.0]]))
    plus, minus = np.split(psi, 2)
    return VerificationReport.from_errors(
        "position-conjugation", f"n <= {n_max}, bitwise psi(n,-m) == conj(psi(n,m))",
        [(np.abs(minus - np.conj(plus)), 1.0)],
        tol, notes="exact by construction of the angular factor")


# ---------------------------------------------------------------------------
# momentum suite
# ---------------------------------------------------------------------------

def _parseval_norms(n: np.ndarray, m: np.ndarray) -> np.ndarray:
    """2 pi * integral |psi(p, 0)|^2 p dp per state, exactly, by n + 1 Gauss-Legendre nodes in q.

    With q = (p^2 - q0^2)/(p^2 + q0^2), p dp = q0^2 dq / (1 - q)^2 and
    |psi|^2 = pref^2 ((1 - q)/q0)^3 P_n^|m|(q)^2, pref^2 = factorial_ratio / (2 pi),
    so the integrand is pref^2 (1 - q) P_n^|m|(q)^2 / q0 dq on [-1, 1]: degree 2n + 1.
    """
    q, w = _rule_rows("legendre", n + 1)
    q0 = _q0(n)[:, None]
    dens = np.abs(_psi_momentum(n, m, q0 * np.sqrt((1.0 + q) / (1.0 - q)), 0.0)) ** 2
    return 2.0 * math.pi * _row_sums(w * dens * (q0 / (1.0 - q)) ** 2, n + 1)


def check_parseval(n_max: int = 6, tol: float = 1e-6) -> VerificationReport:
    return VerificationReport.from_errors(
        "momentum-parseval", f"|m| <= n <= {n_max}, Gauss-Legendre n + 1 nodes in q",
        [(np.abs(_parseval_norms(*_states(n_max, signed=True)) - 1.0), 1.0)],
        tol, notes="unitary 1/(2pi) transform: momentum norm equals position norm")


def check_two_form_equality(n_max: int = 8, tol: float = 1e-12) -> VerificationReport:
    """Gegenbauer-route momentum wavefunction vs associated-Legendre route.

    Errors are scaled by |psi| with P_n^|m|(q) replaced by its ladder's largest
    term |P_k^|m|(q)|, k <= n: relative error at large p (all radial nodes lie
    below p = 1), the size of the cancelling terms next to a node.
    """
    p = np.geomspace(0.05, 1e4, 20)
    n, m = _states(n_max, signed=True)
    am, (q, _, weight) = np.abs(m)[:, None], _fock(p, _q0(n)[:, None])
    k = np.arange(n_max + 1)[:, None, None]  # terms[k]: 0 where k > n - |m|
    terms = _degree(_assoc_legendre_ladder(am, q), np.where(k <= n[:, None] - am, k, -1),
                    "assoc_legendre")
    scale = (np.sqrt(_norms(n, m)[0] / (2.0 * math.pi))[:, None] * weight ** 1.5
             * np.max(np.abs(terms), axis=0))
    point = (p[None, :, None], np.array([[0.0, math.pi / 3.0, math.pi]]))
    return VerificationReport.from_errors(
        "momentum-two-form-equality",
        f"|m| <= n <= {n_max}, 20-point log p-grid on [0.05, 1e4], 3 azimuths",
        [(np.abs(_psi_momentum(n, m, *point) - _psi_momentum_gegenbauer(n, m, *point)),
          scale[..., None])], tol, relative=True,
        notes="Gegenbauer-form denominator read as (p^2 + q0^2)^(|m|+3/2); the "
              "variant with unsquared q0 is dimensionally inconsistent (typo)")


def check_momentum_phase_structure(n_max: int = 6, tol: float = 0.0) -> VerificationReport:
    ps = np.array([[[0.3], [1.7]]])
    phis = np.array([0.9, -2.3, 4.4])
    n, m = _states(n_max, signed=True)
    base = _psi_momentum(n, m, ps, 0.0)
    return VerificationReport.from_errors(
        "momentum-phase-structure", f"|m| <= n <= {n_max}, exact factorized phase",
        [(np.abs(_psi_momentum(n, m, ps, phis[None]) - base * _turns(m[:, None, None], phis)),
          1.0)], tol, notes="psi(p, phi_p) = psi(p, 0) e^(i m phi_p) bitwise")


# ---------------------------------------------------------------------------
# levicivita suite
# ---------------------------------------------------------------------------

def _accepted_draws(seed: int, count: int, limit: int,
                    accept: Callable[[GenFuncParams, MomentumPoint], np.ndarray],
                    z_cap: float, p_cap: float, q0_lo: float, q0_hi: float,
                    beta_cap: float) -> Tuple[GenFuncParams, MomentumPoint]:
    """The first ``count`` of ``limit`` seeded draws that ``accept`` keeps, as arrays.

    A draw is eight uniforms of the stdlib ``random.Random(seed)``, taken draw by draw,
    in this order: (|z| / z_cap)^2, arg z, |t|^2, arg t, q0, beta, p, phi_p.  ``accept``
    maps draws to a boolean mask, one per draw.
    """
    two_pi = 2.0 * math.pi

    def params(u):
        return (GenFuncParams(z=z_cap * np.sqrt(u[:, 0]) * np.exp(1j * (two_pi * u[:, 1])),
                              t=np.sqrt(u[:, 2]) * np.exp(1j * (two_pi * u[:, 3])),
                              q0=q0_lo + (q0_hi - q0_lo) * u[:, 4], beta=beta_cap * u[:, 5]),
                MomentumPoint(p_cap * u[:, 6], two_pi * u[:, 7]))
    draw = random.Random(seed).random
    u = np.array([draw() for _ in range(8 * limit)]).reshape(limit, 8)
    kept = u[accept(*params(u))]
    if len(kept) < count:
        raise RuntimeError(f"draw filter accepted {len(kept)} of {limit} draws, not {count}")
    return params(kept[:count])


def check_det_identity(n_max: Optional[int] = None, tol: float = 1e-12) -> VerificationReport:
    """Closed-form determinant vs a11 a22 - a12^2 on random admissible draws."""
    def nondegenerate(gp, mp):
        return np.abs(det_x(gp, mp)) >= 1e-3 * (gp.q0**2 + mp.p**2 + gp.beta**2 + 1.0)
    gp, mp = _accepted_draws(_SEED, 100, 400, nondegenerate, 0.8, 10.0, 0.3, 2.5, 2.0)
    closed = det_x(gp, mp)
    return VerificationReport.from_errors(
        "quadratic-form-det-identity",
        "100 seeded draws, |z| <= 0.8, |t| <= 1, p <= 10, beta <= 2",
        [(np.abs(closed - quadratic_form_matrix(gp, mp).det()), np.abs(closed))],
        tol, relative=True, notes="dual routes kept separate")


def _polar_sum(x: QuadraticFormMatrix, angles: int) -> np.ndarray:
    """Trapezoid sum of integral_0^pi d theta / q(theta), one per entry of ``x``."""
    theta = math.pi * np.arange(angles)[:, None] / angles
    c, s = np.cos(theta), np.sin(theta)
    return (math.pi / angles) * np.sum(1.0 / (x.a11 * c * c + 2.0 * x.a12 * c * s
                                              + x.a22 * s * s), axis=0)


def check_gaussian_integral(n_max: Optional[int] = None, tol: float = 1e-7) -> VerificationReport:
    """Integral of exp(-u^T X u) over the u-plane, in polar coordinates, vs pi/sqrt(det X).

    On the ray u = r (cos theta, sin theta) the exponent is -r^2 q(theta), with
    q = a11 cos^2 + 2 a12 cos sin + a22 sin^2 and Re q >= lambda_min(Re X) >= 0.5
    on the draws.  So the radial integral is the elementary 1/(2q), and as q
    has period pi the identity reads  integral_0^pi d theta / q = pi/sqrt(det X).
    The trapezoid rule converges geometrically on this periodic analytic
    integrand (Trefethen & Weideman, SIAM Review 56 (2014) 385): 64 angles
    read 2e-12 and 128 angles 2e-15 on these draws.  The sum knows nothing of
    det X or of the square root's branch, so a wrong closed form or branch fails.
    """
    def decaying(gp, mp):
        # Re X = [[ReA - ReB, ImB], [ImB, ReA + ReB]]: lambda_min = ReA - |B|.
        x = quadratic_form_matrix(gp, mp)
        return 0.5 * (x.a11 + x.a22).real - np.hypot(0.5 * (x.a22 - x.a11).real,
                                                     x.a12.real) >= 0.5
    gp, mp = _accepted_draws(_SEED + 1, 20, 80, decaying, 0.5, 2.0, 0.8, 1.6, 1.0)
    return VerificationReport.from_errors(
        "gaussian-integral-identity",
        "20 seeded draws with positive-definite real part (min eigenvalue >= 0.5)",
        [(np.abs(_polar_sum(quadratic_form_matrix(gp, mp), 256)
                 - math.pi / np.sqrt(det_x(gp, mp))), 1.0)], tol,
        notes="exact radial integral 1/(2q), trapezoid rule on 256 angles of [0, pi)")


def check_measure_factor(n_max: Optional[int] = None, tol: float = 1e-8) -> VerificationReport:
    """Measure the constant c in  integral f d^2r = c integral f(u) u^2 d^2u: the Levi-Civita
    oracle integrates with c = 2, so c is the least-squares factor that takes half its rows
    onto the Gegenbauer form, over |m| <= n <= 4 (Hermite rules of 2 to 6 nodes), 5 momenta."""
    mp = _grid_points(np.geomspace(0.05, 20.0, 5))
    args = (*_states(4, signed=True), mp.p[None], mp.phi_p[None])
    half, psi = 0.5 * _levi_civita_rows(*args), _psi_momentum_gegenbauer(*args)
    measured = np.sum((np.conj(half) * psi).real) / np.sum(half.real**2 + half.imag**2)
    return VerificationReport.from_errors(
        "measure-factor-adjudication",
        "c fitted: Gegenbauer form vs half the Levi-Civita oracle, |m| <= n <= 4, 5 momenta",
        [(np.abs(measured - 2.0), 1.0)], tol,
        notes=f"measured measure factor c = {measured:.10g}; the squaring map "
              "covers the plane twice, so the naive factor 4 from the Jacobian "
              "alone double-counts and the honest constant is 2")


def check_beta_derivative(n_max: Optional[int] = None, tol: float = 1e-6) -> VerificationReport:
    """-c_1 of beta -> S(beta)^(-1/2) vs the reduced g (GenFuncParams keeps beta real)."""
    z = np.array([0.3, 0.25 + 0.2j, -0.4, 0.1 + 0.3j])
    t = np.array([0.2, -0.3 + 0.1j, 0.5, 0.4 - 0.2j])
    q0 = np.array([1.5, 1.2, 2.0, 1.8])
    mp = MomentumPoint(np.array([2.0, 3.0, 1.5, 2.5]), np.array([0.4, 1.8, 0.0, 4.0]))
    g = gen_func_momentum(GenFuncParams(z, t, q0, 0.0), mp).g
    coeffs = series_coefficients(
        lambda beta: 1.0 / _principal_sqrt(_s_invariant(z, t, q0, beta[:, None], mp.p, mp.phi_p)),
        (2,), radius=0.1, nodes=64)
    return VerificationReport.from_errors(
        "genfunc-beta-derivative",
        "Cauchy circle |beta| = 0.1, 64 nodes, 4 parameter sets",
        [(np.abs(-coeffs[1] - g), np.abs(g))], tol, relative=True,
        notes="reduced form (1-z^2) q0 S^(-3/2) vs -dG/dbeta by Cauchy coefficients")


def _core_scale(n: np.ndarray, m: np.ndarray) -> np.ndarray:
    """N_{n,m} m! of the states (n, m >= 0): a state's core over it is the z^n t^m coefficient
    of its generating function, which has no N and a 1/m!."""
    return _norms(n, m)[1] * np.array([math.factorial(k) for k in range(np.max(m) + 1)])[m]


def check_coefficient_consistency(n_max: int = 5, tol: float = 1e-6) -> VerificationReport:
    """Taylor coefficients of the momentum generating function.

    The (n, m) coefficient must equal the Gegenbauer form at the scale q0 over N_{n,m} m!,

        (2n+1) (-4i)^m q0^(m+1) (3/2)_m C_{n-m}^(m+1/2)(q) p^m e^(i m phi_p)
        / ((2m+1) m! (p^2 + q0^2)^(m+3/2))

    with constant 1, the unitary anchoring of ``gen_func_momentum``.  The
    source derivation chain disagrees about that constant by factors of 2,
    so it is asserted, not fitted: a fit would absorb any overall factor.
    """
    q0 = 1.0
    mp = MomentumPoint(0.7, 0.3)
    coeffs = series_coefficients(
        lambda z, t: gen_func_momentum(GenFuncParams(z, t, q0, 0.0), mp).g, (n_max + 1, n_max + 1))
    n, m = _states(n_max, signed=False)
    refs = (_closed_form(n, m, np.array([[mp.p]]), np.array([[mp.phi_p]]), q0,
                         _gegenbauer_amplitude)[:, 0] / _core_scale(n, m))
    return VerificationReport.from_errors(
        "genfunc-coefficient-consistency",
        f"n <= {n_max}, m <= n at q0 = 1, p = 0.7",
        [(np.abs(coeffs[n, m] - refs), np.abs(refs))], tol, relative=True,
        notes="constant 1 asserted (unitary anchoring), uniform over n, m")


# ---------------------------------------------------------------------------
# genfunc suite
# ---------------------------------------------------------------------------

_GF_K = np.arange(31)[:, None]  # the coefficient axis k <= 30, against the cases' axis


def _gf_coefficients(gf: Callable[..., np.ndarray], cases) -> np.ndarray:
    """c[k, case], k <= 30, of z -> gf(z, *case): one Cauchy call, the cases on a batch axis."""
    return series_coefficients(lambda z: np.stack([gf(z, *case) for case in cases], -1), (31,),
                               **_GF_CIRCLE)


def check_laguerre_gf(n_max: Optional[int] = None, tol: float = 1e-10) -> VerificationReport:
    cases = ((2.0, 1.5), (0.0, 0.0), (4.5, 3.0), (1.0, 2.0))
    r, v = map(np.array, zip(*cases))
    return VerificationReport.from_errors(
        "laguerre-gf", "k <= 30 at (r, v) in {(2, 1.5), (0, 0), (4.5, 3), (1, 2)}",
        [_ladder_errors(_gf_coefficients(genfunc.laguerre_gf, cases),
                        _degree(_laguerre_ladder(r, v), _GF_K, "laguerre"))],
        tol, relative=True, notes=_GF_NOTES)


def check_shifted_laguerre_gf(n_max: Optional[int] = None, tol: float = 1e-10) -> VerificationReport:
    cases = ((0, 1.0), (2, 1.0), (1, 2.5), (4, 0.5))
    m, v = map(np.array, zip(*cases))
    return VerificationReport.from_errors(
        "shifted-laguerre-gf", "n <= 30 at (m, v) in {(0, 1), (2, 1), (1, 2.5), (4, 0.5)}",
        [_ladder_errors(_gf_coefficients(genfunc.shifted_laguerre_gf, cases),
                        _degree(_laguerre_ladder(2 * m, v), _GF_K - m, "laguerre"))],
        tol, relative=True, notes=_GF_NOTES + "; index shift starts the sum at n = m")


def check_coordinate_gf(n_max: Optional[int] = None, tol: float = 1e-8) -> VerificationReport:
    """z^n t^m coefficients, m <= n <= 10, vs v^m e^(-v/2) L_{n-m}^(2m)(v) e^(i m phi) / m!.

    On the circle the closed form grows like e^(q0 rho / (1-z)^2): at r = 0.8,
    or at r = 0.5 with n up to 30, the 2-D extraction loses every digit.
    """
    cases = ((1.0, 1.5, 0.7), (0.8, 0.6, 2.0), (1.3, 3.0, 4.2))
    coeffs = series_coefficients(  # c[n, m, case]
        lambda z, t: np.stack([genfunc.coordinate_gf(z, t, q0, PolarPoint(rho, phi))
                               for q0, rho, phi in cases], -1), (11, 11))
    q0, rho, phi = map(np.array, zip(*cases))
    n, m = _states(10, signed=False)
    want = np.zeros_like(coeffs)  # 0 where m > n
    want[n, m] = (_radial(n, m, 2.0 * q0 * rho[None]) * _turns(m[:, None], phi)
                  / _core_scale(n, m)[:, None])
    return VerificationReport.from_errors(
        "coordinate-gf",
        "m <= n <= 10 at (q0, rho, phi) in {(1, 1.5, 0.7), (0.8, 0.6, 2), (1.3, 3, 4.2)}",
        [_ladder_errors(coeffs, want)],
        tol, relative=True,
        notes="2-D coefficients by Cauchy quadrature, r = 0.5, 128 nodes; errors scaled by "
              "max(1, |value|); fixed-q0 scaled basis, not per-level physical q0")


def check_gegenbauer_gf(n_max: Optional[int] = None, tol: float = 1e-9) -> VerificationReport:
    cases = ((0.3, 2.5), (1.0, 1.5), (-0.8, 0.5))
    q, alpha = map(np.array, zip(*cases))
    return VerificationReport.from_errors(
        "gegenbauer-gf", "k <= 30 at (q, alpha) in {(0.3, 2.5), (1, 1.5), (-0.8, 0.5)}",
        [_ladder_errors(_gf_coefficients(genfunc.gegenbauer_gf, cases),
                        _degree(_gegenbauer_ladder(alpha, q), _GF_K, "gegenbauer"))],
        tol, relative=True, notes=_GF_NOTES)


def check_new_legendre_gf(n_max: Optional[int] = None, tol: float = 1e-8) -> VerificationReport:
    cases = ((0.3, 0), (0.3, 2), (-0.6, 1), (0.0, 3))
    t, m = map(np.array, zip(*cases))
    # (2n+1)/(2m+1)!! P_n^m(t); (2m+1)!! is _odd_factorials(m + 1)
    want = ((2 * _GF_K + 1) / _odd_factorials(m + 1)
            * _degree(_assoc_legendre_ladder(m, t), _GF_K - m, "assoc_legendre"))
    return VerificationReport.from_errors(
        "new-legendre-gf", "n <= 30 at (t, m) in {(0.3, 0), (0.3, 2), (-0.6, 1), (0, 3)}",
        [_ladder_errors(_gf_coefficients(genfunc.new_legendre_gf, cases), want)],
        tol, relative=True,
        notes=_GF_NOTES + "; sum over n >= m with (2n+1)/(2m+1)!! weights, "
                          "no (-1)^m in the non-Condon-Shortley convention")


_REINDEX_QS = np.array([0.3, -0.45, 0.8])


def _reindexing_coefficients(cap: int) -> np.ndarray:
    """c[n, m, j]: the z^n Taylor coefficient of (1-z^2) z^m (1-2qz+z^2)^(-m-3/2) at
    q = _REINDEX_QS[j], for n <= cap and m <= 4, from one Cauchy call."""
    # radius 0.8 keeps the 1/r^n amplification of the circle samples'
    # rounding below 1e-10 out to n = 30 (r = 0.5 would amplify 2^30)
    return series_coefficients(
        lambda z: np.stack([((1.0 - z * z) * z**m)[:, None]
                            * genfunc.gegenbauer_gf(z[:, None], _REINDEX_QS, m + 1.5)
                            for m in range(5)], 1),
        (cap + 1,), radius=0.8, nodes=256)


def check_reindexing_identity(n_max: int = 30, tol: float = 1e-9) -> VerificationReport:
    """Coefficients of (1-z^2) z^m (1-2qz+z^2)^(-m-3/2) are Gegenbauer differences."""
    n, m = np.arange(n_max + 1)[:, None, None], np.arange(5)[:, None]
    # C_(n-m) - C_(n-m-2) as the rows of one ladder, zero at negative degrees
    c, lagged = np.split(_degree(_gegenbauer_ladder(m + 1.5, _REINDEX_QS),
                                 np.concatenate([n - m, n - m - 2]), "gegenbauer"), 2)
    return VerificationReport.from_errors(
        "gegenbauer-reindexing-identity",
        f"m <= 4, n <= {n_max}, q in {{0.3, -0.45, 0.8}}",
        [_ladder_errors(_reindexing_coefficients(n_max), c - lagged)], tol, relative=True,
        notes="negative-degree Gegenbauer terms are zero; errors scaled by max(1, |value|)")


def check_reindexing_chain(n_max: int = 30, tol: float = 1e-9) -> VerificationReport:
    """Same coefficients, compared against (2n+1)/(2m+1) C_{n-m}^(m+1/2)(q) at n >= m."""
    n, m = np.arange(n_max + 1)[:, None, None], np.arange(5)[:, None]
    want = ((2.0 * n + 1.0) / (2.0 * m + 1.0)
            * _degree(_gegenbauer_ladder(m + 0.5, _REINDEX_QS), n - m, "gegenbauer"))
    rows = (n >= m)[..., 0]
    return VerificationReport.from_errors(
        "gegenbauer-chain-consistency",
        f"m <= 4, m <= n <= {n_max}, q in {{0.3, -0.45, 0.8}}",
        [_ladder_errors(_reindexing_coefficients(n_max)[rows], want[rows])], tol, relative=True,
        notes="links the half-integer-order ladder to the difference form")


# ---------------------------------------------------------------------------
# ft suite
# ---------------------------------------------------------------------------

def check_oracle_agreement(n_max: int = 4, tol: float = 1e-6) -> VerificationReport:
    mp = acceptance_grid()
    n, m = _states(n_max, signed=True)
    want = _levi_civita_rows(n, m, mp.p[None], mp.phi_p[None])
    err = np.abs(_psi_momentum(n, m, mp.p[None], mp.phi_p[None]) - want)
    # Relative errors count only where the oracle value exceeds 1e-8.
    return VerificationReport.from_errors(
        "momentum-vs-ft-oracle", f"|m| <= n <= {n_max}, {mp.p.size} momentum points",
        [(err, np.where(np.abs(want) > 1e-8, np.abs(want), 0.0))], tol,
        notes="unitary 1/(2pi) transform; closed form carries (-i)^|m|, "
              "oracle method levi_civita_hermite")


def check_two_oracles(n_max: int = 3, tol: float = 1e-7) -> VerificationReport:
    cap = min(n_max, 3)  # a cost limit: the Hankel route took 0.19 s to n 10, 2.65 s to 20
    mp = _grid_points(np.geomspace(0.05, 3.0, 10))
    args = (*_states(cap, signed=True), mp.p[None], mp.phi_p[None])
    return VerificationReport.from_errors(
        "two-oracle-agreement", f"|m| <= n <= {cap}, 10-point log p-grid",
        [(np.abs(_hankel_rows(*args) - _levi_civita_rows(*args)), 1.0)],
        tol, notes="angular-reduction route vs Levi-Civita Gauss-Hermite route")


def check_oracle_phase(n_max: int = 3, tol: float = 1e-8) -> VerificationReport:
    angles = np.array([0.0, 0.9, -2.4])
    n, m = _states(n_max, signed=True)
    # vals[state, p, phi]; points where |psi(p, 0)| <= 1e-6 are skipped.
    vals = _levi_civita_rows(n, m, np.array([[[0.5], [2.0]]]), angles)
    diff = np.angle(vals) - np.angle(vals[..., :1]) - m[:, None, None] * angles
    wrapped = np.abs((diff + math.pi) % (2.0 * math.pi) - math.pi)
    return VerificationReport.from_errors(
        "oracle-phase-correctness", f"n <= {n_max}, angles wrapped mod 2 pi",
        [(np.where(np.abs(vals[..., :1]) > 1e-6, wrapped, 0.0), 1.0)],
        tol, notes="arg psi(phi_p) - arg psi(0) = m phi_p")


def check_node_doubling(n_max: int = 4, tol: float = 1e-9) -> VerificationReport:
    """The Levi-Civita rows on n + 2 against 2 (n + 2) Gauss-Hermite nodes per axis: the
    smaller rule is already exact, so they differ by rounding only."""
    mp = acceptance_grid()
    args = (*_states(n_max, signed=True), mp.p[None], mp.phi_p[None])
    return VerificationReport.from_errors(
        "oracle-node-doubling", f"|m| <= n <= {n_max}, acceptance grid",
        [(np.abs(_levi_civita_rows(*args) - _levi_civita_rows(*args, refine=2)), 1.0)],
        tol, notes="quadrature already exact at n + 2 Hermite nodes per axis")


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

CheckFn = Callable[..., VerificationReport]

SUITES: Dict[str, List[CheckFn]] = {
    "polys": [check_gegenbauer_gf_coefficients, check_gegenbauer_recurrence,
              check_legendre_connection, check_laguerre_derivative,
              check_polys_determinism],
    "position": [check_position_normalization, check_position_orthogonality,
                 check_angular_orthogonality, check_ode_residual,
                 check_position_conjugation],
    "momentum": [check_parseval, check_two_form_equality,
                 check_momentum_phase_structure],
    "levicivita": [check_det_identity, check_gaussian_integral,
                   check_measure_factor, check_beta_derivative,
                   check_coefficient_consistency],
    "genfunc": [check_laguerre_gf, check_shifted_laguerre_gf, check_coordinate_gf,
                check_gegenbauer_gf, check_new_legendre_gf,
                check_reindexing_identity, check_reindexing_chain],
    "ft": [check_oracle_agreement, check_two_oracles, check_oracle_phase,
           check_node_doubling],
}

SUITE_ORDER = tuple(SUITES)


def run_suite(name: str, n_max: Optional[int] = None,
              tol: Optional[float] = None) -> List[VerificationReport]:
    """Run one suite (or 'all') and return its reports in stable order.

    ``n_max`` and ``tol`` override each check's own default only when set;
    a tolerance of 0.0 counts as set.
    """
    if name == "all":
        out: List[VerificationReport] = []
        for suite in SUITE_ORDER:
            out.extend(run_suite(suite, n_max, tol))
        return out
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {SUITE_ORDER + ('all',)}")
    overrides = {key: value for key, value in (("n_max", n_max), ("tol", tol))
                 if value is not None}
    return [fn(**overrides) for fn in SUITES[name]]
