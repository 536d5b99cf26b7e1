"""The Levi-Civita squaring map and the Gaussian reduction of the momentum transform.

The map (u1, u2) -> (x, y) = (u1^2 - u2^2, 2 u1 u2) is the real form of
w -> w^2 on the complex plane.  It squares distances, rho = u1^2 + u2^2,
and doubles angles, so the u-plane covers the (x, y)-plane twice: u and -u
land on the same point.  Its Jacobian determinant is 4(u1^2 + u2^2), and
pulling an integral back through the double covering gives

    integral f(x, y) dx dy  =  2 integral f(x(u), y(u)) (u1^2 + u2^2) d^2 u

with the factor 2 (not 4) because the full u-plane on the right counts every
(x, y) twice.  The verification suite measures this constant by quadrature
rather than assuming it.

The payoff is that exp(-i p.r - a rho + b(x + iy)) becomes a Gaussian in u:
with A = (1+z) q0/(1-z) + beta and B = 2 t z q0/(1-z)^2 the exponent is
-(a11 u1^2 + 2 a12 u1 u2 + a22 u2^2) where

    a11 = A - B + i p_x,   a22 = A + B - i p_x,   a12 = i (p_y - B)

and the standard Gaussian formula turns the momentum-space transform of the
position generating function into 1/sqrt(det X) up to bookkeeping.  The
determinant collapses to

    det X = S(beta) / (1-z)^2,
    S(beta) = [(1+z) q0 + beta (1-z)]^2 + p^2 (1-z)^2 + 4 i t z q0 p e^(i phi_p)

and the generating-function pair returned by ``gen_func_momentum`` is

    g_beta = S(beta)^(-1/2)
    g      = [-d g_beta / d beta]_{beta=0} = (1 - z^2) q0 S(0)^(-3/2).

The overall constant of g is anchored so that its (z^0 t^0) coefficient is
the unitary Fourier transform of e^(-q0 rho), namely q0/(p^2 + q0^2)^(3/2);
every verification that depends on the constant measures it rather than
assuming one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.typing import ArrayLike

from .momentum import MomentumPoint
from .polys import _finite_points, _finite_result, _point_arrays, _scalar_or_array

__all__ = [
    "GenFuncParams",
    "QuadraticFormMatrix",
    "GenFuncValues",
    "quadratic_form_matrix",
    "det_x",
    "gen_func_momentum",
]


@dataclass(frozen=True)
class GenFuncParams:
    """Parameters of the generating-function machinery.

    z is the principal expansion variable (strictly inside the unit disk so
    every series in sight converges), t tags the angular-momentum ladder,
    q0 > 0 sets the length scale, and beta >= 0 is the convergence regulator
    that is differentiated away at the end.  Each field may be a scalar or
    an array: ``gen_func_momentum`` and ``det_x`` broadcast them with the
    momentum point's fields, and give a complex when every field is a scalar.
    """

    z: ArrayLike
    t: ArrayLike
    q0: ArrayLike
    beta: ArrayLike = 0.0

    def __post_init__(self):
        if not np.all(np.abs(self.z) < 1.0):  # NaN fails too
            raise ValueError("generating variable z must satisfy |z| < 1")
        for name in ("q0", "beta"):  # z and t may be complex
            if np.iscomplexobj(getattr(self, name)):
                raise ValueError(f"GenFuncParams {name} must be real")
        for name in ("t", "q0", "beta"):
            _finite_points(f"GenFuncParams {name}", getattr(self, name))
        if np.any(np.asarray(self.q0) <= 0.0):
            raise ValueError("scale q0 must be > 0")
        if np.any(np.asarray(self.beta) < 0.0):
            raise ValueError("regulator beta must be >= 0")


@dataclass(frozen=True)
class QuadraticFormMatrix:
    """Symmetric 2x2 complex matrix [[a11, a12], [a12, a22]] of the Gaussian exponent.

    For admissible parameters the real part of the associated quadratic form
    is positive definite, which is what makes the Gaussian integral converge.
    """

    a11: ArrayLike
    a12: ArrayLike
    a22: ArrayLike

    def det(self) -> ArrayLike:
        return self.a11 * self.a22 - self.a12 * self.a12


class GenFuncValues(NamedTuple):
    g_beta: ArrayLike
    g: ArrayLike


def quadratic_form_matrix(gp: GenFuncParams, p: MomentumPoint) -> QuadraticFormMatrix:
    """Matrix X of the exponent -(a11 u1^2 + 2 a12 u1 u2 + a22 u2^2).

    Assembled from -i p.r - A rho + B (x + iy) pulled back through the
    squaring map, with A and B as in the module docstring.  Each entry is a
    complex, or an array of the fields' broadcast shape.
    """
    fields = (gp.z, gp.t, gp.q0, gp.beta, p.p, p.phi_p)
    z, t, q0, beta, mom, phi_p = _point_arrays(*fields)
    one_minus = 1.0 - z
    a = (1.0 + z) * q0 / one_minus + beta
    b = 2.0 * t * z * q0 / (one_minus * one_minus)
    px = mom * np.cos(phi_p)
    py = mom * np.sin(phi_p)
    return QuadraticFormMatrix(*(_scalar_or_array(entry, *fields) for entry in
                                 (a - b + 1j * px, 1j * py - 1j * b, a + b - 1j * px)))


def _s_invariant(z, t, q0, beta, p, phi_p) -> np.ndarray:
    one_minus = 1.0 - z
    head = (1.0 + z) * q0 + beta * one_minus
    circ = p * np.exp(1j * phi_p)
    return head * head + p * p * one_minus * one_minus + 4j * t * z * q0 * circ


@_finite_result
def det_x(gp: GenFuncParams, p: MomentumPoint):
    """Closed-form determinant of ``quadratic_form_matrix``:  S(beta)/(1-z)^2."""
    fields = (gp.z, gp.t, gp.q0, gp.beta, p.p, p.phi_p)
    z, t, q0, beta, mom, phi_p = _point_arrays(*fields)
    one_minus = 1.0 - z
    return _scalar_or_array(_s_invariant(z, t, q0, beta, mom, phi_p) / (one_minus * one_minus),
                             *fields)


def _principal_sqrt(s: np.ndarray) -> np.ndarray:
    """Principal square root, rejecting any argument on the branch cut."""
    if np.any((s == 0.0) | ((s.real < 0.0) & (np.abs(s.imag) <= 1e-12 * np.abs(s.real)))):
        raise ValueError("square-root argument is on the negative real axis; "
                         "parameters are outside the admissible domain")
    return np.sqrt(s)


@_finite_result
def gen_func_momentum(gp: GenFuncParams, p: MomentumPoint) -> GenFuncValues:
    """Momentum-space generating functions (g_beta, g).

    g_beta = S(beta)^(-1/2) evaluated at gp.beta; g is its negated beta
    derivative at beta = 0, in closed form (1 - z^2) q0 S(0)^(-3/2).  The
    (n, m) Taylor coefficient of g in z and t is 1/m! times the unitary
    momentum transform of the bare scaled basis function at fixed q0.
    """
    fields = (gp.z, gp.t, gp.q0, gp.beta, p.p, p.phi_p)
    z, t, q0, beta, mom, phi_p = _point_arrays(*fields)
    g_beta = 1.0 / _principal_sqrt(_s_invariant(z, t, q0, beta, mom, phi_p))
    s0 = _s_invariant(z, t, q0, 0.0, mom, phi_p)
    g = (1.0 - z * z) * q0 / (s0 * _principal_sqrt(s0))
    return GenFuncValues(_scalar_or_array(g_beta, *fields), _scalar_or_array(g, *fields))
