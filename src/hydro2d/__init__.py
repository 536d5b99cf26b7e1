"""Bound states of the two-dimensional hydrogen atom.

Energies, position- and momentum-space wavefunctions (unitary Fourier
convention), the Levi-Civita generating-function machinery behind the
momentum closed forms, and verification suites that check every identity
against independent numerical oracles.
"""

from .ftoracle import ft_hankel
from .genfunc import (coordinate_gf, gegenbauer_gf, laguerre_gf, new_legendre_gf,
                      shifted_laguerre_gf)
from .levicivita import (GenFuncParams, GenFuncValues, QuadraticFormMatrix, det_x,
                         gen_func_momentum, quadratic_form_matrix)
from .momentum import MomentumPoint, psi_momentum, psi_momentum_gegenbauer, q_of_p
from .polys import (assoc_legendre, bessel_j, double_factorial, gegenbauer,
                    laguerre, legendre, pochhammer)
from .position import (BoundState, PolarPoint, QuantumNumbers, make_bound_state,
                       norm_squared, normalization, overlap, psi_position,
                       radial_ode_residual, radial_wavefunction)
from .quadrature import series_coefficients
from .reporting import GridSpec, VerificationReport
from .verify import SUITES, SUITE_ORDER, run_suite

__version__ = "0.1.0"

__all__ = [
    "BoundState", "GenFuncParams", "GenFuncValues", "GridSpec", "MomentumPoint",
    "PolarPoint", "QuadraticFormMatrix", "QuantumNumbers", "SUITES", "SUITE_ORDER",
    "VerificationReport", "assoc_legendre", "bessel_j", "coordinate_gf", "det_x",
    "double_factorial", "ft_hankel", "gegenbauer", "gegenbauer_gf",
    "gen_func_momentum", "laguerre", "laguerre_gf", "legendre", "make_bound_state",
    "new_legendre_gf", "norm_squared", "normalization", "overlap", "pochhammer",
    "psi_momentum", "psi_momentum_gegenbauer", "psi_position", "q_of_p",
    "quadratic_form_matrix", "radial_ode_residual", "radial_wavefunction", "run_suite",
    "series_coefficients", "shifted_laguerre_gf",
]
