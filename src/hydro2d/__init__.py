"""Bound states of the two-dimensional hydrogen atom.

Energies, position- and momentum-space wavefunctions (unitary Fourier
convention), the Levi-Civita generating-function machinery behind the
momentum closed forms, and verification suites that check every identity
against independent numerical oracles.
"""

from .ftoracle import ft_direct_2d, ft_hankel
from .genfunc import (SeriesTruncation, coordinate_gf, coordinate_gf_series,
                      gegenbauer_gf, gegenbauer_gf_series, laguerre_gf,
                      laguerre_gf_series, new_legendre_gf, new_legendre_gf_series,
                      series_coefficients_1d, series_coefficients_2d,
                      shifted_laguerre_gf, shifted_laguerre_gf_series)
from .levicivita import (GenFuncParams, GenFuncValues, QuadraticFormMatrix, UPoint,
                         det_x, gen_func_momentum, lc_jacobian, lc_map,
                         lc_measure_factor, quadratic_form_matrix)
from .momentum import MomentumPoint, psi_momentum, psi_momentum_gegenbauer, q_of_p
from .polys import (assoc_legendre, bessel_j, double_factorial, gegenbauer,
                    laguerre, legendre, pochhammer)
from .position import (BoundState, PolarPoint, QuantumNumbers, make_bound_state,
                       norm_squared, normalization, overlap, psi_position,
                       radial_ode_residual, radial_wavefunction)
from .reporting import GridSpec, VerificationReport
from .verify import SUITES, SUITE_ORDER, run_suite

__version__ = "0.1.0"

__all__ = [
    "BoundState", "GenFuncParams", "GenFuncValues", "GridSpec", "MomentumPoint",
    "PolarPoint", "QuadraticFormMatrix", "QuantumNumbers",
    "SeriesTruncation", "SUITES", "SUITE_ORDER", "UPoint", "VerificationReport",
    "assoc_legendre", "bessel_j", "coordinate_gf", "coordinate_gf_series",
    "det_x", "double_factorial", "ft_direct_2d", "ft_hankel", "gegenbauer",
    "gegenbauer_gf", "gegenbauer_gf_series", "gen_func_momentum", "laguerre",
    "laguerre_gf", "laguerre_gf_series", "lc_jacobian", "lc_map",
    "lc_measure_factor", "legendre", "make_bound_state", "new_legendre_gf",
    "new_legendre_gf_series", "norm_squared", "normalization", "overlap", "pochhammer", "psi_momentum", "psi_momentum_gegenbauer",
    "psi_position", "q_of_p", "quadratic_form_matrix", "radial_ode_residual",
    "radial_wavefunction", "run_suite", "series_coefficients_1d",
    "series_coefficients_2d", "shifted_laguerre_gf", "shifted_laguerre_gf_series",
]
