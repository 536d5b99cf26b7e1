"""Array contract of the wavefunctions and the generating functions.

``psi_position``, ``psi_momentum``, ``psi_momentum_gegenbauer``,
``gen_func_momentum`` and ``gegenbauer_gf`` accept fields that are scalars
or arrays broadcasting together.  An array call must agree with the scalar
calls stacked in the broadcast shape, and a scalar call must still return a
Python complex.  ``series_coefficients`` treats the axes its function adds
after the node axes as a batch.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydro2d.genfunc import gegenbauer_gf, series_coefficients
from hydro2d.levicivita import GenFuncParams, gen_func_momentum
from hydro2d.momentum import MomentumPoint, psi_momentum, psi_momentum_gegenbauer
from hydro2d.position import PolarPoint, QuantumNumbers, psi_position

CASES = (
    (psi_position, PolarPoint, 40.0),
    (psi_momentum, MomentumPoint, 5.0),
    (psi_momentum_gegenbauer, MomentumPoint, 5.0),
)


@st.composite
def quantum_numbers(draw):
    n = draw(st.integers(0, 20))
    return QuantumNumbers(n, draw(st.integers(-n, n)))


def _column(draw, size, lo, hi):
    return np.array(draw(st.lists(st.floats(lo, hi), min_size=size, max_size=size)))


@settings(max_examples=60)
@given(qn=quantum_numbers(), case=st.sampled_from(CASES),
       rows=st.integers(1, 6), cols=st.integers(1, 4), data=st.data())
def test_array_call_matches_stacked_scalar_calls(qn, case, rows, cols, data):
    psi, point, radial_max = case
    radii = _column(data.draw, rows, 0.0, radial_max)[:, None]
    angles = _column(data.draw, cols, -7.0, 7.0)
    values = psi(qn, point(radii, angles))

    assert isinstance(values, np.ndarray)
    assert values.shape == (rows, cols)
    stacked = np.empty((rows, cols), dtype=complex)
    for i in range(rows):
        for j in range(cols):
            scalar = psi(qn, point(float(radii[i, 0]), float(angles[j])))
            assert type(scalar) is complex
            stacked[i, j] = scalar
    np.testing.assert_allclose(values, stacked, rtol=1e-15, atol=0.0)


def _disk(draw, size, r_max):
    return _column(draw, size, 0.0, r_max) * np.exp(1j * _column(draw, size, -7.0, 7.0))


@settings(max_examples=60)
@given(rows=st.integers(1, 5), cols=st.integers(1, 4), data=st.data())
def test_generating_functions_match_stacked_scalar_calls(rows, cols, data):
    z = _disk(data.draw, rows, 0.6)[:, None]
    beta = _column(data.draw, rows, 0.0, 2.0)[:, None]
    t = _disk(data.draw, cols, 1.0)
    p = _column(data.draw, cols, 0.0, 5.0)
    q = _column(data.draw, cols, -1.0, 1.0)
    q0 = data.draw(st.floats(0.5, 2.0))
    phi_p = data.draw(st.floats(-7.0, 7.0))
    alpha = data.draw(st.sampled_from([0.5, 1.5, 2.5, 3.5]))

    values = gen_func_momentum(GenFuncParams(z, t, q0, beta), MomentumPoint(p, phi_p))
    gegen = gegenbauer_gf(z, q, alpha)
    for array in (*values, gegen):
        assert isinstance(array, np.ndarray)
        assert array.shape == (rows, cols)
    stacked = np.empty((3, rows, cols), dtype=complex)
    for i in range(rows):
        for j in range(cols):
            scalar = gen_func_momentum(
                GenFuncParams(complex(z[i, 0]), complex(t[j]), q0, float(beta[i, 0])),
                MomentumPoint(float(p[j]), phi_p))
            scalar = (*scalar, gegenbauer_gf(complex(z[i, 0]), float(q[j]), alpha))
            assert all(type(v) is complex for v in scalar)
            stacked[:, i, j] = scalar
    np.testing.assert_allclose(np.stack([*values, gegen]), stacked, rtol=1e-15, atol=0.0)


def test_one_branch_cut_point_in_an_array_raises():
    # At z = 1/2, q0 = p = 1, phi_p = 0 and t = 3i/2, S(0) = 9/4 + 1/4 - 3 = -1/2.
    mp = MomentumPoint(1.0, 0.0)
    gen_func_momentum(GenFuncParams(0.5, np.array([0.0, 0.2j]), 1.0), mp)
    with pytest.raises(ValueError, match="negative real axis"):
        gen_func_momentum(GenFuncParams(0.5, np.array([0.0, 0.2j, 1.5j]), 1.0), mp)


def test_batch_axes_match_one_call_per_parameter():
    qs = np.linspace(-1.0, 1.0, 7)
    batch = series_coefficients(lambda z: gegenbauer_gf(z[:, None], qs, 1.5), (12,))
    assert batch.shape == (12, qs.size)
    for j, q in enumerate(qs):
        np.testing.assert_array_equal(
            batch[:, j], series_coefficients(lambda z: gegenbauer_gf(z, q, 1.5), (12,)))

    ps = np.array([0.2, 0.7, 3.0])
    batch = series_coefficients(
        lambda z, t: gen_func_momentum(GenFuncParams(z[..., None], t[..., None], 1.0),
                                       MomentumPoint(ps, 0.3)).g, (6, 6))
    assert batch.shape == (6, 6, ps.size)
    for k, p in enumerate(ps):
        np.testing.assert_array_equal(batch[..., k], series_coefficients(
            lambda z, t: gen_func_momentum(GenFuncParams(z, t, 1.0), MomentumPoint(p, 0.3)).g,
            (6, 6)))
