"""Array contract of the wavefunctions.

``psi_position``, ``psi_momentum`` and ``psi_momentum_gegenbauer`` accept
point fields that are scalars or arrays broadcasting together.  An array
call must agree with the scalar calls stacked in the broadcast shape, and a
scalar call must still return a Python complex.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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


@settings(max_examples=60, deadline=None)
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
