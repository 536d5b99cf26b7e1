"""Array contract of the special functions, wavefunctions and generating functions.

Every evaluator accepts points and fields that are scalars or arrays
broadcasting together.  An array call must agree with the scalar calls
stacked in the broadcast shape, and a scalar call must return a Python
float (polynomials, Bessel, radial factor) or complex (wavefunctions and
closed forms).  ``series_coefficients`` treats the axes its function adds
after the node axes as a batch.  One convention serves the whole package,
so only ``verify`` may import ``cmath``.
"""

import ast
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hydro2d
from hydro2d.genfunc import (coordinate_gf, gegenbauer_gf, laguerre_gf, new_legendre_gf,
                             shifted_laguerre_gf)
from hydro2d.levicivita import GenFuncParams, det_x, gen_func_momentum, quadratic_form_matrix
from hydro2d.momentum import MomentumPoint, psi_momentum, psi_momentum_gegenbauer, q_of_p
from hydro2d.polys import (assoc_legendre, bessel_j, double_factorial, gegenbauer, laguerre,
                          legendre, pochhammer)
from hydro2d.position import (PolarPoint, QuantumNumbers, psi_position, radial_ode_residual,
                              radial_wavefunction)
from hydro2d.quadrature import series_coefficients

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


def test_special_functions_match_stacked_scalar_calls():
    # A scalar runs through the same array loops as an array.  With 0-d
    # arithmetic, numpy's scalar ** made assoc_legendre and the radial
    # factor differ from their array calls in the last bits.
    grid = np.linspace(-1.0, 1.0, 13)
    cases = [(lambda x, k=k, a=a: laguerre(k, a, x), 20.0 * (grid + 1.0))
             for k in range(21) for a in (0.0, 2.5, 7.0)]
    cases += [(lambda x, k=k, a=a: gegenbauer(k, a, x), grid)
              for k in range(21) for a in (0.5, 1.5, 4.0)]
    cases += [(lambda x, n=n, m=m: assoc_legendre(n, m, x), grid)
              for n in range(21) for m in range(n + 1)]
    cases += [(lambda x, m=m: bessel_j(m, x), 100.0 * (grid + 1.0)) for m in range(21)]
    cases += [(lambda x, qn=QuantumNumbers(n, m): radial_wavefunction(qn, x), 24.0 * (grid + 1.0))
              for n in range(21) for m in range(-n, n + 1)]
    for fn, points in cases:
        stacked = []
        for x in points.tolist():
            scalar = fn(x)
            assert type(scalar) is float
            stacked.append(scalar)
        np.testing.assert_allclose(fn(points), stacked, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("shape", [(2, 3), (1, 3), (64, 2), (2, 1, 2)])
def test_radial_functions_take_rho_of_any_shape(shape):
    # The residual's 64 Cauchy nodes once broadcast against the first rho axis: a
    # (2, 3) rho raised, and a first axis of length 1 or 64 failed to unpack.
    rho = np.linspace(0.1, 12.0, int(np.prod(shape))).reshape(shape)
    for qn in (QuantumNumbers(0, 0), QuantumNumbers(3, -2), QuantumNumbers(6, 1)):
        for fn in (radial_wavefunction, radial_ode_residual):
            values = fn(qn, rho)
            assert values.shape == shape
            assert values.ravel().tolist() == [fn(qn, x) for x in rho.ravel().tolist()]


def _disk(draw, size, r_max):
    return _column(draw, size, 0.0, r_max) * np.exp(1j * _column(draw, size, -7.0, 7.0))


@settings(max_examples=60)
@given(rows=st.integers(1, 5), cols=st.integers(1, 4), data=st.data())
def test_generating_functions_match_stacked_scalar_calls(rows, cols, data):
    z = _disk(data.draw, rows, 0.6)[:, None]
    beta = _column(data.draw, rows, 0.0, 2.0)[:, None]
    phi = _column(data.draw, rows, -7.0, 7.0)[:, None]
    t = _disk(data.draw, cols, 1.0)
    p = _column(data.draw, cols, 0.0, 5.0)
    q = _column(data.draw, cols, -1.0, 1.0)
    q0 = data.draw(st.floats(0.5, 2.0))
    phi_p = data.draw(st.floats(-7.0, 7.0))
    alpha = data.draw(st.sampled_from([0.5, 1.5, 2.5, 3.5]))
    m = data.draw(st.integers(0, 4))

    def closed_forms(z, beta, phi, t, p, q):
        gp = GenFuncParams(z, t, q0, beta)
        mp = MomentumPoint(p, phi_p)
        pt = PolarPoint(p, phi)
        x = quadratic_form_matrix(gp, mp)
        return (*gen_func_momentum(gp, mp), gegenbauer_gf(z, q, alpha),
                laguerre_gf(z, alpha, p), shifted_laguerre_gf(z, m, p),
                coordinate_gf(z, t, q0, pt),
                new_legendre_gf(z, 0.99 * q, m), x.a11, x.a12, x.a22)

    values = closed_forms(z, beta, phi, t, p, q)
    for array in values:
        assert isinstance(array, np.ndarray)
        assert array.shape == (rows, cols)
    stacked = np.empty((len(values), rows, cols), dtype=complex)
    for i in range(rows):
        for j in range(cols):
            scalar = closed_forms(complex(z[i, 0]), float(beta[i, 0]), float(phi[i, 0]),
                                  complex(t[j]), float(p[j]), float(q[j]))
            assert all(type(v) is complex for v in scalar)
            stacked[:, i, j] = scalar
    np.testing.assert_allclose(np.stack(values), stacked, rtol=1e-15, atol=0.0)


def test_one_t_outside_the_interval_in_an_array_raises():
    new_legendre_gf(0.4, np.array([0.3, -0.9]), 2)
    with pytest.raises(ValueError, match=r"\(-1, 1\)"):
        new_legendre_gf(0.4, np.array([0.3, -0.9, 1.0]), 2)


def _modules():
    for path in sorted(Path(hydro2d.__file__).parent.glob("*.py")):
        yield path.stem, ast.parse(path.read_text())


_NAN = float("nan")


@pytest.mark.parametrize("call, name", [
    (lambda: pochhammer(_NAN, 3), "pochhammer a"),
    (lambda: laguerre(3, _NAN, 1.0), "laguerre alpha"),
    (lambda: laguerre(3, 1.0, _NAN), "laguerre x"),
    (lambda: gegenbauer(3, _NAN, 0.2), "gegenbauer lam"),
    (lambda: laguerre_gf(0.2, 1.0, _NAN), "laguerre_gf v"),
    (lambda: coordinate_gf(0.2, 0.1, _NAN, PolarPoint(1.0, 0.0)), "coordinate_gf q0"),
    (lambda: gegenbauer_gf(0.2, 0.1, _NAN), "gegenbauer_gf alpha"),
], ids=["pochhammer", "laguerre-alpha", "laguerre-x", "gegenbauer", "laguerre_gf",
        "coordinate_gf", "gegenbauer_gf"])
def test_nan_parameter_raises_naming_it(call, name):
    # Each of these returned NaN (or, for gegenbauer_gf, exactly 1) without a warning.
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        call()


@pytest.mark.parametrize("value", [np.array([0.3, 0.5 + 0.5j]), 0.5 + 0.5j],
                         ids=["array", "scalar"])
@pytest.mark.parametrize("call, name", [
    (lambda x: laguerre(2, 0.0, x), "laguerre x"),
    (lambda x: gegenbauer(2, 1.5, x), "gegenbauer q"),
    (lambda x: legendre(2, x), "legendre t"),
    (lambda x: assoc_legendre(2, 1, x), "assoc_legendre t"),
    (lambda x: bessel_j(1, x), "bessel_j x"),
    (lambda x: q_of_p(x, 1.0), "q_of_p p"),
    (lambda x: radial_wavefunction(QuantumNumbers(2, 1), x), "radial_wavefunction rho"),
    (lambda x: radial_ode_residual(QuantumNumbers(2, 1), x), "radial_ode_residual rho"),
    (lambda x: PolarPoint(x, 0.3), "radial coordinate rho"),
    (lambda x: PolarPoint(1.0, x), "azimuth phi"),
    (lambda x: MomentumPoint(x, 0.3), "radial momentum p"),
    (lambda x: MomentumPoint(1.0, x), "momentum azimuth phi_p"),
], ids=["laguerre", "gegenbauer", "legendre", "assoc_legendre", "bessel_j", "q_of_p",
        "radial_wavefunction", "radial_ode_residual", "polar-rho", "polar-phi", "momentum-p",
        "momentum-phi_p"])
def test_complex_point_raises_naming_it(call, name, value):
    # An array returned a value from its real part with only a ComplexWarning,
    # and a point constructed; a scalar raised a TypeError that named nothing.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name} must be real"):
            call(value)


@pytest.mark.parametrize("value", [1.5 + 0.5j, np.complex128(1.5 + 0.5j)],
                         ids=["complex", "numpy-complex"])
@pytest.mark.parametrize("call, name", [
    (lambda c: pochhammer(c, 3), "pochhammer a"),
    (lambda c: laguerre(2, c, 0.5), "laguerre alpha"),
    (lambda c: gegenbauer(2, c, 0.5), "gegenbauer lam"),
    (lambda c: q_of_p(1.0, c), "q_of_p q0"),
    (lambda c: laguerre_gf(0.2, c, 0.5), "laguerre_gf r"),
    (lambda c: coordinate_gf(0.2, 0.1, c, PolarPoint(1.0, 0.0)), "coordinate_gf q0"),
    (lambda c: gegenbauer_gf(0.2, 0.1, c), "gegenbauer_gf alpha"),
    (lambda c: GenFuncParams(0.3, 0.2, c), "GenFuncParams q0"),
    (lambda c: GenFuncParams(0.3, 0.2, 1.5, c - 1.5), "GenFuncParams beta"),
], ids=["pochhammer", "laguerre", "gegenbauer", "q_of_p", "laguerre_gf", "coordinate_gf",
        "gegenbauer_gf", "genfunc-q0", "genfunc-beta"])
def test_complex_parameter_raises_naming_it(call, name, value):
    # The scalar checks raised a TypeError, and GenFuncParams constructed.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name} must be real"):
            call(value)


_INF = float("inf")


@pytest.mark.parametrize("call, message", [
    (lambda: q_of_p(1.0, _NAN), "q_of_p q0 must be finite"),
    (lambda: q_of_p(1.0, _INF), "q_of_p q0 must be finite"),
    (lambda: q_of_p(np.array([1.0, _NAN]), 1.0), "q_of_p needs p >= 0"),
    (lambda: q_of_p(_INF, 1.0), "q_of_p p must be finite"),
    (lambda: q_of_p(np.array([1.0, _INF]), 1.0), "q_of_p p must be finite"),
    (lambda: GenFuncParams(_NAN, 0.1, 1.0), "generating variable z"),
    (lambda: GenFuncParams(0.2, _NAN, 1.0), "GenFuncParams t must be finite"),
    (lambda: GenFuncParams(0.2, np.array([0.1, _INF]), 1.0), "GenFuncParams t must be finite"),
    (lambda: GenFuncParams(0.2, 0.1, _NAN), "GenFuncParams q0 must be finite"),
    (lambda: GenFuncParams(0.2, 0.1, _INF), "GenFuncParams q0 must be finite"),
    (lambda: GenFuncParams(0.2, 0.1, 1.0, _NAN), "GenFuncParams beta must be finite"),
    (lambda: GenFuncParams(0.2, 0.1, 1.0, _INF), "GenFuncParams beta must be finite"),
    (lambda: radial_wavefunction(QuantumNumbers(1, 0), -1.0), "radial_wavefunction needs rho >= 0"),
    (lambda: radial_wavefunction(QuantumNumbers(1, 0), np.array([1.0, _NAN])),
     "radial_wavefunction needs rho >= 0"),
], ids=["q_of_p-q0-nan", "q_of_p-q0-inf", "q_of_p-p-nan", "q_of_p-p-inf", "q_of_p-p-inf-array",
        "genfunc-z-nan", "genfunc-t-nan", "genfunc-t-inf", "genfunc-q0-nan", "genfunc-q0-inf",
        "genfunc-beta-nan", "genfunc-beta-inf", "radial-negative", "radial-nan"])
def test_invalid_value_raises_naming_it(call, message):
    # Each of these returned NaN, 0j (g_beta at beta = inf) or a value at a
    # negative radius without a warning.
    with pytest.raises(ValueError, match=f"^{message}"):
        call()


@pytest.mark.parametrize("call, name", [
    (lambda: laguerre_gf(0.5, 1e308, 1.0), "laguerre_gf"),
    (lambda: shifted_laguerre_gf(0.9, 400, 1.0), "shifted_laguerre_gf"),
    (lambda: coordinate_gf(0.5, 0.9, 1.0, PolarPoint(1e308, 0.0)), "coordinate_gf"),
    (lambda: det_x(GenFuncParams(0.5, 0.5, 1e200), MomentumPoint(1e200, 0.0)), "det_x"),
    (lambda: gen_func_momentum(GenFuncParams(0.5, 0.5, 1e200), MomentumPoint(1.0, 0.0)),
     "gen_func_momentum"),
    (lambda: gegenbauer_gf(0.99, 1.0, 400.0), "gegenbauer_gf"),
    (lambda: new_legendre_gf(0.999, 0.999, 300), "new_legendre_gf"),
    (lambda: gegenbauer_gf(np.array([0.2, 0.5]), 1.25, 1.5), "gegenbauer_gf"),  # 1-2qz+z^2 = 0
], ids=["laguerre_gf", "shifted_laguerre_gf", "coordinate_gf", "det_x", "gen_func_momentum",
        "gegenbauer_gf", "new_legendre_gf", "gegenbauer_gf-pole"])
def test_non_finite_generating_function_raises_naming_it(call, name):
    # Each returned inf or NaN (inf+nanj, nan+nanj) with at most a RuntimeWarning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name} is not finite"):
            call()


@pytest.mark.parametrize("call, name", [
    (lambda: double_factorial(3.5), "double factorial k"),
    (lambda: double_factorial(5.0), "double factorial k"),
    (lambda: pochhammer(1.0, 2.5), "pochhammer order k"),
    (lambda: laguerre(2.5, 0.0, 0.3), "laguerre degree k"),
    (lambda: gegenbauer(2.5, 1.0, 0.3), "gegenbauer degree k"),
    (lambda: gegenbauer(-1.5, 1.0, 0.3), "gegenbauer degree k"),
    (lambda: legendre(2.5, 0.3), "legendre degree n"),
    (lambda: assoc_legendre(3.0, 1, 0.3), "assoc_legendre degree n"),
    (lambda: assoc_legendre(3, 1.5, 0.3), "assoc_legendre order m"),
    (lambda: bessel_j(2.5, 1.0), "bessel_j order m"),
    (lambda: shifted_laguerre_gf(0.2, 1.5, 1.0), "shifted_laguerre_gf m"),
    (lambda: new_legendre_gf(0.2, 0.3, 1.5), "new_legendre_gf m"),
    (lambda: QuantumNumbers(2, 1.0), "quantum number m"),
    (lambda: bessel_j(True, 1.0), "bessel_j order m"),
    (lambda: laguerre(False, 0.0, 0.3), "laguerre degree k"),
    (lambda: QuantumNumbers(True, 0), "quantum number n"),
    (lambda: series_coefficients(lambda z: z, [1], nodes=True), "series_coefficients nodes"),
    (lambda: series_coefficients(lambda z: z, [True]), "series_coefficients count"),
], ids=["double_factorial", "double_factorial-float", "pochhammer", "laguerre", "gegenbauer",
        "gegenbauer-negative", "legendre", "assoc_legendre-n", "assoc_legendre-m", "bessel_j",
        "shifted_laguerre_gf", "new_legendre_gf", "quantum-number", "bessel_j-bool",
        "laguerre-bool", "quantum-number-bool", "series_coefficients-nodes-bool",
        "series_coefficients-count-bool"])
def test_non_integer_degree_raises_naming_it(call, name):
    # Each of these returned a value (5.25, the float 15.0, 0.0, a generating
    # function at m = 1.5, J_1 for True, Cauchy coefficients on one node) or
    # raised a TypeError that named nothing.
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        call()


def test_numpy_integer_degrees_pass():
    k = np.int64(5)
    assert double_factorial(k) == 15 and type(double_factorial(k)) is int
    assert bessel_j(np.int32(2), 1.0) == bessel_j(2, 1.0)
    assert assoc_legendre(np.int64(3), np.int8(1), 0.3) == assoc_legendre(3, 1, 0.3)
    assert new_legendre_gf(0.2, 0.3, np.int64(2)) == new_legendre_gf(0.2, 0.3, 2)


def test_only_verify_imports_cmath():
    importers = {name for name, tree in _modules() for node in ast.walk(tree)
                 if isinstance(node, ast.Import) and any(a.name == "cmath" for a in node.names)
                 or isinstance(node, ast.ImportFrom) and node.module == "cmath"}
    assert importers <= {"verify"}


def test_generating_functions_use_no_scalar_math():
    calls = {f"{name}: math.{node.attr}" for name, tree in _modules()
             if name in ("genfunc", "levicivita") for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id == "math" and node.attr in ("exp", "cos", "sin")}
    assert not calls


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
