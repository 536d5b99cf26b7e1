"""Quadrature rules: moment exactness, large-node stability and stack independence.

The Laguerre rule is built by Sturm-count multisection on its Jacobi matrix with
Christoffel weights, in elementwise IEEE arithmetic only, instead of the
library routines, which return NaN weights somewhere above 250 nodes; most
tests here check that big rules stay finite and accurate, and one that the
rules keep their bits under other BLAS and SIMD kernels.  The Gauss-Legendre
panel rule is checked on its moments and on a chain of panels.  The package
imports numpy only: scipy is a test oracle, and a test here checks that
importing and using the package never loads it, nor names numpy's linalg.
"""

import hashlib
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

import hydro2d
from hydro2d.quadrature import _PANEL_W, _PANEL_X, gauss_laguerre, panel_nodes


@pytest.mark.parametrize("n", [8, 64, 256, 512, 1024])
def test_gauss_laguerre_moments(n):
    x, w = gauss_laguerre(n)
    assert np.all(np.isfinite(x)) and np.all(np.isfinite(w))
    assert np.all(x > 0.0)
    for k in range(0, 12, 3):
        got = float(np.sum(w * x**k))
        assert got == pytest.approx(math.factorial(k), rel=1e-12)


@pytest.mark.parametrize("n", [128, 256, 512, 1024])
def test_gauss_laguerre_high_moments(n):
    # x^21 and x^30 peak near x = k, so they lean on the tail weights far
    # more than the low moments do: every weight must be right relative to
    # its own size, not just to the largest one.
    x, w = gauss_laguerre(n)
    for k in (21, 30):
        got = float(np.sum(w * x**k))
        assert got == pytest.approx(math.factorial(k), rel=1e-12)


def test_gauss_laguerre_builds_without_warnings():
    # Node counts on both sides of the powers of two, up to 1024; the
    # uncached builder runs so that every rule is built here.
    build = gauss_laguerre.__wrapped__
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (1, 2, 3, 7, 8, 9, 63, 64, 65, 127, 128, 129,
                  255, 256, 257, 511, 512, 513, 1000, 1023, 1024):
            x, w = build(n)
            assert np.all(np.isfinite(x)) and np.all(np.isfinite(w))
            assert np.all(w >= 0.0)


def test_gauss_laguerre_polynomial_exactness():
    # An n-node rule integrates degree 2n-1 exactly; check right at the edge.
    n = 10
    x, w = gauss_laguerre(n)
    k = 2 * n - 1
    assert float(np.sum(w * x**k)) == pytest.approx(math.factorial(k), rel=1e-12)


def test_gauss_laguerre_rejects_empty_rule():
    with pytest.raises(ValueError):
        gauss_laguerre(0)


def test_gauss_legendre_moments():
    # One panel on [-1, 1]: the 16-point rule is exact to degree 31.
    x, w = panel_nodes(np.array([-1.0, 1.0]))
    for k in range(0, 31, 2):
        assert float(np.sum(w * x**k)) == pytest.approx(2.0 / (k + 1), rel=1e-14)
    for k in range(1, 32, 2):
        assert float(np.sum(w * x**k)) == pytest.approx(0.0, abs=1e-15)


def test_panel_nodes_integrate_sine():
    bounds = np.linspace(0.0, math.pi, 9)
    x, w = panel_nodes(bounds)
    assert float(np.sum(w * np.sin(x))) == pytest.approx(2.0, rel=1e-13)


def test_package_never_imports_scipy():
    # Importing the package, building both rules and running a suite leave
    # sys.modules free of scipy.
    home = str(pathlib.Path(hydro2d.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {home!r})\n"
            "import numpy as np, hydro2d\n"
            "from hydro2d.quadrature import gauss_laguerre, panel_nodes\n"
            "gauss_laguerre(16); panel_nodes(np.array([0.0, 1.0]))\n"
            "hydro2d.run_suite('position', 2)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


def test_package_never_references_linalg():
    # No LAPACK on the runtime path: every rule is built elementwise.
    package = pathlib.Path(hydro2d.__file__).parent
    assert [p.name for p in sorted(package.glob("*.py")) if "linalg" in p.read_text()] == []


def _rule_digest(*arrays):
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


@pytest.mark.parametrize("stack", [
    {"OPENBLAS_CORETYPE": "Nehalem",
     "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"},
    {"OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": "1"},
])
def test_rules_are_bit_identical_on_other_kernels(stack):
    # A child process on older BLAS kernels, or numpy at its baseline SIMD,
    # builds the same bytes; the variables are set for the child only.
    home = str(pathlib.Path(hydro2d.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {home!r})\n"
            "import hashlib\n"
            "from hydro2d.quadrature import _PANEL_W, _PANEL_X, gauss_laguerre\n"
            "for rule in (gauss_laguerre(96), gauss_laguerre(128), (_PANEL_X, _PANEL_W)):\n"
            "    print(hashlib.sha256(b''.join(a.tobytes() for a in rule)).hexdigest())\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, **stack})
    assert out.stdout.split() == [_rule_digest(*gauss_laguerre(96)),
                                  _rule_digest(*gauss_laguerre(128)),
                                  _rule_digest(_PANEL_X, _PANEL_W)]
