"""Quadrature rules: moment exactness, large-node stability and stack independence.

The rules come from one builder: Sturm-count multisection on the Jacobi matrix
for the nodes and Christoffel sums for the weights, in elementwise IEEE
arithmetic only.  Library eigensolvers return NaN Laguerre weights somewhere
above 250 nodes; most tests here check that big Laguerre rules stay finite and
accurate, and one that the rules keep their bits under other BLAS and SIMD
kernels.  The Gauss-Legendre rules, the 16-point panel rule among them, are
checked against numpy's ``leggauss``, on their moments, the panel rule's mirror
symmetry and a chain of panels, and the Gauss-Hermite rules against
``hermgauss`` and their moments.  The package imports numpy only: scipy is a
test oracle, and tests here check that importing and using the package loads
neither scipy nor ``numpy.polynomial``, and that its source names no linalg,
no ``leggauss`` and no matrix product.
"""

import ast
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
from hydro2d.quadrature import (_PANEL_W, _PANEL_X, PANEL_ORDER, gauss_hermite, gauss_laguerre,
                                gauss_legendre, panel_nodes)


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


def test_panel_rule_matches_leggauss():
    # The reference is numpy's eigensolver-based rule; ours is mirror-symmetric bit for bit.
    x, w = np.polynomial.legendre.leggauss(PANEL_ORDER)
    assert np.max(np.abs(_PANEL_X - x)) <= 2.3e-16
    assert np.max(np.abs(_PANEL_W / w - 1.0)) <= 1e-14
    assert np.array_equal(_PANEL_X, -_PANEL_X[::-1])
    assert np.array_equal(_PANEL_W, _PANEL_W[::-1])


@pytest.mark.parametrize("n", range(1, 41))
def test_gauss_legendre_matches_leggauss(n):
    # Every order, odd ones with their node at 0 included: the nodes match
    # leggauss, the rule is exact to degree 2n - 1 (to 2e-15, about 4 ulp of
    # the zeroth moment 2; leggauss itself is off by up to 7e-15 here), and the
    # middle node of an odd rule stops at |x| <= 1e-30, not in the subnormals.
    x, w = gauss_legendre(n)
    assert np.max(np.abs(x - np.polynomial.legendre.leggauss(n)[0])) <= 2.3e-16
    for k in range(2 * n):
        assert abs(float(np.sum(w * x**k)) - (2.0 / (k + 1) if k % 2 == 0 else 0.0)) <= 2e-15
    if n % 2:
        assert abs(x[n // 2]) <= 1e-30


def test_gauss_legendre_rejects_empty_rule():
    with pytest.raises(ValueError):
        gauss_legendre(0)


@pytest.mark.parametrize("n", [1, 2, 6, 12, 33, 64])
def test_gauss_hermite_matches_hermgauss(n):
    # Up to the Fourier oracle's largest rule, 2 (30 + 2) nodes: the nodes and
    # weights match numpy's hermgauss, and the rule is exact to degree 2n - 1:
    # the moments of x^(2k) e^(-x^2) are Gamma(k + 1/2), to a relative 1e-13.
    x, w = gauss_hermite(n)
    want_x, want_w = np.polynomial.hermite.hermgauss(n)
    assert np.max(np.abs(x - want_x)) <= 1e-14  # measured 1.8e-15 at n = 64
    assert np.max(np.abs(w - want_w) / want_w) <= 1e-12  # measured 6.0e-14
    for k in range(n):
        assert abs(float(np.sum(w * x ** (2 * k))) / math.gamma(k + 0.5) - 1.0) <= 1e-13
    assert abs(float(np.sum(w * x))) <= 1e-15


def test_gauss_hermite_rejects_empty_rule():
    with pytest.raises(ValueError):
        gauss_hermite(0)


def test_panel_nodes_integrate_sine():
    bounds = np.linspace(0.0, math.pi, 9)
    x, w = panel_nodes(bounds)
    assert float(np.sum(w * np.sin(x))) == pytest.approx(2.0, rel=1e-13)


def test_package_never_imports_scipy():
    # Importing the package, building both rules and running a suite leave
    # sys.modules free of scipy and of numpy.polynomial.
    home = str(pathlib.Path(hydro2d.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {home!r})\n"
            "import numpy as np, hydro2d\n"
            "from hydro2d.quadrature import gauss_laguerre, panel_nodes\n"
            "gauss_laguerre(16); panel_nodes(np.array([0.0, 1.0]))\n"
            "hydro2d.run_suite('position', 2)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "print('numpy.polynomial' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.split() == ["[]", "False"]


_PRODUCTS = {"dot", "matmul", "tensordot", "inner", "vdot"}


def _forbidden(node):
    """What ``node`` names of LAPACK, numpy.polynomial or BLAS products, or None."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
        return "@"
    if isinstance(node, ast.Call):
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        if name in _PRODUCTS:
            return f"{name}()"
    names = {getattr(node, "attr", None), getattr(node, "id", None), getattr(node, "name", None)}
    if isinstance(node, ast.ImportFrom):
        names.add(node.module)
    words = {w for n in names if isinstance(n, str) for w in n.split(".")}
    if isinstance(node, (ast.Attribute, ast.alias, ast.ImportFrom)) and "polynomial" in words:
        return "polynomial"
    return next(iter(words & {"linalg", "leggauss"}), None)


def test_package_never_references_linalg():
    # No LAPACK, numpy.polynomial or BLAS product on the runtime path: every
    # rule is built and every contraction made elementwise or by einsum.
    package = pathlib.Path(hydro2d.__file__).parent
    found = [(p.name, node.lineno, what) for p in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(p.read_text()))
             if (what := _forbidden(node)) is not None]
    assert found == []


def test_linalg_guard_catches_each_form():
    # The guard sees each forbidden form, and a decorator is not a matrix product.
    bad = ["a @ b", "a @= b", "np.dot(a, b)", "a.dot(b)", "matmul(a, b)", "np.tensordot(a, b)",
           "np.inner(a, b)", "np.vdot(a, b)", "np.linalg.eigh(a)", "import numpy.linalg",
           "from numpy import linalg", "np.polynomial.legendre.leggauss(16)",
           "from numpy.polynomial import legendre", "leggauss(16)"]
    for src in bad:
        assert any(_forbidden(node) for node in ast.walk(ast.parse(src))), src
    good = "@lru_cache(maxsize=None)\ndef f(polynomial):\n    return np.einsum('ij,jk->ik', a, b)"
    assert not any(_forbidden(node) for node in ast.walk(ast.parse(good)))


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
