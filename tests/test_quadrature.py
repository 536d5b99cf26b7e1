"""Quadrature rules: moment exactness, large-node stability and stack independence.

The rules come from one builder: Sturm-count multisection on the Jacobi matrix
for the nodes and Christoffel sums for the weights, in elementwise IEEE
arithmetic only, for every size a caller needs of one family at once; a rule
has the same bits built alone or in any batch.  Library eigensolvers return NaN Laguerre weights somewhere
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
from hydro2d.quadrature import (_FAMILIES, PANEL_ORDER, _gauss_rule, gauss_hermite,
                                gauss_laguerre, gauss_legendre, panel_nodes)


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
    # Node counts on both sides of the powers of two, up to 1024; the builder
    # runs past the caches so that every rule is built here.
    diag, off2, mass = _FAMILIES["laguerre"](np.arange(1024.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (1, 2, 3, 7, 8, 9, 63, 64, 65, 127, 128, 129,
                  255, 256, 257, 511, 512, 513, 1000, 1023, 1024):
            (x, w), = _gauss_rule(diag, off2, mass, [n])
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
    panel_x, panel_w = gauss_legendre(PANEL_ORDER)
    assert np.max(np.abs(panel_x - x)) <= 2.3e-16
    assert np.max(np.abs(panel_w / w - 1.0)) <= 1e-14
    assert np.array_equal(panel_x, -panel_x[::-1])
    assert np.array_equal(panel_w, panel_w[::-1])


@pytest.mark.parametrize("n", range(1, 41))
def test_gauss_legendre_matches_leggauss(n):
    # Every order, odd ones with their node at 0 included: the nodes match
    # leggauss, the rule is exact to degree 2n - 1 (to 2e-15, about 4 ulp of
    # the zeroth moment 2; leggauss itself is off by up to 7e-15 here), and the
    # middle node of an odd rule is exactly 0, not a bracket in the subnormals.
    x, w = gauss_legendre(n)
    assert np.max(np.abs(x - np.polynomial.legendre.leggauss(n)[0])) <= 2.3e-16
    for k in range(2 * n):
        assert abs(float(np.sum(w * x**k)) - (2.0 / (k + 1) if k % 2 == 0 else 0.0)) <= 2e-15
    if n % 2:
        assert x[n // 2] == 0.0


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


_BATCH_SIZES = list(range(1, 25)) + [96, 128]
_PUBLIC = {"laguerre": gauss_laguerre, "legendre": gauss_legendre, "hermite": gauss_hermite}


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_a_rule_has_the_same_bits_alone_and_in_a_batch(family):
    # The size-n matrix is the leading block of the largest, and the Sturm count
    # ends each bracket on one pair of adjacent doubles whatever trial points led
    # there: a rule built alone, in a mixed batch or through the public cache is
    # the same bytes.
    diag, off2, mass = _FAMILIES[family](np.arange(128.0))
    mixed = _BATCH_SIZES[1::2][::-1] + _BATCH_SIZES[::2]
    batch = dict(zip(mixed, _gauss_rule(diag, off2, mass, mixed)))
    for n in _BATCH_SIZES:
        (x, w), = _gauss_rule(diag, off2, mass, [n])
        for got in (batch[n], _PUBLIC[family](n)):
            assert got[0].tobytes() == x.tobytes() and got[1].tobytes() == w.tobytes(), n


@pytest.mark.parametrize("family", ["legendre", "hermite"])
def test_symmetric_rules_have_an_exact_zero_and_mirror(family):
    # a_k = 0, so the nodes come in pairs +-x and an odd rule's middle node is
    # 0: its bracket ends below eps^2 times the Gershgorin width, at a point the
    # trial sequence chose, so it is returned as exactly +0.0 and mirrors itself.
    # The other pairs mirror to 2 ulp (Legendre 4 and 13, Hermite 9 and 11 among
    # these sizes are off): the pivots at -t are those at t negated, except one
    # that cancels to exactly 0, which is +0.0 at both, so neither count takes
    # it and the counts at t and -t need not add up to n.  At Legendre 4 the
    # last pivot is +0.0 at t = -0.8611363115940526 and at -t; counting
    # np.signbit would change no rule.  The weights follow their nodes to their
    # own accuracy.
    diag, off2, mass = _FAMILIES[family](np.arange(128.0))
    for n, (x, w) in zip(_BATCH_SIZES, _gauss_rule(diag, off2, mass, _BATCH_SIZES)):
        if n % 2:
            assert x[n // 2] == 0.0 and not np.signbit(x[n // 2])
            assert x[n // 2] == -x[::-1][n // 2]
        assert np.all(np.abs(x + x[::-1]) <= 2.0 * np.spacing(np.abs(x))), n
        assert np.max(np.abs(w / w[::-1] - 1.0)) <= 1e-13, n  # measured 5.5e-14 at n = 128


def _multisections(calls: str):
    """The sizes of each ``_gauss_rule`` call of a fresh process that runs ``calls``."""
    home = str(pathlib.Path(hydro2d.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {home!r})\n"
            "import hydro2d\n"
            "from hydro2d import quadrature\n"
            "build, batches = quadrature._gauss_rule, []\n"
            "def counted(diag, off2, mass, sizes):\n"
            "    batches.append(list(sizes))\n"
            "    return build(diag, off2, mass, sizes)\n"
            "quadrature._gauss_rule = counted\n"
            f"{calls}\n"
            "print(batches)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    return ast.literal_eval(out.stdout)


def test_verify_builds_each_familys_rules_together():
    # Each caller asks for every size it needs at once: the position norms and
    # overlaps for their Laguerre counts, Parseval for its Legendre counts and
    # each Levi-Civita call for the Hermite rules of all its levels, first in
    # measure-factor-adjudication (n <= 4), which leaves the ft suite only the
    # panel rule of the Hankel route and the doubled Hermite sizes to build.
    assert _multisections("hydro2d.run_suite('all')") == [
        list(range(1, 12)), list(range(1, 8)), [2, 3, 4, 5, 6], [PANEL_ORDER], [8, 10, 12]]
    assert _multisections("for suite in hydro2d.SUITE_ORDER[:-1]: hydro2d.run_suite(suite, 10)") \
        == [list(range(1, 12)), list(range(1, 12)), [2, 3, 4, 5, 6]]


def test_panel_nodes_integrate_sine():
    bounds = np.linspace(0.0, math.pi, 9)
    x, w = panel_nodes(bounds)
    assert float(np.sum(w * np.sin(x))) == pytest.approx(2.0, rel=1e-13)


def test_package_never_imports_scipy():
    # Importing the package, building both rules and running every suite leave
    # sys.modules free of scipy, of numpy.polynomial and of numpy.random: the
    # seeded draws come from the stdlib random module.
    home = str(pathlib.Path(hydro2d.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {home!r})\n"
            "import numpy as np, hydro2d\n"
            "from hydro2d.quadrature import gauss_laguerre, panel_nodes\n"
            "gauss_laguerre(16); panel_nodes(np.array([0.0, 1.0]))\n"
            "hydro2d.run_suite('position', 2)\n"
            "assert all(report.passed for report in hydro2d.run_suite('all'))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "print('numpy.polynomial' in sys.modules, 'numpy.random' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.split() == ["[]", "False", "False"]


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
            "from hydro2d.quadrature import PANEL_ORDER, gauss_laguerre, gauss_legendre\n"
            "for rule in (gauss_laguerre(96), gauss_laguerre(128), gauss_legendre(PANEL_ORDER)):\n"
            "    print(hashlib.sha256(b''.join(a.tobytes() for a in rule)).hexdigest())\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, **stack})
    assert out.stdout.split() == [_rule_digest(*gauss_laguerre(96)),
                                  _rule_digest(*gauss_laguerre(128)),
                                  _rule_digest(*gauss_legendre(PANEL_ORDER))]
