"""Fourier-transform oracle: hand-checkable points and structural independence.

The oracle exists to referee the closed-form momentum wavefunctions, so its
own tests avoid those closed forms wherever a value can be pinned down
independently (p = 0 radial integrals, symmetry relations, decay envelopes).
Where a test does compare with the closed form, the comparison happens
here, never inside the oracle module.
"""

import ast
import inspect
import math

import numpy as np
import pytest

import hydro2d.ftoracle
from hydro2d.ftoracle import ft_direct_2d, ft_hankel
from hydro2d.momentum import MomentumPoint, psi_momentum
from hydro2d.position import QuantumNumbers
from hydro2d.verify import check_oracle_agreement

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def test_config_validation():
    qn, mp = QuantumNumbers(1, 0), MomentumPoint(0.5, 0.0)
    ft_hankel(qn, mp, nodes=64)
    with pytest.raises(ValueError):
        ft_hankel(qn, mp, nodes=32)
    with pytest.raises(ValueError):
        ft_direct_2d(qn, mp, nodes=32)


def test_ground_state_at_zero_momentum():
    # Radial integral in closed form: N_00 int e^(-2 rho) rho d rho = N_00/4,
    # and N_00/4 = sqrt(8/pi)/4 = 1/sqrt(2 pi).
    val = ft_hankel(QuantumNumbers(0, 0), MomentumPoint(0.0, 0.0))
    assert val.imag == 0.0
    assert abs(val.real - INV_SQRT_2PI) <= 1e-8  # measured 1.4e-15


def test_m_nonzero_vanishes_at_zero_momentum():
    # J_1(0) = 0 annihilates the radial integrand.
    assert abs(ft_hankel(QuantumNumbers(1, 1), MomentumPoint(0.0, 0.0))) <= 1e-10


def test_hankel_matches_closed_form_at_recorded_point():
    qn, mp = QuantumNumbers(2, 1), MomentumPoint(1.0, 0.5)
    err = abs(ft_hankel(qn, mp) - psi_momentum(qn, mp))
    assert err <= 1e-6  # measured 1.1e-16


def test_two_oracles_agree():
    qn, mp = QuantumNumbers(0, 0), MomentumPoint(0.5, 0.0)
    assert abs(ft_direct_2d(qn, mp) - ft_hankel(qn, mp)) <= 1e-7  # measured 5.6e-17


def test_hankel_symmetry_under_m_flip():
    # Same assembly as the closed form: flipping m equals flipping phi_p.
    a = ft_hankel(QuantumNumbers(1, -1), MomentumPoint(0.5, 1.0))
    b = ft_hankel(QuantumNumbers(1, 1), MomentumPoint(0.5, -1.0))
    assert a == b


def test_direct_symmetry_under_m_flip():
    a = ft_direct_2d(QuantumNumbers(1, -1), MomentumPoint(0.5, 1.0))
    b = ft_direct_2d(QuantumNumbers(1, 1), MomentumPoint(0.5, -1.0))
    c = ft_direct_2d(QuantumNumbers(1, 1), MomentumPoint(0.5, 1.0))
    assert abs(a - b) <= 1e-12
    assert abs(a + c.conjugate()) <= 1e-12  # psi(n,-m) = (-1)^|m| conj(psi(n,m))


def test_direct_large_momentum_tail():
    # Far tail must both be tiny (p^-3 envelope) and still match the closed
    # form; this exercises the oscillatory panel quadrature.
    qn, mp = QuantumNumbers(1, 0), MomentumPoint(50.0, 0.0)
    val = ft_direct_2d(qn, mp)
    assert 0.0 < abs(val) <= 1e-4
    assert abs(val - psi_momentum(qn, mp)) <= 1e-8


def test_node_count_invariance():
    qn, mp = QuantumNumbers(3, 2), MomentumPoint(0.7, 0.4)
    lo = ft_hankel(qn, mp, nodes=512)
    hi = ft_hankel(qn, mp, nodes=1024)
    assert abs(lo - hi) <= 1e-12


@pytest.mark.parametrize("n, m, p", [(13, 13, 2.0), (15, 14, 1.0), (20, 16, 3.0)])
def test_hankel_large_order(n, m, p):
    # For |m| >= 13 the Miller range of bessel_j reaches out to p rho = 20 m^2;
    # the oracle must stay finite and agree with the closed form there too.
    qn, mp = QuantumNumbers(n, m), MomentumPoint(p, 0.0)
    val = ft_hankel(qn, mp)
    assert np.isfinite(val.real) and np.isfinite(val.imag)
    assert abs(val - psi_momentum(qn, mp)) <= 1e-12  # measured 1.2e-14


@pytest.mark.parametrize("oracle", [ft_hankel, ft_direct_2d])
@pytest.mark.parametrize("order, nodes", [(95, 512), (85, 1024)])
def test_gauss_laguerre_order_limit(oracle, order, nodes):
    # x_max^(|m|+1) passes the float maximum from |m| = 93 at 512 nodes and
    # from |m| = 85 at 1024 nodes; the oracle names the limit instead.
    with pytest.raises(ValueError, match="overflows"):
        oracle(QuantumNumbers(order, order), MomentumPoint(0.01, 0.0), nodes=nodes)


def test_oracle_report_single_point():
    # The ground state over the acceptance grid, through the shared sweep.
    rep = check_oracle_agreement(n_max=0)
    assert rep.passed
    assert rep.max_abs_err <= 1e-8
    assert rep.check_name == "momentum-vs-ft-oracle"
    assert rep.grid_desc == "|m| <= n <= 0, 20 momentum points"


def test_oracle_is_structurally_independent():
    # The whole point of the oracle is that it never computes through the
    # closed-form momentum expressions.  Enforce that at the AST level: the
    # module-level import from the momentum module brings in only the point
    # type, and the name psi_momentum appears in no function at all.
    tree = ast.parse(inspect.getsource(hydro2d.ftoracle))
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module and "momentum" in node.module:
            assert {alias.name for alias in node.names} == {"MomentumPoint"}
    offenders = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            pulled = any(
                isinstance(sub, ast.ImportFrom)
                and any(alias.name == "psi_momentum" for alias in sub.names)
                for sub in ast.walk(node))
            if ("psi_momentum" in used) or pulled:
                offenders.append(node.name)
    assert offenders == []
