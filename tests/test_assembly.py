"""Operator assembly: structure, symmetries, and action oracles."""

import numpy as np
import pytest

from wigner.assembly import (
    AssembledOperator,
    OperatorTerm,
    PhaseSpaceBasis,
    assemble_dissipator,
    assemble_evolution,
    assemble_quantum_correction,
    assemble_stationary_cnumber,
    assemble_stationary_pair,
    assemble_transport,
)
from wigner.basis import WaveletBasis, daubechies_filter
from wigner.errors import ConfigurationError, ContractError
from wigner.model import ModelParams, parse_potential
from wigner.solve import CoefficientField

PARAMS = ModelParams()


# ---------------------------------------------------------------------------
# phase-space basis
# ---------------------------------------------------------------------------

def test_flat_index_is_q_major(ps6):
    nq, npp = ps6.shape
    c = np.arange(ps6.dim, dtype=float)
    assert ps6.as_grid(c)[0, 1] == 1
    assert ps6.as_grid(c)[1, 0] == npp
    assert ps6.as_grid(c)[3, 5] == 3 * npp + 5


def test_integration_functional_gaussian(gaussian_field6w):
    assert abs(gaussian_field6w.total_integral() - 1.0) < 1e-10


def test_project_rejects_bad_length(ps6):
    with pytest.raises(ContractError):
        ps6.as_grid(np.zeros(ps6.dim + 1))


def test_evaluate_grid_matches_function(ps6, gaussian_field6):
    qs = np.linspace(-2.0, 2.0, 9)
    ps_ = np.linspace(-2.0, 2.0, 9)
    vals = ps6.evaluate_grid(gaussian_field6.coeffs, qs, ps_)
    ref = np.exp(-qs[:, None] ** 2 - ps_[None, :] ** 2) / np.pi
    assert np.max(np.abs(vals - ref)) < 5e-3


# ---------------------------------------------------------------------------
# operator container
# ---------------------------------------------------------------------------

def test_apply_matches_materialized_matrix(ps6):
    L = assemble_evolution(ps6, parse_potential("0.5*q^2"), PARAMS)
    rng = np.random.default_rng(0)
    c = rng.normal(size=ps6.dim)
    np.testing.assert_allclose(L.apply(c), L.matrix() @ c, atol=1e-12)


def test_add_and_scale(ps6):
    T = assemble_transport(ps6, PARAMS)
    two = T + T
    c = np.random.default_rng(1).normal(size=ps6.dim)
    np.testing.assert_allclose(two.apply(c), 2 * T.apply(c), atol=1e-13)
    np.testing.assert_allclose(T.scaled(-3.0).apply(c), -3 * T.apply(c),
                               atol=1e-13)


def test_zero_operator(ps6):
    Z = AssembledOperator(ps=ps6, terms=[])
    assert Z.is_zero
    assert not Z.is_complex
    np.testing.assert_allclose(Z.apply(np.ones(ps6.dim)), 0.0)


def test_sparsity_band(ps6):
    """Every factor is banded by the filter support, so nnz per row is bounded."""
    L = assemble_evolution(ps6, parse_potential("0.5*q^2"),
                           ModelParams(gamma=0.1, diffusion=0.1))
    M = L.matrix()
    # single tables span offsets -(order-2)..order-2; the friction product
    # M1 @ D doubles the band, so 4(order-2)+1 bounds every factor
    band = 4 * (ps6.basis_q.filter.order - 2) + 1
    nnz_per_row = np.diff(M.indptr)
    assert nnz_per_row.max() <= band * band


def test_assembly_deterministic(ps6):
    U = parse_potential("0.25*q^4")
    A = assemble_evolution(ps6, U, PARAMS).matrix()
    B = assemble_evolution(ps6, U, PARAMS).matrix()
    assert (A != B).nnz == 0


# ---------------------------------------------------------------------------
# evolution generator
# ---------------------------------------------------------------------------

def test_transport_action_oracle(ps6w):
    """-(p/m) dW/dq on a projected Gaussian, against the analytic image."""
    W = ps6w.project(lambda q, p: np.exp(-q ** 2 - p ** 2))
    ref = ps6w.project(lambda q, p: 2.0 * q * p * np.exp(-q ** 2 - p ** 2))
    got = assemble_transport(ps6w, PARAMS).apply(W)
    assert np.max(np.abs(got - ref)) < 5e-5


def test_transport_annihilates_q_constants(ps6):
    # a field constant in q is transport-invariant
    c = ps6.project(lambda q, p: np.exp(-p ** 2) + 0.0 * q)
    out = assemble_transport(ps6, PARAMS).apply(c)
    assert np.max(np.abs(out)) < 1e-12


def test_force_action_oracle(ps6w):
    """U'(q) dW/dp for the harmonic force, against the analytic image."""
    U = parse_potential("0.5*q^2")
    W = ps6w.project(lambda q, p: np.exp(-q ** 2 - p ** 2))
    ref = ps6w.project(lambda q, p: -2.0 * q * p * np.exp(-q ** 2 - p ** 2))
    got = assemble_quantum_correction(ps6w, U, PARAMS).apply(W)
    assert np.max(np.abs(got - ref)) < 5e-5


def test_quadratic_potential_has_no_corrections(ps6):
    A = assemble_quantum_correction(ps6, parse_potential("0.5*q^2"), PARAMS)
    assert [t.tag for t in A.terms] == ["force"]


def test_quartic_potential_single_correction(ps6):
    A = assemble_quantum_correction(ps6, parse_potential("0.25*q^4"), PARAMS)
    assert [t.tag for t in A.terms] == ["force", "quantum_l1"]


def test_pure_p_potential_rejected():
    # potentials depend on q only; p terms never reach an assembly
    for text in ("p^2", "q + p", "0.5*q^2 + 2*p^4"):
        with pytest.raises(ConfigurationError, match="p term"):
            parse_potential(text)


def test_dissipator_tags_and_emptiness(ps6):
    assert assemble_dissipator(ps6, PARAMS).is_zero
    D = assemble_dissipator(ps6, ModelParams(gamma=0.2, diffusion=0.1))
    assert [t.tag for t in D.terms] == ["dissipator_friction", "dissipator_diffusion"]


def test_diffusion_second_moment_rate(ps6w, gaussian_field6w):
    """d<p^2>/dt = 2 D <1> under pure momentum diffusion."""
    D = 0.3
    L = assemble_dissipator(ps6w, ModelParams(diffusion=D))
    rate = _observable_rate(ps6w, L, gaussian_field6w.coeffs, power=2)
    assert abs(rate - 2.0 * D) < 1e-6


def test_friction_second_moment_rate(ps6w, gaussian_field6w):
    """d<p^2>/dt = -4 gamma <p^2> under pure friction."""
    gamma = 0.25
    L = assemble_dissipator(ps6w, ModelParams(gamma=gamma))
    p2 = _p_moment(ps6w, gaussian_field6w.coeffs, 2)
    rate = _observable_rate(ps6w, L, gaussian_field6w.coeffs, power=2)
    assert abs(rate + 4.0 * gamma * p2) < 1e-6


def test_generator_conserves_total_integral(ps6w, gaussian_field6w):
    L = assemble_evolution(ps6w, parse_potential("0.5*q^2 + 0.1*q^4"),
                           ModelParams(gamma=0.2, diffusion=0.1))
    s = ps6w.integration_functional()
    assert abs(s @ L.apply(gaussian_field6w.coeffs)) < 1e-8


def _p_moment(ps, coeffs, power):
    f = np.kron(ps.basis_q.integration_functional(),
                ps.basis_p.moment_functional(power))
    return float(f @ coeffs)


def _observable_rate(ps, L, coeffs, power):
    f = np.kron(ps.basis_q.integration_functional(),
                ps.basis_p.moment_functional(power))
    return float(f @ L.apply(coeffs))


# ---------------------------------------------------------------------------
# stationary assemblies
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def harmonic_ops(ps6):
    U = parse_potential("0.5*q^2")
    A_sym, A_anti = assemble_stationary_pair(ps6, U, PARAMS)
    A_c = assemble_stationary_cnumber(ps6, U, PARAMS)
    return A_sym, A_anti, A_c


def test_pair_symmetry(harmonic_ops):
    A_sym, A_anti, _ = harmonic_ops
    S = A_sym.dense()
    K = A_anti.dense()
    scale = np.max(np.abs(S))
    assert np.max(np.abs(S - S.T)) < 1e-11 * scale
    assert np.max(np.abs(K + K.T)) < 1e-11 * scale


def test_cnumber_is_hermitian(harmonic_ops):
    _, _, A_c = harmonic_ops
    M = A_c.dense()
    assert np.max(np.abs(M - M.conj().T)) < 1e-11 * np.max(np.abs(M))


def test_cnumber_splits_into_pair(harmonic_ops):
    """Real part = symmetric half; imaginary part = -(hbar/2) x antisymmetric."""
    A_sym, A_anti, A_c = harmonic_ops
    M = A_c.dense()
    scale = np.max(np.abs(M))
    assert np.max(np.abs(M.real - A_sym.dense())) < 1e-11 * scale
    assert np.max(np.abs(M.imag + 0.5 * PARAMS.hbar * A_anti.dense())) < 1e-11 * scale


def test_cubic_pair_has_series_terms(ps6):
    A_sym, A_anti = assemble_stationary_pair(
        ps6, parse_potential("0.1*q^3"), PARAMS)
    assert "stationary_sym_l1" in [t.tag for t in A_sym.terms]
    assert "stationary_antisym_l1" in [t.tag for t in A_anti.terms]
    S, K = A_sym.dense(), A_anti.dense()
    assert np.max(np.abs(S - S.T)) < 1e-10 * np.max(np.abs(S))
    assert np.max(np.abs(K + K.T)) < 1e-10 * np.max(np.abs(S))
