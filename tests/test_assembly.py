"""Operator assembly: structure, symmetries, and action oracles."""

import tracemalloc

import numpy as np
import pytest
from numpy.polynomial import Polynomial
from oracles import kron_dense

from wigner.assembly import (
    AssembledOperator,
    PhaseSpaceBasis,
    assemble_dissipator,
    assemble_evolution,
    assemble_quantum_correction,
    assemble_stationary_cnumber,
    assemble_stationary_pair,
    assemble_transport,
)
from wigner.basis import PROJECTION_LEVELS, quadrature_weights
from wigner.errors import ConfigurationError, ContractError
from wigner.model import ModelParams, parse_potential

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


def test_integration_functional_gaussian(ps6w, gaussian_field6w):
    assert abs(ps6w.integration_functional() @ gaussian_field6w.coeffs - 1.0) < 1e-10


def test_project_rejects_bad_length(ps6):
    with pytest.raises(ContractError):
        ps6.as_grid(np.zeros(ps6.dim + 1))


def _one_pass_projection(basis, F, axis):
    """``WaveletBasis.project_samples`` over every sample along ``axis`` at
    once, each stencil and filter term a rolled copy of the whole array:
    the projection as it ran on the full sample grid."""
    out = np.zeros_like(F)
    for t, wt in enumerate(quadrature_weights(basis.filter)):
        out += wt * np.roll(F, -t, axis=axis)
    out *= np.sqrt(basis.length / F.shape[axis])
    keep = tuple(slice(0, None, 2) if a == axis else slice(None) for a in range(2))
    for _ in range(PROJECTION_LEVELS):
        c, out = out, None
        for t, ht in enumerate(basis.filter.taps):
            piece = np.roll(c, -t, axis=axis)[keep]
            out = ht * piece if out is None else out + ht * piece
    return out


def _non_separable(q, p):
    return np.exp(-q ** 2 - q * p - p ** 2)


def test_project_has_the_bits_of_one_pass_over_the_sample_grid(ps6w):
    """The blocked projection equals both stages run on the whole 512 x 512
    sample grid at 64x64, bit for bit, for an f that does not separate."""
    bq, bp = ps6w.basis_q, ps6w.basis_p
    F = _non_separable(bq.projection_nodes()[:, None], bp.projection_nodes()[None, :])
    ref = _one_pass_projection(bp, _one_pass_projection(bq, F, 0), 1).reshape(-1)
    assert ps6w.project(_non_separable).tobytes() == ref.tobytes()


def test_project_makes_no_sample_grid(ps6w):
    """At 64x64 the projection's traced peak stays below 1 MB: the 0.26 MB
    array of q-stage results and two of its size (0.81 MB measured).  The
    512 x 512 sample grid and its rolled copies peaked at 9.5 MB."""
    ps6w.project(_non_separable)  # the quadrature weights are cached
    tracemalloc.start()
    try:
        ps6w.project(_non_separable)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


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


def test_zero_operator(ps6):
    Z = AssembledOperator(ps=ps6, terms=[])
    assert not Z.terms
    assert not Z.is_complex
    np.testing.assert_allclose(Z.apply(np.ones(ps6.dim)), 0.0)


def test_sparsity_band(ps6):
    """Every factor is banded by the filter support, so nnz per row is bounded."""
    L = assemble_evolution(ps6, parse_potential("0.5*q^2"),
                           ModelParams(gamma=0.1, diffusion=0.1))
    M = L.matrix()
    # single tables span offsets -(order-2)..order-2; the friction product
    # D @ M1 doubles the band, so 4(order-2)+1 bounds every factor
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
    for m in (1.0, 2.0):
        ref = ps6w.project(lambda q, p: 2.0 * q * p / m * np.exp(-q ** 2 - p ** 2))
        got = assemble_transport(ps6w, ModelParams(mass=m)).apply(W)
        assert np.max(np.abs(got - ref)) < 5e-5, m


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


@pytest.mark.parametrize("coeffs,tags", [
    ((0.0,), []),
    ((1.0, 2.0, 3.0), ["force"]),                    # classical force only
    ((0.0, 0.0, 0.0, 1.0), ["force", "quantum_l1"]),  # first odd correction
    ((0.0,) * 4 + (1.0,), ["force", "quantum_l1"]),
    ((0.0,) * 5 + (1.0,), ["force", "quantum_l1", "quantum_l2"]),
], ids=["zero", "quadratic", "cubic", "quartic", "quintic"])
def test_quantum_correction_series_ends_at_the_degree(coeffs, tags):
    """The odd series of U(q + (i hbar/2) d/dp) stops at the last nonzero odd
    derivative of U; order 10 carries d^5/dp^5."""
    ps = PhaseSpaceBasis(order=10, j_coarse=3, j_fine=4,
                         q_min=-4.0, q_max=4.0, p_min=-4.0, p_max=4.0)
    A = assemble_quantum_correction(ps, Polynomial(coeffs), PARAMS)
    assert [t.tag for t in A.terms] == tags


def test_pure_p_potential_rejected():
    # potentials depend on q only; p terms never reach an assembly
    for text in ("p^2", "q + p", "0.5*q^2 + 2*p^4"):
        with pytest.raises(ConfigurationError, match="p term"):
            parse_potential(text)


def test_dissipator_tags_and_emptiness(ps6):
    assert not assemble_dissipator(ps6, PARAMS).terms
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
    """Every term of L is an exact derivative, so s . L c = 0 to roundoff,
    also for Gaussians whose tails reach the periodic wrap in p (p0 = 4, 5
    on +-6), where a product-rule friction term leaks integral."""
    L = assemble_evolution(ps6w, parse_potential("0.5*q^2 + 0.1*q^4"),
                           ModelParams(gamma=0.2, diffusion=0.1))
    s = ps6w.integration_functional()
    fields = [gaussian_field6w.coeffs] + [
        ps6w.project(lambda q, p, p0=p0: np.exp(-q ** 2 - (p - p0) ** 2) / np.pi)
        for p0 in (4.0, 5.0)]
    for c in fields:
        assert abs(s @ L.apply(c)) < 1e-12


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
    S = kron_dense(A_sym)
    K = kron_dense(A_anti)
    scale = np.max(np.abs(S))
    assert np.max(np.abs(S - S.T)) < 1e-11 * scale
    assert np.max(np.abs(K + K.T)) < 1e-11 * scale


def test_cnumber_is_hermitian(harmonic_ops):
    _, _, A_c = harmonic_ops
    M = kron_dense(A_c)
    assert np.max(np.abs(M - M.conj().T)) < 1e-11 * np.max(np.abs(M))


def test_cnumber_splits_into_pair(harmonic_ops):
    """Real part = symmetric half; imaginary part = -(hbar/2) x antisymmetric."""
    A_sym, A_anti, A_c = harmonic_ops
    M = kron_dense(A_c)
    scale = np.max(np.abs(M))
    assert np.max(np.abs(M.real - kron_dense(A_sym))) < 1e-11 * scale
    assert np.max(np.abs(M.imag + 0.5 * PARAMS.hbar * kron_dense(A_anti))) < 1e-11 * scale


def test_cubic_pair_has_series_terms(ps6):
    A_sym, A_anti = assemble_stationary_pair(
        ps6, parse_potential("0.1*q^3"), PARAMS)
    assert "stationary_sym_l1" in [t.tag for t in A_sym.terms]
    # A_anti is minus the generator's transport and odd potential series
    assert [t.tag for t in A_anti.terms] == ["transport", "force", "quantum_l1"]
    S, K = kron_dense(A_sym), kron_dense(A_anti)
    assert np.max(np.abs(S - S.T)) < 1e-10 * np.max(np.abs(S))
    assert np.max(np.abs(K + K.T)) < 1e-10 * np.max(np.abs(S))
