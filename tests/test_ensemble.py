"""Fock-level hierarchies: weights, evolution, incoherent recombination."""

import numpy as np
import pytest

from wigner.ensemble import (
    WEIGHT_FLOOR,
    FockEnsemble,
    coherent_weights,
    evolve_fock_hierarchy,
    incoherent_superpose,
)
from wigner.errors import ContractError
from wigner.model import ModelParams, fock_potential, parse_potential
from wigner.solve import CoefficientField, EvolutionConfig, evolve
from wigner.assembly import assemble_evolution

PARAMS = ModelParams()


def test_weights_must_normalize(ps6, gaussian_field6):
    g = parse_potential("q^2")
    with pytest.raises(ContractError):
        FockEnsemble(weights=[0.5, 0.6], U0=1.0, g=g,
                     fields=[gaussian_field6, gaussian_field6])
    with pytest.raises(ContractError):
        FockEnsemble(weights=[1.5, -0.5], U0=1.0, g=g,
                     fields=[gaussian_field6, gaussian_field6])
    with pytest.raises(ContractError):
        FockEnsemble(weights=[1.0], U0=1.0, g=g, fields=[])


def test_coherent_weights_poissonian():
    w = coherent_weights(1.0, 6)
    assert abs(w.sum() - 1.0) < 1e-12
    # successive ratio w_{n+1}/w_n = |alpha|^2 / (n+1)
    for n in range(5):
        assert w[n + 1] / w[n] == pytest.approx(1.0 / (n + 1))
    np.testing.assert_allclose(coherent_weights(0.0, 3), [1, 0, 0, 0],
                               atol=1e-300)
    with pytest.raises(ContractError):
        coherent_weights(1.0, -1)


def test_hierarchy_recombination_oracle(ps6, gaussian_field6):
    """Hierarchy output equals the weighted sum of independent level runs."""
    g = parse_potential("q^2")
    cfg = EvolutionConfig(dt=0.05, t_end=0.3)
    weights = [0.6, 0.4]
    ens = FockEnsemble(weights=weights, U0=0.5, g=g,
                       fields=[gaussian_field6.copy(), gaussian_field6.copy()])
    combined = incoherent_superpose(evolve_fock_hierarchy(ens, PARAMS, cfg))
    manual = np.zeros(ps6.dim)
    for n, w in enumerate(weights):
        L = assemble_evolution(ps6, fock_potential(0.5, g, n), PARAMS)
        manual += w * evolve(gaussian_field6, L, cfg).coeffs
    assert np.max(np.abs(combined.coeffs - manual)) < 1e-12


def test_hierarchy_skips_negligible_weights(ps6, gaussian_field6):
    g = parse_potential("q^2")
    cfg = EvolutionConfig(dt=0.05, t_end=0.2)
    w_tiny = WEIGHT_FLOOR / 10.0
    ens = FockEnsemble(weights=[1.0 - w_tiny, w_tiny], U0=1.0, g=g,
                       fields=[gaussian_field6.copy(), gaussian_field6.copy()])
    out = evolve_fock_hierarchy(ens, PARAMS, cfg)
    # the negligible level is carried unchanged
    np.testing.assert_allclose(out.fields[1].coeffs, gaussian_field6.coeffs,
                               atol=0.0)
    assert out.fields[1].time == gaussian_field6.time


def test_hierarchy_error_tagged_with_level(ps6, gaussian_field6):
    g = parse_potential("q^2")
    bad_cfg = EvolutionConfig(dt=1.0, t_end=2.0, scheme="explicit_rk4")
    ens = FockEnsemble(weights=[0.5, 0.5], U0=1.0, g=g,
                       fields=[gaussian_field6.copy(), gaussian_field6.copy()])
    with pytest.raises(Exception, match="Fock level n="):
        evolve_fock_hierarchy(ens, PARAMS, bad_cfg)


def test_superpose_preserves_normalization(ps6, gaussian_field6):
    g = parse_potential("q^2")
    ens = FockEnsemble(weights=[0.3, 0.7], U0=1.0, g=g,
                       fields=[gaussian_field6.copy(), gaussian_field6.copy()])
    out = incoherent_superpose(ens)
    s = gaussian_field6.ps.integration_functional()
    assert abs(s @ out.coeffs - s @ gaussian_field6.coeffs) < 1e-12


def test_superpose_rejects_mismatched_bases(ps6, ps6w, gaussian_field6,
                                            gaussian_field6w):
    g = parse_potential("q^2")
    ens = FockEnsemble(weights=[0.5, 0.5], U0=1.0, g=g,
                       fields=[gaussian_field6, gaussian_field6w])
    with pytest.raises(ContractError):
        incoherent_superpose(ens)

