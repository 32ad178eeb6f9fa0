"""Fock-level ensembles: weights, per-level evolution, incoherent recombination."""

import numpy as np
import pytest

from wigner.ensemble import WEIGHT_FLOOR, coherent_weights, evolve_ensemble
from wigner.errors import ConfigurationError, ContractError, NumericalError
from wigner.model import ModelParams, parse_potential
from wigner.solve import EvolutionConfig, evolve
from wigner.assembly import assemble_evolution

PARAMS = ModelParams()


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
    """The ensemble equals the weighted sum of independent level runs, each
    under its potential U_n = n * g written out by hand."""
    g = parse_potential("0.5*q^2")
    cfg = EvolutionConfig(dt=0.05, t_end=0.3)
    weights = [0.6, 0.4]
    combined = evolve_ensemble(gaussian_field6, weights, g, PARAMS, cfg)
    manual = np.zeros(ps6.dim)
    for w, U_n in zip(weights, ("0", "0.5*q^2")):
        L = assemble_evolution(ps6, parse_potential(U_n), PARAMS)
        manual += w * evolve(gaussian_field6, L, cfg).coeffs
    assert np.max(np.abs(combined.coeffs - manual)) < 1e-12
    assert combined.time == pytest.approx(0.3)


def test_hierarchy_skips_negligible_weights(ps6, gaussian_field6):
    """A level below the weight floor is not evolved: it adds w * W0."""
    g = parse_potential("q^2")
    cfg = EvolutionConfig(dt=0.05, t_end=0.2)
    w_tiny = WEIGHT_FLOOR / 10.0
    out = evolve_ensemble(gaussian_field6, [1.0 - w_tiny, w_tiny], g, PARAMS,
                          cfg)
    L0 = assemble_evolution(ps6, parse_potential("0"), PARAMS)
    level0 = evolve(gaussian_field6, L0, cfg).coeffs
    np.testing.assert_allclose(
        out.coeffs, (1.0 - w_tiny) * level0 + w_tiny * gaussian_field6.coeffs,
        atol=0.0)


def test_hierarchy_error_tagged_with_level(ps6, gaussian_field6):
    # dt 1.0 is far too long for the midpoint stepper under the force of q^2:
    # level 1 exhausts its corrections, level 0 (free streaming) does not
    g = parse_potential("q^2")
    bad_cfg = EvolutionConfig(dt=1.0, t_end=2.0)
    with pytest.raises(NumericalError, match="Fock level n=1"):
        evolve_ensemble(gaussian_field6, [0.5, 0.5], g, PARAMS, bad_cfg)


def test_assembly_error_tagged_with_level(ps6, gaussian_field6):
    """Level 3's force 3 * 2 * 5e307 q overflows in assembly, before any
    step; the error still names its level."""
    g = parse_potential("5e307*q^2")
    cfg = EvolutionConfig(dt=0.05, t_end=0.1)
    with pytest.raises(ConfigurationError) as exc:
        evolve_ensemble(gaussian_field6, [0.5, 0.0, 0.0, 0.5], g, PARAMS, cfg)
    assert str(exc.value).startswith("Fock level n=3: the force term overflows")


def test_superpose_preserves_normalization(ps6, gaussian_field6):
    g = parse_potential("q^2")
    out = evolve_ensemble(gaussian_field6, [0.3, 0.7], g, PARAMS,
                          EvolutionConfig(dt=0.05, t_end=0.2))
    s = gaussian_field6.ps.integration_functional()
    assert abs(s @ out.coeffs - s @ gaussian_field6.coeffs) < 1e-12
