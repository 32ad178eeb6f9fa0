"""Observables and the qualitative regime classifier."""

import numpy as np
import pytest

from wigner.diagnostics import (
    ClassifierThresholds,
    HealthSeries,
    classify,
    diagnostics_report,
    marginals,
    negativity_volume,
    scale_entropy,
)
from wigner.errors import ConfigurationError, DegenerateInputError
from wigner.model import ModelParams
from wigner.solve import CoefficientField


@pytest.fixture(scope="module")
def shifted_gaussian(ps6w):
    """Normalized Gaussian centred at (q0, p0) = (1, -0.5) with variance 1/2."""
    q0, p0 = 1.0, -0.5
    coeffs = ps6w.project(
        lambda q, p: np.exp(-(q - q0) ** 2 - (p - p0) ** 2) / np.pi)
    return CoefficientField(ps=ps6w, coeffs=coeffs)


@pytest.fixture(scope="module")
def series6w(ps6w):
    return HealthSeries(ps6w, None, ModelParams())


def test_standard_moments_gaussian(series6w, shifted_gaussian):
    total, (qbar, pbar), cov, purity = series6w.moments(shifted_gaussian)
    assert abs(total - 1.0) < 1e-9
    assert abs(qbar - 1.0) < 1e-7
    assert abs(pbar + 0.5) < 1e-7
    # e^{-r^2} has variance 1/2 per axis and no correlation
    np.testing.assert_allclose(cov, [[0.5, 0.0], [0.0, 0.5]], atol=1e-6)
    # a pure Gaussian state has purity 2 pi hbar ||W||^2 = 1
    assert abs(purity - 1.0) < 1e-5


def test_purity_scales_with_hbar(ps6w, shifted_gaussian):
    p1, p2 = (HealthSeries(ps6w, None, ModelParams(hbar=hbar)).moments(
        shifted_gaussian)[3] for hbar in (1.0, 2.0))
    assert p2 == pytest.approx(2.0 * p1)


def test_marginals_gaussian(ps6w, shifted_gaussian):
    dq, dp = marginals(shifted_gaussian)
    bq, bp = ps6w.basis_q, ps6w.basis_p
    for basis, coeffs in ((bq, dq), (bp, dp)):
        assert abs(basis.integration_functional() @ coeffs - 1.0) < 1e-9
    xs = np.linspace(-2.0, 3.0, 21)
    ref_q = np.exp(-(xs - 1.0) ** 2) / np.sqrt(np.pi)
    ref_p = np.exp(-(xs + 0.5) ** 2) / np.sqrt(np.pi)
    assert np.max(np.abs(bq.evaluation_matrix(xs) @ dq - ref_q)) < 5e-3
    assert np.max(np.abs(bp.evaluation_matrix(xs) @ dp - ref_p)) < 5e-3


def test_scale_entropy_uniform_spectrum(ps6):
    ms = np.ones(ps6.shape)
    W = CoefficientField(ps=ps6, coeffs=ps6.from_multiscale(ms.ravel()))
    entropy, participation = scale_entropy(W)
    assert entropy == pytest.approx(np.log(ps6.dim))
    assert participation == pytest.approx(ps6.dim)


def test_scale_entropy_single_coefficient(ps6):
    ms = np.zeros(ps6.shape)
    ms[3, 5] = 2.0
    W = CoefficientField(ps=ps6, coeffs=ps6.from_multiscale(ms.ravel()))
    entropy, participation = scale_entropy(W)
    assert entropy == pytest.approx(0.0, abs=1e-14)
    assert participation == pytest.approx(1.0)


def test_scale_entropy_zero_field(ps6):
    W = CoefficientField(ps=ps6, coeffs=np.zeros(ps6.dim))
    with pytest.raises(DegenerateInputError):
        scale_entropy(W)


def test_negativity_vanishes_for_gaussian(gaussian_field6w):
    assert negativity_volume(gaussian_field6w) < 1e-6


def test_localization_radius_gaussian(series6w, shifted_gaussian):
    # sqrt(var_q + var_p) = sqrt(1/2 + 1/2) = 1
    report = diagnostics_report(shifted_gaussian, None, series6w,
                                ClassifierThresholds())
    assert report.localization_radius == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# classifier
# ---------------------------------------------------------------------------

def test_classify_without_previous_counts_as_stable(ps6):
    # a field that moves by more than theta_stab is a waveleton only alone
    ms = np.zeros(ps6.shape)
    ms[0, 0] = 1.0
    W = CoefficientField(ps=ps6, coeffs=ps6.from_multiscale(ms.ravel()))
    moved = CoefficientField(ps=ps6, coeffs=1.1 * W.coeffs)
    assert classify(W) == "waveleton"
    assert classify(W, previous=moved) == "localized_mode"


def test_classify_zero_trajectory(ps6, gaussian_field6):
    zero = CoefficientField(ps=ps6, coeffs=np.zeros(ps6.dim))
    with pytest.raises(DegenerateInputError):
        classify(gaussian_field6, previous=zero)
    with pytest.raises(DegenerateInputError):
        classify(zero)


def test_stationary_concentrated_field_is_waveleton(ps6):
    ms = np.zeros(ps6.shape)
    ms[0, 0] = 1.0
    W = CoefficientField(ps=ps6, coeffs=ps6.from_multiscale(ms.ravel()))
    assert classify(W, previous=W.copy()) == "waveleton"


def test_localized_but_drifting_field(ps6):
    # concentrated spectrum, but the state moves between checkpoints
    rng = np.random.default_rng(7)
    ms = np.zeros(ps6.shape)
    ms[0, 0] = 1.0
    a = CoefficientField(ps=ps6, coeffs=ps6.from_multiscale(ms.ravel()))
    ms2 = ms.copy()
    ms2[0, 1] = 0.1
    b = CoefficientField(ps=ps6, coeffs=ps6.from_multiscale(ms2.ravel()))
    assert classify(b, previous=a) == "localized_mode"


def test_delocalized_field_is_chaotic(ps6):
    # a full random spectrum has participation ratio near dim/3 > theta * dim
    rng = np.random.default_rng(11)
    ms = rng.normal(size=ps6.shape)
    W = CoefficientField(ps=ps6, coeffs=ps6.from_multiscale(ms.ravel()))
    _, participation = scale_entropy(W)
    assert participation / ps6.dim > 0.25
    loose = ClassifierThresholds(theta_chaos=0.25)
    assert classify(W, thresholds=loose) == "chaotic_pattern"


def test_classifier_scale_invariance(ps6):
    rng = np.random.default_rng(13)
    ms = rng.normal(size=ps6.shape)
    W = CoefficientField(ps=ps6, coeffs=ps6.from_multiscale(ms.ravel()))
    scaled = CoefficientField(ps=ps6, coeffs=1e6 * W.coeffs)
    loose = ClassifierThresholds(theta_chaos=0.25)
    assert classify(W, thresholds=loose) == classify(scaled, thresholds=loose)
    assert classify(scaled, thresholds=loose) == "chaotic_pattern"


def test_classifier_custom_thresholds(ps6):
    rng = np.random.default_rng(17)
    ms = rng.normal(size=ps6.shape)
    W = CoefficientField(ps=ps6, coeffs=ps6.from_multiscale(ms.ravel()))
    strict = ClassifierThresholds(theta_chaos=0.999)
    assert classify(W, thresholds=strict) == "unclassified"


def test_classifier_thresholds_reject_out_of_range_values():
    """top_k -5 would rank e[:-5]; a fraction above 1 is never reached."""
    ClassifierThresholds(theta_loc=1.0, theta_chaos=1.0, theta_frac=1.0, top_k=1)
    with pytest.raises(ConfigurationError) as exc:
        ClassifierThresholds(theta_loc=0.0, theta_chaos=1.5, theta_stab=-1.0,
                             theta_frac=7.0, top_k=-5)
    for name in ("theta_loc", "theta_chaos", "theta_stab", "theta_frac", "top_k"):
        assert name in str(exc.value)


def test_report_fields(series6w, gaussian_field6w):
    report = diagnostics_report(gaussian_field6w, None, series6w,
                                ClassifierThresholds())
    assert abs(report.total_integral - 1.0) < 1e-9
    assert abs(report.purity - 1.0) < 1e-5
    assert report.fock_norm == pytest.approx(report.l2_norm ** 2)
    assert report.regime in {"waveleton", "localized_mode"}
    text = report.to_text()
    assert "purity" in text and "regime" in text
