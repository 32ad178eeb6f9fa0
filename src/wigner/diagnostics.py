"""Observables of coefficient fields and the qualitative regime classifier."""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .errors import ConfigurationError, DegenerateInputError
from .solve import CoefficientField


@dataclass(frozen=True)
class ClassifierThresholds:
    """Scale-free thresholds of the regime classifier (design defaults)."""

    theta_loc: float = 0.05
    theta_chaos: float = 0.5
    theta_stab: float = 1e-3
    theta_frac: float = 0.9
    top_k: int = 32

    def __post_init__(self):
        bad = [f"{name} must lie in (0, 1]"
               for name in ("theta_loc", "theta_chaos", "theta_frac")
               if not 0 < getattr(self, name) <= 1]
        if not self.theta_stab > 0:
            bad.append("theta_stab must be positive")
        if not self.top_k >= 1:
            bad.append("top_k must be >= 1")
        if bad:
            raise ConfigurationError("; ".join(bad))


@dataclass
class DiagnosticsReport:
    total_integral: float
    l2_norm: float
    fock_norm: float
    purity: float
    negativity_volume: float
    scale_entropy: float
    participation_ratio: float
    localization_radius: float
    regime: str = "unclassified"

    def to_text(self) -> str:
        lines = [f"{k} = {v!r}" for k, v in asdict(self).items()]
        return "\n".join(lines) + "\n"


def fock_norm(W: CoefficientField) -> float:
    """Squared L2 norm ||c||^2 of a field's coefficients."""
    c = W.coeffs
    return float(np.vdot(c, c).real)


def standard_moments(W: CoefficientField, hbar: float = 1.0):
    """(total_integral, centroid (qbar, pbar), covariance 2x2, purity).

    All integrals are exact pairings of coefficient vectors with moment
    functionals; purity = 2 pi hbar ||c||^2.
    """
    ps = W.ps
    c = W.coeffs
    sq = ps.basis_q.integration_functional()
    sp_ = ps.basis_p.integration_functional()
    mq1 = ps.basis_q.moment_functional(1)
    mp1 = ps.basis_p.moment_functional(1)
    mq2 = ps.basis_q.moment_functional(2)
    mp2 = ps.basis_p.moment_functional(2)
    C = ps.as_grid(c)

    total = float(np.real(sq @ C @ sp_))
    q1 = float(np.real(mq1 @ C @ sp_))
    p1 = float(np.real(sq @ C @ mp1))
    q2 = float(np.real(mq2 @ C @ sp_))
    p2 = float(np.real(sq @ C @ mp2))
    qp = float(np.real(mq1 @ C @ mp1))
    if abs(total) > 1e-300:
        qbar, pbar = q1 / total, p1 / total
        cov = np.array([
            [q2 / total - qbar ** 2, qp / total - qbar * pbar],
            [qp / total - qbar * pbar, p2 / total - pbar ** 2],
        ])
    else:
        qbar = pbar = 0.0
        cov = np.full((2, 2), np.nan)
    purity = 2.0 * np.pi * hbar * float(np.vdot(c, c).real)
    return total, (qbar, pbar), cov, purity


@dataclass
class Marginal:
    """1D density as a coefficient vector on one axis basis."""

    basis: object
    coeffs: np.ndarray

    def evaluate(self, x):
        return self.basis.evaluate(self.coeffs, x)


def marginals(W: CoefficientField):
    """Exact partial integration: (density over q, density over p)."""
    C = W.ps.as_grid(np.real(W.coeffs))
    sq = W.ps.basis_q.integration_functional()
    sp_ = W.ps.basis_p.integration_functional()
    dq = Marginal(W.ps.basis_q, C @ sp_)
    dp = Marginal(W.ps.basis_p, sq @ C)
    return dq, dp


def _scale_spectrum(W: CoefficientField):
    """The squared multiscale spectrum e of W's real part and ``scale_entropy``."""
    e = np.abs(W.ps.to_multiscale(np.real(W.coeffs))) ** 2
    total = e.sum()
    if total <= 0.0:
        raise DegenerateInputError("scale entropy of a zero field is undefined")
    p = e / total
    nz = p[p > 0]
    entropy = float(-np.sum(nz * np.log(nz)))
    participation = float(1.0 / np.sum(p ** 2))
    return e, entropy, participation


def scale_entropy(W: CoefficientField):
    """(Shannon entropy, participation ratio) of the squared multiscale spectrum."""
    return _scale_spectrum(W)[1:]


def negativity_volume(W: CoefficientField) -> float:
    """Heuristic quantumness measure int |W| - |int W| on a 256 x 256
    cell-centred sampling grid."""
    resolution = 256
    ps = W.ps
    bq, bp = ps.basis_q, ps.basis_p
    vals = ps.evaluate_grid(np.real(W.coeffs), bq.cell_centres(resolution),
                            bp.cell_centres(resolution))
    cell = bq.length * bp.length / resolution ** 2
    return float(np.sum(np.abs(vals)) * cell - abs(np.sum(vals) * cell))


def localization_radius(W: CoefficientField) -> float:
    """Phase-space RMS radius about the centroid (from exact moments)."""
    total, (qbar, pbar), cov, _ = standard_moments(W)
    if not np.all(np.isfinite(cov)):
        return float("nan")
    trace = cov[0, 0] + cov[1, 1]
    return float(np.sqrt(trace)) if trace >= 0 else float("nan")


def classify(final: CoefficientField, previous: CoefficientField = None,
             thresholds: ClassifierThresholds = ClassifierThresholds()) -> str:
    """Label a state: localized_mode / chaotic_pattern / waveleton.

    ``previous`` is the checkpoint before ``final``; without one the state
    does not evolve and counts as stable.  All criteria are ratios invariant
    under global scaling of the fields; waveleton (localized AND stable AND
    energy concentrated in the top-k coefficients) takes precedence over
    localized_mode.
    """
    dim = final.ps.dim

    e, _, participation = _scale_spectrum(final)
    pr_frac = participation / dim

    stable = True
    if previous is not None:
        norm_prev = np.linalg.norm(previous.coeffs)
        if norm_prev <= 0:
            raise DegenerateInputError("cannot classify against a vanishing state")
        rel_change = np.linalg.norm(final.coeffs - previous.coeffs) / norm_prev
        stable = rel_change < thresholds.theta_stab

    e = np.sort(e)[::-1]
    k = min(thresholds.top_k, e.size)
    top_fraction = float(e[:k].sum() / e.sum())

    localized = pr_frac < thresholds.theta_loc
    concentrated = top_fraction > thresholds.theta_frac

    if localized and stable and concentrated:
        return "waveleton"
    if localized:
        return "localized_mode"
    if pr_frac > thresholds.theta_chaos:
        return "chaotic_pattern"
    return "unclassified"


def diagnostics_report(final: CoefficientField, previous: CoefficientField = None,
                       hbar: float = 1.0,
                       thresholds: ClassifierThresholds = ClassifierThresholds(),
                       ) -> DiagnosticsReport:
    """Full report on ``final``; ``previous`` is passed on to ``classify``."""
    total, _, _, purity = standard_moments(final, hbar=hbar)
    entropy, participation = scale_entropy(final)
    return DiagnosticsReport(
        total_integral=total,
        l2_norm=final.l2_norm(),
        fock_norm=fock_norm(final),
        purity=purity,
        negativity_volume=negativity_volume(final),
        scale_entropy=entropy,
        participation_ratio=participation,
        localization_radius=localization_radius(final),
        regime=classify(final, previous, thresholds),
    )


def _edge_mask(basis) -> np.ndarray:
    """Functions centred within one filter support of the periodic wrap."""
    n, support = basis.dim, basis.filter.support_length
    centre = (np.arange(n) + support / 2.0) % n
    return np.minimum(centre, n - centre) < support


class HealthSeries:
    """Run-health figures of fields on one phase-space basis.

    A row holds the time, the total integral, the energy
    <H> = int (p^2/2m + U(q)) W (nan when U is None), the purity
    2 pi hbar ||c||^2, the L2 norm ||c||, the edge fraction (the share of
    ||c||^2 on functions centred within one filter support of the periodic
    wrap on either axis) and the finest fraction (the share of the
    multiscale energy on the finest level).  Each is read off the
    coefficient vector; the functionals are built once.
    """

    COLUMNS = ("time", "integral", "energy", "purity", "l2_norm",
               "edge_fraction", "finest_fraction")

    def __init__(self, ps, U, params):
        bq, bp = ps.basis_q, ps.basis_p
        sq, sp_ = bq.integration_functional(), bp.integration_functional()
        self.ps, self.hbar = ps, params.hbar
        self._integral = np.kron(sq, sp_)
        self._energy = None
        if U is not None:
            uq = sum((a * bq.moment_functional(k)
                      for k, a in enumerate(U.coeffs_q)), np.zeros(bq.dim))
            self._energy = (
                np.kron(uq, sp_)
                + np.kron(sq, bp.moment_functional(2)) / (2.0 * params.mass))
        self._edge = np.logical_or.outer(_edge_mask(bq), _edge_mask(bp)).reshape(-1)
        labels = ps.multiscale_levels()
        self._finest = labels == labels.max()

    def row(self, W: CoefficientField) -> tuple:
        c = np.real(W.coeffs)
        c2 = c * c
        ms = self.ps.to_multiscale(c) ** 2
        norm2, ms_total = float(c2.sum()), float(ms.sum())
        energy = np.nan if self._energy is None else float(self._energy @ c)
        return (W.time, float(self._integral @ c), energy,
                2.0 * np.pi * self.hbar * norm2, np.sqrt(norm2),
                float(c2[self._edge].sum()) / norm2 if norm2 else 0.0,
                float(ms[self._finest].sum()) / ms_total if ms_total else 0.0)
