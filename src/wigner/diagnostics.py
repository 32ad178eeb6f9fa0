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


def marginals(W: CoefficientField):
    """Exact partial integration: the coefficient vectors of the density over
    q on ``W.ps.basis_q`` and of the density over p on ``W.ps.basis_p``."""
    C = W.ps.as_grid(W.coeffs)
    sq = W.ps.basis_q.integration_functional()
    sp_ = W.ps.basis_p.integration_functional()
    return C @ sp_, sq @ C


def _scale_spectrum(W: CoefficientField):
    """The squared multiscale spectrum e of W and ``scale_entropy``."""
    e = W.ps.to_multiscale(W.coeffs) ** 2
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
    vals = ps.evaluate_grid(W.coeffs, bq.cell_centres(resolution),
                            bp.cell_centres(resolution))
    cell = bq.length * bp.length / resolution ** 2
    return float(np.sum(np.abs(vals)) * cell - abs(np.sum(vals) * cell))


def classify(final: CoefficientField, previous: CoefficientField = None,
             thresholds: ClassifierThresholds = ClassifierThresholds()) -> str:
    """Label a state: localized_mode / chaotic_pattern / waveleton.

    ``previous`` is the state a run stored before ``final``, not the
    checkpoint before it; without one the state does not evolve and counts
    as stable.  All criteria are ratios invariant under global scaling of
    the fields; waveleton (localized AND stable AND energy concentrated in
    the top-k coefficients) takes precedence over localized_mode.
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


def diagnostics_report(final: CoefficientField, previous: CoefficientField,
                       series: HealthSeries, thresholds: ClassifierThresholds,
                       ) -> DiagnosticsReport:
    """Full report on ``final``: the integral, the covariance, ||c||^2 and
    the purity are ``series``'s figures, the ones its rows hold; ``previous``
    is passed on to ``classify``."""
    total, _, cov, purity = series.moments(final)
    norm2 = series.squared_norm(final)
    # the phase-space RMS radius about the centroid
    trace = cov[0, 0] + cov[1, 1]
    radius = float(np.sqrt(trace)) if np.all(np.isfinite(cov)) and trace >= 0 \
        else float("nan")
    entropy, participation = scale_entropy(final)
    return DiagnosticsReport(
        total_integral=total,
        l2_norm=float(np.sqrt(norm2)),
        fock_norm=norm2,
        purity=purity,
        negativity_volume=negativity_volume(final),
        scale_entropy=entropy,
        participation_ratio=participation,
        localization_radius=radius,
        regime=classify(final, previous, thresholds),
    )


def _edge_mask(basis) -> np.ndarray:
    """Functions centred within one filter support of the periodic wrap."""
    n, support = basis.dim, basis.filter.support_length
    centre = (np.arange(n) + support / 2.0) % n
    return np.minimum(centre, n - centre) < support


def _pairing(fq, C, fp) -> float:
    """fq . C . fp: a q functional and a p functional applied to the grid C."""
    return float(fq @ C @ fp)


class HealthSeries:
    """The observables of fields on one phase-space basis.

    The integration and moment functionals of both axes and the energy
    functional are built once; ``moments`` and ``row`` read them, and so
    does the diagnostics report.  Every figure is read off the coefficient
    vector c: the total integral is s_q C s_p with C the (q, p) grid of c,
    ||c||^2 is ``vdot(c, c)`` and the purity is 2 pi hbar ||c||^2.

    A row holds the time, the total integral, the energy
    <H> = int (p^2/2m + U(q)) W (nan when U is None), the purity, the L2
    norm ||c||, the edge fraction (the share of ||c||^2 on functions centred
    within one filter support of the periodic wrap on either axis) and the
    finest fraction (the share of the multiscale energy on the finest level).
    """

    COLUMNS = ("time", "integral", "energy", "purity", "l2_norm",
               "edge_fraction", "finest_fraction")

    def __init__(self, ps, U, params):
        bq, bp = ps.basis_q, ps.basis_p
        self.ps, self.hbar = ps, params.hbar
        self._sq, self._sp = bq.integration_functional(), bp.integration_functional()
        self._mq1, self._mp1 = bq.moment_functional(1), bp.moment_functional(1)
        self._mq2, self._mp2 = bq.moment_functional(2), bp.moment_functional(2)
        self._energy = None
        if U is not None:
            uq = sum((a * bq.moment_functional(k)
                      for k, a in enumerate(U.coef)), np.zeros(bq.dim))
            self._energy = (np.kron(uq, self._sp)
                            + np.kron(self._sq, self._mp2) / (2.0 * params.mass))
        self._edge = np.logical_or.outer(_edge_mask(bq), _edge_mask(bp)).reshape(-1)
        labels = ps.multiscale_levels()
        self._finest = labels == labels.max()

    def squared_norm(self, W: CoefficientField) -> float:
        """||c||^2 of W's coefficients."""
        return float(np.vdot(W.coeffs, W.coeffs))

    def moments(self, W: CoefficientField):
        """(total_integral, centroid (qbar, pbar), covariance 2x2, purity)."""
        C = self.ps.as_grid(W.coeffs)
        sq, sp_ = self._sq, self._sp
        total = _pairing(sq, C, sp_)
        q1 = _pairing(self._mq1, C, sp_)
        p1 = _pairing(sq, C, self._mp1)
        q2 = _pairing(self._mq2, C, sp_)
        p2 = _pairing(sq, C, self._mp2)
        qp = _pairing(self._mq1, C, self._mp1)
        if abs(total) > 1e-300:
            qbar, pbar = q1 / total, p1 / total
            cov = np.array([
                [q2 / total - qbar ** 2, qp / total - qbar * pbar],
                [qp / total - qbar * pbar, p2 / total - pbar ** 2],
            ])
        else:
            qbar = pbar = 0.0
            cov = np.full((2, 2), np.nan)
        return total, (qbar, pbar), cov, self._purity(self.squared_norm(W))

    def _purity(self, norm2: float) -> float:
        return 2.0 * np.pi * self.hbar * norm2

    def row(self, W: CoefficientField) -> tuple:
        c = W.coeffs
        ms = self.ps.to_multiscale(c) ** 2
        norm2, ms_total = self.squared_norm(W), float(ms.sum())
        energy = np.nan if self._energy is None else float(self._energy @ c)
        return (W.time, _pairing(self._sq, self.ps.as_grid(c), self._sp),
                energy, self._purity(norm2), np.sqrt(norm2),
                float((c[self._edge] ** 2).sum()) / norm2 if norm2 else 0.0,
                float(ms[self._finest].sum()) / ms_total if ms_total else 0.0)
