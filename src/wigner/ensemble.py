"""Fock-level ensembles of Wigner equations.

Photon-number level n evolves W0 under its own potential U_n = n * g;
the ensemble is the incoherent sum of those evolutions, one ``evolve`` each.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import Polynomial

from .assembly import assemble_evolution
from .errors import ConfigurationError, ContractError, WignerError
from .model import ModelParams
from .solve import CoefficientField, EvolutionConfig, evolve

WEIGHT_FLOOR = 1e-12


def coherent_weights(alpha: float, n_max: int) -> np.ndarray:
    """Poissonian |w_n|^2 = e^{-|a|^2} |a|^{2n} / n!, scaled to sum 1 after truncation."""
    if n_max < 0:
        raise ContractError("n_max must be non-negative")
    if not math.isfinite(alpha):
        raise ConfigurationError(f"coherent amplitude must be finite (got {alpha!r})")
    n = np.arange(n_max + 1)
    # |alpha|^2 overflows past 1e154, where every weight underflows anyway
    a2 = abs(alpha) ** 2 if abs(alpha) < 1e154 else math.inf
    logw = -a2 + 2 * n * np.log(max(abs(alpha), 1e-300)) - \
        np.array([math.lgamma(k + 1) for k in n])
    w = np.exp(logw)  # [1, 0, ...] at alpha = 0: e^(2n log 1e-300) underflows
    total = w.sum()
    if total <= 0:
        raise ConfigurationError("coherent weights vanished after truncation")
    return w / total


def evolve_ensemble(W0: CoefficientField, weights, g: Polynomial,
                    params: ModelParams, cfg: EvolutionConfig) -> CoefficientField:
    """The weighted sum sum_n w_n W_n, W_n evolved from W0 under n * g.

    A level whose weight is below the floor (1e-12) is not evolved and
    contributes W0.  Errors from a level's assembly or evolution are
    re-raised tagged with ``Fock level n=``.  The sum runs in level order.
    """
    coeffs, t = 0.0, W0.time
    for n, w in enumerate(weights):
        W = W0
        if w >= WEIGHT_FLOOR:
            try:
                W = evolve(W0, assemble_evolution(W0.ps, n * g, params), cfg)
            except WignerError as exc:
                exc.args = (f"Fock level n={n}: {exc.args[0]}",) + exc.args[1:]
                raise
        coeffs = coeffs + w * W.coeffs
        t = max(t, W.time)
    return CoefficientField(ps=W0.ps, coeffs=coeffs, time=t)
