"""Fock-level hierarchies of Wigner equations.

Each photon-number level n sees its own effective potential U_n = U0 * n * g;
levels evolve independently and combine by incoherent (weighted) superposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .assembly import assemble_evolution
from .errors import ConfigurationError, ContractError, WignerError
from .model import ModelParams, PolynomialPotential, fock_potential
from .solve import CoefficientField, EvolutionConfig, evolve

WEIGHT_FLOOR = 1e-12


@dataclass
class FockEnsemble:
    """Weights |w_n|^2 and one Wigner field per photon-number level."""

    weights: np.ndarray
    U0: float
    g: PolynomialPotential
    fields: list

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if np.any(self.weights < 0):
            raise ContractError("ensemble weights must be non-negative")
        if abs(self.weights.sum() - 1.0) > 1e-10:
            raise ContractError(
                f"ensemble weights must sum to 1 (got {self.weights.sum()!r})"
            )
        if len(self.fields) != self.weights.size:
            raise ContractError("one field required per ensemble weight")


def coherent_weights(alpha: float, n_max: int) -> np.ndarray:
    """Poissonian |w_n|^2 = e^{-|a|^2} |a|^{2n} / n!, scaled to sum 1 after truncation."""
    if n_max < 0:
        raise ContractError("n_max must be non-negative")
    if not math.isfinite(alpha):
        raise ConfigurationError(f"coherent amplitude must be finite (got {alpha!r})")
    n = np.arange(n_max + 1)
    logw = -abs(alpha) ** 2 + 2 * n * np.log(max(abs(alpha), 1e-300)) - \
        np.array([math.lgamma(k + 1) for k in n])
    w = np.exp(logw)
    if alpha == 0.0:
        w = np.zeros(n_max + 1)
        w[0] = 1.0
    total = w.sum()
    if total <= 0:
        raise ConfigurationError("coherent weights vanished after truncation")
    return w / total


def evolve_fock_hierarchy(ens: FockEnsemble, params: ModelParams,
                          cfg: EvolutionConfig) -> FockEnsemble:
    """Evolve every level under its own potential U_n = U0 * n * g.

    Each level keeps only its final state.  Levels with weight below the
    floor (1e-12) are skipped and carried unchanged.  Errors from a level's
    evolution are re-raised tagged with n.
    """
    new_fields = []
    for n, (w, W) in enumerate(zip(ens.weights, ens.fields)):
        if w < WEIGHT_FLOOR:
            new_fields.append(W.copy())
            continue
        U_n = fock_potential(ens.U0, ens.g, n)
        L = assemble_evolution(W.ps, U_n, params)
        try:
            new_fields.append(evolve(W, L, cfg))
        except WignerError as exc:
            exc.args = (f"Fock level n={n}: {exc.args[0]}",) + exc.args[1:]
            raise
    return replace(ens, fields=new_fields)


def incoherent_superpose(ens: FockEnsemble) -> CoefficientField:
    """Weighted coefficient sum  W = sum_n |w_n|^2 W_n  (deterministic order)."""
    ps = ens.fields[0].ps
    for W in ens.fields[1:]:
        if W.ps is not ps and W.ps != ps:
            raise ContractError("ensemble fields live on different bases")
    coeffs = np.zeros(ps.dim)
    for w, W in zip(ens.weights, ens.fields):
        coeffs += w * W.coeffs
    t = max(W.time for W in ens.fields)
    return CoefficientField(ps=ps, coeffs=coeffs, time=t)

