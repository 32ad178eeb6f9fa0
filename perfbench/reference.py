"""Independent eigenvalue reference for the stationary workload.

Solves the 1D Schroedinger problem  -1/2 psi'' + (q^2/2 + lam q^4) psi = E psi
(hbar = m = 1) with second-order finite differences on [-L, L] with Dirichlet
ends, then Richardson-extrapolates the lowest eigenvalues in the grid step.
It shares no code or tables with the ``wigner`` package.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigh_tridiagonal

HALF_WIDTH = 8.0
INTERVALS = (1000, 2000, 4000)  # grid steps h, h/2, h/4

# Lowest four levels for lam = 0.1 from the plain (not extrapolated) solve at
# h = 0.008, to the six digits ROADMAP.md quotes them.
QUARTIC_0P1_H0008 = (0.559143, 1.769486, 3.138574, 4.628772)


def _fd_levels(lam: float, n_states: int, intervals: int) -> np.ndarray:
    h = 2.0 * HALF_WIDTH / intervals
    q = -HALF_WIDTH + h * np.arange(1, intervals)
    diag = 1.0 / h ** 2 + 0.5 * q ** 2 + lam * q ** 4
    off = np.full(q.size - 1, -0.5 / h ** 2)
    return eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                            select_range=(0, n_states - 1))


def quartic_levels(lam: float, n_states: int) -> np.ndarray:
    """Lowest ``n_states`` eigenvalues of q^2/2 + lam q^4, error O(h^6)."""
    e1, e2, e4 = (_fd_levels(lam, n_states, n) for n in INTERVALS)
    r1 = (4.0 * e2 - e1) / 3.0
    r2 = (4.0 * e4 - e2) / 3.0
    return (16.0 * r2 - r1) / 15.0


def _oscillator_basis_levels(lam: float, n_states: int, size: int = 300) -> np.ndarray:
    """Cross-check: diagonalize in the harmonic-oscillator number basis."""
    a = np.diag(np.sqrt(np.arange(1, size)), 1)
    q = (a + a.T) / np.sqrt(2.0)
    H = np.diag(np.arange(size) + 0.5) + lam * np.linalg.matrix_power(q, 4)
    # drop the last rows, where the truncated q^4 is inexact
    return np.linalg.eigvalsh(H[: size - 10, : size - 10])[:n_states]


def self_check() -> list:
    """Problems found when the reference is run on known cases."""
    problems = []
    harmonic = quartic_levels(0.0, 4)
    if np.max(np.abs(harmonic - (np.arange(4) + 0.5))) > 1e-8:
        problems.append(f"harmonic reference {harmonic} != n + 1/2")
    plain = _fd_levels(0.1, 4, 2000)
    if np.max(np.abs(plain - QUARTIC_0P1_H0008)) > 5e-7:
        problems.append(f"quartic h=0.008 levels {plain} != {QUARTIC_0P1_H0008}")
    quartic = quartic_levels(0.1, 4)
    basis = _oscillator_basis_levels(0.1, 4)
    if np.max(np.abs(quartic - basis)) > 1e-8:
        problems.append(f"quartic reference {quartic} != oscillator basis {basis}")
    return problems
