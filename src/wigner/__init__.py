"""Wavelet-Galerkin solver for Wigner-function dynamics in phase space.

Modules
-------
basis        Daubechies filters, connection/moment tables, periodized bases
model        polynomial potentials and physical parameters
assembly     Galerkin operator assembly over tensor-product bases
solve        time evolution, two-level stationary spectra, scale splits
ensemble     Fock-level hierarchies
diagnostics  observables and the regime classifier
cli          configuration parsing and run orchestration
"""

__version__ = "0.1.0"

from .errors import (
    AbortedEvolutionError,
    ConfigurationError,
    ContractError,
    DegenerateInputError,
    NumericalError,
    WignerError,
)

__all__ = [
    "__version__",
    "WignerError",
    "ConfigurationError",
    "ContractError",
    "NumericalError",
    "DegenerateInputError",
    "AbortedEvolutionError",
]
