"""Exception hierarchy shared by all modules."""


class WignerError(Exception):
    """Base class for all library errors."""


class ConfigurationError(WignerError):
    """Invalid or unsupported configuration (bad filter order, missing block, ...)."""


class ContractError(WignerError):
    """A caller violated an interface precondition (shape mismatch, bad range, ...)."""


class NumericalError(WignerError):
    """A numerical procedure failed to converge or produced unusable output."""

    def __init__(self, message, diagnostic=None):
        super().__init__(message)
        self.diagnostic = diagnostic


class DegenerateInputError(WignerError):
    """Input is degenerate for the requested quantity (e.g. entropy of a zero field)."""


class AbortedEvolutionError(NumericalError):
    """Time evolution became unstable."""
