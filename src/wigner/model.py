"""Polynomial Hamiltonian data: potentials and their derivatives.

The kinetic term p^2/2m is implicit; ``PolynomialPotential`` holds the
polynomial potential U(q).  Potentials depend on q only: ``parse_potential``
rejects any p term.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .basis import MAX_MOMENT_POWER
from .errors import ConfigurationError, ContractError


@dataclass(frozen=True)
class PolynomialPotential:
    """U(q) = sum_k coeffs_q[k] q^k."""

    coeffs_q: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "coeffs_q", _canonical(self.coeffs_q))

    @property
    def degree(self) -> int:
        return max(len(self.coeffs_q) - 1, 0)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs_q

    def __call__(self, q):
        return np.polynomial.polynomial.polyval(q, self.coeffs_q) if self.coeffs_q else 0.0

    def scaled(self, factor: float) -> "PolynomialPotential":
        return PolynomialPotential(coeffs_q=tuple(factor * c for c in self.coeffs_q))


def _canonical(coeffs) -> tuple:
    c = list(float(x) for x in coeffs)
    while c and c[-1] == 0.0:
        c.pop()
    return tuple(c)


def derivative(U: PolynomialPotential, order: int = 1) -> PolynomialPotential:
    """Exact d^order/dq^order."""
    if order < 0:
        raise ContractError("derivative order must be non-negative")
    cq = np.array(U.coeffs_q, dtype=float)
    for _ in range(order):
        if cq.size == 0:
            break
        cq = cq[1:] * np.arange(1, cq.size)
    return PolynomialPotential(coeffs_q=tuple(cq))


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters shared by all assemblies."""

    mass: float = 1.0
    hbar: float = 1.0
    gamma: float = 0.0
    diffusion: float = 0.0

    def __post_init__(self):
        bad = [f"{name} must be positive" for name in ("mass", "hbar")
               if not getattr(self, name) > 0]
        bad += [f"{name} must be non-negative" for name in ("gamma", "diffusion")
                if not getattr(self, name) >= 0]
        if bad:
            raise ConfigurationError("; ".join(bad))


_TERM_RE = re.compile(
    r"""
    (?P<sign>[+-]?)\s*
    (?:
        (?P<coef>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)\s*
        (?:\*\s*(?P<var1>[qp])(?:\^(?P<pow1>\d+))?)?
      |
        (?P<var2>[qp])(?:\^(?P<pow2>\d+))?
    )
    \s*
    """,
    re.VERBOSE,
)


def parse_potential(text: str) -> PolynomialPotential:
    """Parse "c0 + c1*q + c2*q^2 + ..." (decimal or sci notation).

    Potentials depend on q only, so any p term raises ConfigurationError, as
    do a coefficient that is not finite (1e999, or a sum that overflows) and
    a degree above MAX_MOMENT_POWER + 1, before its coefficients exist.
    """
    s = text.strip()
    if not s:
        return PolynomialPotential()
    cq: dict = {}
    pos = 0
    first = True
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or m.end() == pos:
            raise ConfigurationError(
                f"cannot parse potential {text!r} at position {pos}: {s[pos:pos+12]!r}"
            )
        sign = m.group("sign")
        if not first and sign == "":
            raise ConfigurationError(
                f"missing +/- between terms in potential {text!r} at position {pos}"
            )
        val = -1.0 if sign == "-" else 1.0
        coef = m.group("coef")
        if coef is not None:
            val *= float(coef)
        var = m.group("var1") or m.group("var2")
        if var == "p":
            raise ConfigurationError(
                f"potential {text!r} has a p term at position {pos}; "
                "potentials must depend on q only"
            )
        power = 0
        if var is not None:
            pw = (m.group("pow1") or m.group("pow2") or "1").lstrip("0") or "0"
            try:
                power = int(pw)
            except ValueError:  # more digits than int() converts
                raise ConfigurationError(
                    f"degree of {len(pw)} digits at position {pos} exceeds "
                    f"{MAX_MOMENT_POWER + 1}, the highest the moment tables "
                    "support") from None
        cq[power] = cq.get(power, 0.0) + val
        pos = m.end()
        first = False
    for k, c in sorted(cq.items()):
        if not np.isfinite(c):
            raise ConfigurationError(f"coefficient {c} of q^{k} in potential "
                                     f"{text!r} is not a finite number")
    degree = max((k for k, c in cq.items() if c), default=-1)
    if degree > MAX_MOMENT_POWER + 1:
        raise ConfigurationError(f"degree {degree} exceeds {MAX_MOMENT_POWER + 1}, "
                                 "the highest the moment tables support")
    return PolynomialPotential(coeffs_q=tuple(cq.get(k, 0.0) for k in range(degree + 1)))
