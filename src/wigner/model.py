"""Polynomial Hamiltonian data: the potential and the physical parameters.

The kinetic term p^2/2m is implicit; the potential U(q) is a numpy
``Polynomial`` in q, so ``U.deriv(r)`` is U^(r).  Potentials depend on q
only: ``parse_potential`` rejects any p term.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial

from .basis import MAX_MOMENT_POWER
from .errors import ConfigurationError


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


def parse_potential(text: str) -> Polynomial:
    """Parse "c0 + c1*q + c2*q^2 + ..." (decimal or sci notation) into a
    ``Polynomial`` whose last coefficient is nonzero; "", "0" and any text
    whose terms cancel give the zero potential ``Polynomial([0.0])``.

    Potentials depend on q only, so any p term raises ConfigurationError, as
    do a coefficient that is not finite (1e999, or a sum that overflows) and
    a degree above MAX_MOMENT_POWER + 1, before its coefficients exist.
    """
    s = text.strip()
    cq: dict = {}
    pos = 0
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or m.end() == pos:
            raise ConfigurationError(
                f"cannot parse potential {text!r} at position {pos}: {s[pos:pos+12]!r}")
        sign = m.group("sign")
        if pos and not sign:  # every term after the first
            raise ConfigurationError(
                f"missing +/- between terms in potential {text!r} at position {pos}")
        val = (-1.0 if sign == "-" else 1.0) * float(m.group("coef") or 1.0)
        var = m.group("var1") or m.group("var2")
        if var == "p":
            raise ConfigurationError(f"potential {text!r} has a p term at position "
                                     f"{pos}; potentials must depend on q only")
        # a constant is a q^0 term, a bare q a q^1 term
        pw = (m.group("pow1") or m.group("pow2") or ("1" if var else "0")).lstrip("0") or "0"
        try:
            power = int(pw)
        except ValueError:  # more digits than int() converts
            raise ConfigurationError(
                f"degree of {len(pw)} digits at position {pos} exceeds "
                f"{MAX_MOMENT_POWER + 1}, the highest the moment tables support") from None
        cq[power] = cq.get(power, 0.0) + val
        pos = m.end()
    for k, c in sorted(cq.items()):
        if not np.isfinite(c):
            raise ConfigurationError(f"coefficient {c} of q^{k} in potential "
                                     f"{text!r} is not a finite number")
    degree = max((k for k, c in cq.items() if c), default=-1)
    if degree > MAX_MOMENT_POWER + 1:
        raise ConfigurationError(f"degree {degree} exceeds {MAX_MOMENT_POWER + 1}, "
                                 "the highest the moment tables support")
    return Polynomial([cq.get(k, 0.0) for k in range(degree + 1)] or [0.0])
