"""Galerkin operator assembly over the tensor-product phase-space basis.

Every operator is a sum of Kronecker terms A_q (x) B_p acting on coefficient
fields stored q-major (flat index = iq * dim_p + ip).  Terms are kept in
factored form for matrix-free application; sparse/dense materialization is
lazy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial

import numpy as np
import scipy.sparse as sp

from .basis import WaveletBasis
from .errors import ConfigurationError, ContractError
from .model import ModelParams, PolynomialPotential, derivative, moyal_truncation


@dataclass(frozen=True)
class PhaseSpaceBasis:
    """Tensor product of a q-axis and a p-axis wavelet basis.

    Coefficient vectors are flat with q-major ordering:
    flat = iq * dim_p + ip.
    """

    basis_q: WaveletBasis
    basis_p: WaveletBasis

    @property
    def dim(self) -> int:
        return self.basis_q.dim * self.basis_p.dim

    @property
    def shape(self) -> tuple:
        return (self.basis_q.dim, self.basis_p.dim)

    def as_grid(self, coeffs: np.ndarray) -> np.ndarray:
        """Reshape a flat coefficient vector to (dim_q, dim_p)."""
        c = np.asarray(coeffs)
        if c.shape != (self.dim,):
            raise ContractError(
                f"coefficient length {c.shape} does not match basis dim {self.dim}"
            )
        return c.reshape(self.shape)

    def integration_functional(self) -> np.ndarray:
        """Flat row vector s with  iint W dq dp = s . coeffs."""
        return np.kron(
            self.basis_q.integration_functional(),
            self.basis_p.integration_functional(),
        )

    def project(self, f) -> np.ndarray:
        """Flat coefficients <phi_qk phi_pl, f> by per-axis exact quadrature.

        ``f(q, p)`` must broadcast over numpy arrays.
        """
        bq, bp = self.basis_q, self.basis_p
        qs, ps_ = bq.projection_nodes(), bp.projection_nodes()
        F = np.broadcast_to(f(qs[:, None], ps_[None, :]), (qs.size, ps_.size)).astype(float)
        return bp.project_samples(bq.project_samples(F, axis=0), axis=1).reshape(-1)

    def evaluate_grid(self, coeffs: np.ndarray, qs, ps_) -> np.ndarray:
        """Pointwise field values, shape (len(qs), len(ps)) indexed [iq, ip]."""
        C = self.as_grid(coeffs)
        Phi_q = self.basis_q.evaluation_matrix(np.asarray(qs, dtype=float))
        Phi_p = self.basis_p.evaluation_matrix(np.asarray(ps_, dtype=float))
        return Phi_q @ C @ Phi_p.T


@dataclass(frozen=True)
class OperatorTerm:
    """One Kronecker factor pair: coeff * (q_matrix (x) p_matrix)."""

    tag: str
    coeff: complex
    q_matrix: np.ndarray
    p_matrix: np.ndarray


@dataclass
class AssembledOperator:
    """Sum of Kronecker terms with matrix-free application.

    ``apply`` computes sum_t coeff_t * (A_t C B_t^T) on the reshaped
    coefficient grid; ``matrix``/``dense`` materialize on demand.
    """

    ps: PhaseSpaceBasis
    terms: list
    _matrix: object = field(default=None, repr=False)

    @property
    def shape(self) -> tuple:
        return (self.ps.dim, self.ps.dim)

    @property
    def is_complex(self) -> bool:
        return any(np.iscomplexobj(np.asarray(t.coeff)) or abs(np.imag(t.coeff)) > 0
                   for t in self.terms)

    @property
    def is_zero(self) -> bool:
        return len(self.terms) == 0

    def apply(self, coeffs: np.ndarray) -> np.ndarray:
        C = self.ps.as_grid(coeffs)
        out = None
        for t in self.terms:
            piece = t.coeff * (t.q_matrix @ C @ t.p_matrix.T)
            out = piece if out is None else out + piece
        if out is None:
            return np.zeros_like(np.asarray(coeffs))
        return out.reshape(-1)

    def matrix(self) -> sp.csr_matrix:
        """Sparse CSR materialization (cached)."""
        if self._matrix is None:
            n = self.ps.dim
            dtype = complex if self.is_complex else float
            acc = sp.csr_matrix((n, n), dtype=dtype)
            for t in self.terms:
                Aq = sp.csr_matrix(t.q_matrix)
                Bp = sp.csr_matrix(t.p_matrix)
                acc = acc + t.coeff * sp.kron(Aq, Bp, format="csr")
            acc.eliminate_zeros()
            self._matrix = acc
        return self._matrix

    def dense(self) -> np.ndarray:
        return self.matrix().toarray()

    def __add__(self, other: "AssembledOperator") -> "AssembledOperator":
        if other.ps is not self.ps and other.ps != self.ps:
            raise ContractError("cannot add operators on different bases")
        return AssembledOperator(ps=self.ps, terms=self.terms + other.terms)

    def scaled(self, factor) -> "AssembledOperator":
        return AssembledOperator(
            ps=self.ps,
            terms=[
                OperatorTerm(t.tag, factor * t.coeff, t.q_matrix, t.p_matrix)
                for t in self.terms
            ],
        )


def _poly_mult_matrix(basis: WaveletBasis, coeffs) -> np.ndarray:
    """Galerkin matrix of multiplication by sum_n coeffs[n] x^n (exact tables)."""
    if len(coeffs) - 1 > 8:
        raise ConfigurationError("polynomial multiplication supports degree <= 8")
    M = np.zeros((basis.dim, basis.dim))
    for n, c in enumerate(coeffs):
        if c != 0.0:
            M += c * (np.eye(basis.dim) if n == 0 else basis.moment_matrix(n))
    return M


def _identity(basis: WaveletBasis) -> np.ndarray:
    return np.eye(basis.dim)


def assemble_transport(ps: PhaseSpaceBasis, params: ModelParams) -> AssembledOperator:
    """Free streaming -(p/m) dW/dq."""
    Dq = ps.basis_q.derivative_matrix(0, 1)
    M1p = ps.basis_p.moment_matrix(1)
    return AssembledOperator(
        ps=ps, terms=[OperatorTerm("transport", -1.0 / params.mass, Dq, M1p)]
    )


def assemble_quantum_correction(
    ps: PhaseSpaceBasis, U: PolynomialPotential, params: ModelParams
) -> AssembledOperator:
    """Force term plus the finite hbar^2l series of odd-derivative corrections.

    Term l carries (-1)^l (hbar/2)^(2l) / (2l+1)!  *  U^(2l+1)(q) d^(2l+1)/dp^(2l+1).
    """
    L = moyal_truncation(U)
    terms = []
    half_h = params.hbar / 2.0
    for l in range(L + 1):
        dU = derivative(U, 2 * l + 1)
        if dU.is_zero:
            continue
        coeff = ((-1.0) ** l) * half_h ** (2 * l) / factorial(2 * l + 1)
        PM = _poly_mult_matrix(ps.basis_q, dU.coeffs_q)
        try:
            Lam = ps.basis_p.derivative_matrix(0, 2 * l + 1)
        except ConfigurationError as exc:
            raise ConfigurationError(
                f"momentum-derivative order {2 * l + 1} needed by the quantum "
                f"correction is not supported: {exc}"
            ) from exc
        tag = "force" if l == 0 else f"quantum_l{l}"
        terms.append(OperatorTerm(tag, coeff, PM, Lam))
    return AssembledOperator(ps=ps, terms=terms)


def assemble_dissipator(ps: PhaseSpaceBasis, params: ModelParams) -> AssembledOperator:
    """Friction 2*gamma d/dp (p W) plus diffusion D d^2/dp^2 W.

    The friction factor d/dp (p W) is assembled by the product rule as
    W + p dW/dp, reusing the first-moment and first-derivative tables.
    """
    terms = []
    if params.gamma > 0.0:
        M1p = ps.basis_p.moment_matrix(1)
        Dp = ps.basis_p.derivative_matrix(0, 1)
        B = np.eye(ps.basis_p.dim) + M1p @ Dp
        terms.append(
            OperatorTerm("dissipator_friction", 2.0 * params.gamma, _identity(ps.basis_q), B)
        )
    if params.diffusion > 0.0:
        Lam2 = ps.basis_p.derivative_matrix(0, 2)
        terms.append(
            OperatorTerm("dissipator_diffusion", params.diffusion, _identity(ps.basis_q), Lam2)
        )
    return AssembledOperator(ps=ps, terms=terms)


def assemble_evolution(
    ps: PhaseSpaceBasis, U: PolynomialPotential, params: ModelParams
) -> AssembledOperator:
    """Full generator: transport + quantum correction + dissipator."""
    return (
        assemble_transport(ps, params)
        + assemble_quantum_correction(ps, U, params)
        + assemble_dissipator(ps, params)
    )


def assemble_stationary_pair(
    ps: PhaseSpaceBasis, U: PolynomialPotential, params: ModelParams
):
    """Real symmetric / antisymmetric pair of the stationary two-sided system.

    A_sym W = ((E' + E'')/2) W   and   A_anti W = (i/hbar)(E'' - E') W
    on exact two-sided eigenfields; A_sym is symmetric, A_anti antisymmetric.
    """
    m = params.mass
    half_h = params.hbar / 2.0
    Iq = _identity(ps.basis_q)
    Ip = _identity(ps.basis_p)
    M1p = ps.basis_p.moment_matrix(1)
    M2p = ps.basis_p.moment_matrix(2)
    Dq = ps.basis_q.derivative_matrix(0, 1)

    sym_terms = [OperatorTerm("kinetic", 0.5 / m, Iq, M2p)]
    if not U.is_zero:
        sym_terms.append(OperatorTerm("potential", 1.0, _poly_mult_matrix(ps.basis_q, U.coeffs_q), Ip))
    sym_terms.append(
        OperatorTerm("stationary_sym", -params.hbar ** 2 / (8.0 * m),
                     ps.basis_q.derivative_matrix(0, 2), Ip)
    )
    l = 1
    while not derivative(U, 2 * l).is_zero:
        dU = derivative(U, 2 * l)
        coeff = ((-1.0) ** l) * half_h ** (2 * l) / factorial(2 * l)
        sym_terms.append(
            OperatorTerm(f"stationary_sym_l{l}", coeff,
                         _poly_mult_matrix(ps.basis_q, dU.coeffs_q),
                         ps.basis_p.derivative_matrix(0, 2 * l))
        )
        l += 1

    anti_terms = [OperatorTerm("transport", 1.0 / m, Dq, M1p)]
    l = 0
    while not derivative(U, 2 * l + 1).is_zero:
        dU = derivative(U, 2 * l + 1)
        coeff = -((-1.0) ** l) * half_h ** (2 * l) / factorial(2 * l + 1)
        anti_terms.append(
            OperatorTerm(f"stationary_antisym_l{l}", coeff,
                         _poly_mult_matrix(ps.basis_q, dU.coeffs_q),
                         ps.basis_p.derivative_matrix(0, 2 * l + 1))
        )
        l += 1

    A_sym = AssembledOperator(ps=ps, terms=sym_terms)
    A_anti = AssembledOperator(ps=ps, terms=anti_terms)
    return A_sym, A_anti


def assemble_stationary_cnumber(
    ps: PhaseSpaceBasis, U: PolynomialPotential, params: ModelParams
) -> AssembledOperator:
    """Complex stationary operator with the shifted-argument potential.

    (p^2/2m - i(hbar/2m) p d/dq - (hbar^2/8m) d^2/dq^2) W
    + U(q + (i hbar/2) d/dp) W = eps W,
    the potential expanded exactly by the binomial theorem.  Equals
    A_sym - i (hbar/2) A_anti of assemble_stationary_pair.
    """
    m = params.mass
    Iq = _identity(ps.basis_q)
    Ip = _identity(ps.basis_p)
    terms = [
        OperatorTerm("kinetic", 0.5 / m + 0.0j, Iq, ps.basis_p.moment_matrix(2)),
        OperatorTerm("kinetic_flow", -0.5j * params.hbar / m,
                     ps.basis_q.derivative_matrix(0, 1), ps.basis_p.moment_matrix(1)),
        OperatorTerm("kinetic_curvature", -params.hbar ** 2 / (8.0 * m) + 0.0j,
                     ps.basis_q.derivative_matrix(0, 2), Ip),
    ]
    r = 0
    while not derivative(U, r).is_zero:
        dU = derivative(U, r)
        coeff = (0.5j * params.hbar) ** r / factorial(r)
        Lam = Ip if r == 0 else ps.basis_p.derivative_matrix(0, r)
        terms.append(
            OperatorTerm(f"potential_star_r{r}", coeff,
                         _poly_mult_matrix(ps.basis_q, dU.coeffs_q), Lam)
        )
        r += 1
    return AssembledOperator(ps=ps, terms=terms)
