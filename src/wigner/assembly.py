"""Galerkin operator assembly over the tensor-product phase-space basis.

Every operator is a sum of Kronecker terms A_q (x) B_p acting on coefficient
fields stored q-major (flat index = iq * dim_p + ip).  Terms are kept in
factored form: ``apply``, the one product L x of every solver,
runs as two GEMMs over the terms grouped by q factor.  The eigen path
writes its band from the factors itself; ``matrix`` builds the sparse form,
which no solver uses: tests take it as the direct-solve reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import factorial

import numpy as np
import scipy.sparse as sp

from .basis import MAX_MOMENT_POWER, WaveletBasis, daubechies_filter, smallest_level
from .errors import ConfigurationError, ContractError
from .model import ModelParams, PolynomialPotential, derivative


def _overflows(basis: WaveletBasis) -> bool:
    """Whether the lifted monomial x^(MAX_MOMENT_POWER + 1) or the derivative
    scale (dim / length)^d, at the highest order d = order / 2 that
    ``connection_coefficients`` admits, is not finite on the basis' box."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.append(basis.moment_functional(MAX_MOMENT_POWER + 1),
                               (basis.dim / basis.length) ** (basis.filter.order // 2))
    except OverflowError:  # a power of Python floats
        return True
    return not np.all(np.isfinite(values))


@dataclass(frozen=True)
class PhaseSpaceBasis:
    """Tensor product of a q-axis and a p-axis wavelet basis.

    The fields are the run's ``[basis]`` settings: the filter order, the
    levels j_coarse..j_fine both axes share, and the q and p boxes.  The
    axes ``basis_q`` and ``basis_p`` are built from them, so
    ``dataclasses.replace`` gives a basis with fresh axes.  A box that is
    empty or on which the tables overflow (``_overflows``) is rejected.
    Coefficient vectors are flat with q-major ordering: flat = iq * dim_p + ip.
    """

    order: int = 6
    j_coarse: int = 3
    j_fine: int = 6
    q_min: float = -5.0
    q_max: float = 5.0
    p_min: float = -5.0
    p_max: float = 5.0
    basis_q: WaveletBasis = field(init=False, repr=False, compare=False)
    basis_p: WaveletBasis = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        filt = daubechies_filter(self.order)
        bad = []
        if self.j_coarse < 0:
            bad.append("j_coarse must be >= 0")
        if self.j_coarse > self.j_fine:
            bad.append("j_coarse must not exceed j_fine")
        j_min = smallest_level(self.order)
        if self.j_fine < j_min:
            bad.append(f"basis too coarse for the order-{self.order} filter: "
                       f"2^{self.j_fine} functions per axis, it needs at "
                       f"least {2 ** j_min}")
        axes = (("q", (self.q_min, self.q_max)), ("p", (self.p_min, self.p_max)))
        bad += [f"{axis}_min, {axis}_max: domain [{a:g}, {b:g}) is empty"
                for axis, (a, b) in axes if not b > a]
        if bad:
            raise ConfigurationError("; ".join(bad))
        for axis, (a, b) in axes:
            basis = WaveletBasis(filter=filt, j_coarse=self.j_coarse,
                                 j_fine=self.j_fine, domain=(a, b))
            if _overflows(basis):
                bad.append(f"{axis}_min, {axis}_max: domain [{a:g}, {b:g}) "
                           f"overflows double precision in x^{MAX_MOMENT_POWER + 1} "
                           f"or in the order-{self.order} derivative scale")
            object.__setattr__(self, f"basis_{axis}", basis)
        if bad:
            raise ConfigurationError("; ".join(bad))

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

    def to_multiscale(self, coeffs: np.ndarray) -> np.ndarray:
        """Flat multiscale coefficients: each axis's ``dwt_matrix`` applied to
        the coefficient grid, so each axis runs [phi_coarse | d_coarse ... d_fine]."""
        Tq, Tp = self.basis_q.dwt_matrix, self.basis_p.dwt_matrix
        return (Tq @ self.as_grid(coeffs) @ Tp.T).reshape(-1)

    def from_multiscale(self, ms: np.ndarray) -> np.ndarray:
        """Inverse of ``to_multiscale``: the transforms are orthogonal."""
        Tq, Tp = self.basis_q.dwt_matrix, self.basis_p.dwt_matrix
        return (Tq.T @ self.as_grid(ms) @ Tp).reshape(-1)

    def multiscale_levels(self) -> np.ndarray:
        """Level of each ``to_multiscale`` coefficient, flat: the larger of its
        two axis levels (``WaveletBasis.multiscale_levels``)."""
        return np.maximum.outer(self.basis_q.multiscale_levels(),
                                self.basis_p.multiscale_levels()).reshape(-1)

    @property
    def scale_cut(self) -> int:
        """First fast level of ``reconstruct_by_scale``, min(j_coarse + 1, j_fine):
        the slow part is the scaling block and coarsest details."""
        return min(self.j_coarse + 1, self.j_fine)

    def integration_functional(self) -> np.ndarray:
        """Flat row vector s with  iint W dq dp = s . coeffs."""
        return np.kron(
            self.basis_q.integration_functional(),
            self.basis_p.integration_functional(),
        )

    def project(self, f) -> np.ndarray:
        """Flat coefficients <phi_qk phi_pl, f> by per-axis exact quadrature.

        ``f(q, p)`` must broadcast over numpy arrays.  It is called once per
        block of ``basis_p.dim // 2`` p nodes and sees every node once.  The
        q stage runs on each block's samples and writes its (dim_q, block)
        result into one (dim_q, P_p) array G; the p stage then runs on G.
        The P_q x P_p sample grid is never made.  A block's samples are half
        G's size, so the q stage never holds more than the p stage does: G
        and two arrays of G's size.  The q stage works column by column, so
        the blocks give the bits of one pass over the whole grid.
        """
        bq, bp = self.basis_q, self.basis_p
        qs, ps_ = bq.projection_nodes(), bp.projection_nodes()
        G = np.empty((bq.dim, ps_.size))
        size = bp.dim // 2
        for lo in range(0, ps_.size, size):
            F = np.asarray(f(qs[:, None], ps_[None, lo:lo + size]), dtype=float)
            G[:, lo:lo + size] = bq.project_samples(
                np.broadcast_to(F, (qs.size, size)), axis=0)
            del F  # before the next block's samples and the p stage
        return bp.project_samples(G, axis=1).reshape(-1)

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
    coefficient grid; ``matrix`` materializes the sparse form on demand.
    """

    ps: PhaseSpaceBasis
    terms: list
    _matrix: object = field(default=None, repr=False)

    def __post_init__(self):
        # Terms sharing a q factor add their p factors: one GEMM block each.
        # Built with the operator, not on the first apply, so that a run's
        # memory after setup holds no block allocation.
        blocks = []
        for t in self.terms:
            for blk in blocks:
                if np.array_equal(blk[0], t.q_matrix):
                    blk[1] = blk[1] + t.coeff * t.p_matrix
                    break
            else:
                blocks.append([t.q_matrix, t.coeff * t.p_matrix])
        self._Q = np.concatenate([q for q, _ in blocks], axis=1) if blocks else None
        self._Bt = np.concatenate([b.T for _, b in blocks], axis=1) if blocks else None

    @property
    def is_complex(self) -> bool:
        return any(np.iscomplexobj(np.asarray(t.coeff)) or abs(np.imag(t.coeff)) > 0
                   for t in self.terms)

    def apply(self, coeffs: np.ndarray) -> np.ndarray:
        """L x on the q-major grid C in two GEMMs: C [B_1^T ... B_m^T] gives
        every C B_b^T at once, and [A_1 ... A_m] times their stack sums
        A_b C B_b^T over the blocks b (one per distinct q factor A_b)."""
        C = self.ps.as_grid(coeffs)
        if self._Q is None:
            return np.zeros_like(np.asarray(coeffs))
        nq, n_p = C.shape
        Y = (C @ self._Bt).reshape(nq, -1, n_p).transpose(1, 0, 2)
        return (self._Q @ Y.reshape(-1, n_p)).reshape(-1)

    def matrix(self) -> sp.csr_matrix:
        """Sparse CSR materialization (cached).  No solver calls it; tests
        use it as the direct-solve reference."""
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

    def __add__(self, other: "AssembledOperator") -> "AssembledOperator":
        if other.ps is not self.ps and other.ps != self.ps:
            raise ContractError("cannot add operators on different bases")
        return AssembledOperator(ps=self.ps, terms=self.terms + other.terms)

    def __neg__(self) -> "AssembledOperator":
        return AssembledOperator(
            ps=self.ps, terms=[replace(t, coeff=-t.coeff) for t in self.terms])


def _poly_mult_matrix(basis: WaveletBasis, coeffs) -> np.ndarray:
    """Galerkin matrix of multiplication by sum_n coeffs[n] x^n (exact tables)."""
    M = np.zeros((basis.dim, basis.dim))
    for n, c in enumerate(coeffs):
        if c != 0.0:
            M += c * (np.eye(basis.dim) if n == 0 else basis.moment_matrix(n))
    return M


def assemble_transport(ps: PhaseSpaceBasis, params: ModelParams) -> AssembledOperator:
    """Free streaming -(p/m) dW/dq."""
    Dq = ps.basis_q.derivative_matrix(1)
    M1p = ps.basis_p.moment_matrix(1)
    return AssembledOperator(
        ps=ps, terms=[OperatorTerm("transport", -1.0 / params.mass, Dq, M1p)]
    )


def _potential_series(ps: PhaseSpaceBasis, U: PolynomialPotential, hbar: float,
                      parity: int) -> list:
    """Terms of U(q + (i hbar/2) d/dp) = sum_r ((i hbar/2)^r / r!) U^(r)(q) d^r/dp^r
    of one parity, as real coefficients.

    Term r = 2l + parity carries (-1)^l (hbar/2)^(2l) / r!  *  U^(r)(q) (x) d^r/dp^r
    for r <= deg U, skipping each r with U^(r) = 0.  The odd part (parity 1)
    is the force and its hbar^2 corrections in the Wigner equation; the even
    part (parity 0) is the potential of the stationary star-genvalue equation,
    whose r = 0 term has the identity as its p factor.  A term whose U^(r)
    or q matrix overflows double precision on the box is a ConfigurationError.
    """
    names = ("force", "quantum_l") if parity else ("potential", "stationary_sym_l")
    half_h = hbar / 2.0
    terms = []
    for r in range(parity, U.degree + 1, 2):
        l = r // 2
        tag = names[0] if l == 0 else f"{names[1]}{l}"
        try:
            with np.errstate(over="raise", invalid="raise"):
                dU = derivative(U, r)
                Uq = None if dU.is_zero else _poly_mult_matrix(ps.basis_q, dU.coeffs_q)
        except FloatingPointError as exc:
            raise ConfigurationError(
                f"the {tag} term overflows: U^({r}) or its Galerkin matrix on "
                f"q in [{ps.q_min:g}, {ps.q_max:g}) exceeds double precision"
            ) from exc
        if Uq is None:
            continue
        coeff = ((-1.0) ** l) * half_h ** (2 * l) / factorial(r)
        try:
            Lam = np.eye(ps.basis_p.dim) if r == 0 else ps.basis_p.derivative_matrix(r)
        except ConfigurationError as exc:
            raise ConfigurationError(
                f"momentum-derivative order {r} needed by the potential series "
                f"is not supported: {exc}"
            ) from exc
        terms.append(OperatorTerm(tag, coeff, Uq, Lam))
    return terms


def assemble_quantum_correction(
    ps: PhaseSpaceBasis, U: PolynomialPotential, params: ModelParams
) -> AssembledOperator:
    """Force term plus the finite hbar^2l series of odd-derivative corrections:
    the odd part of ``_potential_series``."""
    return AssembledOperator(ps=ps, terms=_potential_series(ps, U, params.hbar, 1))


def assemble_dissipator(ps: PhaseSpaceBasis, params: ModelParams) -> AssembledOperator:
    """Friction 2*gamma d/dp (p W) plus diffusion D d^2/dp^2 W.

    The friction factor d/dp (p W) is assembled in flux form, Dp M1p: the
    product p W projected onto the basis, then differentiated.  Dp is
    circulant with zero column sums, so the integration functional
    annihilates it and the term conserves iint W exactly, as diffusion does.
    The product rule W + p dW/dp, I + M1p Dp, does not: the lifted coordinate
    p jumps from p_max to p_min at the periodic wrap, and the basis functions
    straddling it leak integral.
    """
    terms = []
    if params.gamma > 0.0:
        M1p = ps.basis_p.moment_matrix(1)
        Dp = ps.basis_p.derivative_matrix(1)
        B = Dp @ M1p
        terms.append(
            OperatorTerm("dissipator_friction", 2.0 * params.gamma, np.eye(ps.basis_q.dim), B)
        )
    if params.diffusion > 0.0:
        Lam2 = ps.basis_p.derivative_matrix(2)
        terms.append(
            OperatorTerm("dissipator_diffusion", params.diffusion, np.eye(ps.basis_q.dim), Lam2)
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
    A_sym is the kinetic term, the even potential series and the hbar^2
    curvature; A_anti is minus the Hamiltonian part of the evolution
    generator, transport plus the odd series.
    """
    m = params.mass
    even = _potential_series(ps, U, params.hbar, 0)
    # even[:1] is the r = 0 term U(q) (x) I, present whenever U is nonzero
    sym_terms = (
        [OperatorTerm("kinetic", 0.5 / m, np.eye(ps.basis_q.dim), ps.basis_p.moment_matrix(2))]
        + even[:1]
        + [OperatorTerm("stationary_sym", -params.hbar ** 2 / (8.0 * m),
                        ps.basis_q.derivative_matrix(2), np.eye(ps.basis_p.dim))]
        + even[1:]
    )
    A_sym = AssembledOperator(ps=ps, terms=sym_terms)
    A_anti = -(assemble_transport(ps, params) + assemble_quantum_correction(ps, U, params))
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
    Iq = np.eye(ps.basis_q.dim)
    Ip = np.eye(ps.basis_p.dim)
    terms = [
        OperatorTerm("kinetic", 0.5 / m + 0.0j, Iq, ps.basis_p.moment_matrix(2)),
        OperatorTerm("kinetic_flow", -0.5j * params.hbar / m,
                     ps.basis_q.derivative_matrix(1), ps.basis_p.moment_matrix(1)),
        OperatorTerm("kinetic_curvature", -params.hbar ** 2 / (8.0 * m) + 0.0j,
                     ps.basis_q.derivative_matrix(2), Ip),
    ]
    r = 0
    while not derivative(U, r).is_zero:
        dU = derivative(U, r)
        coeff = (0.5j * params.hbar) ** r / factorial(r)
        Lam = Ip if r == 0 else ps.basis_p.derivative_matrix(r)
        terms.append(
            OperatorTerm(f"potential_star_r{r}", coeff,
                         _poly_mult_matrix(ps.basis_q, dU.coeffs_q), Lam)
        )
        r += 1
    return AssembledOperator(ps=ps, terms=terms)
