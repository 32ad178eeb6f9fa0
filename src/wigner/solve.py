"""Time evolution by the one integrator, the implicit midpoint stepper; the
stationary spectrum of the two-sided star-genvalue system, found through
rank-R side problems of its Tucker-2 form and checked by its Ritz and purity
defects; and scale decomposition of coefficient fields."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse.linalg as spla

from .assembly import AssembledOperator, PhaseSpaceBasis
from .errors import (
    AbortedEvolutionError,
    ConfigurationError,
    ContractError,
    NumericalError,
)


@dataclass
class CoefficientField:
    """A Wigner field as a flat, real coefficient vector on a phase-space
    basis; ContractError for a complex or non-finite one."""

    ps: PhaseSpaceBasis
    coeffs: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs)
        if self.coeffs.shape != (self.ps.dim,):
            raise ContractError(
                f"coefficient length {self.coeffs.shape} does not match basis "
                f"dimension {self.ps.dim}"
            )
        if np.iscomplexobj(self.coeffs):
            raise ContractError("coefficient vector is complex; Wigner fields are real")
        if not np.all(np.isfinite(self.coeffs)):
            raise ContractError("coefficient vector contains non-finite entries")

    def copy(self) -> "CoefficientField":
        return CoefficientField(ps=self.ps, coeffs=self.coeffs.copy(), time=self.time)


@dataclass(frozen=True)
class EvolutionConfig:
    """The ``[solver]`` settings: time stepping and the stationary state count."""

    dt: float = 0.01
    t_end: float = 1.0
    scheme: str = "implicit_midpoint"
    store_every: int = 1
    n_states: int = 4

    def __post_init__(self):
        bad = []
        if not self.dt > 0:
            bad.append("dt must be positive")
        if not self.t_end >= 0:
            bad.append("t_end must be non-negative")
        elif self.dt > 0 and not np.isfinite(self.t_end / self.dt):
            bad.append("t_end / dt, the step count, exceeds double precision")
        if self.scheme != "implicit_midpoint":
            bad.append("scheme must be implicit_midpoint, the one time "
                       f"integrator (got {self.scheme!r})")
        if not self.store_every >= 1:
            bad.append("store_every must be >= 1")
        if not self.n_states >= 1:
            bad.append("n_states must be >= 1")
        if bad:
            raise ConfigurationError("; ".join(bad))


# Defect corrections a midpoint step may take after its first preconditioned
# solve.  A Gaussian in U = q^2/2 + 0.1 q^4 with friction and diffusion
# (order 6 on +-6) needs at most 9, 15, 56 and 168 per step from a zero start
# at 64x64 dt 0.01, 128x128 dt 0.01, 64x64 dt 0.05 and 64x64 dt 0.1.  The
# extrapolated start below cuts the mean passes per step (first solve
# included) from 8.40 to 4.69 at 64x64 dt 0.01 and from 13.45 to 10.23 at
# 128x128, and leaves 64x64 dt 0.05 at 50.14 against 50.37.  At dt 0.05
# the midpoint result is already 3.7% off a dt/8 one, so a step that needs
# more than 200 asks for a smaller dt rather than for another solver.
_MAX_CORRECTIONS = 200
# Relative residual ||b - (I - hL) x|| / ||b|| at which a step has converged.
_STEP_TOL = 1e-12
# A step starts from sum_j a_j x_{n-j}, j = 1..7: the degree-6 polynomial
# through the stepper's last seven solutions, one step on (Fischer, CMAME
# 163, 1998, reuses earlier solutions the same way).  Mean passes per step
# over 1500 steps at 64x64 dt 0.01 by degree: 5.14 (4), 4.75 (5), 4.69 (6),
# 4.86 (7).
_EXTRAPOLATION = np.array([7.0, -21.0, 35.0, -35.0, 21.0, -7.0, 1.0])
# The start is kept only when its residual r0 < 1e-3 ||b||, else x = 0.
# r0 / ||b|| (median, max): 6.4e-8, 2.5e-6 at 64x64 dt 0.01; 1.9e-6, 2.8e-6
# at 128x128 dt 0.01; 3.3e-5, 1.4e-4 at 64x64 dt 0.02; 2.7e-3, 1.1e-2 at
# 64x64 dt 0.05, where starting from every extrapolation takes 54.18
# passes per step against 50.14 from zero, and the gate 50.37.
_START_GATE = 1e-3


def _circulant_symbol(A: np.ndarray):
    """Eigenvalues of A in ``rfft`` order if A is exactly circulant, else None."""
    n = A.shape[0]
    col = A[:, 0]
    if not np.array_equal(A, col[(np.arange(n)[:, None] - np.arange(n)) % n]):
        return None
    return np.fft.rfft(col)


def _mode_inverses(h, symbols, factors):
    """inv(I - h sum_t symbol_t[k] factor_t) for every Fourier mode k.

    One stack is made: the sum is scaled by h and subtracted from I in
    place, and each mode is inverted into its own slot.  That is the LAPACK
    call of a stacked ``inv`` on the same inputs, so the bits are the same.
    """
    n = factors[0].shape[0]
    M = np.einsum("tk,tij->kij", np.array(symbols), np.array(factors))
    M *= h
    np.subtract(np.eye(n), M, out=M)
    for k in range(len(M)):
        M[k] = np.linalg.inv(M[k])
    return M


class _MidpointStepper:
    """Solver for the midpoint step (I - hL) c' = (I + hL) c, h = dt/2.

    Every term of L is coeff * A_q (x) B_p.  A term whose q factor is exactly
    circulant (transport, friction, diffusion, identity) goes to T; one whose
    p factor is circulant (force and the hbar^2 corrections) goes to F.  The
    preconditioner P = (I - hT)(I - hF) is the approximate factorization of
    I - hL.  An ``rfft`` along q turns I - hT into one n_p x n_p matrix per
    q-mode, each inverted exactly once here.  F's q factors are Galerkin
    multiplications by derivatives of the potential, so I - hF is inverted
    in the eigenbasis U of the position matrix (fast diagonalization, Lynch,
    Rice & Thomas, Numer. Math. 6, 1964): with sigma_t term t's p-symbol
    and d_t = diag(U^T Q_t U), p-mode k is scaled by
    1 / (1 - h sum_t sigma_t[k] d_t) between U^T and U.  That is exact when
    every F q factor is a + b M_q (potentials of degree <= 2) and an
    approximation otherwise: for the quartic on +-6 at dt 0.01, P^-1 r is
    5e-4, 1.5e-4 and 5e-5 off the exact inverse at 64x64, 128x128 and
    256x256, far below the error of the split itself, and the passes per
    step do not move.  sigma_t is imaginary and d_t real, so no scale
    exceeds 1, and p-mode 0 (sigma = 0) is left as it is, which keeps the
    integral.  A step runs the defect correction x <- x + P^-1 (b - x + hLx),
    with Lx from ``L.apply``, until ||b - x + hLx|| <= 1e-12 ||b||.  Neither
    L's sparse matrix nor an LU is built.

    The stepper is given the initial state c0 once and steps from its own
    last result after that.  It keeps its last seven solutions x and their
    images hLx, which the final residual check of each step computes
    anyway, in two arrays allocated here.  The first step takes
    b = c0 + hLc0; every later one takes its last x and hLx from them.  Once
    all seven are stored, a step starts from their extrapolation
    (``_EXTRAPOLATION``), whose residual is a combination of stored images,
    if that residual passes ``_START_GATE``, and from x = 0 otherwise.

    L must be real and every term must have a circulant factor, as every
    ``assemble_evolution`` generator does; otherwise ContractError.  A step
    that has not converged after ``_MAX_CORRECTIONS`` corrections raises
    NumericalError: dt is too long for the factorization.
    """

    def __init__(self, L: AssembledOperator, dt: float, c0: np.ndarray):
        if L.is_complex:
            raise ContractError("the midpoint stepper needs a real generator")
        T, F = [], []
        for t in L.terms:
            sym = _circulant_symbol(t.q_matrix)
            if sym is not None:
                T.append((t.coeff * sym, t.p_matrix))
                continue
            sym = _circulant_symbol(t.p_matrix)
            if sym is None:
                raise ContractError(
                    f"generator term {t.tag!r} has no circulant factor, so "
                    "the midpoint stepper cannot invert it by FFT")
            F.append((t.coeff * sym, t.q_matrix))
        self.L = L
        self.h = dt / 2.0
        self._inv_T = _mode_inverses(self.h, *zip(*T)) if T else None
        self._U = self._E = None
        if F:
            # U diagonalizes the position matrix, and so every q factor that
            # is a + b M_q; d_t = diag(U^T Q_t U) for any other
            _, self._U = np.linalg.eigh(L.ps.basis_q.moment_matrix(1))
            d = np.stack([np.einsum("ij,ij->j", self._U, Q @ self._U)
                          for _, Q in F])
            sym = np.stack([s for s, _ in F])
            self._E = 1.0 / (1.0 - self.h * (d.T @ sym))
        # ring buffers of the last solutions and their images: step k,
        # counted from 0, goes to slot k % 7
        self._xs = np.empty((len(_EXTRAPOLATION), L.ps.dim))
        self._hLxs = np.empty_like(self._xs)
        self._count = 0
        self._c0 = c0

    def _precondition(self, r):
        R = self.L.ps.as_grid(r)
        nq, n_p = R.shape
        if self._inv_T is not None:
            Rh = np.fft.rfft(R, axis=0)
            Rh = np.matmul(self._inv_T, Rh[:, :, None])[:, :, 0]
            R = np.fft.irfft(Rh, n=nq, axis=0)
        if self._E is not None:
            # each product with U is one real GEMM on the complex array
            # viewed as float: U^T rfft_p(R), scaled by E, then U times that
            U = self._U
            Rh = (U.T @ np.fft.rfft(R, axis=1).view(float)).view(complex)
            Rh = (U @ (self._E * Rh).view(float)).view(complex)
            R = np.fft.irfft(Rh, n=n_p, axis=1)
        return R.reshape(-1)

    def step(self):
        n, k = len(_EXTRAPOLATION), self._count
        if k:
            b = self._xs[(k - 1) % n] + self._hLxs[(k - 1) % n]
        else:
            b = self._c0 + self.h * self.L.apply(self._c0)
        norm_b = np.linalg.norm(b)
        x = np.zeros_like(b)
        r = b
        if k >= n:
            # slot s holds x_{n-j} for j = (k - 1 - s) % n + 1
            a = _EXTRAPOLATION[(k - 1 - np.arange(n)) % n]
            x0 = a @ self._xs
            r0 = b - x0 + a @ self._hLxs
            if np.linalg.norm(r0) < _START_GATE * norm_b:
                x, r = x0, r0
        # the first pass from x = 0 gives x = P^-1 b, each later one a correction
        for _ in range(1 + _MAX_CORRECTIONS):
            x = x + self._precondition(r)
            hLx = self.h * self.L.apply(x)
            r = b - x + hLx
            if np.linalg.norm(r) <= _STEP_TOL * norm_b:
                self._xs[k % n], self._hLxs[k % n] = x, hLx
                self._count = k + 1
                return x
        resid = float(np.linalg.norm(r) / norm_b)
        raise NumericalError(
            f"midpoint step dt = {2 * self.h:.6g} has relative residual "
            f"{resid:.3g} after {_MAX_CORRECTIONS} corrections; reduce dt",
            diagnostic={"dt": 2 * self.h, "relative_residual": resid},
        )


def evolve(W0: CoefficientField, L: AssembledOperator, cfg: EvolutionConfig,
           store=None) -> CoefficientField:
    """Midpoint-step dW/dt = L W from W0 to t_end; returns the final field.

    ``cfg.dt`` is the largest step: one stepper takes n = ceil(t_end / dt)
    steps of t_end / n, where a t_end / dt within a relative 1e-12 above a
    whole number counts as that number.

    The stored states are a copy of W0, every ``store_every``-th step and the
    last step.  Each is built as one ``CoefficientField`` when it is reached
    and handed to ``store(field)`` if given; no other field is constructed
    and none is kept, so memory does not grow with the step count.  The
    benchmark times the steps by counting these constructions, so ``store``
    must build no field itself.  A step whose norm is not finite or exceeds
    1e6 times the initial one raises AbortedEvolutionError.  A complex L
    raises ContractError.
    """
    if L.ps is not W0.ps and L.ps != W0.ps:
        raise ContractError("operator and initial field live on different bases")

    n_steps = int(np.ceil(cfg.t_end / cfg.dt * (1.0 - 1e-12)))
    dt = cfg.t_end / max(n_steps, 1)
    c = W0.coeffs.astype(float)
    stepper = _MidpointStepper(L, dt, c)

    norm0 = max(np.linalg.norm(W0.coeffs), 1e-300)
    last = W0.copy()
    if store is not None:
        store(last)
    t = W0.time
    for i in range(n_steps):
        c = stepper.step()
        t += dt
        norm = np.linalg.norm(c)
        if not np.isfinite(norm) or norm > 1e6 * norm0:
            raise AbortedEvolutionError(
                f"evolution unstable at t={t:.6g} (norm ratio {norm / norm0:.3e})",
                diagnostic={"t": t, "norm_ratio": float(norm / norm0)},
            )
        if i == n_steps - 1 or (i + 1) % cfg.store_every == 0:
            last = CoefficientField(ps=W0.ps, coeffs=c.copy(), time=t)
            if store is not None:
                store(last)
    return last


# ---------------------------------------------------------------------------
# eigenproblems
# ---------------------------------------------------------------------------

# Smallest |integral| / ||W|| accepted for a diagonal state; off-diagonal
# eigenfields integrate to zero.
_INTEGRAL_FLOOR = 0.5

# The split's y values are read relative to max|y|, as no hbar is at hand.
# A field is diagonal when |y| <= 1e-6 max|y|: in the tests' cases the
# diagonal states read |y| <= 6.1e-11 and the nearest pair 0.71, or 1.0e-2
# for the double well's unresolved tunnelling pair, with max|y| from 1.0e-2
# to 9.1.  The other y values form clusters, one per sign, cut where
# sorted neighbours lie more than 1e-2 max|y| apart.  One cluster must
# hold the oscillator's equal gaps |n+1><n|, whose y spread by 2.3e-4 at
# 32x32 (order 10, +-4) and by 8.9e-3 with hbar 0.1 on +-2, where a cut at
# 2e-3 left the six lowest pairs 0.1 off and 1e-2 max|y| leaves them 7e-4
# off; distinct y values in one sign lie at least 0.12 max|y| apart.
_DIAGONAL = 1e-6
_CLUSTER = 1e-2
# Each subspace is cut at the widest gap between its levels above the line
# lambda_{k-1} - 0.1 (lambda_{k-1} - lambda_0), and a split is accepted
# when the highest level it returns lies below the line; else k grows by a
# quarter.  The cut keeps both members of a pair |m><n|, |n><m| or
# neither: a lone member reads y ~ 0 and mixes with the diagonal states.
# At 64x64 (order-10 quartic, +-4, k = 27) one at the top moved |1><1|
# from 1.76961 to 1.77118 and |2><2| by 1.8e-2.
_MARGIN = 0.1
# The first side problem of ``_lowest_pairs`` restricts q to the lowest
# eigenvectors of A_sym's q-only part, as many as ``_start_rank`` counts.
# A rank too low for the q-modes of the k lowest levels can pass the
# residual gate on a wrong subspace: on the oscillator (32x32, +-5, six
# states) a start forced to rank 10 at k = 68, or 11 at k = 85, gave
# levels 0.35 or 0.30 above the dense eigenvalues, against the rule's 13
# and 14.
# A later side basis keeps the leading singular vectors whose discarded
# tail has a Frobenius norm above _RANK_TAIL times the whole, plus four.
# The order-10 quartic on +-4 then takes two side problems at 32x32 to
# 256x256, as on +-6 and +-8; the oscillator with hbar 0.1 or mass 2 and
# 0.5 q^2 - 5 take one, and the double well at 128x128 three.  For
# lambda 0.09 to 0.11 the quartic's second side (rank 29) leaves residuals
# of 2.2e-9 to 2.7e-9 at 64x64 and 2.4e-9 to 5.1e-9 at 128x128; plus three
# (rank 28) leaves up to 4.0e-9 and 5.0e-9; plus two, or 1e-10 plus two,
# takes a third side.
_RANK_TAIL = 1e-11
# Side problems one k may take before its residual gate fails: more than
# twice the most that any of those cases took.
_MAX_SIDES = 8
# Fields whose eps agree to _TIE max|eps|, as a pair's two members do, go by E'.
_TIE = 1e-9


class Spectrum(list):
    """The (eps, field) states that a stationary run returns, lowest level
    first, with the split they come from (each field's eps = (E' + E'')/2,
    y = (E'' - E')/hbar and whether it is diagonal, lowest eps first) and the
    line it was accepted at.

    ``pairs(hbar)`` lists (E', E'') = eps -+ hbar y / 2 of every split field,
    diagonal or not, whose max(E', E'') lies at or below the line, lowest
    eps first, and lowest E' first where eps agree to ``_TIE``: the levels
    of the two-sided system that the split resolves.
    ``ritz_defect(hbar)`` is the largest |E' - e_m| + |E'' - e_n| over the
    split's off-diagonal pairs whose two levels lie among the diagonal
    levels e returned, each matched to the nearest; a pair counts when both
    its levels lie within half a level spacing of [e_0, e_top], so a pair
    with a level above the ones returned does not (nan when fewer than two
    diagonal levels are returned, or no pair counts).  Exact eigenfields
    obey the Ritz combination principle, E' and E'' are levels of diagonal
    states, so the defect estimates the level error without an oracle:
    3.1e-2, 6.9e-4 and 5.8e-5 for the order-10 quartic on +-4 (three
    states at 32x32 and 64x64, four at 128x128), whose largest level
    errors are 3.1e-2, 6.9e-4 and 5.7e-5.

    ``purity_defect(hbar)`` is the largest |1 - 2 pi hbar ||c_n||^2| over
    the states returned.  A diagonal stationary Wigner function is a pure
    state, whose purity 2 pi hbar int W^2 is 1 at unit integral, and a
    mixture a W_0 + b W_1 (a + b = 1) of two such L2-orthogonal fields reads
    a^2 + b^2.  So the defect sees fields that mix states, as the double
    well's doublet at 128x128 does (8.97e-2 and 1.07e-1 against field
    errors of 9.4e-2 and 1.02e-1), where ``ritz_defect`` reads 6.0e-5.  A
    pure field of the wrong shape keeps it at 0.
    """

    def __init__(self, items, eps, y, diagonal, line: float):
        super().__init__(items)
        self._eps, self._y, self._diagonal, self._line = eps, y, diagonal, line

    def _both(self, hbar: float) -> np.ndarray:
        """E' and E'' = eps -+ hbar y / 2 of every split field, as two rows."""
        return np.stack([self._eps - 0.5 * hbar * self._y,
                         self._eps + 0.5 * hbar * self._y])

    def pairs(self, hbar: float) -> list:
        """(E', E'') of the split fields at or below the line."""
        tie = np.diff(self._eps) <= _TIE * np.max(np.abs(self._eps))
        both = self._both(hbar)
        both = both[:, np.lexsort((both[0], np.cumsum(np.r_[0, ~tie])))]
        return [(float(lo), float(hi))
                for lo, hi in both[:, both.max(axis=0) <= self._line].T]

    def ritz_defect(self, hbar: float) -> float:
        """The largest Ritz-combination miss, at E', E'' = eps -+ hbar y / 2."""
        e = np.array([eps for eps, _ in self])
        if len(e) < 2:
            return float("nan")
        both = self._both(hbar)
        inside = ((both >= e[0] - 0.5 * (e[1] - e[0]))
                  & (both <= e[-1] + 0.5 * (e[-1] - e[-2])))
        keep = ~self._diagonal & inside.all(axis=0)
        if not keep.any():
            return float("nan")
        miss = np.min(np.abs(both[:, keep, None] - e), axis=2)
        return float(np.max(miss.sum(axis=0)))

    def purity_defect(self, hbar: float) -> float:
        """The largest |1 - 2 pi hbar ||c_n||^2| over the states returned."""
        return max(abs(1.0 - 2.0 * np.pi * hbar * float(np.vdot(W.coeffs, W.coeffs)))
                   for _, W in self)


def _spectrum_floor(op: AssembledOperator) -> tuple:
    """Levels e, ascending, and orthonormal eigenvectors of op's q-only part,
    the terms whose p factor is 1.

    For A_sym that part is U(q) - (hbar^2/8m) d^2/dq^2: a particle of mass
    4m, whose ground level e[0] lies below the ground level E_0 of mass m.
    A_sym's levels are (E_m + E_n)/2 >= E_0, so e[0] is a shift below the
    spectrum and close to its bottom.  It is not a bound for the discretized
    operator: ``_shifted_inverse`` checks it.  The eigenvectors are the
    q basis of the first side problem (``_start_rank``).
    """
    nq, n_p = op.ps.shape
    Ip = np.eye(n_p)
    Q = np.zeros((nq, nq))
    for t in op.terms:
        if np.array_equal(t.p_matrix, Ip):
            Q += t.coeff * t.q_matrix
    return la.eigh(0.5 * (Q + Q.T))


def _start_rank(e: np.ndarray, k: int) -> int:
    """Columns of the first side problem's q basis for k eigenpairs: the
    count of q levels e_a with e_a + e_0 at or below the k-th lowest sum
    e_a + e_b, plus two.

    For a harmonic U, A_sym is Q (x) 1 + 1 (x) P with P's levels those of
    the q-only part Q, so its k lowest levels are the k lowest sums, and
    their eigenvectors use exactly the q-modes counted.  For any other U the
    count is a model of that.  The quartic's 30 lowest levels count 7 at
    64x64; the 12-state oscillator's 278 and 347 count 23 and 25 at 128x128
    on +-7.
    """
    sums = np.add.outer(e, e).ravel()
    top = np.partition(sums, k - 1)[k - 1]
    return int(np.sum(e + e[0] <= top)) + 2


def _folded_order(n: int) -> np.ndarray:
    """The axis order 0, n-1, 1, n-2, ...: it turns a periodic band of
    half-width b (wrap included) into a plain band of half-width at most 2b."""
    order = np.empty(n, dtype=int)
    order[0::2] = np.arange((n + 1) // 2)
    order[1::2] = np.arange(n - 1, (n - 1) // 2, -1)
    return order


def _half_bandwidth(mats: np.ndarray) -> int:
    """Largest |i - k| over the nonzero entries of a stack of matrices."""
    i, k = np.nonzero(np.any(mats != 0, axis=0))
    return int(np.max(np.abs(i - k))) if i.size else 0


def _shifted_band(terms, sigma: float):
    """Upper band of the symmetric part of S - sigma I, axes in folded order,
    for S = sum_t c_t A_t (x) B_t given as the (c, A, B) triples ``terms``.

    S acts on the grid of shape (len(A), len(B)), flat index i len(B) + j.
    Returns (ab, perm): ab[u + r - c, c] is entry (r, c), r <= c, of the
    folded matrix, whose flat index r is S's index perm[r]; ab is Fortran-
    ordered LAPACK upper band storage of half-bandwidth u = b_a n_b + b_b,
    with b_a, b_b the folded half-bandwidths of the A and B factors.  The
    band is written from the Kronecker terms, one A-block offset at a time
    and one plain slice of ab per block column; no dense S is made.  A_sym
    is symmetric only to the roundoff of its derivative tables (3.8e-13
    relative on the 32x32 order-10 quartic); the band of (S + S^T) / 2 is
    symmetric by construction, whichever triangle LAPACK reads.
    """
    _, A0, B0 = terms[0]
    nq, n_p = len(A0), len(B0)
    fq, fp = _folded_order(nq), _folded_order(n_p)
    Qs = np.stack([0.5 * c * A[np.ix_(fq, fq)] for c, A, _ in terms])
    Bs = np.stack([B[np.ix_(fp, fp)].T for _, _, B in terms])
    # each term and its transpose: the band of (S + S^T) / 2
    Qs = np.concatenate([Qs, Qs.transpose(0, 2, 1)])
    Bs = np.concatenate([Bs, Bs.transpose(0, 2, 1)])
    bq, bp = _half_bandwidth(Qs), _half_bandwidth(Bs)
    u = bq * n_p + bp
    ab = np.zeros((u + 1, nq * n_p), order="F")
    cols = ab.T.reshape(nq, n_p, u + 1)  # cols[iq, l]: ab's column iq n_p + l
    Bs = Bs.reshape(len(Bs), -1)
    for dq in range(bq + 1):
        # Bs holds each B transposed, so blocks[iq, l] is column l of the
        # n_p x n_p block (iq, iq + dq); its entry j lies at band row top + j
        blocks = (Qs.diagonal(dq, axis1=1, axis2=2).T @ Bs).reshape(-1, n_p, n_p)
        for l in range(n_p):
            top = u - dq * n_p - l
            lo, hi = max(0, -top), min(n_p, u + 1 - top)
            cols[dq:, l, top + lo:top + hi] = blocks[:, l, lo:hi]
        del blocks
    ab[u] -= sigma
    return ab, (fq[:, None] * n_p + fp).reshape(-1)


def _shifted_inverse(terms, sigma: float) -> spla.LinearOperator:
    """(S - sigma I)^-1 for the Kronecker sum S of ``terms``, by a banded
    Cholesky factor of ``_shifted_band``.

    Raises NumericalError when S - sigma I is not positive definite, that is
    when S has a level below sigma.
    """
    ab, perm = _shifted_band(terms, sigma)
    try:
        factor = la.cholesky_banded(ab, overwrite_ab=True, check_finite=False)
    except la.LinAlgError as exc:
        raise NumericalError(
            f"the stationary operator has a level below the shift {sigma:.6g}, "
            "so its lowest states cannot be located",
            diagnostic={"shift": sigma},
        ) from exc

    def solve(v):
        x = np.empty(len(perm))
        x[perm] = la.cho_solve_banded((factor, False), v[perm],
                                      check_finite=False)
        return x

    return spla.LinearOperator((len(perm), len(perm)), matvec=solve, dtype=float)


def _frame(op: AssembledOperator, axis: int) -> list:
    """op's terms as (c, F, G) triples in the frame of a side problem that
    restricts ``axis`` (0 for q): F is a term's factor on the axis kept in
    full and G its factor on the restricted one."""
    return [(t.coeff, t.p_matrix, t.q_matrix) if axis == 0 else
            (t.coeff, t.q_matrix, t.p_matrix) for t in op.terms]


def _lift(x: np.ndarray, W: np.ndarray, axis: int) -> np.ndarray:
    """The flat q-major vector of the grid x W^T, whose first axis is the
    one kept in full and whose second, ``axis``, the restricted one."""
    grid = x @ W.T
    return (grid.T if axis == 0 else grid).reshape(-1)


def _residuals(frame, lam, X, W) -> np.ndarray:
    """S v_i - lam_i v_i for the lifted v_i = X_i W^T and S the operator of
    ``frame``, as (k, n, N) grids, full axis first.

    (F (x) G)(X W^T) = (F X)(G W)^T, so each term adds the product of each
    (n, R) grid F X_i by one R x N factor to the one accumulator, and no
    v_i is built.  Adding state by state makes no second (k, n, N) array,
    which would take 256 MB for k = 122 at 512x512."""
    acc = (X * -lam[:, None, None]) @ W.T
    for c, F, G in frame:
        GWt = (G @ W).T
        for a, x in zip(acc, c * (F @ X)):
            a += x @ GWt
    return acc


def _projected(frame, X, W) -> np.ndarray:
    """V^T S V for the lifted V_i = X_i W^T and S the operator of ``frame``:
    K_ij = sum_t c_t <X_i, F_t X_j (W^T G_t W)^T>, from the factors."""
    k = len(X)
    Y = sum((c * (F @ X)) @ (W.T @ G @ W).T for c, F, G in frame)
    return X.reshape(k, -1) @ Y.reshape(k, -1).T


def _residual_gate(op: AssembledOperator) -> float:
    """The largest residual ||A_sym v - lambda v|| accepted for a unit v:
    max(1e-8, 4 eps sum_t |c_t| b(A_t) b(B_t)), with b(M) =
    sqrt(||M||_1 ||M||_inf) >= ||M||_2.

    The sum bounds ||A_sym||, and eps ||A_sym|| is the roundoff of one
    product with it.  ||A_sym|| grows as N^4, from the quartic's
    hbar^4 d^4/dp^4 term: the sum reads 1.215e4, 2.649e6 and 4.204e7 for
    the order-10 quartic on +-4 at 64x64, 256x256 and 512x512, within 1.3%
    of the bound from the factors' 2-norms (1.200e4, 2.624e6, 4.164e7).  So
    the gate is 1e-8 up to 256x256 and 3.73e-8 at 512x512, where the side
    problems' residuals stall at 1.1e-8 to 2.1e-8.
    """
    def bound(M):
        return np.sqrt(np.linalg.norm(M, 1) * np.linalg.norm(M, np.inf))
    norm = sum(abs(t.coeff) * bound(t.q_matrix) * bound(t.p_matrix)
               for t in op.terms)
    return max(1e-8, 4.0 * np.finfo(float).eps * norm)


def _split_subspace(A_anti: AssembledOperator, lam, X, W, axis: int) -> tuple:
    """Split the span of A_sym's eigenvectors V_j = X_j W^T (``_lift``;
    eigenvalues lam) by A_anti into the fields sum_j C_ji V_j, lowest level
    first; returns (eps, y, diagonal, C).

    The Hermitian -i(K - K^T)/2, K = V^T A_anti V (``_projected``), has
    eigenvalues y = (E'' - E')/hbar.  Those with |y| <= ``_DIAGONAL`` max|y|
    form the cluster of the diagonal states, whose y is set to 0; the others
    form clusters of one sign each (``_CLUSTER``).  Inside each cluster
    A_sym = diag(lam) is Rayleigh-Ritz'd.  That gives each field's level
    eps = (E' + E'')/2 and, as its Rayleigh quotient, its own y.
    """
    K = _projected(_frame(A_anti, axis), X, W)
    y, U = np.linalg.eigh(-0.5j * (K - K.T))
    scale = np.max(np.abs(y))
    side = np.where(np.abs(y) <= _DIAGONAL * scale, 0.0, np.sign(y))
    cuts = np.flatnonzero((np.diff(y) > _CLUSTER * scale) | (np.diff(side) != 0))
    eps, ys, diagonal, C = [], [], [], []
    for c in np.split(np.arange(len(y)), cuts + 1):
        e, Z = np.linalg.eigh(U[:, c].conj().T @ (lam[:, None] * U[:, c]))
        is_diagonal = side[c[0]] == 0.0
        eps.append(e)
        ys.append(np.zeros(len(c)) if is_diagonal else
                  np.einsum("ij,i,ij->j", Z.conj(), y[c], Z).real)
        diagonal.append(np.full(len(c), is_diagonal))
        C.append(U[:, c] @ Z)
    order = np.argsort(np.concatenate(eps), kind="stable")
    eps, y, diagonal = (np.concatenate(a)[order] for a in (eps, ys, diagonal))
    return eps, y, diagonal, np.concatenate(C, axis=1)[:, order]


def _lowest_pairs(A_sym: AssembledOperator, sigma: float, k: int, W, rank: int):
    """The k lowest eigenpairs of A_sym by alternating side problems, as
    (lam, X, W, axis): lam ascending, and eigenvector i the grid X[i] W^T
    (``_lift``), orthonormal as W's columns on the restricted ``axis`` are.

    A side problem restricts one axis to span(W) and keeps the other in
    full: sum_t c_t F_t (x) (W^T G_t W) in the frame of ``_frame``.  Its k
    lowest pairs come from the band, Cholesky and ``eigsh`` of
    ``_shifted_inverse``, and each vector is an (n, R) grid X.  The first
    side restricts q to the first ``rank`` columns of W.  Every later side
    asks ARPACK for tol 1e-12: that cuts the 64x64 quartic's second side
    from 131 to 112 banded solves, and in the tests' cases it moves no side
    count and no level by more than 1e-10, where tol 1e-10 or 1e-11 took a
    side problem more on the quartic on +-8 at 32x32 or on the double well
    at 256x256.  The first side keeps tol 0, as its vectors set the next
    side's basis through ``_RANK_TAIL``.  The factor is released, and the
    pairs are checked in their factors (``_residuals``) against
    ``_residual_gate``; once all pass they are returned.  Otherwise the
    next side restricts the axis just solved in full to the leading left
    singular vectors of the k grids X side by side (``_RANK_TAIL``), and
    keeps W's axis in full.  R is raised to k // n + 1 where needed, so
    that k < n R, and at most to the axis's size, where the side problem is
    A_sym in a rotated basis.
    """
    gate = _residual_gate(A_sym)
    axis = 0  # the axis restricted to span(W)
    for side in range(_MAX_SIDES):
        n = A_sym.ps.shape[1 - axis]
        W = W[:, :min(W.shape[1], max(rank, k // n + 1))]
        frame = _frame(A_sym, axis)
        inv = _shifted_inverse([(c, F, W.T @ G @ W) for c, F, G in frame], sigma)
        # A fixed start vector, drawn as ARPACK draws its own, makes runs
        # repeatable.
        v0 = np.random.default_rng(0).uniform(-1.0, 1.0, inv.shape[0])
        try:
            nu, X = spla.eigsh(inv, k=k, which="LA", v0=v0,
                               tol=1e-12 if side else 0)
        except spla.ArpackNoConvergence as exc:
            raise NumericalError(
                "shift-invert eigensolver did not converge",
                diagnostic={"converged_eigenvalues":
                            getattr(exc, "eigenvalues", None)},
            ) from exc
        del inv  # the side's Cholesky factor
        # the largest nu = 1 / (lam - sigma) first
        order = np.argsort(-nu, kind="stable")
        lam = sigma + 1.0 / nu[order]
        X = np.take(X, order, axis=1).T.reshape(k, n, -1)
        r = _residuals(frame, lam, X, W)
        resid = np.sqrt(np.einsum("kij,kij->k", r, r))
        del r
        if np.all(resid <= gate):
            return lam, X, W, axis
        U, s, _ = np.linalg.svd(X.transpose(1, 0, 2).reshape(n, -1),
                                full_matrices=False)
        tail = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]
        W, axis = U, 1 - axis
        rank = int(np.sum(tail > _RANK_TAIL * tail[0])) + 4
    worst = int(np.argmax(resid))
    raise NumericalError(
        "stationary eigenpair residual too large",
        diagnostic={"eigenvalue": float(lam[worst]),
                    "residual": float(resid[worst]), "gate": gate},
    )


def first_subspace(n_states: int) -> int:
    """The first k of ``_lowest_states`` for n states, n(2n - 1) + 2:
    n(2n - 1) is the count of the oscillator's pair levels
    (E_m + E_n)/2 <= E_{n-1}, the densest spectrum among the tests."""
    return n_states * (2 * n_states - 1) + 2


def _lowest_states(A_sym: AssembledOperator, A_anti: AssembledOperator,
                   n_states: int) -> Spectrum:
    """The ``Spectrum`` of ``stationary_eigen`` for one pair: the n lowest
    diagonal fields of a split of the k lowest eigenpairs of A_sym, from
    k = ``first_subspace(n)`` and with k grown by a quarter (at least 2)
    until they lie at or below the split's line.

    A two-sided eigenfield, H*W = E'W and W*H = E''W, has A_sym W =
    ((E' + E'')/2) W and A_anti W = (i/hbar)(E'' - E') W (Curtright,
    Fairlie & Zachos, PRD 58, 025002, 1998).  So the k lowest eigenpairs of
    A_sym span the fields below lambda_{k-1}, and ``_split_subspace`` reads
    them off: A_sym alone does not separate |m><n| from a diagonal state of
    nearby level, nor A_anti the equal gaps of the oscillator; together they
    do.  Only the eigenvectors below the widest gap above line =
    lambda_{k-1} - ``_MARGIN`` (lambda_{k-1} - lambda_0) are split, and a
    split is kept once the highest level it returns lies at or below the
    line.  The eigenpairs stay in their Tucker factors through the checks
    and the split, and each state is lifted from them once (``_lift``),
    turned real and of unit integral.

    The k lowest eigenvectors lie in span(U) (x) span(V) with U and V of
    at most about 30 columns whatever the grid, so ``_lowest_pairs`` finds
    them by alternating Rayleigh-Ritz on that Tucker-2 form (the
    alternating linear scheme, Holtz, Rohwedder & Schneider, SIAM J. Sci.
    Comput. 34, A683, 2012), each side problem by ARPACK's shift-invert at
    sigma = e[0] of ``_spectrum_floor``, whose eigenvectors also give the
    first side's q basis.  A side band is 8 (u + 1) n R bytes for u about
    (2 b + 1) R, with b the factors' periodic half-bandwidth (b = 8 at order
    10; for the quartic 0.7 and 7.3 MB at 64x64 and 2.8 and 29 MB at
    256x256), where A_sym's own band would take 34 MB at 64x64 and 2.2 GB
    at 256x256.  The factor exists only when sigma lies below every level of
    the side problem, whose levels lie at or above A_sym's.  Every k starts
    from the same q basis and every side problem from the same vector rule,
    so runs repeat bit for bit.

    Raises NumericalError when k >= dim, the first k before any band is
    written; when a side problem less sigma I is not positive definite; when
    ARPACK does not converge; when, after ``_MAX_SIDES`` side problems,
    the residual ||A_sym v - lambda v|| of a lifted unit vector v still
    exceeds ``_residual_gate``; or when a returned field carries |integral| <
    ``_INTEGRAL_FLOOR`` ||W||.
    """
    dim, k = A_sym.ps.dim, first_subspace(n_states)
    e, start = _spectrum_floor(A_sym)
    while True:
        if k >= dim:
            raise NumericalError(
                f"{k} eigenpairs are needed, but the basis has dim = {dim}",
                diagnostic={"eigenpairs": k, "dim": dim},
            )
        lam, X, W, axis = _lowest_pairs(A_sym, float(e[0]), k, start,
                                        _start_rank(e, k))
        line = lam[-1] - _MARGIN * (lam[-1] - lam[0])
        top = np.searchsorted(lam, line)
        keep = top + int(np.argmax(np.diff(lam[top - 1:])))
        X = X[:keep]
        eps, y, diagonal, C = _split_subspace(A_anti, lam[:keep], X, W, axis)
        chosen = np.flatnonzero(diagonal)[:n_states]
        if len(chosen) == n_states and eps[chosen[-1]] <= line:
            break
        k += max(2, k // 4)
    s = A_sym.ps.integration_functional()
    items = []
    for n, i in enumerate(chosen):
        level, w = float(eps[i]), _lift(np.tensordot(C[:, i], X, axes=1), W, axis)
        integral = s @ w
        w = (w * np.conj(integral) / abs(integral)).real
        integral = float(s @ w)
        weight = integral / np.linalg.norm(w)
        if weight < _INTEGRAL_FLOOR:
            raise NumericalError(
                f"stationary state {n} at eps = {level:.6g} is off-diagonal "
                f"(|integral| = {weight:.3g} ||W||): A_sym's subspace does "
                "not resolve the pairs |m><n| near this level from the "
                "diagonal states; refine the basis or ask for fewer states",
                diagnostic={"eigenvalue": level, "integral_weight": weight},
            )
        items.append((level, CoefficientField(ps=A_sym.ps, coeffs=w / integral)))
    return Spectrum(items, eps, y, diagonal, line)


def stationary_eigen(A_sym: AssembledOperator, A_anti: AssembledOperator,
                     n_states: int) -> Spectrum:
    """Lowest diagonal stationary states (eps, field) of the stationary pair,
    in a ``Spectrum`` that also lists the split's pairs (E', E'') and the
    figures that check them without an oracle.

    Diagonal Wigner functions solve both H*W = EW and W*H = EW, so with the
    pair of ``assemble_stationary_pair`` a real eigenfield has A_sym W = EW
    and A_anti W = 0.  They are the diagonal fields of ``_lowest_states``,
    from k = ``first_subspace(n)`` for n states.  Each field has unit total
    integral.

    Raises NumericalError where ``_lowest_states`` does, as when a field
    integrates to less than 0.5 ||W|| at a near-degenerate doublet (a
    double well's tunnelling pair) on a coarse basis.
    """
    if n_states < 1:
        raise ContractError("n_states must be >= 1")
    return _lowest_states(A_sym, A_anti, n_states)


# ---------------------------------------------------------------------------
# scale splits
# ---------------------------------------------------------------------------

def reconstruct_by_scale(W: CoefficientField):
    """Split a field into a slow part (levels below the basis's ``scale_cut``)
    and one fast part per level from the cut to the finest.

    Returns (slow, [fast_cut, ..., fast_finest]); parts sum to the full field
    exactly by linearity of the orthogonal multiscale transform.
    """
    ps = W.ps
    labels = ps.multiscale_levels()
    ms = ps.to_multiscale(W.coeffs)

    def synth(mask):
        return CoefficientField(ps=ps, coeffs=ps.from_multiscale(ms * mask),
                                time=W.time)

    return synth(labels < ps.scale_cut), [
        synth(labels == lev) for lev in range(ps.scale_cut, labels.max() + 1)]
