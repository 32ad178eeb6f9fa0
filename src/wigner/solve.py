"""Time evolution by the one integrator, the implicit midpoint stepper; the
stationary spectrum of the two-sided star-genvalue system, found through
rank-R side problems of its Tucker-2 form and checked one level down; and
scale decomposition of coefficient fields."""

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

    The stepper keeps its last seven solutions x and their images hLx, which
    the final residual check of each step computes anyway, in two arrays
    allocated here.  When a step is handed the state it returned last, it
    takes hLc for b = c + hLc from them; once all seven are stored, it
    starts from their extrapolation (``_EXTRAPOLATION``), whose residual is
    a combination of stored images, if that residual passes
    ``_START_GATE``, and from x = 0 otherwise.  Any other c clears the
    history, so the step is that of a fresh stepper.

    L must be real and every term must have a circulant factor, as every
    ``assemble_evolution`` generator does; otherwise ContractError.  A step
    that has not converged after ``_MAX_CORRECTIONS`` corrections raises
    NumericalError: dt is too long for the factorization.
    """

    def __init__(self, L: AssembledOperator, dt: float):
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
        # counted from 0 since the history was last cleared, goes to slot k % 7
        self._xs = np.empty((len(_EXTRAPOLATION), L.ps.dim))
        self._hLxs = np.empty_like(self._xs)
        self._count = 0

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

    def step(self, c):
        n, k = len(_EXTRAPOLATION), self._count
        if k and np.array_equal(c, self._xs[(k - 1) % n]):
            hLc = self._hLxs[(k - 1) % n]
        else:
            k, hLc = 0, self.h * self.L.apply(c)
        b = c + hLc
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
    1e6 times the initial one raises AbortedEvolutionError carrying the last
    stored state.  A complex L raises ContractError.
    """
    if L.ps is not W0.ps and L.ps != W0.ps:
        raise ContractError("operator and initial field live on different bases")

    n_steps = int(np.ceil(cfg.t_end / cfg.dt * (1.0 - 1e-12)))
    dt = cfg.t_end / max(n_steps, 1)
    stepper = _MidpointStepper(L, dt)

    norm0 = max(np.linalg.norm(W0.coeffs), 1e-300)
    last = W0.copy()
    if store is not None:
        store(last)
    c = W0.coeffs.astype(float)
    t = W0.time
    for i in range(n_steps):
        c = stepper.step(c)
        t += dt
        norm = np.linalg.norm(c)
        if not np.isfinite(norm) or norm > 1e6 * norm0:
            raise AbortedEvolutionError(
                f"evolution unstable at t={t:.6g} (norm ratio {norm / norm0:.3e})",
                last_state=last,
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
# The first side problem of ``_lowest_pairs`` restricts p to the lowest
# _RANK_START eigenvectors of the p^2 matrix.  The first subspace of the
# order-10 quartic (+-4, k = 30, 1 thread) by start rank 16, 20, 24, 28,
# 32, 40 took 0.20, 0.20, 0.21, 0.43, 0.45, 0.48 s at 64x64 (two side
# problems up to 24, four above) and 0.92, 0.82, 0.61, 0.82, 0.83, 0.94 s at
# 128x128 (two side problems at 24, three at the others).
_RANK_START = 24
# A later side basis keeps the leading singular vectors whose discarded
# tail has a Frobenius norm above _RANK_TAIL times the whole, plus two.  On
# the quartic at 32x32, 64x64 and 128x128, on +-8 at 64x64 and 128x128,
# with hbar 0.1 on +-2, and on the double well at 128x128, that took 2, 2,
# 2, 3, 2, 2 and 4 side problems; a tail of 1e-9 took up to 4 on each, and
# 1e-8, or 1e-10 without the two, stalled above the 1e-8 gate on some.
_RANK_TAIL = 1e-10
# Side problems one k may take before its residual gate fails: twice the
# most that any of those cases took.
_MAX_SIDES = 8


@dataclass
class _Split:
    """The fields V C[:, i] that split the span of A_sym's eigenvectors V by
    A_anti, lowest level first: field i has level eps = (E' + E'')/2 and
    y = (E'' - E')/hbar, 0 for the diagonal states."""

    eps: np.ndarray
    y: np.ndarray
    diagonal: np.ndarray
    V: np.ndarray
    C: np.ndarray

    def field(self, ps: PhaseSpaceBasis, i: int) -> CoefficientField:
        """Diagonal field i, unit norm, turned real with a positive integral."""
        w = self.V @ self.C[:, i]
        integral = ps.integration_functional() @ w
        w = (w * np.conj(integral) / abs(integral)).real
        return CoefficientField(ps=ps, coeffs=w)


class Spectrum(list):
    """The (eps, field) states that a stationary run returns, lowest level
    first, with the split they come from, the line it was accepted at and,
    given the states of the same pair one level down, how far they moved.

    ``pairs(hbar)`` lists (E', E'') = eps -+ hbar y / 2 of every split field,
    diagonal or not, whose max(E', E'') lies at or below the line, lowest
    eps first: the levels of the two-sided system that the split resolves.
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

    ``level_change`` is the largest |eps_n - eps_n^coarse| over the states
    returned, and ``field_change`` the L2 distance between state 0 and the
    coarser state 0 embedded by zero padding (``_embedding_difference``);
    both are nan without coarser states.  For the order-10 quartic on +-4
    with four states at 64x64 they read 9.5e-2 and 5.7e-4.
    """

    def __init__(self, items, split: _Split, line: float, coarse=None):
        super().__init__(items)
        self._split, self._line = split, line
        self.level_change = self.field_change = float("nan")
        if coarse is not None:
            self.level_change = max(abs(e - e_c) for (e, _), (e_c, _)
                                    in zip(self, coarse))
            self.field_change = _embedding_difference(coarse[0][1], self[0][1])

    def _both(self, hbar: float) -> np.ndarray:
        """E' and E'' = eps -+ hbar y / 2 of every split field, as two rows."""
        sp = self._split
        return np.stack([sp.eps - 0.5 * hbar * sp.y, sp.eps + 0.5 * hbar * sp.y])

    def pairs(self, hbar: float) -> list:
        """(E', E'') of the split fields at or below the line."""
        both = self._both(hbar)
        return [(float(lo), float(hi))
                for lo, hi in both[:, both.max(axis=0) <= self._line].T]

    def ritz_defect(self, hbar: float) -> float:
        """The largest Ritz-combination miss, at E', E'' = eps -+ hbar y / 2."""
        sp, e = self._split, np.array([eps for eps, _ in self])
        if len(e) < 2:
            return float("nan")
        both = self._both(hbar)
        inside = ((both >= e[0] - 0.5 * (e[1] - e[0]))
                  & (both <= e[-1] + 0.5 * (e[-1] - e[-2])))
        keep = ~sp.diagonal & inside.all(axis=0)
        if not keep.any():
            return float("nan")
        miss = np.min(np.abs(both[:, keep, None] - e), axis=2)
        return float(np.max(miss.sum(axis=0)))


def _spectrum_floor(op: AssembledOperator) -> float:
    """Lowest eigenvalue of op's q-only part, the terms whose p factor is 1.

    For A_sym that part is U(q) - (hbar^2/8m) d^2/dq^2: a particle of mass
    4m, whose ground level lies below the ground level E_0 of mass m.
    A_sym's levels are (E_m + E_n)/2 >= E_0, so this is a shift below the
    spectrum and close to its bottom.  It is not a bound for the discretized
    operator: ``_shifted_inverse`` checks it.
    """
    nq, n_p = op.ps.shape
    Ip = np.eye(n_p)
    Q = np.zeros((nq, nq))
    for t in op.terms:
        if np.array_equal(t.p_matrix, Ip):
            Q += t.coeff * t.q_matrix
    return float(la.eigvalsh(0.5 * (Q + Q.T), subset_by_index=[0, 0])[0])


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


def _split_subspace(A_anti: AssembledOperator, lam, V) -> _Split:
    """Split the span of A_sym's eigenvectors V (eigenvalues lam) by A_anti.

    The Hermitian -i(K - K^T)/2, K = V^T A_anti V, has eigenvalues
    y = (E'' - E')/hbar.  Those with |y| <= ``_DIAGONAL`` max|y| form the
    cluster of the diagonal states, whose y is set to 0; the others form
    clusters of one sign each (``_CLUSTER``).  Inside each cluster
    A_sym = diag(lam) is Rayleigh-Ritz'd.  That gives each field's level
    eps = (E' + E'')/2 and, as its Rayleigh quotient, its own y.
    """
    K = V.T @ np.column_stack([A_anti.apply(v) for v in V.T])
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
    return _Split(eps, y, diagonal, V, np.concatenate(C, axis=1)[:, order])


def _lowest_pairs(A_sym: AssembledOperator, sigma: float, k: int, W):
    """The k lowest eigenpairs (lam, V) of A_sym by alternating side problems,
    lam ascending and the columns of V orthonormal full-space vectors.

    A side problem restricts one axis to span(W), W with orthonormal
    columns, and keeps the other in full: sum_t c_t A_t (x) (W^T B_t W), with
    B_t the restricted axis's factors.  Its k lowest pairs come from the
    band, Cholesky and ``eigsh`` of ``_shifted_inverse``, and each vector,
    an (n, R) grid X, lifts to the full space as X W^T.  The first side
    restricts p to W.  Once every lifted pair passes the residual gate they
    are returned; otherwise the next side restricts the axis just solved in
    full to the leading left singular vectors of the k grids X side by side
    (``_RANK_TAIL``), and keeps W's axis in full.  R is raised to
    k // n + 1 where needed, so that k < n R, and at most to the axis's
    size, where the side problem is A_sym in a rotated basis.
    """
    axis, rank = 1, _RANK_START  # axis: the one restricted to span(W)
    for _ in range(_MAX_SIDES):
        n = A_sym.ps.shape[1 - axis]
        W = W[:, :min(W.shape[1], max(rank, k // n + 1))]
        terms = []
        for t in A_sym.terms:
            factors = (t.q_matrix, t.p_matrix)
            terms.append((t.coeff, factors[1 - axis], W.T @ factors[axis] @ W))
        inv = _shifted_inverse(terms, sigma)
        # A fixed start vector, drawn as ARPACK draws its own, makes runs
        # repeatable.
        v0 = np.random.default_rng(0).uniform(-1.0, 1.0, inv.shape[0])
        try:
            nu, X = spla.eigsh(inv, k=k, which="LA", v0=v0)
        except spla.ArpackNoConvergence as exc:
            raise NumericalError(
                "shift-invert eigensolver did not converge",
                diagnostic={"converged_eigenvalues":
                            getattr(exc, "eigenvalues", None)},
            ) from exc
        # the largest nu = 1 / (lam - sigma) first
        order = np.argsort(-nu, kind="stable")
        lam = sigma + 1.0 / nu[order]
        X = np.take(X, order, axis=1).T.reshape(k, n, -1)
        grids = X @ W.T
        V = (grids if axis else grids.transpose(0, 2, 1)).reshape(k, -1).T
        resid = np.array([np.linalg.norm(A_sym.apply(v) - e * v)
                          for e, v in zip(lam, V.T)])
        if np.all(resid <= 1e-8):
            return lam, V
        U, s, _ = np.linalg.svd(X.transpose(1, 0, 2).reshape(n, -1),
                                full_matrices=False)
        tail = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]
        W, axis = U, 1 - axis
        rank = int(np.sum(tail > _RANK_TAIL * tail[0])) + 2
    worst = int(np.argmax(resid))
    raise NumericalError(
        "stationary eigenpair residual too large",
        diagnostic={"eigenvalue": float(lam[worst]),
                    "residual": float(resid[worst])},
    )


def _splits(A_sym: AssembledOperator, A_anti: AssembledOperator, k: int):
    """Yields (line, split) for the k lowest eigenpairs of A_sym, then for k
    grown by a quarter (at least 2) each time the caller asks again.

    A two-sided eigenfield, H*W = E'W and W*H = E''W, has A_sym W =
    ((E' + E'')/2) W and A_anti W = (i/hbar)(E'' - E') W (Curtright,
    Fairlie & Zachos, PRD 58, 025002, 1998).  So the k lowest eigenpairs of
    A_sym span the fields below lambda_{k-1}, and ``_split_subspace`` reads
    them off: A_sym alone does not separate |m><n| from a diagonal state of
    nearby level, nor A_anti the equal gaps of the oscillator; together they
    do.  Only the eigenvectors below the widest gap above line =
    lambda_{k-1} - ``_MARGIN`` (lambda_{k-1} - lambda_0) are split, and a
    caller keeps a split once the highest level it takes lies at or below
    the line.

    The k lowest eigenvectors lie in span(U) (x) span(V) with U and V of
    about 20 columns whatever the grid, so ``_lowest_pairs`` finds them by
    alternating Rayleigh-Ritz on that Tucker-2 form (the alternating linear
    scheme, Holtz, Rohwedder & Schneider, SIAM J. Sci. Comput. 34, A683,
    2012), each side problem by ARPACK's shift-invert at sigma =
    ``_spectrum_floor``.  Its band is 8 (u + 1) n R bytes for u about
    (2 b + 1) R, with b the factors' periodic half-bandwidth (b = 8 at order
    10; 5 to 9 MB at 64x64 and 20 to 64 MB at 256x256 for the quartic),
    where A_sym's own band would take 34 MB at 64x64 and 2.2 GB at 256x256.  The factor exists only
    when sigma lies below every level of the side problem, whose levels lie
    at or above A_sym's.  Every k starts from the same p basis and every
    side problem from the same vector rule, so runs repeat bit for bit.

    Raises NumericalError when k >= dim, the first k before any band is
    written; when a side problem less sigma I is not positive definite; when
    ARPACK does not converge; or when, after ``_MAX_SIDES`` side problems,
    the residual ||A_sym v - lambda v|| of a lifted unit vector v still
    exceeds 1e-8.
    """
    n = A_sym.ps.dim
    start = None
    while k < n:
        if start is None:
            sigma = _spectrum_floor(A_sym)
            start = la.eigh(A_sym.ps.basis_p.moment_matrix(2))[1]
        lam, V = _lowest_pairs(A_sym, sigma, k, start)
        line = lam[-1] - _MARGIN * (lam[-1] - lam[0])
        top = np.searchsorted(lam, line)
        keep = top + int(np.argmax(np.diff(lam[top - 1:])))
        yield line, _split_subspace(A_anti, lam[:keep], V[:, :keep])
        k += max(2, k // 4)
    raise NumericalError(
        f"{k} eigenpairs are needed, but the basis has dim = {n}",
        diagnostic={"eigenpairs": k, "dim": n},
    )


def first_subspace(n_states: int) -> int:
    """The k of the first ``_splits`` subspace of an n-state stationary
    solve, n(2n - 1) + 2: n(2n - 1) is the count of the oscillator's pair
    levels (E_m + E_n)/2 <= E_{n-1}, the densest spectrum among the tests."""
    return n_states * (2 * n_states - 1) + 2


def _lowest_states(A_sym: AssembledOperator, A_anti: AssembledOperator,
                   n_states: int) -> tuple:
    """(states, split, line) of ``stationary_eigen`` for one pair."""
    for line, split in _splits(A_sym, A_anti, first_subspace(n_states)):
        chosen = np.flatnonzero(split.diagonal)[:n_states]
        if len(chosen) == n_states and split.eps[chosen[-1]] <= line:
            break
    s = A_sym.ps.integration_functional()
    out = []
    for n, i in enumerate(chosen):
        eps, W = float(split.eps[i]), split.field(A_sym.ps, i)
        integral = float(s @ W.coeffs)
        weight = integral / np.linalg.norm(W.coeffs)
        if weight < _INTEGRAL_FLOOR:
            raise NumericalError(
                f"stationary state {n} at eps = {eps:.6g} is off-diagonal "
                f"(|integral| = {weight:.3g} ||W||): A_sym's subspace does "
                "not resolve the pairs |m><n| near this level from the "
                "diagonal states; refine the basis or ask for fewer states",
                diagnostic={"eigenvalue": eps, "integral_weight": weight},
            )
        out.append((eps, CoefficientField(ps=W.ps, coeffs=W.coeffs / integral)))
    return out, split, line


def stationary_eigen(A_sym: AssembledOperator, A_anti: AssembledOperator,
                     n_states: int, coarser=None) -> Spectrum:
    """Lowest diagonal stationary states (eps, field) of the stationary pair,
    in a ``Spectrum`` that also lists the split's pairs (E', E'') and how far
    the states moved from those of ``coarser``.

    Diagonal Wigner functions solve both H*W = EW and W*H = EW, so with the
    pair of ``assemble_stationary_pair`` a real eigenfield has A_sym W = EW
    and A_anti W = 0.  They are the diagonal fields of ``_splits``, from
    k = ``first_subspace(n)`` for n states.  Each field has unit total
    integral.

    ``coarser``, the same pair on j_fine - 1 or None, is solved first so its
    bands are freed before the run's own are written; ``level_change`` and
    ``field_change`` are nan when it is None or its solve raises NumericalError.

    Raises NumericalError where ``_splits`` does, or when a returned field
    carries |integral| < 0.5 ||W||: the subspace did not resolve the pairs
    near that level, as at a near-degenerate doublet (a double well's
    tunnelling pair) on a coarse basis.
    """
    if n_states < 1:
        raise ContractError("n_states must be >= 1")
    try:
        coarse = coarser and _lowest_states(*coarser, n_states)[0]
    except NumericalError:
        coarse = None
    return Spectrum(*_lowest_states(A_sym, A_anti, n_states), coarse=coarse)


def _embedding_difference(coarse: CoefficientField, fine: CoefficientField) -> float:
    """L2 distance after zero-pad embedding of the coarse multiscale vector;
    ContractError unless both bases share j_coarse, the frame it lines up."""
    ps_c, ps_f = coarse.ps, fine.ps
    if ps_c.j_coarse != ps_f.j_coarse:
        raise ContractError("cannot embed a field in a basis with another "
                            "j_coarse: the multiscale frames differ")
    ms_c = ps_c.as_grid(ps_c.to_multiscale(coarse.coeffs))
    ms_f = ps_f.as_grid(ps_f.to_multiscale(fine.coeffs))
    pad = np.zeros_like(ms_f)
    pad[: ms_c.shape[0], : ms_c.shape[1]] = ms_c
    return float(np.linalg.norm(ms_f - pad))


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
