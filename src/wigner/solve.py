"""Time evolution by the one integrator, the implicit midpoint stepper;
stationary/two-sided eigenproblems, level refinement, and scale decomposition
of coefficient fields."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse.linalg as spla

from .assembly import AssembledOperator, OperatorTerm, PhaseSpaceBasis
from .errors import (
    AbortedEvolutionError,
    ConfigurationError,
    ContractError,
    NumericalError,
)


@dataclass
class CoefficientField:
    """A Wigner field as a flat coefficient vector on a phase-space basis.

    Coefficients are real for physical fields; complex entries are permitted
    for off-diagonal two-sided eigenfields.
    """

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
        if not np.all(np.isfinite(self.coeffs)):
            raise ContractError("coefficient vector contains non-finite entries")

    def copy(self) -> "CoefficientField":
        return CoefficientField(ps=self.ps, coeffs=self.coeffs.copy(), time=self.time)


@dataclass(frozen=True)
class EvolutionConfig:
    dt: float = 0.01
    t_end: float = 1.0
    scheme: str = "implicit_midpoint"
    store_every: int = 1

    def __post_init__(self):
        bad = []
        if not self.dt > 0:
            bad.append("dt must be positive")
        if not self.t_end >= 0:
            bad.append("t_end must be non-negative")
        if self.scheme != "implicit_midpoint":
            bad.append("scheme must be implicit_midpoint, the one time "
                       f"integrator (got {self.scheme!r})")
        if not self.store_every >= 1:
            bad.append("store_every must be >= 1")
        if bad:
            raise ConfigurationError("; ".join(bad))


@dataclass
class RefinementReport:
    levels_tried: list            # (level, ||W^{N+1} - W^N||) pairs
    accepted_level: int
    converged: bool
    monotone: bool


def _step_count(cfg: EvolutionConfig):
    n_full = int(np.floor(cfg.t_end / cfg.dt + 1e-12))
    remainder = cfg.t_end - n_full * cfg.dt
    if remainder < 1e-12 * max(1.0, cfg.t_end):
        remainder = 0.0
    return n_full, remainder


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
    """inv(I - h sum_t symbol_t[k] factor_t) for every Fourier mode k."""
    n = factors[0].shape[0]
    M = np.eye(n) - h * np.einsum("tk,tij->kij", np.array(symbols),
                                  np.array(factors))
    return np.linalg.inv(M)


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

    The stored states are a copy of W0, every ``store_every``-th step and the
    last step.  Each is built as one ``CoefficientField`` when it is reached
    and handed to ``store(field)`` if given; no other field is constructed
    and none is kept, so memory does not grow with the step count.  The
    benchmark times the steps by counting these constructions, so ``store``
    must build no field itself.  A step whose norm is not finite or exceeds
    1e6 times the initial one raises AbortedEvolutionError carrying the last
    stored state.
    """
    if L.ps is not W0.ps and L.ps != W0.ps:
        raise ContractError("operator and initial field live on different bases")

    n_full, remainder = _step_count(cfg)
    steppers = {cfg.dt: _MidpointStepper(L, cfg.dt)}
    if remainder > 0.0:
        steppers[remainder] = _MidpointStepper(L, remainder)

    norm0 = max(np.linalg.norm(W0.coeffs), 1e-300)
    last = W0.copy()
    if store is not None:
        store(last)
    c = W0.coeffs.astype(float).copy()
    t = W0.time
    dts = [cfg.dt] * n_full + ([remainder] if remainder > 0.0 else [])
    for i, dt in enumerate(dts):
        c = steppers[dt].step(c)
        t += dt
        norm = np.linalg.norm(c)
        if not np.isfinite(norm) or norm > 1e6 * norm0:
            raise AbortedEvolutionError(
                f"evolution unstable at t={t:.6g} (norm ratio {norm / norm0:.3e})",
                last_state=last,
                diagnostic={"t": t, "norm_ratio": float(norm / norm0)},
            )
        is_last = i == len(dts) - 1
        if is_last or (i + 1) % cfg.store_every == 0:
            last = CoefficientField(ps=W0.ps, coeffs=c.copy(), time=t)
            if store is not None:
                store(last)
    return last


# ---------------------------------------------------------------------------
# eigenproblems
# ---------------------------------------------------------------------------

# Weight of the commutation penalty A_anti^T A_anti.  On an off-diagonal
# eigenfield |m><n| A_anti acts as (i/hbar)(E_n - E_m), so the penalty lifts
# it by 10 ((E_m - E_n) / hbar)^2 at any hbar.
_PENALTY = 10.0

# Smallest |integral| / ||W|| accepted for a diagonal state; off-diagonal
# eigenfields integrate to zero.
_INTEGRAL_FLOOR = 0.5


def _penalty_operator(A_sym: AssembledOperator,
                      A_anti: AssembledOperator) -> AssembledOperator:
    """P = A_sym + 10 A_anti^T A_anti as real Kronecker terms."""
    penalty = [OperatorTerm(f"penalty_{a.tag}_{b.tag}", _PENALTY * a.coeff * b.coeff,
                            a.q_matrix.T @ b.q_matrix, a.p_matrix.T @ b.p_matrix)
               for a in A_anti.terms for b in A_anti.terms]
    return AssembledOperator(ps=A_sym.ps, terms=A_sym.terms + penalty)


def _spectrum_floor(op: AssembledOperator) -> float:
    """Lowest eigenvalue of op's q-only part, the terms whose p factor is 1.

    For A_sym, and for the penalty P built on it, that part is
    U(q) - (hbar^2/8m) d^2/dq^2: a particle of mass 4m, whose ground level
    lies below the ground level E_0 of mass m.  A_sym's levels are
    (E_m + E_n)/2 >= E_0, and the penalty only adds, so this is a shift below
    the spectrum and close to its bottom.  It is not a bound for the
    discretized operator: ``_lowest_eigenpairs`` checks it.
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


def _shifted_band(op: AssembledOperator, sigma: float):
    """Upper band of the symmetric part of op - sigma I, both axes in
    folded order.

    Returns (ab, perm): ab[u + r - c, c] is entry (r, c), r <= c, of the
    folded matrix, whose flat index r is op's index perm[r]; ab is Fortran-
    ordered LAPACK upper band storage of half-bandwidth u = b_q n_p + b_p,
    with b_q, b_p the folded half-bandwidths of the q and p factors.  The
    band is written from the Kronecker terms, one q-block offset at a time,
    and no dim x dim array is made.  A_sym is exactly symmetric, but the
    penalty P only to the roundoff of its factor products (9e-17 relative
    on the 32x32 order-10 quartic); the band of (op + op^T) / 2 is
    symmetric by construction, whichever triangle LAPACK reads.
    """
    nq, n_p = op.ps.shape
    fq, fp = _folded_order(nq), _folded_order(n_p)
    Qs = np.stack([0.5 * t.coeff * t.q_matrix[np.ix_(fq, fq)] for t in op.terms])
    Bs = np.stack([t.p_matrix[np.ix_(fp, fp)] for t in op.terms])
    # each term and its transpose: the band of (op + op^T) / 2
    Qs = np.concatenate([Qs, Qs.transpose(0, 2, 1)])
    Bs = np.concatenate([Bs, Bs.transpose(0, 2, 1)])
    bq, bp = _half_bandwidth(Qs), _half_bandwidth(Bs)
    u = bq * n_p + bp
    ab = np.zeros((u + 1, nq * n_p), order="F")
    # ab's Fortran-order flat index of entry (r, c) is u (c + 1) + r, so the
    # n_p x n_p blocks (iq, iq + dq), entry (j, l) at row iq n_p + j and
    # column (iq + dq) n_p + l, form one strided view per offset dq.  Only
    # entries at distance dq n_p + l - j in [0, u] above the diagonal lie in
    # the band; the others alias band storage and are not written.
    flat = ab.reshape(-1, order="F")
    step = ab.itemsize
    j, l = np.divmod(np.arange(n_p * n_p).reshape(n_p, n_p), n_p)
    Bs = Bs.reshape(len(Bs), -1)
    for dq in range(bq + 1):
        blocks = (Qs.diagonal(dq, axis1=1, axis2=2).T @ Bs).reshape(-1, n_p, n_p)
        view = np.lib.stride_tricks.as_strided(
            flat[u * (dq * n_p + 1):], shape=blocks.shape,
            strides=(n_p * (u + 1) * step, step, u * step))
        d = dq * n_p + l - j
        keep = (d >= 0) & (d <= u)
        if keep.all():  # every 0 < dq < b_q; twice as fast as a masked write
            view[...] = blocks
        else:
            view[:, keep] = blocks[:, keep]
    ab[u] -= sigma
    return ab, (fq[:, None] * n_p + fp).reshape(-1)


def _shifted_inverse(op: AssembledOperator, sigma: float):
    """v -> (op - sigma I)^-1 v by a banded Cholesky factor of ``_shifted_band``.

    Raises NumericalError when op - sigma I is not positive definite, that is
    when op has a level below sigma.
    """
    ab, perm = _shifted_band(op, sigma)
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

    return solve


def _lowest_eigenpairs(op: AssembledOperator, k: int):
    """The k lowest eigenpairs (ascending values, unit columns of V) of A_sym
    or its penalty P: the one eigen path of stationary, refine and moyal runs.

    op - sigma I, with sigma the lowest level of op's q-only part
    (``_spectrum_floor``), is written as a band in folded axis order
    (``_shifted_band``) and Cholesky-factorized in place
    (``_shifted_inverse``).  The band takes 8 (u + 1) dim bytes for
    half-bandwidth u = 2 b_q n_p + 2 b_p, where b_q, b_p are the factors'
    periodic half-bandwidths: 68 MB at 64x64 and 541 MB at 128x128 for the
    order-10 penalty.  That factor exists only when sigma lies below every
    eigenvalue of op, so ARPACK's shift-invert with the banded solve as
    OPinv (the k eigenvalues nearest sigma, from a fixed start vector, so
    runs repeat bit for bit) returns the lowest pairs.

    Raises NumericalError when k >= dim, when op - sigma I is not positive
    definite, when ARPACK does not converge, or when a residual
    ||op v - lambda v|| / ||v|| exceeds 1e-8.
    """
    n = op.ps.dim
    if k >= n:
        raise NumericalError(
            f"{k} eigenpairs are needed, but the basis has dim = {n}",
            diagnostic={"eigenpairs": k, "dim": n},
        )
    sigma = _spectrum_floor(op)
    solve = _shifted_inverse(op, sigma)
    A = spla.LinearOperator((n, n), matvec=op.apply, dtype=float)
    inv = spla.LinearOperator((n, n), matvec=solve, dtype=float)
    # A fixed start vector, drawn as ARPACK draws its own, makes runs repeatable.
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, n)
    try:
        vals, vecs = spla.eigsh(A, k=k, sigma=sigma, which="LM", v0=v0,
                                OPinv=inv)
    except spla.ArpackNoConvergence as exc:
        raise NumericalError(
            "shift-invert eigensolver did not converge",
            diagnostic={"converged_eigenvalues": getattr(exc, "eigenvalues", None)},
        ) from exc
    # np.take keeps eigsh's row-major V (a fancy index would not), and the
    # last bits of a column's dot products depend on its stride.
    order = np.argsort(vals)
    vals, vecs = vals[order], np.take(vecs, order, axis=1)
    for lam, v in zip(vals, vecs.T):
        resid = np.linalg.norm(op.apply(v) - lam * v) / np.linalg.norm(v)
        if resid > 1e-8:
            raise NumericalError(
                "stationary eigenpair residual too large",
                diagnostic={"eigenvalue": float(lam), "residual": float(resid)},
            )
    return vals, vecs


def stationary_eigen(A_sym: AssembledOperator, A_anti: AssembledOperator,
                     n_states: int) -> list:
    """Lowest diagonal stationary states (eps, field) of the stationary pair.

    Diagonal Wigner functions solve both H*W = EW and W*H = EW, so with the
    pair of ``assemble_stationary_pair`` a real eigenfield has A_sym W = EW
    and A_anti W = 0 (Curtright, Fairlie & Zachos, PRD 58, 025002, 1998).
    The states are the n_states lowest of the n_states + 2 eigenpairs that
    ``_lowest_eigenpairs`` finds for the real symmetric penalty
    P = A_sym + 10 A_anti^T A_anti, which lifts an off-diagonal |m><n| by
    10 ((E_m - E_n) / hbar)^2.  Each field has unit total integral.

    Raises NumericalError where ``_lowest_eigenpairs`` does, or when a
    returned field carries |integral| < 0.5 ||W||: a pair |m><n| lies below
    a requested level, as a near-degenerate doublet (a double well's
    tunnelling pair) does, or |0><1| of the oscillator (at 11 hbar) once 12
    states are asked for.
    """
    if n_states < 1:
        raise ContractError("n_states must be >= 1")
    ps = A_sym.ps
    vals, vecs = _lowest_eigenpairs(_penalty_operator(A_sym, A_anti), n_states + 2)
    s = ps.integration_functional()
    out = []
    for i in range(n_states):
        v, eps = vecs[:, i], float(vals[i])
        norm = np.linalg.norm(v)
        integral = float(s @ v)
        if abs(integral) < _INTEGRAL_FLOOR * norm:
            raise NumericalError(
                f"stationary state {i} at eps = {eps:.6g} is off-diagonal "
                f"(|integral| = {abs(integral) / norm:.3g} ||W||): the penalty "
                "lifts a pair |m><n| by only 10 ((E_m - E_n) / hbar)^2, which "
                "leaves it below this level; ask for fewer states",
                diagnostic={"eigenvalue": eps,
                            "integral_weight": float(abs(integral) / norm)},
            )
        out.append((eps, CoefficientField(ps=ps, coeffs=v / integral)))
    return out


def moyal_eigen(A_sym: AssembledOperator, A_anti: AssembledOperator,
                pairs: int, hbar: float) -> list:
    """Joint eigenfields (E', E'', field) of the two-sided stationary system.

    A two-sided eigenfield, H*W = E'W and W*H = E''W, has A_sym W =
    ((E' + E'')/2) W and A_anti W = (i/hbar)(E'' - E') W.  ``_lowest_eigenpairs``
    gives the k = 2 pairs + 2 lowest eigenpairs (lambda_i, v_i) of A_sym, and
    K = V^T A_anti V couples them.  A_sym splits |m><n| from |n><m| only by
    discretization error, while A_anti couples them by (E_n - E_m)/hbar, so
    the pairs are read off runs of consecutive eigenvalues: v_i joins the
    current run when its largest |K| with a run member is at least
    lambda_i - lambda_{i-1}.  The antisymmetric part of K on a run has
    eigenvalues i y, which give E'' - E' = hbar y about the run's mean
    eigenvalue.  Pairs come in ascending runs, each run's in ascending y.

    Raises NumericalError where ``_lowest_eigenpairs`` does, and when a
    requested pair falls in the run that reaches v_{k-1}, which may go on
    above it.
    """
    if pairs < 1:
        raise ContractError("pairs must be >= 1")
    k = 2 * pairs + 2
    lam, V = _lowest_eigenpairs(A_sym, k)
    K = V.T @ np.column_stack([A_anti.apply(v) for v in V.T])
    out, start = [], 0
    for i in range(1, k + 1):
        if i < k and np.max(np.abs(K[i, start:i])) >= lam[i] - lam[i - 1]:
            continue
        if i == k:
            raise NumericalError(
                f"stationary pair {len(out)} lies in the run of A_sym levels "
                f"from {lam[start]:.6g} that reaches the {k}-th level, which "
                "may go on above it",
                diagnostic={"requested": pairs, "found": len(out)},
            )
        run, start = slice(start, i), i
        lam_bar = float(np.mean(lam[run]))
        Kr = K[run, run]
        mu, u = np.linalg.eig(0.5 * (Kr - Kr.T))
        for j in np.argsort(mu.imag):
            y = float(mu[j].imag)
            vec = V[:, run] @ u[:, j]
            if abs(y) < 1e-10 and np.max(np.abs(vec.imag)) < 1e-8:
                vec = vec.real.copy()
            out.append((lam_bar - 0.5 * hbar * y, lam_bar + 0.5 * hbar * y,
                        CoefficientField(ps=A_sym.ps, coeffs=vec)))
            if len(out) == pairs:
                return out


# ---------------------------------------------------------------------------
# refinement and scale splits
# ---------------------------------------------------------------------------

def refine_until(solve_at_level, epsilon: float, n_max: int,
                 n_min: int) -> tuple:
    """Refine from level n_min until ||W^{N+1} - W^N|| <= epsilon in the
    coefficient L2 norm, or until level n_max.

    ``solve_at_level(N)`` must return a CoefficientField on a basis with
    j_fine = N; successive fields are compared after zero-pad embedding of
    the coarser multiscale coefficients into the finer basis.
    """
    if epsilon <= 0:
        raise ContractError("epsilon must be positive")
    prev = None
    prev_level = None
    tried = []
    diffs = []
    for N in range(n_min, n_max + 1):
        cur = solve_at_level(N)
        if prev is not None:
            diff = _embedding_difference(prev, cur)
            tried.append((N, diff))
            diffs.append(diff)
            if diff <= epsilon:
                report = RefinementReport(
                    levels_tried=tried, accepted_level=N,
                    converged=True, monotone=_nonincreasing(diffs))
                return cur, report
        prev, prev_level = cur, N
    report = RefinementReport(
        levels_tried=tried, accepted_level=prev_level,
        converged=False, monotone=_nonincreasing(diffs))
    return prev, report


def _nonincreasing(seq) -> bool:
    return all(b <= a * (1 + 1e-12) for a, b in zip(seq, seq[1:]))


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
