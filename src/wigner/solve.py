"""Time evolution, stationary/two-sided eigenproblems, level refinement, and
scale decomposition of coefficient fields."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import AssembledOperator, OperatorTerm, PhaseSpaceBasis
from .errors import (
    AbortedEvolutionError,
    ConfigurationError,
    ContractError,
    NumericalError,
)

logger = logging.getLogger(__name__)


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

    @property
    def grid(self) -> np.ndarray:
        return self.ps.as_grid(self.coeffs)

    def total_integral(self) -> float:
        out = self.ps.integration_functional() @ self.coeffs
        return complex(out).real if np.iscomplexobj(self.coeffs) else float(out)

    def l2_norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


@dataclass(frozen=True)
class EvolutionConfig:
    dt: float
    t_end: float
    scheme: str = "implicit_midpoint"
    renormalize: bool = False
    store_every: int = 1

    def __post_init__(self):
        if self.dt <= 0:
            raise ConfigurationError("dt must be positive")
        if self.t_end < 0:
            raise ConfigurationError("t_end must be non-negative")
        if self.scheme not in ("implicit_midpoint", "explicit_rk4"):
            raise ConfigurationError(
                f"unknown scheme {self.scheme!r}; "
                "choose implicit_midpoint or explicit_rk4"
            )
        if self.store_every < 1:
            raise ConfigurationError("store_every must be >= 1")


@dataclass
class RefinementReport:
    levels_tried: list            # (level, ||W^{N+1} - W^N||) pairs
    accepted_level: int
    epsilon: float
    converged: bool
    monotone: bool


def estimated_spectral_radius(L: AssembledOperator, iterations: int = 80,
                              seed: int = 0) -> float:
    """Power-iteration estimate of the largest eigenvalue magnitude of L."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=L.ps.dim) + 1j * rng.normal(size=L.ps.dim)
    v /= np.linalg.norm(v)
    rho = 0.0
    for _ in range(iterations):
        w = L.apply(v)
        n = np.linalg.norm(w)
        if n == 0.0:
            return 0.0
        rho = n
        v = w / n
    return float(rho)


def _step_count(cfg: EvolutionConfig):
    n_full = int(np.floor(cfg.t_end / cfg.dt + 1e-12))
    remainder = cfg.t_end - n_full * cfg.dt
    if remainder < 1e-12 * max(1.0, cfg.t_end):
        remainder = 0.0
    return n_full, remainder


def _rk4_step(apply_op, c, dt):
    k1 = apply_op(c)
    k2 = apply_op(c + 0.5 * dt * k1)
    k3 = apply_op(c + 0.5 * dt * k2)
    k4 = apply_op(c + dt * k3)
    return c + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# Defect corrections a midpoint step may take after its first preconditioned
# solve before the stepper falls back to the sparse LU.  At 64x64 one
# correction costs about 0.75 ms and one LU solve about 8.8 ms (after a
# 1.5-2 s factorization), so past about 12 corrections per step the LU steps
# faster.
_MAX_CORRECTIONS = 12
# Relative residual ||b - (I - hL) x|| / ||b|| at which a step has converged.
_STEP_TOL = 1e-12


def _circulant_symbol(A: np.ndarray):
    """Eigenvalues of A in ``rfft`` order if A is exactly circulant, else None."""
    n = A.shape[0]
    col = A[:, 0]
    if not np.array_equal(A, col[(np.arange(n)[:, None] - np.arange(n)) % n]):
        return None
    return np.fft.rfft(col)


def _circulant_split(L: AssembledOperator):
    """L's terms as (T, F) lists of (symbol, other factor), or None.

    T holds the terms whose q factor is circulant, F the rest, whose p factor
    must be; None when L is complex or a term has neither.
    """
    if L.is_complex:
        return None
    T, F = [], []
    for t in L.terms:
        sym = _circulant_symbol(t.q_matrix)
        if sym is not None:
            T.append((t.coeff * sym, t.p_matrix))
            continue
        sym = _circulant_symbol(t.p_matrix)
        if sym is None:
            return None
        F.append((t.coeff * sym, t.q_matrix))
    return T, F


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
    approximate factorization P = (I - hT)(I - hF) inverts exactly: an
    ``rfft`` along q turns I - hT into one n_p x n_p matrix per q-mode, an
    ``rfft`` along p turns I - hF into one n_q x n_q matrix per p-mode, and
    both sets are inverted once here.  A step runs the defect correction
    x <- x + P^-1 (b - x + hLx) from x = 0, with Lx applied from the
    Kronecker factors as two stacked GEMMs, until ||b - x + hLx|| <= 1e-12
    ||b||.  Neither L's sparse matrix nor an LU is built.

    The stepper falls back to a sparse LU of I - hL (``splu``) when L is
    complex or a term has no circulant factor, and, from then on, when a step
    has not converged after ``_MAX_CORRECTIONS`` corrections (stiff steps,
    such as a quartic force at dt = 0.05 on 64x64).
    """

    def __init__(self, L: AssembledOperator, dt: float):
        self.L = L
        self.h = dt / 2.0
        self.lu = None
        split = _circulant_split(L)
        if split is None:
            logger.info("midpoint stepper: L is complex or a term has no "
                        "circulant factor; using the sparse LU")
            self._factor()
            return
        T, F = split
        self._inv_T = _mode_inverses(self.h, *zip(*T)) if T else None
        self._inv_F = _mode_inverses(self.h, *zip(*F)) if F else None
        # Terms sharing a q factor add their p factors: one GEMM block each.
        blocks = []
        for t in L.terms:
            for blk in blocks:
                if np.array_equal(blk[0], t.q_matrix):
                    blk[1] = blk[1] + t.coeff * t.p_matrix
                    break
            else:
                blocks.append([t.q_matrix, t.coeff * t.p_matrix])
        self._Q = np.concatenate([q for q, _ in blocks], axis=1) if blocks else None
        self._Bt = np.concatenate([b.T for _, b in blocks], axis=1) if blocks else None

    def _factor(self):
        M = self.L.matrix()
        eye = sp.identity(M.shape[0], format="csc", dtype=M.dtype)
        self.rhs = (eye + self.h * M).tocsr()
        self.lu = spla.splu((eye - self.h * M).tocsc())

    def _apply_L(self, X):
        if self._Q is None:
            return np.zeros_like(X)
        nq, n_p = X.shape
        Y = (X @ self._Bt).reshape(nq, -1, n_p).transpose(1, 0, 2)
        return self._Q @ Y.reshape(-1, n_p)

    def _precondition(self, R):
        nq, n_p = R.shape
        if self._inv_T is not None:
            Rh = np.fft.rfft(R, axis=0)
            Rh = np.matmul(self._inv_T, Rh[:, :, None])[:, :, 0]
            R = np.fft.irfft(Rh, n=nq, axis=0)
        if self._inv_F is not None:
            Rh = np.fft.rfft(R, axis=1).T
            Rh = np.matmul(self._inv_F, Rh[:, :, None])[:, :, 0]
            R = np.fft.irfft(Rh.T, n=n_p, axis=1)
        return R

    def step(self, c):
        if self.lu is None:
            C = self.L.ps.as_grid(c)
            b = C + self.h * self._apply_L(C)
            tol = _STEP_TOL * np.linalg.norm(b)
            x = np.zeros_like(b)
            r = b
            # the first pass gives x = P^-1 b, each later one a correction
            for _ in range(1 + _MAX_CORRECTIONS):
                x = x + self._precondition(r)
                r = b - x + self.h * self._apply_L(x)
                if np.linalg.norm(r) <= tol:
                    return x.reshape(-1)
            logger.info("midpoint stepper: no convergence in %d corrections; "
                        "using the sparse LU", _MAX_CORRECTIONS)
            self._factor()
        return self.lu.solve(self.rhs @ c)


def evolve(W0: CoefficientField, L: AssembledOperator, cfg: EvolutionConfig,
           store=None) -> CoefficientField:
    """Integrate dW/dt = L W from W0 to t_end; returns the final field.

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
    if cfg.scheme == "explicit_rk4":
        rho = estimated_spectral_radius(L)
        dt_max = 2.8 / rho if rho > 0 else np.inf
        if cfg.dt > dt_max:
            raise ConfigurationError(
                f"dt={cfg.dt} exceeds the explicit stability bound "
                f"{dt_max:.3e} (estimated spectral radius {rho:.3e})"
            )
        steppers = {}
    else:
        steppers = {cfg.dt: _MidpointStepper(L, cfg.dt)}
        if remainder > 0.0:
            steppers[remainder] = _MidpointStepper(L, remainder)

    s = W0.ps.integration_functional()
    target = float(s @ W0.coeffs.real)
    norm0 = max(np.linalg.norm(W0.coeffs), 1e-300)
    max_drift = 0.0

    last = W0.copy()
    if store is not None:
        store(last)
    c = W0.coeffs.astype(float).copy()
    t = W0.time
    dts = [cfg.dt] * n_full + ([remainder] if remainder > 0.0 else [])
    for i, dt in enumerate(dts):
        if cfg.scheme == "explicit_rk4":
            c = _rk4_step(L.apply, c, dt)
        else:
            c = steppers[dt].step(c)
        t += dt
        norm = np.linalg.norm(c)
        if not np.isfinite(norm) or norm > 1e6 * norm0:
            raise AbortedEvolutionError(
                f"evolution unstable at t={t:.6g} (norm ratio {norm / norm0:.3e})",
                last_state=last,
                diagnostic={"t": t, "norm_ratio": float(norm / norm0)},
            )
        if cfg.renormalize:
            current = float(s @ c)
            if abs(current) > 1e-14:
                drift = abs(current - target) / max(abs(target), 1e-14)
                max_drift = max(max_drift, drift)
                c *= target / current
        is_last = i == len(dts) - 1
        if is_last or (i + 1) % cfg.store_every == 0:
            last = CoefficientField(ps=W0.ps, coeffs=c.copy(), time=t)
            if store is not None:
                store(last)
    if cfg.renormalize and max_drift > 0.0:
        level = logging.WARNING if max_drift > 1e-6 else logging.INFO
        logger.log(level, "renormalization drift up to %.3e over the run", max_drift)
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


def _spectrum_floor(P: AssembledOperator) -> float:
    """Lowest eigenvalue of P's q-only part, the terms whose p factor is 1.

    For a stationary operator that part is U(q) - (hbar^2/8m) d^2/dq^2: a
    particle of mass 4m, whose ground level lies below the ground level E_0
    of mass m.  A_sym's levels are (E_m + E_n)/2 >= E_0, and the penalty only
    adds, so this is a shift below P's spectrum and close to its bottom.  It
    is not a bound for the discretized P: ``stationary_eigen`` checks it.
    """
    nq, n_p = P.ps.shape
    Ip = np.eye(n_p)
    Q = np.zeros((nq, nq))
    for t in P.terms:
        if np.array_equal(t.p_matrix, Ip):
            Q += t.coeff * t.q_matrix
    return float(la.eigvalsh(0.5 * (Q + Q.T), subset_by_index=[0, 0])[0])


def _dense_real(P: AssembledOperator) -> np.ndarray:
    """P's float64 matrix, written from its Kronecker factors q-row by q-row."""
    nq, n_p = P.ps.shape
    Qs = np.stack([t.coeff * t.q_matrix for t in P.terms])
    Bs = np.stack([t.p_matrix for t in P.terms]).reshape(len(P.terms), n_p * n_p)
    out = np.empty((P.ps.dim, P.ps.dim))
    rows = out.reshape(nq, n_p, nq, n_p)
    for i in range(nq):
        rows[i] = (Qs[:, i, :].T @ Bs).reshape(nq, n_p, n_p).transpose(1, 0, 2)
    return out


def stationary_eigen(A_sym: AssembledOperator, A_anti: AssembledOperator,
                     n_states: int) -> list:
    """Lowest diagonal stationary states (eps, field) of the stationary pair.

    Diagonal Wigner functions solve both H*W = EW and W*H = EW, so with the
    pair of ``assemble_stationary_pair`` a real eigenfield has A_sym W = EW
    and A_anti W = 0 (Curtright, Fairlie & Zachos, PRD 58, 025002, 1998).
    The states are the lowest eigenpairs of the real symmetric penalty
    P = A_sym + 10 A_anti^T A_anti: an off-diagonal |m><n| is lifted by
    10 ((E_m - E_n) / hbar)^2, and no eigenfield has to be filtered out.

    P is written densely from the Kronecker factors into one float64 array.
    The shift sigma is the lowest level of P's q-only part (see
    ``_spectrum_floor``), and P - sigma I is Cholesky-factorized in place
    (8 dim^2 bytes: 134 MB at 64x64, 2.1 GB at 128x128).  That factorization
    exists only when sigma lies below every eigenvalue of P, so ARPACK's
    shift-invert (k = n_states + 2, the k eigenvalues nearest sigma, from a
    fixed start vector, so runs repeat bit for bit) returns the lowest
    states.  Each field is normalized to unit total integral.

    Raises NumericalError when n_states + 2 >= dim, when P - sigma I is not
    positive definite, when ARPACK does not converge, when a residual
    ||Pv - eps v|| / ||v|| exceeds 1e-8, or when a returned field carries
    |integral| < 0.5 ||W||.  The last happens when a pair |m><n|, at
    (E_m + E_n)/2 + 10 ((E_m - E_n) / hbar)^2, lies below a requested level:
    a near-degenerate doublet (a double well's tunnelling pair), or |0><1| of
    the oscillator (at 11 hbar) once 12 states are asked for.
    """
    if n_states < 1:
        raise ContractError("n_states must be >= 1")
    ps = A_sym.ps
    n = ps.dim
    k = n_states + 2
    if k >= n:
        raise NumericalError(
            f"{n_states} stationary states need n_states + 2 < dim = {n}",
            diagnostic={"requested": n_states, "dim": n},
        )
    P = _penalty_operator(A_sym, A_anti)
    sigma = _spectrum_floor(P)
    shifted = _dense_real(P)
    shifted.flat[::n + 1] -= sigma
    # shifted.T is Fortran-ordered, so LAPACK factors the one dense copy in
    # place; P is symmetric and only its upper triangle is read.
    try:
        factor = la.cho_factor(shifted.T, overwrite_a=True, check_finite=False)
    except la.LinAlgError as exc:
        raise NumericalError(
            f"the stationary penalty has a level below the shift {sigma:.6g}, "
            "so its lowest states cannot be located",
            diagnostic={"shift": sigma},
        ) from exc
    op = spla.LinearOperator((n, n), matvec=P.apply, dtype=float)
    inv = spla.LinearOperator((n, n), dtype=float,
                              matvec=lambda v: la.cho_solve(factor, v,
                                                            check_finite=False))
    # A fixed start vector, drawn as ARPACK draws its own, makes runs repeatable.
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, n)
    try:
        vals, vecs = spla.eigsh(op, k=k, sigma=sigma, which="LM", v0=v0,
                                OPinv=inv)
    except spla.ArpackNoConvergence as exc:
        raise NumericalError(
            "shift-invert eigensolver did not converge",
            diagnostic={"converged_eigenvalues": getattr(exc, "eigenvalues", None)},
        ) from exc
    s = ps.integration_functional()
    out = []
    for i in np.argsort(vals)[:n_states]:
        v, eps = vecs[:, i], float(vals[i])
        norm = np.linalg.norm(v)
        resid = np.linalg.norm(P.apply(v) - eps * v) / norm
        if resid > 1e-8:
            raise NumericalError(
                "stationary eigenpair residual too large",
                diagnostic={"eigenvalue": eps, "residual": float(resid)},
            )
        integral = float(s @ v)
        if abs(integral) < _INTEGRAL_FLOOR * norm:
            raise NumericalError(
                f"stationary state {len(out)} at eps = {eps:.6g} is off-diagonal "
                f"(|integral| = {abs(integral) / norm:.3g} ||W||): the penalty "
                "lifts a pair |m><n| by only 10 ((E_m - E_n) / hbar)^2, which "
                "leaves it below this level; ask for fewer states",
                diagnostic={"eigenvalue": eps,
                            "integral_weight": float(abs(integral) / norm)},
            )
        out.append((eps, CoefficientField(ps=ps, coeffs=v / integral)))
    return out


def moyal_eigen(A_sym: AssembledOperator, A_anti: AssembledOperator,
                pairs: int, hbar: float = 1.0,
                cluster_tol: float = 1e-5,
                commutator_tol: float = 1e-6) -> list:
    """Joint eigenfields (E', E'', field) of the two-sided stationary system.

    A_sym eigenvalues give (E' + E'')/2; within each (near-)degenerate
    cluster the restriction of A_anti is a small real antisymmetric matrix
    whose imaginary eigenvalues i*y give E'' - E' = hbar*y.  Raises
    NumericalError when the basis holds fewer than ``pairs`` pairs.
    """
    if pairs < 1:
        raise ContractError("pairs must be >= 1")
    Ms = A_sym.dense()
    Ma = A_anti.dense()
    lam, V = np.linalg.eigh(0.5 * (Ms + Ms.T))

    # cluster near-degenerate symmetric eigenvalues
    clusters = []
    start = 0
    scale = max(1.0, float(np.max(np.abs(lam))))
    for i in range(1, lam.size + 1):
        if i == lam.size or lam[i] - lam[i - 1] > cluster_tol * scale:
            clusters.append(slice(start, i))
            start = i
    clusters.sort(key=lambda sl: lam[sl.start])

    out = []
    comm_norm = 0.0
    for sl in clusters:
        W = V[:, sl]
        lam_bar = float(np.mean(lam[sl]))
        K = W.T @ (Ma @ W)
        # commutator of the pair restricted to this resolved cluster
        comm_norm = max(comm_norm, float(np.linalg.norm(K + K.T)))
        K = 0.5 * (K - K.T)
        mu, u = np.linalg.eig(K)
        order = np.argsort(mu.imag)
        for j in order:
            y = float(mu[j].imag)
            vec = W @ u[:, j]
            e_lo = lam_bar - 0.5 * hbar * y
            e_hi = lam_bar + 0.5 * hbar * y
            if abs(y) < 1e-10 and np.max(np.abs(vec.imag)) < 1e-8:
                vec = vec.real.copy()
            out.append((e_lo, e_hi, CoefficientField(ps=A_sym.ps, coeffs=vec)))
            if len(out) == pairs:
                if comm_norm > commutator_tol:
                    logger.warning(
                        "pair operators do not commute on resolved clusters "
                        "(restricted commutator norm %.3e); eigenpairs are the "
                        "cluster-restricted joint diagonalization", comm_norm)
                return out
    raise NumericalError(
        f"{pairs} stationary pairs requested, but the basis holds {len(out)}",
        diagnostic={"requested": pairs, "found": len(out)},
    )


# ---------------------------------------------------------------------------
# refinement and scale splits
# ---------------------------------------------------------------------------

def _to_ms_2d(ps: PhaseSpaceBasis, coeffs: np.ndarray) -> np.ndarray:
    Tq = ps.basis_q.dwt_matrix
    Tp = ps.basis_p.dwt_matrix
    return (Tq @ ps.as_grid(coeffs) @ Tp.T).reshape(-1)


def _from_ms_2d(ps: PhaseSpaceBasis, ms: np.ndarray) -> np.ndarray:
    Tq = ps.basis_q.dwt_matrix
    Tp = ps.basis_p.dwt_matrix
    return (Tq.T @ ms.reshape(ps.shape) @ Tp).reshape(-1)


def refine_until(solve_at_level, epsilon: float, n_max: int,
                 n_min: int = None) -> tuple:
    """Refine until ||W^{N+1} - W^N|| <= epsilon in the coefficient L2 norm.

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
    start = n_min if n_min is not None else max(2, n_max - 4)
    for N in range(start, n_max + 1):
        cur = solve_at_level(N)
        if prev is not None:
            diff = _embedding_difference(prev, cur)
            tried.append((N, diff))
            diffs.append(diff)
            if diff <= epsilon:
                report = RefinementReport(
                    levels_tried=tried, accepted_level=N, epsilon=epsilon,
                    converged=True, monotone=_nonincreasing(diffs))
                return cur, report
        prev, prev_level = cur, N
    if not _nonincreasing(diffs):
        logger.warning("refinement differences were not monotone: %s", diffs)
    report = RefinementReport(
        levels_tried=tried, accepted_level=prev_level, epsilon=epsilon,
        converged=False, monotone=_nonincreasing(diffs))
    return prev, report


def _nonincreasing(seq) -> bool:
    return all(b <= a * (1 + 1e-12) for a, b in zip(seq, seq[1:]))


def _embedding_difference(coarse: CoefficientField, fine: CoefficientField) -> float:
    """L2 distance after zero-pad embedding of the coarse multiscale vector."""
    ps_c, ps_f = coarse.ps, fine.ps
    ms_c = _to_ms_2d(ps_c, coarse.coeffs).reshape(ps_c.shape)
    ms_f = _to_ms_2d(ps_f, fine.coeffs).reshape(ps_f.shape)
    pad = np.zeros_like(ms_f)
    pad[: ms_c.shape[0], : ms_c.shape[1]] = ms_c
    return float(np.linalg.norm(ms_f - pad))


def reconstruct_by_scale(W: CoefficientField, cut: int, top: int = None):
    """Split a field into a slow part (levels < cut) and per-level fast parts.

    Returns (slow, [fast_cut, ..., fast_top]); parts sum to the full field
    exactly by linearity of the orthogonal multiscale transform.
    """
    ps = W.ps
    lq = ps.basis_q.multiscale_levels()
    lp = ps.basis_p.multiscale_levels()
    finest = max(ps.basis_q.j_fine, ps.basis_p.j_fine) - 1
    coarsest = min(lq.min(), lp.min())
    if top is None:
        top = finest
    if not (coarsest <= cut <= finest + 1) or top > finest:
        raise ContractError(
            f"scale cut {cut}/{top} outside basis level range "
            f"[{coarsest}, {finest + 1}]"
        )
    labels = np.maximum.outer(lq, lp)
    ms = _to_ms_2d(ps, W.coeffs).reshape(ps.shape)

    def synth(mask):
        return CoefficientField(
            ps=ps, coeffs=_from_ms_2d(ps, (ms * mask).reshape(-1)), time=W.time)

    slow = synth(labels < cut)
    fast = []
    for lev in range(cut, top + 1):
        if lev == top:
            fast.append(synth(labels >= lev))
        else:
            fast.append(synth(labels == lev))
    return slow, fast
