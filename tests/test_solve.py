"""Time stepping, eigenproblems, refinement, scale splits."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from oracles import fd_schrodinger_levels, kron_dense, rk4_step

import wigner.solve
from wigner.assembly import (
    AssembledOperator,
    OperatorTerm,
    PhaseSpaceBasis,
    assemble_evolution,
    assemble_stationary_pair,
)
from wigner.basis import smallest_level
from wigner.errors import (
    AbortedEvolutionError,
    ConfigurationError,
    ContractError,
    NumericalError,
)
from wigner.model import ModelParams, parse_potential
from wigner.solve import (
    CoefficientField,
    EvolutionConfig,
    evolve,
    moyal_eigen,
    reconstruct_by_scale,
    refine_until,
    stationary_eigen,
    _MidpointStepper,
    _folded_order,
    _half_bandwidth,
    _shifted_band,
    _shifted_inverse,
    _spectrum_floor,
    _splits,
)

PARAMS = ModelParams()


def _field(ps, f):
    return CoefficientField(ps=ps, coeffs=ps.project(f))


# ---------------------------------------------------------------------------
# coefficient fields and configs
# ---------------------------------------------------------------------------

def test_field_validation(ps6):
    with pytest.raises(ContractError):
        CoefficientField(ps=ps6, coeffs=np.zeros(3))
    bad = np.zeros(ps6.dim)
    bad[0] = np.nan
    with pytest.raises(ContractError):
        CoefficientField(ps=ps6, coeffs=bad)


def test_evolution_config_validation():
    with pytest.raises(ConfigurationError):
        EvolutionConfig(dt=0.0, t_end=1.0)
    with pytest.raises(ConfigurationError):
        EvolutionConfig(dt=0.1, t_end=-1.0)
    with pytest.raises(ConfigurationError):
        EvolutionConfig(dt=0.1, t_end=1.0, scheme="euler")
    with pytest.raises(ConfigurationError):
        EvolutionConfig(dt=0.1, t_end=1.0, store_every=0)


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------

def test_evolve_zero_generator_is_identity(ps6, gaussian_field6):
    Z = AssembledOperator(ps=ps6, terms=[])
    final = evolve(gaussian_field6, Z, EvolutionConfig(dt=0.1, t_end=0.5))
    assert final.time == pytest.approx(0.5)
    np.testing.assert_allclose(final.coeffs, gaussian_field6.coeffs, atol=1e-13)


def test_evolve_linearity(ps6, gaussian_field6):
    L = assemble_evolution(ps6, parse_potential("0.5*q^2"), PARAMS)
    cfg = EvolutionConfig(dt=0.05, t_end=0.3)
    a = evolve(gaussian_field6, L, cfg).coeffs
    double = CoefficientField(ps=ps6, coeffs=2.0 * gaussian_field6.coeffs)
    b = evolve(double, L, cfg).coeffs
    np.testing.assert_allclose(b, 2.0 * a, atol=1e-12)


def test_midpoint_preserves_l2_for_antisymmetric_generator(ps6, gaussian_field6):
    """The midpoint rule is exactly norm-preserving for skew generators."""
    L = assemble_evolution(ps6, parse_potential("0"), PARAMS)  # pure transport
    final = evolve(gaussian_field6, L, EvolutionConfig(dt=0.05, t_end=1.0))
    n0 = np.linalg.norm(gaussian_field6.coeffs)
    assert abs(np.linalg.norm(final.coeffs) - n0) < 1e-16 + 1e-10 * n0


def test_remainder_step(ps6, gaussian_field6):
    L = assemble_evolution(ps6, parse_potential("0"), PARAMS)
    final = evolve(gaussian_field6, L, EvolutionConfig(dt=0.4, t_end=1.0))
    assert final.time == pytest.approx(1.0)


def test_store_every(ps6, gaussian_field6):
    L = assemble_evolution(ps6, parse_potential("0"), PARAMS)
    traj = []
    final = evolve(gaussian_field6, L,
                   EvolutionConfig(dt=0.1, t_end=1.0, store_every=5),
                   store=traj.append)
    assert [round(W.time, 10) for W in traj] == [0.0, 0.5, 1.0]
    assert final is traj[-1]


def test_evolve_memory_does_not_grow_with_stored_steps(ps6, gaussian_field6):
    """300 stored steps handed to a callback that drops them: the traced
    peak after the stepper's setup stays below 20 states (the list of every
    stored state held 301)."""
    L = _quartic_dissipative(ps6)
    state_bytes = 8 * ps6.dim
    seen = []

    def drop(W):
        if not seen:  # the copy of W0, after the steppers are built
            tracemalloc.reset_peak()
            seen.append(tracemalloc.get_traced_memory()[0])
        else:
            seen.append(None)

    tracemalloc.start()
    try:
        evolve(gaussian_field6, L,
               EvolutionConfig(dt=0.01, t_end=3.0, store_every=1), store=drop)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(seen) == 301
    assert peak - seen[0] < 20 * state_bytes


def test_evolve_memory_does_not_grow_with_the_step_count():
    """Up to the first stepped state of a 10^6-step run on a 16x16 basis the
    traced peak stays below 1 MB: no list of the steps' dt is made (16 MB
    with one)."""
    ps = PhaseSpaceBasis(order=6, j_coarse=3, j_fine=4,
                         q_min=-6.0, q_max=6.0, p_min=-6.0, p_max=6.0)
    L = _quartic_dissipative(ps)
    W0 = _offset_gaussian(ps)

    class FirstStep(Exception):
        pass

    def stop(W):
        if W.time > 0.0:
            raise FirstStep

    tracemalloc.start()
    try:
        with pytest.raises(FirstStep):
            evolve(W0, L, EvolutionConfig(dt=0.01, t_end=1e4), store=stop)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_rk4_matches_midpoint(ps6, gaussian_field6):
    """The midpoint stepper agrees with the reference RK4 integrator."""
    L = assemble_evolution(ps6, parse_potential("0.5*q^2"), PARAMS)
    dt = 2e-3
    c = gaussian_field6.coeffs.copy()
    for _ in range(50):
        c = rk4_step(L.apply, c, dt)
    b = evolve(gaussian_field6, L,
               EvolutionConfig(dt=dt, t_end=0.1))
    assert b.time == pytest.approx(0.1)
    assert np.max(np.abs(c - b.coeffs)) < 1e-8


def test_unstable_run_aborts(ps6, gaussian_field6):
    # growth generator: identity * large rate
    grow = AssembledOperator(ps=ps6, terms=[
        OperatorTerm("growth", 40.0, np.eye(ps6.basis_q.dim),
                     np.eye(ps6.basis_p.dim))])
    traj = []
    with pytest.raises(AbortedEvolutionError) as exc:
        evolve(gaussian_field6, grow, EvolutionConfig(dt=0.1, t_end=10.0),
               store=traj.append)
    assert exc.value.last_state is traj[-1]
    assert exc.value.diagnostic["norm_ratio"] > 1e6


def test_evolve_conserves_integral(ps6):
    """The generator conserves iint W term by term, so every stored state
    keeps the initial integral without any rescaling, friction included."""
    s = ps6.integration_functional()
    damped = ModelParams(gamma=0.2, diffusion=0.1)
    for expr, params, p0 in [("0.5*q^2", PARAMS, 0.0),
                             ("0.5*q^2 + 0.1*q^4", damped, 0.0),
                             ("0.5*q^2 + 0.1*q^4", damped, 2.0)]:
        L = assemble_evolution(ps6, parse_potential(expr), params)
        W0 = _field(ps6, lambda q, p: np.exp(-q ** 2 - (p - p0) ** 2) / np.pi)
        traj = []
        evolve(W0, L, EvolutionConfig(dt=0.05, t_end=0.5), store=traj.append)
        for W in traj:
            assert abs(s @ W.coeffs - s @ W0.coeffs) < 1e-12


def _spsolve_midpoint(L, c, dts):
    """Midpoint reference: one sparse direct solve of the materialized L per step."""
    M = L.matrix()
    eye = sp.identity(M.shape[0], format="csc")
    for dt in dts:
        c = spla.spsolve((eye - dt / 2 * M).tocsc(), (eye + dt / 2 * M) @ c)
    return c


def _quartic_dissipative(ps):
    return assemble_evolution(ps, parse_potential("0.5*q^2 + 0.1*q^4"),
                              ModelParams(gamma=0.05, diffusion=0.02))


def _refuse(*args, **kwargs):
    raise AssertionError("the matrix-free stepper built a sparse matrix or LU")


def test_midpoint_stepper_matches_spsolve_without_lu(ps6, gaussian_field6,
                                                     monkeypatch):
    """20 steps, the last a remainder, match the direct solves to 1e-10."""
    L = _quartic_dissipative(ps6)
    ref = _spsolve_midpoint(L, gaussian_field6.coeffs, [0.01] * 19 + [0.005])
    monkeypatch.setattr(spla, "splu", _refuse)
    monkeypatch.setattr(AssembledOperator, "matrix", _refuse)
    traj = []
    evolve(gaussian_field6, L, EvolutionConfig(dt=0.01, t_end=0.195),
           store=traj.append)
    assert len(traj) == 21 and traj[-1].time == pytest.approx(0.195)
    err = np.linalg.norm(traj[-1].coeffs - ref) / np.linalg.norm(ref)
    assert err < 1e-10


def _offset_gaussian(ps):
    return _field(ps, lambda q, p: np.exp(-(q - 0.5) ** 2 - p ** 2) / np.pi)


def _ps32():
    return PhaseSpaceBasis(order=6, j_coarse=3, j_fine=5,
                           q_min=-6.0, q_max=6.0, p_min=-6.0, p_max=6.0)


def test_midpoint_stepper_matches_spsolve_on_stiff_steps(monkeypatch):
    """dt = 0.05 at 32x32: from the third step on, more than 12 corrections
    per step, still without any sparse matrix or LU."""
    ps = _ps32()
    L = _quartic_dissipative(ps)
    W0 = _offset_gaussian(ps)
    ref = _spsolve_midpoint(L, W0.coeffs, [0.05] * 10)
    monkeypatch.setattr(spla, "splu", _refuse)
    monkeypatch.setattr(AssembledOperator, "matrix", _refuse)
    final = evolve(W0, L, EvolutionConfig(dt=0.05, t_end=0.5))
    err = np.linalg.norm(final.coeffs - ref) / np.linalg.norm(ref)
    assert err < 1e-10


def _evolve_counting_passes(W0, L, dt, steps, fresh=False):
    """Coefficients after ``steps`` midpoint steps from W0, and the
    preconditioner passes of each step: by ``evolve``, or with fresh=True by
    a new stepper for every step, which starts from zero."""
    passes = []
    precondition, step = _MidpointStepper._precondition, _MidpointStepper.step

    def counted_precondition(self, r):
        passes[-1] += 1
        return precondition(self, r)

    def counted_step(self, c):
        passes.append(0)
        return step(self, c)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_MidpointStepper, "_precondition", counted_precondition)
        mp.setattr(_MidpointStepper, "step", counted_step)
        if fresh:
            c = W0.coeffs
            for _ in range(steps):
                c = _MidpointStepper(L, dt).step(c)
        else:
            c = evolve(W0, L, EvolutionConfig(dt=dt, t_end=steps * dt)).coeffs
    assert len(passes) == steps
    return c, passes


def test_extrapolated_start_matches_spsolve():
    """100 steps at 32x32, dt = 0.01: the first seven start from zero, each
    later one from the extrapolation of the last seven solutions, which
    saves passes; the result matches the direct solves to 1e-10."""
    ps = _ps32()
    L = _quartic_dissipative(ps)
    W0 = _offset_gaussian(ps)
    ref = _spsolve_midpoint(L, W0.coeffs, [0.01] * 100)
    final, passes = _evolve_counting_passes(W0, L, 0.01, 100)
    _, zero = _evolve_counting_passes(W0, L, 0.01, 100, fresh=True)
    assert passes[:7] == zero[:7]
    assert passes[7] < zero[7]
    assert all(p <= z for p, z in zip(passes, zero))
    assert np.linalg.norm(final - ref) / np.linalg.norm(ref) < 1e-10


def test_extrapolated_start_mean_passes():
    """200 steps at 32x32, dt = 0.01 take at most 5 preconditioner passes
    per step on average (4.26; 6.70 from a zero start)."""
    ps = _ps32()
    _, passes = _evolve_counting_passes(_offset_gaussian(ps),
                                        _quartic_dissipative(ps), 0.01, 200)
    assert np.mean(passes) <= 5.0


def test_start_gate_keeps_stiff_steps_at_zero_start_cost():
    """dt = 0.05 at 32x32: the extrapolation misses by about 1e-2 ||b||, so
    the gate keeps the zero start; 40 steps take no more passes than fresh
    steppers (22.05 per step) and match the direct solves to 1e-10."""
    ps = _ps32()
    L = _quartic_dissipative(ps)
    W0 = _offset_gaussian(ps)
    ref = _spsolve_midpoint(L, W0.coeffs, [0.05] * 40)
    final, passes = _evolve_counting_passes(W0, L, 0.05, 40)
    _, zero = _evolve_counting_passes(W0, L, 0.05, 40, fresh=True)
    assert sum(passes) <= sum(zero)  # 882 each; 889 with the gate off
    assert np.linalg.norm(final - ref) / np.linalg.norm(ref) < 1e-10


def test_stepper_history_resets_on_a_field_it_did_not_return():
    """Handed a field it did not return, after one step or after a full
    history of seven, a stepper steps as a fresh one, byte for byte, for
    the step and the ten after it.  Handed its own last result, it reuses
    the stored hLc: with the extrapolated start off, its steps equal those
    of fresh steppers byte for byte."""
    ps = _ps32()
    L = _quartic_dissipative(ps)
    c0 = _offset_gaussian(ps).coeffs
    other = _field(ps, lambda q, p: np.exp(-q ** 2 - (p - 0.5) ** 2) / np.pi).coeffs

    def run(stepper, c, n):
        out = []
        for _ in range(n):
            c = stepper.step(c)
            out.append(c.tobytes())
        return out

    fresh = run(_MidpointStepper(L, 0.01), other, 11)
    for history in (1, 7):
        used = _MidpointStepper(L, 0.01)
        run(used, c0, history)
        assert run(used, other, 11) == fresh

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wigner.solve, "_START_GATE", 0.0)
        chained = run(_MidpointStepper(L, 0.01), c0, 10)
    c, separate = c0, []
    for _ in range(10):
        c = _MidpointStepper(L, 0.01).step(c)
        separate.append(c.tobytes())
    assert chained == separate


def test_strong_damping_passes_per_step():
    """gamma = 1, D = 0.5, dt = 0.05 at 32x32: 40 steps take within 1% of
    the 41.175 passes per step of dense per-mode inverses of both factors
    (41.15 with F in the position eigenbasis), and match the direct solves
    to 1e-10."""
    ps = _ps32()
    L = assemble_evolution(ps, parse_potential("0.5*q^2 + 0.1*q^4"),
                           ModelParams(gamma=1.0, diffusion=0.5))
    W0 = _offset_gaussian(ps)
    ref = _spsolve_midpoint(L, W0.coeffs, [0.05] * 40)
    final, passes = _evolve_counting_passes(W0, L, 0.05, 40)
    assert abs(np.mean(passes) - 41.175) <= 0.01 * 41.175
    assert np.linalg.norm(final - ref) / np.linalg.norm(ref) < 1e-10


@pytest.mark.parametrize("expr, bound", [("0.5*q^2", 1e-12),
                                         ("0.5*q^2 + 0.1*q^4", 5e-3)])
def test_precondition_matches_dense_factorization(expr, bound):
    """P^-1 r against ((I - hT)(I - hF))^-1 r solved densely, dt = 0.05 at
    32x32: exact for the harmonic force, whose q factor the position
    eigenbasis diagonalizes; within 5e-3 for the quartic (1.9e-3).  Either way P^-1
    keeps the integral: s.P^-1 r = s.r to 1e-14 ||s|| ||r||."""
    ps = _ps32()
    L = assemble_evolution(ps, parse_potential(expr),
                           ModelParams(gamma=0.05, diffusion=0.02))
    stepper = _MidpointStepper(L, 0.05)
    eye = np.eye(ps.dim)
    T = [t for t in L.terms if t.tag == "transport" or t.tag.startswith("dissipator")]
    F = [t for t in L.terms if t not in T]
    P = ((eye - stepper.h * kron_dense(AssembledOperator(ps=ps, terms=T)))
         @ (eye - stepper.h * kron_dense(AssembledOperator(ps=ps, terms=F))))
    s = ps.integration_functional()
    for r in np.random.default_rng(3).standard_normal((3, ps.dim)):
        x = stepper._precondition(r)
        ref = np.linalg.solve(P, r)
        assert np.linalg.norm(x - ref) <= bound * np.linalg.norm(ref)
        assert abs(s @ x - s @ r) <= 1e-14 * np.linalg.norm(s) * np.linalg.norm(r)


def test_midpoint_stepper_retains_no_per_p_mode_stack():
    """At 64x64 a stepper retains below 3.5 MB: the 2.2 MB stack of per-q-mode
    inverses of I - hT and the 0.46 MB history, but no stack for I - hF
    (4.8 MB retained with one).  Building it peaks below 3.5 MB as well: the
    T stack is scaled, subtracted from I and inverted in place (4.5 MB with
    a copy per stage).  The in-place stack has the bits of one stacked
    ``inv`` of I - h sum_t symbol_t factor_t."""
    ps = PhaseSpaceBasis(order=6, j_coarse=3, j_fine=6,
                         q_min=-6.0, q_max=6.0, p_min=-6.0, p_max=6.0)
    L = _quartic_dissipative(ps)
    tracemalloc.start()
    try:
        stepper = _MidpointStepper(L, 0.01)  # alive while measured
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stepper.h == 0.005 and retained < 3.5e6 and peak < 3.5e6
    T = [(t.coeff * np.fft.rfft(t.q_matrix[:, 0]), t.p_matrix) for t in L.terms
         if wigner.solve._circulant_symbol(t.q_matrix) is not None]
    symbols, factors = map(np.array, zip(*T))
    stack = np.eye(ps.basis_p.dim) - stepper.h * np.einsum(
        "tk,tij->kij", symbols, factors)
    assert stepper._inv_T.tobytes() == np.linalg.inv(stack).tobytes()


@pytest.mark.parametrize("case", ["no_circulant_factor", "complex"])
def test_midpoint_stepper_rejects_generator_without_circulant_split(case):
    ps = _ps32()
    if case == "no_circulant_factor":
        extra = OperatorTerm("q_p_coupling", 0.01, ps.basis_q.moment_matrix(1),
                             ps.basis_p.moment_matrix(1))
    else:
        extra = OperatorTerm("complex_diffusion", 0.01j, np.eye(ps.basis_q.dim),
                             ps.basis_p.derivative_matrix(2))
    L = _quartic_dissipative(ps) + AssembledOperator(ps=ps, terms=[extra])
    W0 = _offset_gaussian(ps)
    with pytest.raises(ContractError):
        evolve(W0, L, EvolutionConfig(dt=0.01, t_end=0.1))


def test_evolve_rejects_complex_initial_field():
    """The stepper is real, so a complex W0 would lose its imaginary part."""
    ps = _ps32()
    W0 = CoefficientField(ps=ps, coeffs=_offset_gaussian(ps).coeffs * (1 + 0.1j))
    with pytest.raises(ContractError, match="real initial field"):
        evolve(W0, _quartic_dissipative(ps), EvolutionConfig(dt=0.01, t_end=0.1))


# ---------------------------------------------------------------------------
# eigenproblems
# ---------------------------------------------------------------------------

def _order10(j_fine, box=4.0):
    """Order-10 phase space on [-box, box]^2 with 2^j_fine functions per axis."""
    return PhaseSpaceBasis(order=10, j_coarse=3, j_fine=j_fine,
                           q_min=-box, q_max=box, p_min=-box, p_max=box)


@pytest.fixture(scope="module")
def harmonic_small():
    return _order10(5), parse_potential("0.5*q^2")


def test_stationary_eigen_harmonic(harmonic_small):
    ps, U = harmonic_small
    states = stationary_eigen(*assemble_stationary_pair(ps, U, PARAMS), 3)
    for n, (eps, W) in enumerate(states):
        assert abs(eps - (n + 0.5)) < 5e-3
        assert abs(W.ps.integration_functional() @ W.coeffs - 1.0) < 1e-8


@pytest.mark.parametrize("expr, hbar, box, j_fine", [
    # levels below zero: the shift sits below the spectrum, not at zero
    ("0.5*q^2 - 5", 1.0, 4.0, 5),
    ("0.5*q^2 - 5", 1.0, 4.0, 6),
    # hbar scales the levels and the pairs' y = (E'' - E')/hbar alike
    ("0.5*q^2", 0.1, 2.0, 5),
])
def test_stationary_eigen_shifted_and_scaled_oscillator(expr, hbar, box, j_fine):
    U = parse_potential(expr)
    A_sym, A_anti = assemble_stationary_pair(_order10(j_fine, box), U,
                                             ModelParams(hbar=hbar))
    states = stationary_eigen(A_sym, A_anti, 3)
    for n, (eps, W) in enumerate(states):
        assert abs(eps - (hbar * (n + 0.5) + U(0.0))) < 5e-3
        assert abs(W.ps.integration_functional() @ W.coeffs - 1.0) < 1e-8


def test_stationary_eigen_heavy_oscillator():
    """m = 2, hbar = 0.5: levels hbar w (n + 1/2) with w = 1/sqrt(2), so the
    1/m of the kinetic and curvature terms and the hbar of the series count."""
    A_sym, A_anti = assemble_stationary_pair(
        _order10(6, 5.0), parse_potential("0.5*q^2"), ModelParams(mass=2.0, hbar=0.5))
    states = stationary_eigen(A_sym, A_anti, 3)
    for n, (eps, _) in enumerate(states):
        assert abs(eps - 0.5 * (n + 0.5) / np.sqrt(2.0)) < 1e-3


@pytest.mark.parametrize("hbar", [1.0, 0.5])
def test_shifted_band_matches_kron_reference(hbar):
    """A_sym's Kronecker sum applies as its dense matrix, and its shifted
    band holds the symmetric part of that matrix in folded order.  The
    32x32 order-8 band (u = 396) is narrower than the matrix, and the folded
    reference has no nonzero outside it, although the q wrap puts nonzero
    blocks in the natural order's far corners: folding keeps the wrap."""
    ps = PhaseSpaceBasis(order=8, j_coarse=3, j_fine=5,
                         q_min=-4.0, q_max=4.0, p_min=-4.0, p_max=4.0)
    A_sym, _ = assemble_stationary_pair(
        ps, parse_potential("0.5*q^2 + 0.1*q^4"), ModelParams(hbar=hbar))
    dense = kron_dense(A_sym)
    assert dense.dtype == float
    v = np.random.default_rng(1).normal(size=ps.dim)
    ref = dense @ v
    assert np.max(np.abs(A_sym.apply(v) - ref)) < 1e-12 * np.max(np.abs(ref))

    n, n_p = ps.dim, ps.shape[1]
    sigma = 0.25
    ab, perm = _shifted_band(A_sym, sigma)
    u = ab.shape[0] - 1
    assert ab.shape[1] == n and ab.flags.f_contiguous and u == 396
    assert np.any(dense[:n_p, -n_p:] != 0.0)
    folded = (dense - sigma * np.eye(n))[np.ix_(perm, perm)]
    sym = 0.5 * (folded + folded.T)
    scale = np.max(np.abs(folded))
    for d in range(u + 1):
        assert np.max(np.abs(ab[u - d, d:] - np.diagonal(sym, d))) < 1e-12 * scale
    assert not np.any(np.triu(folded, u + 1)) and not np.any(np.tril(folded, -u - 1))


def _strided_band(op: AssembledOperator, sigma: float):
    """The reference band writer: each q-block offset's blocks go through
    one strided view of ab's Fortran-order memory, whose entries outside the
    band alias band storage and are masked out."""
    nq, n_p = op.ps.shape
    fq, fp = _folded_order(nq), _folded_order(n_p)
    Qs = np.stack([0.5 * t.coeff * t.q_matrix[np.ix_(fq, fq)] for t in op.terms])
    Bs = np.stack([t.p_matrix[np.ix_(fp, fp)] for t in op.terms])
    Qs = np.concatenate([Qs, Qs.transpose(0, 2, 1)])
    Bs = np.concatenate([Bs, Bs.transpose(0, 2, 1)])
    bq, bp = _half_bandwidth(Qs), _half_bandwidth(Bs)
    u = bq * n_p + bp
    ab = np.zeros((u + 1, nq * n_p), order="F")
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
        view[:, keep] = blocks[:, keep]
    ab[u] -= sigma
    return ab, (fq[:, None] * n_p + fp).reshape(-1)


def _band_operator(order, j_fine, expr):
    """A_sym of expr on +-4 at orders 8 and 10.  Orders 4 and 6 lack the
    d^4/dp^4 of a quartic's stationary series, so there it is the Kronecker
    sum U(q) (x) 1 + 1 (x) p^2/2 - d/dq (x) p, whose tables every order has."""
    ps = PhaseSpaceBasis(order=order, j_coarse=min(3, j_fine), j_fine=j_fine,
                         q_min=-4.0, q_max=4.0, p_min=-4.0, p_max=4.0)
    U = parse_potential(expr)
    if order >= 8:
        return assemble_stationary_pair(ps, U, PARAMS)[0]
    bq, bp = ps.basis_q, ps.basis_p
    Uq = sum(c * bq.moment_matrix(n) for n, c in enumerate(U.coeffs_q) if c)
    return AssembledOperator(ps=ps, terms=[
        OperatorTerm("potential", 1.0, Uq, np.eye(bp.dim)),
        OperatorTerm("kinetic", 0.5, np.eye(bq.dim), bp.moment_matrix(2)),
        OperatorTerm("transport", -1.0, bq.derivative_matrix(1), bp.moment_matrix(1)),
    ])


@pytest.mark.parametrize("expr", ["0.5*q^2 + 0.1*q^4", "0.25*q^4 - 2*q^2 + 5"])
@pytest.mark.parametrize("order", [4, 6, 8, 10])
@pytest.mark.parametrize("smallest", [True, False])
def test_shifted_band_keeps_its_bits(order, smallest, expr):
    """The band written through plain slices has the bits of the strided
    writer, in the triangle LAPACK reads, and the same permutation, at the
    smallest basis of each order and at 64x64."""
    j_fine = smallest_level(order) if smallest else 6
    op = _band_operator(order, j_fine, expr)
    sigma = _spectrum_floor(op)
    ab, perm = _shifted_band(op, sigma)
    ref, ref_perm = _strided_band(op, sigma)
    assert np.array_equal(perm, ref_perm)
    assert ab.shape == ref.shape and ab.flags.f_contiguous
    u = ab.shape[0] - 1
    referenced = np.add.outer(np.arange(u + 1), np.arange(ab.shape[1])) >= u
    assert ab[referenced].tobytes() == ref[referenced].tobytes()


def test_shifted_band_holds_one_block_beside_the_band():
    """On the 64x64 order-10 quartic (a 34 MB band) the band write's traced
    peak stays within 3.5 MB of the band: one q-block offset's GEMM output,
    2.1 MB, beside it.  The strided writer read 4.9 MB over, the slices 2.8."""
    A_sym, _ = assemble_stationary_pair(
        _order10(6), parse_potential("0.5*q^2 + 0.1*q^4"), PARAMS)
    sigma = _spectrum_floor(A_sym)
    tracemalloc.start()
    try:
        ab, _ = _shifted_band(A_sym, sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ab.nbytes + 3.5e6


def test_shifted_inverse_matches_dense_solve():
    """The banded shift-invert solve of the eigen path equals a dense solve
    with (kron_dense(A_sym) - sigma I) (32x32 order-10 quartic)."""
    ps = _order10(5)
    A_sym, _ = assemble_stationary_pair(
        ps, parse_potential("0.5*q^2 + 0.1*q^4"), PARAMS)
    sigma = _spectrum_floor(A_sym)
    v = np.random.default_rng(2).normal(size=ps.dim)
    x = _shifted_inverse(A_sym, sigma).matvec(v)
    ref = np.linalg.solve(kron_dense(A_sym) - sigma * np.eye(ps.dim), v)
    assert np.linalg.norm(x - ref) < 1e-10 * np.linalg.norm(ref)


def test_lowest_eigenpairs_allocates_no_dense_matrix():
    """At 64x64 the eigen path's peak traced allocation stays below 45 MB,
    a third of one dim x dim float64 copy (134 MB): the order-10 A_sym band
    is 34 MB, and it measured 39 MB in all."""
    A_sym, A_anti = assemble_stationary_pair(
        _order10(6), parse_potential("0.5*q^2 + 0.1*q^4"), PARAMS)
    tracemalloc.start()
    try:
        next(_splits(A_sym, A_anti, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 45e6


def test_lowest_eigenpairs_checks_dim_before_factoring(harmonic_small):
    """A k that reaches dim raises before the band is written and factored:
    100000 states ask for k = n (2n - 1) + 2 on a 1024-dim basis."""
    ps, U = harmonic_small
    A_sym, A_anti = assemble_stationary_pair(ps, U, PARAMS)

    def factor(*args, **kwargs):
        pytest.fail("the band was factored for a k beyond dim")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wigner.solve.la, "cholesky_banded", factor)
        with pytest.raises(NumericalError, match="eigenpairs are needed") as info:
            stationary_eigen(A_sym, A_anti, 100000)
    assert info.value.diagnostic == {"eigenpairs": 19999900002, "dim": ps.dim}


def test_stationary_eigen_grows_k_on_one_factor():
    """Six oscillator states (32x32 order-10, +-5) are not all below the
    line at k = 6 (2 6 - 1) + 2 = 68, so ``_splits`` asks ARPACK again at
    k = 85 with the band factored once, and the levels returned are the
    first six diagonal levels of a split started at k = 85, bit for bit."""
    A_sym, A_anti = assemble_stationary_pair(
        _order10(5, 5.0), parse_potential("0.5*q^2"), PARAMS)
    ks, factors = [], []
    eigsh, cholesky_banded = wigner.solve.spla.eigsh, wigner.solve.la.cholesky_banded

    def counted_eigsh(*args, **kwargs):
        ks.append(kwargs["k"])
        return eigsh(*args, **kwargs)

    def counted_cholesky(*args, **kwargs):
        factors.append(1)
        return cholesky_banded(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wigner.solve.spla, "eigsh", counted_eigsh)
        mp.setattr(wigner.solve.la, "cholesky_banded", counted_cholesky)
        states = stationary_eigen(A_sym, A_anti, 6)
    assert ks == [68, 85] and len(factors) == 1
    _, split = next(_splits(A_sym, A_anti, 85))
    levels = split.eps[np.flatnonzero(split.diagonal)[:6]]
    assert np.array([eps for eps, _ in states]).tobytes() == levels.tobytes()


def test_stationary_eigen_rejects_shift_above_spectrum(harmonic_small,
                                                        monkeypatch):
    """A shift above A_sym's lowest level fails the Cholesky check and raises."""
    ps, U = harmonic_small
    A_sym, A_anti = assemble_stationary_pair(ps, U, PARAMS)
    monkeypatch.setattr(wigner.solve, "_spectrum_floor", lambda op: 1.0)
    with pytest.raises(NumericalError, match="below the shift"):
        stationary_eigen(A_sym, A_anti, 2)


def test_stationary_eigen_anharmonic_matches_fd_oracle():
    """The quartic spectrum has four distinct states, each on the FD levels."""
    assert np.max(np.abs(fd_schrodinger_levels(lambda q: 0.5 * q ** 2, 4)
                         - (np.arange(4) + 0.5))) < 1e-8
    ps = _order10(6)
    A_sym, A_anti = assemble_stationary_pair(
        ps, parse_potential("0.5*q^2 + 0.1*q^4"), PARAMS)
    states = stationary_eigen(A_sym, A_anti, 4)
    eps = np.array([e for e, _ in states])
    ref = fd_schrodinger_levels(lambda q: 0.5 * q ** 2 + 0.1 * q ** 4, 4)
    assert np.all(np.diff(eps) > 0)
    assert np.max(np.abs(eps - ref)) < 5e-3
    for _, W in states:
        assert abs(W.ps.integration_functional() @ W.coeffs - 1.0) < 1e-8


def test_stationary_eigen_double_well_fails_closed():
    """At 32x32 the double well's second diagonal field integrates to 0.05
    of its norm, below ``_INTEGRAL_FLOOR`` (0.5): the subspace does not
    resolve its tunnelling pair, so ``stationary_eigen`` raises, not guesses."""
    ps = _order10(5)
    A_sym, A_anti = assemble_stationary_pair(
        ps, parse_potential("0.25*q^4 - 2*q^2 + 5"), PARAMS)
    with pytest.raises(NumericalError, match="off-diagonal"):
        stationary_eigen(A_sym, A_anti, 2)


def test_stationary_eigen_is_deterministic(harmonic_small):
    """ARPACK starts from a fixed vector, so repeated solves agree bit for bit."""
    ps, U = harmonic_small
    A_sym, A_anti = assemble_stationary_pair(ps, U, PARAMS)
    a, b = (stationary_eigen(A_sym, A_anti, 3) for _ in range(2))
    for (eps_a, W_a), (eps_b, W_b) in zip(a, b):
        assert eps_a == eps_b
        assert W_a.coeffs.tobytes() == W_b.coeffs.tobytes()


def test_moyal_eigen_harmonic_pairs(harmonic_small):
    ps, U = harmonic_small
    A_sym, A_anti = assemble_stationary_pair(ps, U, PARAMS)
    pairs = moyal_eigen(A_sym, A_anti, 6, hbar=1.0)
    got = sorted((round(lo, 3), round(hi, 3)) for lo, hi, _ in pairs)
    expected = sorted([(0.5, 0.5), (1.5, 0.5), (0.5, 1.5),
                       (2.5, 0.5), (1.5, 1.5), (0.5, 2.5)])
    for (glo, ghi), (elo, ehi) in zip(got, expected):
        assert abs(glo - elo) < 1e-3
        assert abs(ghi - ehi) < 1e-3


def test_moyal_eigen_heavy_oscillator_pairs(harmonic_small):
    """m = 2: pairs (E_m, E_n) of the levels (n + 1/2) / sqrt(2); A_anti
    carries the transport's 1/m."""
    ps, U = harmonic_small
    A_sym, A_anti = assemble_stationary_pair(ps, U, ModelParams(mass=2.0))
    got = sorted((lo, hi) for lo, hi, _ in moyal_eigen(A_sym, A_anti, 3,
                                                       hbar=1.0))
    e0, e1 = 0.5 / np.sqrt(2.0), 1.5 / np.sqrt(2.0)
    expected = sorted([(e0, e0), (e1, e0), (e0, e1)])
    assert np.max(np.abs(np.array(got) - np.array(expected))) < 1e-3


def _quartic_pair_error(j_fine, pairs):
    """Largest level error of moyal's lowest quartic pairs (order 10, +-4)
    against the (E_m, E_n) of the FD levels."""
    U = parse_potential("0.5*q^2 + 0.1*q^4")
    A_sym, A_anti = assemble_stationary_pair(_order10(j_fine), U, PARAMS)
    got = sorted((lo, hi) for lo, hi, _ in moyal_eigen(A_sym, A_anti, pairs,
                                                       hbar=1.0))
    E = fd_schrodinger_levels(lambda q: 0.5 * q ** 2 + 0.1 * q ** 4, 4)
    lowest = sorted(((m, n) for m in range(4) for n in range(4)),
                    key=lambda mn: E[mn[0]] + E[mn[1]])[:pairs]
    expected = sorted((E[m], E[n]) for m, n in lowest)
    return np.max(np.abs(np.array(got) - np.array(expected)))


def test_moyal_eigen_quartic_pairs_match_fd_oracle():
    """At 64x64 the six lowest quartic pairs are the (E_m, E_n) of the FD
    levels; |1><1| (1.7696) and the |0><2| pair (1.8489) stay apart."""
    assert _quartic_pair_error(6, 6) < 5e-3


def test_moyal_eigen_quartic_at_32x32_returns_no_fake_diagonal():
    """At 32x32 A_anti's discretization coupling between |1><1| and the
    |0><2| pair exceeds their A_sym gap, so grouping A_sym's levels first
    merged the three into a fake diagonal (1.8267, 1.8267), 5.7e-2 off.
    Splitting by A_anti first keeps them apart: 5.6e-3."""
    assert _quartic_pair_error(5, 6) < 1e-2


@pytest.mark.parametrize("j_fine, low, high", [(5, 1e-2, np.inf), (6, 0.0, 1e-3)],
                         ids=["32x32", "64x64"])
def test_ritz_defect_flags_the_coarse_quartic(j_fine, low, high):
    """The Ritz-combination defect of the quartic's three states (order 10,
    +-4) reads above 1e-2 at 32x32 and below 1e-3 at 64x64, as their level
    errors against the FD oracle do (3.1e-2 and 6.9e-4): an a-posteriori
    estimate that needs no oracle."""
    A_sym, A_anti = assemble_stationary_pair(
        _order10(j_fine), parse_potential("0.5*q^2 + 0.1*q^4"), PARAMS)
    states = stationary_eigen(A_sym, A_anti, 3)
    error = np.max(np.abs(np.array([e for e, _ in states]) - fd_schrodinger_levels(
        lambda q: 0.5 * q ** 2 + 0.1 * q ** 4, 3)))
    defect = states.ritz_defect(1.0)
    assert low <= defect <= high, (defect, error)
    assert low <= error <= high


def test_moyal_eigen_cubic_fails_closed():
    """U >= 0 on the box and the shift is 0.246, but the cubic's wrap states
    sit near -19 in A_sym: the Cholesky fails and moyal raises, as
    stationary does."""
    A_sym, A_anti = assemble_stationary_pair(
        _order10(5), parse_potential("0.1*q^3 + 0.5*q^2"), PARAMS)
    with pytest.raises(NumericalError, match="below the shift"):
        moyal_eigen(A_sym, A_anti, 4, hbar=1.0)


def test_moyal_eigen_builds_no_sparse_matrix_and_no_full_eigh(harmonic_small,
                                                              monkeypatch):
    """The split diagonalizes k x k matrices only; an eigh of a dim-sized
    matrix would mean the shift-invert path was left."""
    def refuse(*args, **kwargs):
        raise AssertionError("moyal_eigen left the shared shift-invert path")

    ps, U = harmonic_small
    eigh = np.linalg.eigh

    def small_eigh(a, *args, **kwargs):
        if np.shape(a)[0] >= ps.dim:
            refuse()
        return eigh(a, *args, **kwargs)

    A_sym, A_anti = assemble_stationary_pair(ps, U, PARAMS)
    monkeypatch.setattr(AssembledOperator, "matrix", refuse)
    monkeypatch.setattr(np.linalg, "eigh", small_eigh)
    assert len(moyal_eigen(A_sym, A_anti, 6, hbar=1.0)) == 6


def test_eigen_contract_errors(harmonic_small):
    ps, U = harmonic_small
    A_sym, A_anti = assemble_stationary_pair(ps, U, PARAMS)
    with pytest.raises(ContractError):
        stationary_eigen(A_sym, A_anti, 0)
    with pytest.raises(ContractError):
        moyal_eigen(A_sym, A_anti, 0, hbar=1.0)


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------

def _square(j_coarse, j_fine):
    """Order-6 phase space on [-4, 4)^2."""
    return PhaseSpaceBasis(order=6, j_coarse=j_coarse, j_fine=j_fine,
                           q_min=-4.0, q_max=4.0, p_min=-4.0, p_max=4.0)


def test_refine_until_trivial_convergence():
    def solve_at_level(N):
        ps = _square(3, N)
        return _field(ps, lambda q, p: np.exp(-q ** 2 - p ** 2) / np.pi)

    W, report = refine_until(solve_at_level, epsilon=1e-3, n_max=7, n_min=4)
    assert report.converged
    assert report.monotone
    assert report.accepted_level <= 7
    assert len(report.levels_tried) >= 1


def test_refine_until_rejects_an_empty_level_range():
    """n_min above n_max leaves no level to solve: an error, not a None
    field with no accepted level."""
    solved = []
    with pytest.raises(ContractError, match="n_min 5 > n_max 3"):
        refine_until(solved.append, epsilon=1e-3, n_max=3, n_min=5)
    assert solved == []


def test_refine_until_not_converged():
    rng = np.random.default_rng(0)

    def solve_at_level(N):
        ps = _square(3, N)
        return CoefficientField(ps=ps, coeffs=rng.normal(size=ps.dim))

    W, report = refine_until(solve_at_level, epsilon=1e-12, n_max=5, n_min=3)
    assert not report.converged
    assert report.accepted_level == 5


def test_refine_rejects_fields_in_different_frames():
    """Zero-pad embedding lines up the scaling blocks, so two levels with
    different j_coarse cannot be compared."""
    def field(j_coarse, j_fine):
        return _field(_square(j_coarse, j_fine),
                      lambda q, p: np.exp(-q ** 2 - p ** 2) / np.pi)

    fields = {4: field(4, 4), 5: field(5, 5)}
    with pytest.raises(ContractError, match="j_coarse"):
        refine_until(fields.get, epsilon=1e-3, n_max=5, n_min=4)


def test_refine_epsilon_positive():
    with pytest.raises(ContractError):
        refine_until(lambda N: None, epsilon=0.0, n_max=5, n_min=3)


# ---------------------------------------------------------------------------
# scale decomposition
# ---------------------------------------------------------------------------

def test_reconstruct_by_scale_partitions(ps6, gaussian_field6):
    slow, fast = reconstruct_by_scale(gaussian_field6)
    total = slow.coeffs + sum(part.coeffs for part in fast)
    np.testing.assert_allclose(total, gaussian_field6.coeffs, atol=1e-12)
    # parts are L2-orthogonal (orthogonal multiscale masks)
    e_parts = sum(np.linalg.norm(p.coeffs) ** 2 for p in [slow, *fast])
    assert abs(e_parts - np.linalg.norm(gaussian_field6.coeffs) ** 2) < 1e-12
    # the cut is j_coarse + 1 = 4: levels 2 and 3 are slow, level 4 is fast
    labels = ps6.multiscale_levels()
    assert ps6.scale_cut == 4 and len(fast) == 1
    assert np.max(np.abs(ps6.to_multiscale(slow.coeffs)[labels >= 4])) < 1e-14
    assert np.max(np.abs(ps6.to_multiscale(fast[0].coeffs)[labels != 4])) < 1e-14


def test_reconstruct_by_scale_single_level_basis(gaussian_field6):
    """With j_coarse = j_fine the cut is j_fine: all of the field is slow."""
    ps = _square(5, 5)
    W = CoefficientField(ps=ps, coeffs=gaussian_field6.coeffs)
    slow, fast = reconstruct_by_scale(W)
    assert ps.scale_cut == 5 and fast == []
    np.testing.assert_array_equal(slow.coeffs, W.coeffs)
