"""Time stepping, eigenproblems, refinement, scale splits."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from oracles import fd_schrodinger_levels

from wigner.assembly import (
    AssembledOperator,
    OperatorTerm,
    PhaseSpaceBasis,
    assemble_evolution,
    assemble_stationary_cnumber,
    assemble_stationary_pair,
)
from wigner.basis import WaveletBasis, daubechies_filter
from wigner.errors import (
    AbortedEvolutionError,
    ConfigurationError,
    ContractError,
    NumericalError,
)
from wigner.model import ModelParams, parse_potential
from wigner.solve import (
    _PENALTY,
    CoefficientField,
    EvolutionConfig,
    estimated_spectral_radius,
    evolve,
    moyal_eigen,
    reconstruct_by_scale,
    refine_until,
    stationary_eigen,
    _dense_real,
    _penalty_operator,
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
    n0 = gaussian_field6.l2_norm()
    assert abs(final.l2_norm() - n0) < 1e-16 + 1e-10 * n0


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


def test_rk4_matches_midpoint(ps6, gaussian_field6):
    L = assemble_evolution(ps6, parse_potential("0.5*q^2"), PARAMS)
    dt = 2e-3
    a = evolve(gaussian_field6, L,
               EvolutionConfig(dt=dt, t_end=0.1, scheme="explicit_rk4"))
    b = evolve(gaussian_field6, L,
               EvolutionConfig(dt=dt, t_end=0.1))
    assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-8


def test_rk4_stability_gate(ps6, gaussian_field6):
    L = assemble_evolution(ps6, parse_potential("0.5*q^2"), PARAMS)
    rho = estimated_spectral_radius(L)
    with pytest.raises(ConfigurationError):
        evolve(gaussian_field6, L,
               EvolutionConfig(dt=10.0 / rho, t_end=1.0, scheme="explicit_rk4"))


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


def test_renormalize_keeps_integral(ps6, gaussian_field6):
    L = assemble_evolution(ps6, parse_potential("0.5*q^2"), PARAMS)
    cfg = EvolutionConfig(dt=0.05, t_end=0.5, renormalize=True)
    traj = []
    evolve(gaussian_field6, L, cfg, store=traj.append)
    target = gaussian_field6.total_integral()
    for W in traj:
        assert abs(W.total_integral() - target) < 1e-12


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


@pytest.mark.parametrize("case", ["stiff", "no_circulant_factor"])
def test_midpoint_stepper_falls_back_to_lu(db6, case, monkeypatch):
    mk = lambda: WaveletBasis(filter=db6, j_coarse=3, j_fine=5,
                              domain=(-6.0, 6.0))
    ps = PhaseSpaceBasis(mk(), mk())
    L = _quartic_dissipative(ps)
    if case == "stiff":
        dt = 0.05  # from the third step on, more corrections than the cap
    else:
        dt = 0.01
        L = L + AssembledOperator(ps=ps, terms=[OperatorTerm(
            "q_p_coupling", 0.01, ps.basis_q.moment_matrix(1),
            ps.basis_p.moment_matrix(1))])
    W0 = _field(ps, lambda q, p: np.exp(-(q - 0.5) ** 2 - p ** 2) / np.pi)
    ref = _spsolve_midpoint(L, W0.coeffs, [dt] * 10)
    calls, splu = [], spla.splu
    monkeypatch.setattr(spla, "splu", lambda *a: calls.append(a) or splu(*a))
    final = evolve(W0, L, EvolutionConfig(dt=dt, t_end=10 * dt))
    assert len(calls) == 1
    err = np.linalg.norm(final.coeffs - ref) / np.linalg.norm(ref)
    assert err < 1e-10


# ---------------------------------------------------------------------------
# eigenproblems
# ---------------------------------------------------------------------------

def _order10(j_fine, box=4.0):
    """Order-10 phase space on [-box, box]^2 with 2^j_fine functions per axis."""
    filt = daubechies_filter(10)
    mk = lambda: WaveletBasis(filter=filt, j_coarse=3, j_fine=j_fine,
                              domain=(-box, box))
    return PhaseSpaceBasis(mk(), mk())


@pytest.fixture(scope="module")
def harmonic_small():
    return _order10(5), parse_potential("0.5*q^2")


def test_stationary_eigen_harmonic(harmonic_small):
    ps, U = harmonic_small
    states = stationary_eigen(*assemble_stationary_pair(ps, U, PARAMS), 3)
    for n, (eps, W) in enumerate(states):
        assert abs(eps - (n + 0.5)) < 5e-3
        assert abs(W.total_integral() - 1.0) < 1e-8


@pytest.mark.parametrize("expr, hbar, box, j_fine", [
    # levels below zero: the shift sits below the spectrum, not at zero
    ("0.5*q^2 - 5", 1.0, 4.0, 5),
    ("0.5*q^2 - 5", 1.0, 4.0, 6),
    # the penalty lifts |0><1| by 10, above the third level, at any hbar
    ("0.5*q^2", 0.1, 2.0, 5),
])
def test_stationary_eigen_shifted_and_scaled_oscillator(expr, hbar, box, j_fine):
    U = parse_potential(expr)
    A_sym, A_anti = assemble_stationary_pair(_order10(j_fine, box), U,
                                             ModelParams(hbar=hbar))
    states = stationary_eigen(A_sym, A_anti, 3)
    for n, (eps, W) in enumerate(states):
        assert abs(eps - (hbar * (n + 0.5) + U(0.0))) < 5e-3
        assert abs(W.total_integral() - 1.0) < 1e-8


@pytest.mark.parametrize("hbar", [1.0, 0.5])
def test_penalty_matrix_matches_kron_reference(hbar):
    """The dense P equals S + 10 K^T K of the materialized pair, and
    Re M + (40/hbar^2) (Im M)^T (Im M) of the materialized c-number M."""
    ps = _order10(4)
    U = parse_potential("0.5*q^2 + 0.1*q^4")
    params = ModelParams(hbar=hbar)
    A_sym, A_anti = assemble_stationary_pair(ps, U, params)
    S, K = A_sym.dense(), A_anti.dense()
    ref = S + _PENALTY * K.T @ K
    M = assemble_stationary_cnumber(ps, U, params).dense()
    ref_cnumber = M.real + 40.0 / hbar ** 2 * M.imag.T @ M.imag
    P = _penalty_operator(A_sym, A_anti)
    dense = _dense_real(P)
    for r in (ref, ref_cnumber):
        assert np.max(np.abs(dense - r)) < 1e-12 * np.max(np.abs(r))
    v = np.random.default_rng(1).normal(size=ps.dim)
    Pv = ref @ v
    assert np.max(np.abs(P.apply(v) - Pv)) < 1e-12 * np.max(np.abs(Pv))


def test_stationary_eigen_rejects_shift_above_spectrum(harmonic_small,
                                                        monkeypatch):
    """A shift above P's lowest level fails the Cholesky check and raises."""
    import wigner.solve

    ps, U = harmonic_small
    A_sym, A_anti = assemble_stationary_pair(ps, U, PARAMS)
    monkeypatch.setattr(wigner.solve, "_spectrum_floor", lambda P: 1.0)
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
        assert abs(W.total_integral() - 1.0) < 1e-8


def test_stationary_eigen_double_well_fails_closed():
    """A tunnelling pair |0><1| stays below E_1 in the penalty: raise, not guess."""
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


def test_eigen_contract_errors(harmonic_small):
    ps, U = harmonic_small
    A_sym, A_anti = assemble_stationary_pair(ps, U, PARAMS)
    with pytest.raises(ContractError):
        stationary_eigen(A_sym, A_anti, 0)
    with pytest.raises(ContractError):
        moyal_eigen(A_sym, A_anti, 0)


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------

def test_refine_until_trivial_convergence():
    filt = daubechies_filter(6)

    def solve_at_level(N):
        mk = lambda: WaveletBasis(filter=filt, j_coarse=3, j_fine=N,
                                  domain=(-4.0, 4.0))
        ps = PhaseSpaceBasis(mk(), mk())
        return _field(ps, lambda q, p: np.exp(-q ** 2 - p ** 2) / np.pi)

    W, report = refine_until(solve_at_level, epsilon=1e-3, n_max=7, n_min=4)
    assert report.converged
    assert report.monotone
    assert report.accepted_level <= 7
    assert len(report.levels_tried) >= 1


def test_refine_until_not_converged():
    filt = daubechies_filter(6)
    rng = np.random.default_rng(0)

    def solve_at_level(N):
        mk = lambda: WaveletBasis(filter=filt, j_coarse=3, j_fine=N,
                                  domain=(-4.0, 4.0))
        ps = PhaseSpaceBasis(mk(), mk())
        return CoefficientField(ps=ps, coeffs=rng.normal(size=ps.dim))

    W, report = refine_until(solve_at_level, epsilon=1e-12, n_max=5, n_min=3)
    assert not report.converged
    assert report.accepted_level == 5


def test_refine_epsilon_positive():
    with pytest.raises(ContractError):
        refine_until(lambda N: None, epsilon=0.0, n_max=5)


# ---------------------------------------------------------------------------
# scale decomposition
# ---------------------------------------------------------------------------

def test_reconstruct_by_scale_partitions(ps6, gaussian_field6):
    slow, fast = reconstruct_by_scale(gaussian_field6, cut=3)
    total = slow.coeffs + sum(part.coeffs for part in fast)
    np.testing.assert_allclose(total, gaussian_field6.coeffs, atol=1e-12)
    # parts are L2-orthogonal (orthogonal multiscale masks)
    e_parts = slow.l2_norm() ** 2 + sum(p.l2_norm() ** 2 for p in fast)
    assert abs(e_parts - gaussian_field6.l2_norm() ** 2) < 1e-12


def test_reconstruct_by_scale_bad_cut(ps6, gaussian_field6):
    with pytest.raises(ContractError):
        reconstruct_by_scale(gaussian_field6, cut=99)
