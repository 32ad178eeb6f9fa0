"""End-to-end quantitative acceptance checks.

Each test exercises one headline guarantee of the solver at desk scale and
prints the measured figure next to its tolerance.  Configurations are fixed;
tolerances are the published ones, not tuned to the implementation.
"""

import math
import os
import time

import numpy as np
import pytest

from oracles import aitken_connection, fd_apply
from wigner.assembly import (
    PhaseSpaceBasis,
    assemble_dissipator,
    assemble_evolution,
    assemble_quantum_correction,
    assemble_stationary_cnumber,
    assemble_stationary_pair,
)
from wigner.basis import WaveletBasis, connection_coefficients, daubechies_filter
from wigner.diagnostics import ClassifierThresholds, classify, scale_entropy, standard_moments
from wigner.model import ModelParams, parse_potential
from wigner.solve import (
    CoefficientField,
    EvolutionConfig,
    evolve,
    refine_until,
    stationary_eigen,
    _from_ms_2d,
)

PARAMS = ModelParams()


def _phase_space(order, j_fine, box, j_coarse=3):
    filt = daubechies_filter(order)
    mk = lambda: WaveletBasis(filter=filt, j_coarse=min(j_coarse, j_fine),
                              j_fine=j_fine, domain=box)
    return PhaseSpaceBasis(mk(), mk())


def _gaussian(ps, var=0.5):
    # exp(-(q^2+p^2)/(2 var)) normalized to unit integral
    c = ps.project(lambda q, p: np.exp(-(q ** 2 + p ** 2) / (2 * var))
                   / (2 * np.pi * var))
    return CoefficientField(ps=ps, coeffs=c)


def _p_second_moment(W):
    f = np.kron(W.ps.basis_q.integration_functional(),
                W.ps.basis_p.moment_functional(2))
    return float(f @ np.real(W.coeffs))


def test_basis_tables_match_independent_oracles():
    t0 = time.time()
    worst_inv = 0.0
    for order in range(2, 11, 2):
        filt = daubechies_filter(order)
        h = filt.taps
        worst_inv = max(worst_inv, abs(h.sum() - math.sqrt(2.0)))
        for m in range(1, order // 2):
            worst_inv = max(worst_inv, abs(np.dot(h[2 * m:], h[:-2 * m])))
        worst_inv = max(worst_inv, abs(np.dot(h, h) - 1.0))
        g = filt.high_pass
        for r in range(order // 2):
            worst_inv = max(worst_inv,
                            abs(sum(k ** r * g[k] for k in range(order))))
    assert worst_inv < 1e-10

    worst_conn = 0.0
    for order, d in ((6, 1), (8, 1), (8, 2), (10, 1), (10, 2)):
        filt = daubechies_filter(order)
        table = connection_coefficients(filt, 0, d)
        ref = aitken_connection(filt, d, (10, 12, 14))
        worst_conn = max(worst_conn, np.max(np.abs(table.values - ref)))
    assert worst_conn < 1e-6

    worst_sum = 0.0
    for order, d in ((4, 1), (6, 1), (6, 2), (8, 2), (8, 3), (10, 3)):
        table = connection_coefficients(daubechies_filter(order), 0, d)
        worst_sum = max(worst_sum, abs(np.dot(table.offsets ** d, table.values)
                                       - math.factorial(d)))
        worst_sum = max(worst_sum, abs(table.values.sum()))
    assert worst_sum < 1e-10
    elapsed = time.time() - t0
    print(f"\nPASS basis tables: invariants {worst_inv:.2e} (<1e-10), "
          f"connection vs quadrature {worst_conn:.2e} (<1e-6), "
          f"sum rules {worst_sum:.2e} (<1e-10), {elapsed:.1f}s (<10s)")
    assert elapsed < 10.0


def test_free_particle_shear_matches_analytic_flow():
    t0 = time.time()
    ps = _phase_space(6, 6, (-4.0, 4.0))
    W0 = _gaussian(ps)
    L = assemble_evolution(ps, parse_potential("0"), PARAMS)
    W1 = evolve(W0, L, EvolutionConfig(dt=0.01, t_end=1.0))
    n = 128
    xs = -4.0 + 8.0 * (np.arange(n) + 0.5) / n
    vals = ps.evaluate_grid(np.real(W1.coeffs), xs, xs)
    Q, P = np.meshgrid(xs, xs, indexing="ij")
    ref = np.exp(-((Q - P * 1.0) ** 2 + P ** 2)) / np.pi
    err = np.max(np.abs(vals - ref))
    elapsed = time.time() - t0
    print(f"\nPASS free shear: Linf {err:.2e} (<1e-3), {elapsed:.1f}s (<60s)")
    assert err < 1e-3
    assert elapsed < 60.0


def test_harmonic_ground_state_is_stationary_over_a_period():
    t0 = time.time()
    ps = _phase_space(6, 6, (-5.0, 5.0))
    W0 = _gaussian(ps)
    L = assemble_evolution(ps, parse_potential("0.5*q^2"), PARAMS)
    period = 2.0 * np.pi
    W1 = evolve(W0, L, EvolutionConfig(dt=period / 200, t_end=period))
    drift = (np.linalg.norm(W1.coeffs - W0.coeffs)
             / np.linalg.norm(W0.coeffs))
    elapsed = time.time() - t0
    print(f"\nPASS harmonic drift: rel L2 {drift:.2e} (<1e-6), "
          f"{elapsed:.1f}s (<60s)")
    assert drift < 1e-6
    assert elapsed < 60.0


def test_harmonic_spectrum_and_assembly_agreement():
    t0 = time.time()
    U = parse_potential("0.5*q^2")

    ps = _phase_space(10, 6, (-4.0, 4.0))
    states = stationary_eigen(*assemble_stationary_pair(ps, U, PARAMS), 4)
    errs = [abs(eps - (n + 0.5)) for n, (eps, _) in enumerate(states)]

    # the two assembly routes produce the same spectrum
    ps_small = _phase_space(10, 5, (-4.0, 4.0))
    A_sym, A_anti = assemble_stationary_pair(ps_small, U, PARAMS)
    M_pair = A_sym.dense() - 0.5j * PARAMS.hbar * A_anti.dense()
    M_c = assemble_stationary_cnumber(ps_small, U, PARAMS).dense()
    gap = np.max(np.abs(np.sort(np.linalg.eigvalsh(M_pair))
                        - np.sort(np.linalg.eigvalsh(M_c))))
    elapsed = time.time() - t0
    print(f"\nPASS spectrum: eps errors {['%.1e' % e for e in errs]} (<1e-4), "
          f"assembly agreement {gap:.2e} (<1e-8), {elapsed:.1f}s (<120s)")
    assert max(errs) < 1e-4
    assert gap < 1e-8
    assert elapsed < 120.0


def test_midpoint_stepping_scales_to_128x128():
    t0 = time.time()
    ps = _phase_space(6, 7, (-6.0, 6.0))
    W0 = _gaussian(ps)
    L = assemble_evolution(ps, parse_potential("0.5*q^2 + 0.1*q^4"),
                           ModelParams(gamma=0.05, diffusion=0.02))
    h = 0.01 / 2
    traj = []
    evolve(W0, L, EvolutionConfig(dt=0.01, t_end=0.2), store=traj.append)
    worst = 0.0
    for a, b in zip(traj, traj[1:]):
        rhs = a.coeffs + h * L.apply(a.coeffs)
        resid = b.coeffs - h * L.apply(b.coeffs) - rhs
        worst = max(worst, np.linalg.norm(resid) / np.linalg.norm(rhs))
    elapsed = time.time() - t0
    print(f"\nPASS 128x128 stepping: {len(traj) - 1} steps, worst midpoint "
          f"residual {worst:.2e} (<1e-11), {elapsed:.1f}s (<20s)")
    assert len(traj) == 21
    assert worst < 1e-11
    assert elapsed < 20.0


def test_quartic_quantum_correction_matches_finite_differences():
    t0 = time.time()
    ps = _phase_space(10, 8, (-8.0, 8.0))
    lam = 0.25
    U = parse_potential(f"{lam}*q^4")
    var = 2.0

    def f(q, p):
        return np.exp(-(q ** 2 + p ** 2) / (2 * var))

    c = ps.project(f)
    act = assemble_quantum_correction(ps, U, PARAMS).apply(c)

    n = 512
    xs = -8.0 + 16.0 * (np.arange(n) + 0.5) / n
    h = 16.0 / n
    vals = ps.evaluate_grid(np.real(act), xs, xs)
    Q, P = np.meshgrid(xs, xs, indexing="ij")
    F = f(Q, P)
    # generator contribution: U'(q) dW/dp - (hbar^2/24) U'''(q) d^3W/dp^3
    ref = (4 * lam * Q ** 3) * fd_apply(F, 1, h, axis=1) \
        - (PARAMS.hbar ** 2 / 24.0) * (24 * lam * Q) * fd_apply(F, 3, h, axis=1)
    interior = (np.abs(Q) < 6.0) & (np.abs(P) < 6.0)
    err = (np.max(np.abs(vals - ref)[interior])
           / np.max(np.abs(ref[interior])))

    quad = assemble_quantum_correction(ps, parse_potential("0.5*q^2"), PARAMS)
    assert [t.tag for t in quad.terms] == ["force"]
    elapsed = time.time() - t0
    print(f"\nPASS quartic correction: rel err {err:.2e} (<1e-6), quadratic "
          f"potential has no higher terms, {elapsed:.1f}s (<60s)")
    assert err < 1e-6
    assert elapsed < 60.0


def test_refinement_converges_monotonically_for_the_ground_state():
    t0 = time.time()
    U = parse_potential("0.5*q^2")

    def solve_at_level(j):
        ps = _phase_space(10, j, (-3.2, 3.2), j_coarse=min(3, j))
        A_sym, A_anti = assemble_stationary_pair(ps, U, PARAMS)
        return stationary_eigen(A_sym, A_anti, 1)[0][1]

    W, report = refine_until(solve_at_level, epsilon=1e-4, n_max=6, n_min=4)
    diffs = [d for _, d in report.levels_tried]
    elapsed = time.time() - t0
    print(f"\nPASS refinement: levels {report.levels_tried}, monotone="
          f"{report.monotone}, converged at j={report.accepted_level} "
          f"(<=6, eps=1e-4), {elapsed:.1f}s (<120s)")
    assert len(report.levels_tried) + 1 >= 3  # three levels tried
    assert report.monotone
    assert report.converged
    assert report.accepted_level <= 6
    assert diffs[-1] < 1e-4
    assert elapsed < 120.0


def test_dissipative_diffusion_rate_and_damped_waveleton():
    t0 = time.time()
    # pure diffusion: second-moment growth at rate 2D, purity non-increasing
    D = 0.1
    ps = _phase_space(6, 6, (-6.0, 6.0))
    W0 = _gaussian(ps)
    L = assemble_evolution(ps, parse_potential("0"),
                           ModelParams(gamma=0.0, diffusion=D))
    traj = []
    evolve(W0, L, EvolutionConfig(dt=0.05, t_end=1.0, store_every=1),
           store=traj.append)
    m0 = _p_second_moment(traj[0])
    m1 = _p_second_moment(traj[-1])
    rate = (m1 - m0) / (traj[-1].time - traj[0].time)
    rate_err = abs(rate - 2 * D) / (2 * D)
    purities = [standard_moments(W)[3] for W in traj]
    purity_increase = max(b - a for a, b in zip(purities, purities[1:]))

    # damped harmonic oscillator settles into a stable localized state
    ps2 = _phase_space(6, 6, (-5.0, 5.0))
    W0 = _gaussian(ps2)
    L2 = assemble_evolution(ps2, parse_potential("0.5*q^2"),
                            ModelParams(gamma=0.2, diffusion=0.2))
    traj2 = []
    evolve(W0, L2, EvolutionConfig(dt=0.05, t_end=40.0, store_every=100),
           store=traj2.append)
    residual = np.linalg.norm(L2.apply(traj2[-1].coeffs))
    regime = classify(traj2[-1], previous=traj2[-2])
    elapsed = time.time() - t0
    print(f"\nPASS dissipative: diffusion rate err {rate_err:.2e} (<2e-2), "
          f"purity increase {purity_increase:.2e} (<=0), damped residual "
          f"{residual:.2e} (<1e-6), regime {regime}, {elapsed:.1f}s (<300s)")
    assert rate_err < 0.02
    assert purity_increase <= 1e-14
    assert residual < 1e-6
    assert regime == "waveleton"
    assert elapsed < 300.0


def test_fock_hierarchy_recombination_is_exact():
    from wigner.ensemble import (FockEnsemble, coherent_weights,
                                 evolve_fock_hierarchy, incoherent_superpose)
    from wigner.model import fock_potential

    t0 = time.time()
    ps = _phase_space(6, 6, (-6.0, 6.0))
    W0 = _gaussian(ps)
    g = parse_potential("q^2")
    weights = coherent_weights(1.0, 2)
    cfg = EvolutionConfig(dt=0.05, t_end=0.5)
    ens = FockEnsemble(weights=weights, U0=0.5, g=g,
                       fields=[W0.copy() for _ in weights])
    combined = incoherent_superpose(evolve_fock_hierarchy(ens, PARAMS, cfg))

    manual = np.zeros(ps.dim)
    for n, w in enumerate(weights):
        L = assemble_evolution(ps, fock_potential(0.5, g, n), PARAMS)
        manual += w * evolve(W0, L, cfg).coeffs
    gap = np.max(np.abs(combined.coeffs - manual))
    drift = abs(combined.total_integral() - W0.total_integral())
    elapsed = time.time() - t0
    print(f"\nPASS ensemble: recombination gap {gap:.2e} (<1e-12), "
          f"normalization drift {drift:.2e} (<1e-9), {elapsed:.1f}s (<120s)")
    assert gap < 1e-12
    assert drift < 1e-9
    assert elapsed < 120.0


def test_classifier_separates_the_three_regimes():
    t0 = time.time()
    # measured separation: ground state PR/dim ~ 5e-4, shear plateau ~ 1.4e-2
    thresholds = ClassifierThresholds(theta_loc=0.005, theta_chaos=0.012)

    ps = _phase_space(6, 6, (-4.0, 4.0))
    A_sym, A_anti = assemble_stationary_pair(ps, parse_potential("0.5*q^2"),
                                             PARAMS)
    ground = stationary_eigen(A_sym, A_anti, 1)[0][1]
    assert classify(ground, thresholds=thresholds) == "waveleton"

    W0 = _gaussian(ps, var=4.0)
    L = assemble_evolution(ps, parse_potential("0"), PARAMS)
    traj = []
    evolve(W0, L, EvolutionConfig(dt=0.05, t_end=15.0, store_every=100),
           store=traj.append)
    _, participation = scale_entropy(traj[-1])
    sheared = classify(traj[-1], traj[-2], thresholds)
    assert sheared == "chaotic_pattern"

    ms = np.zeros(ps.shape)
    ms[0, 0] = 1.0
    single = CoefficientField(ps=ps, coeffs=_from_ms_2d(ps, ms))
    assert classify(single, thresholds=thresholds) == "waveleton"
    elapsed = time.time() - t0
    print(f"\nPASS classifier: ground waveleton, shear PR/dim "
          f"{participation / ps.dim:.2e} -> chaotic_pattern, concentrated "
          f"synthetic -> waveleton, {elapsed:.1f}s (<60s)")
    assert elapsed < 60.0


def test_single_threaded_runs_are_byte_identical(tmp_path, capsys):
    from wigner.cli import EXIT_OK, main

    config = tmp_path / "run.ini"
    config.write_text(
        "[run]\nmode = evolve\n\n"
        "[model]\npotential = 0.5*q^2\n\n"
        "[basis]\norder = 6\nj_fine = 5\n"
        "q_min = -4\nq_max = 4\np_min = -4\np_max = 4\n\n"
        "[solver]\ndt = 0.05\nt_end = 0.2\n"
    )
    dirs = []
    for sub in ("a", "b"):
        assert main(["run", str(config), "--threads", "1",
                     "--out", str(tmp_path / sub)]) == EXIT_OK
        dirs.append(capsys.readouterr().out.strip())
    identical = True
    for name in ("w_initial.wgrid", "w_final.wgrid", "manifest.txt"):
        with open(os.path.join(dirs[0], name), "rb") as fa, \
                open(os.path.join(dirs[1], name), "rb") as fb:
            identical &= fa.read() == fb.read()
    print("\nPASS determinism: grid dumps and manifests byte-identical")
    assert identical
