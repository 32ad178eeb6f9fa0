"""End-to-end quantitative acceptance checks.

Each test exercises one headline guarantee of the solver at desk scale and
prints the measured figure next to its tolerance.  Configurations are fixed;
tolerances are the published ones, not tuned to the implementation.
"""

import math
import os
import time
from dataclasses import replace

import numpy as np
import scipy.sparse.linalg as spla

from oracles import aitken_connection, fd_apply, fd_schrodinger_levels, kron_dense
from wigner.assembly import (
    PhaseSpaceBasis,
    assemble_evolution,
    assemble_quantum_correction,
    assemble_stationary_cnumber,
    assemble_stationary_pair,
)
from wigner.basis import connection_coefficients, daubechies_filter
from wigner.diagnostics import ClassifierThresholds, HealthSeries, classify, scale_entropy
from wigner.model import ModelParams, parse_potential
from wigner.solve import (
    CoefficientField,
    EvolutionConfig,
    evolve,
    stationary_eigen,
)

PARAMS = ModelParams()


def _phase_space(order, j_fine, box, j_coarse=3):
    lo, hi = box
    return PhaseSpaceBasis(order=order, j_coarse=min(j_coarse, j_fine),
                           j_fine=j_fine, q_min=lo, q_max=hi, p_min=lo, p_max=hi)


def _gaussian(ps, var=0.5, q0=0.0):
    # exp(-((q-q0)^2+p^2)/(2 var)) normalized to unit integral
    c = ps.project(lambda q, p: np.exp(-((q - q0) ** 2 + p ** 2) / (2 * var))
                   / (2 * np.pi * var))
    return CoefficientField(ps=ps, coeffs=c)


def _refuse_lu(*args, **kwargs):
    raise AssertionError("the midpoint stepper factorized I - hL")


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
        table = connection_coefficients(filt, d)
        ref = aitken_connection(filt, d, (10, 12, 14))
        worst_conn = max(worst_conn, np.max(np.abs(table.values - ref)))
    assert worst_conn < 1e-6

    worst_sum = 0.0
    for order, d in ((4, 1), (6, 1), (6, 2), (8, 2), (8, 3), (10, 3)):
        table = connection_coefficients(daubechies_filter(order), d)
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
    M_pair = kron_dense(A_sym) - 0.5j * PARAMS.hbar * kron_dense(A_anti)
    M_c = kron_dense(assemble_stationary_cnumber(ps_small, U, PARAMS))
    gap = np.max(np.abs(np.sort(np.linalg.eigvalsh(M_pair))
                        - np.sort(np.linalg.eigvalsh(M_c))))
    elapsed = time.time() - t0
    print(f"\nPASS spectrum: eps errors {['%.1e' % e for e in errs]} (<1e-4), "
          f"assembly agreement {gap:.2e} (<1e-8), {elapsed:.1f}s (<120s)")
    assert max(errs) < 1e-4
    assert gap < 1e-8
    assert elapsed < 120.0


def test_midpoint_stepping_scales_to_128x128(monkeypatch):
    # Past step 69 a step needs more than 12 defect corrections; no step may
    # fall back to a sparse LU of I - hL.
    monkeypatch.setattr(spla, "splu", _refuse_lu)
    t0 = time.time()
    ps = _phase_space(6, 7, (-6.0, 6.0))
    W0 = _gaussian(ps, q0=0.5)
    L = assemble_evolution(ps, parse_potential("0.5*q^2 + 0.1*q^4"),
                           ModelParams(gamma=0.05, diffusion=0.02))
    h = 0.01 / 2
    traj = []
    evolve(W0, L, EvolutionConfig(dt=0.01, t_end=1.0), store=traj.append)
    worst = 0.0
    for a, b in zip(traj, traj[1:]):
        rhs = a.coeffs + h * L.apply(a.coeffs)
        resid = b.coeffs - h * L.apply(b.coeffs) - rhs
        worst = max(worst, np.linalg.norm(resid) / np.linalg.norm(rhs))
    elapsed = time.time() - t0
    print(f"\nPASS 128x128 stepping: {len(traj) - 1} steps, worst midpoint "
          f"residual {worst:.2e} (<1e-11), {elapsed:.1f}s (<20s)")
    assert len(traj) == 101
    assert worst < 1e-11
    assert elapsed < 20.0


def _quartic_run_levels(tmp_path, capsys, j_fine):
    """eps_i of ``wigner run --threads 1`` on the order-10 quartic
    q^2/2 + 0.1 q^4 on +-4 with 4 states; asserts exit 0 and no error."""
    from wigner.cli import EXIT_OK, main

    config = tmp_path / f"quartic_{j_fine}.ini"
    config.write_text(
        "[run]\nmode = stationary\n\n"
        "[model]\npotential = 0.5*q^2 + 0.1*q^4\n\n"
        f"[basis]\norder = 10\nj_fine = {j_fine}\n"
        "q_min = -4\nq_max = 4\np_min = -4\np_max = 4\n\n"
        "[solver]\nn_states = 4\n\n[output]\ngrid_resolution = 16\n"
    )
    assert main(["run", str(config), "--threads", "1",
                 "--out", str(tmp_path / f"out_{j_fine}")]) == EXIT_OK
    run_dir = capsys.readouterr().out.strip()
    fields = dict(line.split(" = ", 1) for line in
                  open(os.path.join(run_dir, "manifest.txt")).read().splitlines()
                  if " = " in line)
    assert "error" not in fields
    return np.array([float(fields[f"eps_{i}"]) for i in range(4)])


def test_quartic_spectrum_at_128x128_is_ten_times_closer(tmp_path, capsys):
    """A 128x128 stationary run exits 0; each of its four levels is at
    least 10x closer to the FD oracle than at 64x64 (measured 44-68x:
    8.4e-8 to 5.7e-5 against 5.2e-6 to 2.5e-3)."""
    t0 = time.time()
    ref = fd_schrodinger_levels(lambda q: 0.5 * q ** 2 + 0.1 * q ** 4, 4)
    coarse = np.abs(_quartic_run_levels(tmp_path, capsys, 6) - ref)
    fine = np.abs(_quartic_run_levels(tmp_path, capsys, 7) - ref)
    print(f"\nPASS 128x128 quartic levels: errors {fine} against {coarse} "
          f"at 64x64 (>= 10x closer), {time.time() - t0:.1f}s")
    assert np.all(10.0 * fine <= coarse)


def test_quartic_spectrum_at_256x256(tmp_path, capsys):
    """A 256x256 stationary run, where A_sym's own band would take 2.2 GB,
    exits 0 with each of its four levels within 3e-5 of the FD oracle
    (measured 1.7e-5, against 5.7e-5 at 128x128)."""
    t0 = time.time()
    ref = fd_schrodinger_levels(lambda q: 0.5 * q ** 2 + 0.1 * q ** 4, 4)
    errors = np.abs(_quartic_run_levels(tmp_path, capsys, 8) - ref)
    print(f"\nPASS 256x256 quartic levels: errors {errors} (<3e-5), "
          f"{time.time() - t0:.1f}s")
    assert np.all(errors < 3e-5)


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
    """The ground state's field_change at j_fine 5 and 6, each against its
    own solve one level down, falls and ends below 1e-4."""
    t0 = time.time()
    U = parse_potential("0.5*q^2")

    def field_change(j):
        pairs = [assemble_stationary_pair(_phase_space(10, level, (-3.2, 3.2)),
                                          U, PARAMS) for level in (j, j - 1)]
        return stationary_eigen(*pairs[0], 1, pairs[1]).field_change

    levels = [(j, field_change(j)) for j in (5, 6)]
    diffs = [d for _, d in levels]
    elapsed = time.time() - t0
    print(f"\nPASS refinement: levels {levels}, falling to {diffs[-1]:.2e} "
          f"(eps=1e-4), {elapsed:.1f}s (<120s)")
    assert diffs[1] < diffs[0]
    assert diffs[-1] < 1e-4
    assert elapsed < 120.0


def test_double_well_doublet_resolves_at_128x128():
    """0.25 q^4 - 2 q^2 + 5 (order 10, +-4, two states): at 128x128 both
    levels of the tunnelling doublet lie within 1e-3 of the FD oracle and
    the splitting within 2% of its splitting.  The 64x64 solve does not
    resolve the doublet and raises, so level_change and field_change read
    nan."""
    t0 = time.time()
    U = parse_potential("0.25*q^4 - 2*q^2 + 5")
    ps = _phase_space(10, 7, (-4.0, 4.0))
    coarser = assemble_stationary_pair(replace(ps, j_fine=6), U, PARAMS)
    states = stationary_eigen(*assemble_stationary_pair(ps, U, PARAMS), 2,
                              coarser)
    eps = np.array([e for e, _ in states])
    ref = fd_schrodinger_levels(lambda q: 0.25 * q ** 4 - 2 * q ** 2 + 5, 2)
    errors = np.abs(eps - ref)
    split_error = abs((eps[1] - eps[0]) / (ref[1] - ref[0]) - 1.0)
    elapsed = time.time() - t0
    print(f"\nPASS double well: levels {eps} against {ref}, errors "
          f"{errors.max():.2e} (<1e-3), splitting {eps[1] - eps[0]:.4e} against "
          f"{ref[1] - ref[0]:.4e} ({split_error:.1%}, <2%), level_change "
          f"{states.level_change} and field_change {states.field_change} (nan), "
          f"{elapsed:.1f}s (<60s)")
    assert np.all(errors < 1e-3)
    assert split_error < 0.02
    assert np.isnan(states.level_change) and np.isnan(states.field_change)
    assert elapsed < 60.0


def test_dissipative_diffusion_rate_and_damped_waveleton():
    t0 = time.time()
    # pure diffusion: second-moment growth at rate 2D, purity non-increasing
    D = 0.1
    ps = _phase_space(6, 6, (-6.0, 6.0))
    W0 = _gaussian(ps)
    params = ModelParams(gamma=0.0, diffusion=D)
    L = assemble_evolution(ps, parse_potential("0"), params)
    traj = []
    evolve(W0, L, EvolutionConfig(dt=0.05, t_end=1.0, store_every=1),
           store=traj.append)
    m0 = _p_second_moment(traj[0])
    m1 = _p_second_moment(traj[-1])
    rate = (m1 - m0) / (traj[-1].time - traj[0].time)
    rate_err = abs(rate - 2 * D) / (2 * D)
    series = HealthSeries(ps, None, params)
    purities = [series.moments(W)[3] for W in traj]
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
    from wigner.ensemble import coherent_weights, evolve_ensemble

    t0 = time.time()
    ps = _phase_space(6, 6, (-6.0, 6.0))
    W0 = _gaussian(ps)
    g = parse_potential("0.5*q^2")
    weights = coherent_weights(1.0, 2)
    cfg = EvolutionConfig(dt=0.05, t_end=0.5)
    combined = evolve_ensemble(W0, weights, g, PARAMS, cfg)

    manual = np.zeros(ps.dim)
    for w, U_n in zip(weights, ("0", "0.5*q^2", "q^2")):
        L = assemble_evolution(ps, parse_potential(U_n), PARAMS)
        manual += w * evolve(W0, L, cfg).coeffs
    gap = np.max(np.abs(combined.coeffs - manual))
    s = W0.ps.integration_functional()
    drift = abs(s @ combined.coeffs - s @ W0.coeffs)
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
    single = CoefficientField(ps=ps, coeffs=ps.from_multiscale(ms.ravel()))
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
