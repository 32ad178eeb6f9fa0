"""Damped harmonic oscillator relaxing into a waveleton.

Runs the dissipative evolution, tracks purity / second moments / residual
over time, classifies the final state, and dumps initial and final grids.
"""

import argparse
import os

import numpy as np

from wigner.assembly import PhaseSpaceBasis, assemble_evolution
from wigner.cli import dump_grid
from wigner.diagnostics import HealthSeries, classify
from wigner.model import ModelParams, parse_potential
from wigner.solve import CoefficientField, EvolutionConfig, evolve


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--gamma", type=float, default=0.2)
    ap.add_argument("--diffusion", type=float, default=0.2)
    ap.add_argument("--t-end", type=float, default=40.0)
    ap.add_argument("--dt", type=float, default=0.05)
    ap.add_argument("--order", type=int, default=6)
    ap.add_argument("--j-fine", type=int, default=6)
    ap.add_argument("--out", default=os.environ.get("WIGNER_OUT", "."))
    args = ap.parse_args()

    ps = PhaseSpaceBasis(order=args.order, j_coarse=3, j_fine=args.j_fine,
                         q_min=-5.0, q_max=5.0, p_min=-5.0, p_max=5.0)
    W0 = CoefficientField(ps=ps, coeffs=ps.project(
        lambda q, p: np.exp(-(q - 1.0) ** 2 - p ** 2) / np.pi))

    params = ModelParams(gamma=args.gamma, diffusion=args.diffusion)
    U = parse_potential("0.5*q^2")
    L = assemble_evolution(ps, U, params)
    # About 40 checkpoints at any length (every 20th step of the default run).
    store_every = max(1, round(args.t_end / args.dt) // 40)
    traj = []
    evolve(W0, L, EvolutionConfig(dt=args.dt, t_end=args.t_end,
                                  store_every=store_every), store=traj.append)

    series = HealthSeries(ps, U, params)
    print("#    t      purity    <q>       <p>       ||dW/dt||")
    for W in traj:
        _, (qb, pb), _, purity = series.moments(W)
        resid = np.linalg.norm(L.apply(W.coeffs))
        print(f"{W.time:7.2f}  {purity:.6f}  {qb:+.5f}  {pb:+.5f}  {resid:.3e}")

    regime = classify(traj[-1], traj[-2] if len(traj) > 1 else None)
    print(f"final regime: {regime}")

    os.makedirs(args.out, exist_ok=True)
    dump_grid(traj[0], 128, os.path.join(args.out, "damped_initial.wgrid"))
    dump_grid(traj[-1], 128, os.path.join(args.out, "damped_final.wgrid"))
    print(f"wrote grids to {args.out}")


if __name__ == "__main__":
    main()
