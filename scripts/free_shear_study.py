"""Free-particle shear flow: accuracy against the analytic solution and
growth of the multiscale participation ratio over time.

The exact solution is W(q, p, t) = W0(q - p t / m, p); the occupied
phase-space area is conserved, so the participation ratio saturates.
"""

import argparse
import os

import numpy as np

from wigner.assembly import PhaseSpaceBasis, assemble_evolution
from wigner.diagnostics import scale_entropy
from wigner.model import ModelParams, parse_potential
from wigner.solve import CoefficientField, EvolutionConfig, evolve


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--order", type=int, default=6)
    ap.add_argument("--j-fine", type=int, default=6)
    ap.add_argument("--t-end", type=float, default=15.0)
    ap.add_argument("--dt", type=float, default=0.05)
    ap.add_argument("--var", type=float, default=0.5,
                    help="initial Gaussian variance per axis")
    ap.add_argument("--out", default=os.environ.get("WIGNER_OUT", "."))
    args = ap.parse_args()

    ps = PhaseSpaceBasis(order=args.order, j_coarse=3, j_fine=args.j_fine,
                         q_min=-4.0, q_max=4.0, p_min=-4.0, p_max=4.0)
    v = args.var
    W0 = CoefficientField(ps=ps, coeffs=ps.project(
        lambda q, p: np.exp(-(q ** 2 + p ** 2) / (2 * v)) / (2 * np.pi * v)))

    L = assemble_evolution(ps, parse_potential("0"), ModelParams())
    traj = []
    evolve(W0, L, EvolutionConfig(dt=args.dt, t_end=args.t_end, store_every=20),
           store=traj.append)

    xs = ps.basis_q.cell_centres(96)
    Q, P = np.meshgrid(xs, xs, indexing="ij")
    lines = ["# t linf_error pr_over_dim entropy"]
    print("#    t    Linf err   PR/dim    entropy")
    for W in traj:
        vals = ps.evaluate_grid(np.real(W.coeffs), xs, xs)
        ref = np.exp(-((Q - P * W.time) ** 2 + P ** 2) / (2 * v)) \
            / (2 * np.pi * v)
        err = np.max(np.abs(vals - ref))
        entropy, pr = scale_entropy(W)
        print(f"{W.time:7.2f}  {err:.3e}  {pr / ps.dim:.5f}  {entropy:.3f}")
        lines.append(f"{W.time:.4f} {err:.6e} {pr / ps.dim:.6e} {entropy:.6e}")

    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "free_shear_study.txt")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
