"""Level-by-level refinement of the harmonic ground state.

Solves for the stationary ground state at increasing resolution and
reports the successive inter-level differences used by the refinement stop
criterion, plus the scale split of the accepted solution.
"""

import argparse

import numpy as np

from wigner.assembly import PhaseSpaceBasis, assemble_stationary_pair
from wigner.model import ModelParams, parse_potential
from wigner.solve import reconstruct_by_scale, refine_until, stationary_eigen


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--order", type=int, default=10)
    ap.add_argument("--epsilon", type=float, default=1e-4)
    ap.add_argument("--n-min", type=int, default=4)
    ap.add_argument("--n-max", type=int, default=7)
    ap.add_argument("--box", type=float, default=3.2)
    args = ap.parse_args()

    U = parse_potential("0.5*q^2")
    params = ModelParams()

    def solve_at_level(j):
        ps = PhaseSpaceBasis(order=args.order, j_coarse=min(3, j), j_fine=j,
                             q_min=-args.box, q_max=args.box,
                             p_min=-args.box, p_max=args.box)
        A_sym, A_anti = assemble_stationary_pair(ps, U, params)
        return stationary_eigen(A_sym, A_anti, 1)[0][1]

    W, report = refine_until(solve_at_level, epsilon=args.epsilon,
                             n_max=args.n_max, n_min=args.n_min)
    print("# level ||W^{N+1} - W^N||")
    for level, diff in report.levels_tried:
        print(f"{level:5d}  {diff:.6e}")
    print(f"accepted level: {report.accepted_level}")
    print(f"converged: {report.converged}   monotone: {report.monotone}")

    slow, fast = reconstruct_by_scale(W)
    total = np.linalg.norm(W.coeffs) ** 2
    print(f"slow-scale energy fraction: "
          f"{np.linalg.norm(slow.coeffs) ** 2 / total:.6f}")
    for j, part in enumerate(fast, start=W.ps.scale_cut):
        print(f"detail level {j} energy fraction: "
              f"{np.linalg.norm(part.coeffs) ** 2 / total:.3e}")


if __name__ == "__main__":
    main()
