"""Harmonic-oscillator spectrum convergence across filter orders and levels.

Prints the error of the lowest eigenvalues against n + 1/2 for a sweep of
(order, j_fine) combinations and writes the table to a text file.
"""

import argparse
import os

from wigner.assembly import PhaseSpaceBasis, assemble_stationary_pair
from wigner.model import ModelParams, parse_potential
from wigner.solve import stationary_eigen


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--orders", type=int, nargs="+", default=[6, 8, 10])
    ap.add_argument("--levels", type=int, nargs="+", default=[4, 5, 6])
    ap.add_argument("--n-states", type=int, default=4)
    ap.add_argument("--box", type=float, default=4.0)
    ap.add_argument("--out", default=os.environ.get("WIGNER_OUT", "."))
    args = ap.parse_args()

    U = parse_potential("0.5*q^2")
    params = ModelParams()
    lines = ["# order j_fine n eps error"]
    for order in args.orders:
        for j in args.levels:
            ps = PhaseSpaceBasis(order=order, j_coarse=min(3, j), j_fine=j,
                                 q_min=-args.box, q_max=args.box,
                                 p_min=-args.box, p_max=args.box)
            A_sym, A_anti = assemble_stationary_pair(ps, U, params)
            states = stationary_eigen(A_sym, A_anti, args.n_states)
            errs = []
            for n, (eps, _) in enumerate(states):
                err = abs(eps - (n + 0.5))
                errs.append(err)
                lines.append(f"{order} {j} {n} {eps:.12g} {err:.3e}")
            print(f"order {order:2d}  j {j}  max error "
                  f"{max(errs):.3e}  (dim {ps.dim})")

    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "harmonic_spectrum.txt")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
