"""Piecewise symbols: predicted vs empirical spectrum of phi(H) - phi(H0).

A symbol with jumps at lambda_1, lambda_2 predicts an essential spectrum
that is a union of segments with half-widths |kappa_i| * a(lambda_i).
This demo builds a two-jump symbol, prints the prediction, computes the
empirical eigenvalue clouds on a ladder, and reports the Hausdorff distance
(which shrinks only logarithmically — see the ladder demo).  Run:

    python3 demos/03_piecewise_symbols.py
"""

import numpy as np

from specdiff import (ModelSpec, PiecewiseFn, alpha_derivative, boundary_value, build_model,
                      empirical_spectrum, hausdorff, predicted_ess_spectrum)


def alpha_at(lam):
    pair = build_model(ModelSpec("lattice1d", 50, ((0, 1.0),)))
    return alpha_derivative(boundary_value(pair, lam), pair.j).value


def main():
    phi = PiecewiseFn(jumps=((-0.5, 0.0, 1.0), (0.5, 0.0, 0.5)),
                      background="gaussian_bump",
                      background_params=(0.3, 0.0, 1.0))
    print("symbol:", phi.to_json())
    pred = predicted_ess_spectrum(phi, alpha_at)
    lo, hi = pred.real_interval()
    print(f"predicted essential spectrum: [{lo:.4f}, {hi:.4f}]")

    spec = ModelSpec("lattice1d", 250, ((0, 1.0),))
    res = empirical_spectrum(spec, phi, (250, 500, 1000))
    acc = res["accumulation"]
    target = np.linspace(lo, hi, 2001)
    print(f"stable eigenvalues at N=1000: {acc.size}")
    print(f"Hausdorff distance to prediction: "
          f"{hausdorff(np.concatenate([acc, [0.0]]), target):.3f}")
    print("\nthe distance is dominated by the slow filling at the segment "
          "edges; the interior matches the prediction.")


if __name__ == "__main__":
    main()
