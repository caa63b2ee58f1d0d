#!/usr/bin/env python3
"""Six-significant-digit even-polynomial fits of the magic coupling.

For every spin in ``MAGIC_LAMBDA_FIT_COEFFS`` this regenerates the table
row (c0, c1, c2, c3, c4) of lambda*(eta) ~ sum_k c_k eta^(2k):

1. root Delta_p(0, lambda, eta) = 0 on a uniform eta grid over [0, 0.5];
2. pin c0 to the six-significant-digit rounding of magic_lambda(rep, 0);
3. choose c1..c4 minimizing the worst |Delta_p| at the fitted coupling,
   linearized about each root (a linear program in the coefficients);
4. round c1..c4 to six significant digits and report the worst |Delta_p|
   of the rounded fit on the grid.

    python scripts/fit_magic_coupling.py
"""

import numpy as np
from scipy.optimize import linprog

from spinberry import delta_p, magic_lambda, spin_matrices
from spinberry.nonadiabatic import MAGIC_LAMBDA_FIT_COEFFS

N_COEFFS = 5
N_ETA = 201  # eta step 0.0025: the acceptance grid plus points between


def _round6(x):
    return float(f"{x:.6g}")


def fit_row(rep, etas):
    """Rounded coefficients and the (linearized) worst |Delta_p| before rounding."""
    c0 = _round6(magic_lambda(rep, 0.0))
    eta = etas[etas > 0.0]  # Delta_p vanishes identically at eta = 0
    roots = np.array([magic_lambda(rep, e) for e in eta])
    h = 1e-6
    slopes = np.array([(delta_p(rep, 0.0, r + h, e) - delta_p(rep, 0.0, r - h, e))
                       / (2 * h) for r, e in zip(roots, eta)])

    # |slope * (c0 - root + sum_k c_k eta^2k)| <= t, with the columns and
    # the residual scaled to order one so the solver tolerance is harmless
    basis = slopes[:, None] * eta[:, None] ** (2 * np.arange(1, N_COEFFS))
    offset = slopes * (c0 - roots)
    lsq = np.linalg.lstsq(basis, -offset, rcond=None)[0]
    base = offset + basis @ lsq
    scale = np.abs(base).max()
    cols = np.abs(basis).max(axis=0)
    a = basis / cols / scale
    n = N_COEFFS - 1
    a_ub = np.block([[a, -np.ones((eta.size, 1))], [-a, -np.ones((eta.size, 1))]])
    b_ub = np.concatenate([-base / scale, base / scale])
    cost = np.zeros(n + 1)
    cost[-1] = 1.0
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub,
                  bounds=[(None, None)] * n + [(0, None)], method="highs")
    if not res.success:
        raise RuntimeError(f"two_s={rep.two_s}: {res.message}")
    coeffs = lsq + res.x[:n] / cols
    return (c0, *(_round6(c) for c in coeffs)), res.x[-1] * scale


def polynomial(coeffs, eta):
    return sum(c * eta ** (2 * k) for k, c in enumerate(coeffs))


def main():
    etas = np.linspace(0.0, 0.5, N_ETA)
    for spin in sorted(MAGIC_LAMBDA_FIT_COEFFS):
        rep = spin_matrices(2 * spin)
        coeffs, minimax = fit_row(rep, etas)
        worst = max(abs(delta_p(rep, 0.0, polynomial(coeffs, eta), eta))
                    for eta in etas)
        print(f"{spin}: ({', '.join(repr(c) for c in coeffs)}),")
        print(f"   worst |Delta_p| over {etas.size} eta points: {worst:.2e} "
              f"(unrounded minimax {minimax:.2e})")


if __name__ == "__main__":
    main()
