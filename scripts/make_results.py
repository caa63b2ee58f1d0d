#!/usr/bin/env python3
"""Regenerate every file in results/ from one recipe table: a file is
written by one ``spinberry`` command (its argv, without --out) or, for the
q kernels, by :func:`q_kernel`.  A failed recipe is named and the script
exits 1.  Run as ``python scripts/make_results.py``."""

import csv
import sys
from pathlib import Path

import numpy as np

from spinberry import lambda_max_solve, q_coefficient, spin_matrices
from spinberry.cli import main

OUT = Path(__file__).resolve().parent.parent / "results"
T_GRID = ",".join(f"{t:g}" for t in np.arange(5.0, 41.0, 1.0))


def q_kernel(path, spin, lo, hi):
    """The leading correction kernel q(0, lambda) at 111 couplings."""
    rep = spin_matrices(2 * spin)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "q_m0"])
        for lam in np.linspace(lo, hi, 111):
            writer.writerow([f"{lam:.15g}", f"{q_coefficient(rep, 0.0, lam):.15g}"])


RECIPES = {
    # Energy and polarization curves for spins 2, 3, 4 over their usual coupling ranges.
    **{f"spectrum_spin{s}.csv": ["spectrum", "--spin", s, "--lambda-min", "0",
                                 "--lambda-max", hi, "--n", "201"]
       for s, hi in (("2", "2"), ("3", "1.4"), ("4", "1.2"))},
    # A_alpha on the sphere: dipole-like S = 1, m = 1 against non-linear S = 2, m = 0.
    **{f"gauge_sphere_spin{s}_m{m}.csv": ["gauge-sphere", "--spin", s, "--m", m,
                                          "--n", "361"]
       for s, m in (("1", "1"), ("2", "0"))},
    # Correction kernel q(0, lambda) of spins 2 and 4; magic couplings versus eta.
    "q_kernel_spin2.csv": lambda path: q_kernel(path, 2, 0.3, 1.4),
    "q_kernel_spin4.csv": lambda path: q_kernel(path, 4, 0.2, 0.9),
    **{f"magic_spin{s}.csv": ["magic", "--spin", s, "--eta-min", "0",
                              "--eta-max", "0.5", "--n", "11"]
       for s in ("2", "4")},
    # Transverse coefficients p2 and C_xy of spin-2 levels m = 0, -1 over lambda 0.7..1.2.
    **{f"transverse_spin2_m{m.replace('-', 'm')}.csv": [
        "transverse", "--spin", "2", "--m", m, "--lambda-min", "0.7",
        "--lambda-max", "1.2", "--n", "51"] for m in ("0", "-1")},
    # Blackman shaping tames ramp oscillations: <S_z> deviation versus T, against linear.
    **{f"ramp_{tag}_{shape}.csv": ["ramp", "--spin", "2", "--m", m, "--lambda0", lam0,
                                   "--shape", shape, "--T", T_GRID]
       for m, lam0, tag in (("-1", "1.0", "two_level"), ("0", "0.838", "three_level"))
       for shape in ("blackman", "linear")},
    # Four-spin entangling cycle where the sector phase difference is -pi, stretch tuned.
    "entangle_lambda_max.json": ["entangle", "--lambda0", f"{lambda_max_solve():.15g}",
                                 "--T", "25", "--tune", "auto"],
}


def make(name, path):
    """Write the file ``name`` to ``path`` by its recipe; the exit status."""
    recipe = RECIPES[name]
    if callable(recipe):
        recipe(path)
        return 0
    try:
        return main([*recipe, "--out", str(path)])
    except SystemExit as exc:  # argparse rejected the recipe
        return exc.code


def run(out_dir=OUT):
    """Write every file of the table into ``out_dir``; the names that failed."""
    out_dir = Path(out_dir)
    out_dir.mkdir(exist_ok=True)
    return [name for name in RECIPES if make(name, out_dir / name) != 0]


if __name__ == "__main__":
    failed = run()
    sys.exit(f"error: recipe failed for {', '.join(failed)}" if failed else 0)
