#!/usr/bin/env python3
"""Leading correction kernel q(0, lambda) for spins 2 and 4, plus the magic
couplings against the rotation-rate ratio."""

import csv
from pathlib import Path

import numpy as np

from spinberry import q_coefficient, spin_matrices
from spinberry.cli import main

OUT = Path(__file__).resolve().parent.parent / "results"


def run(out_dir=OUT):
    """Write the CSVs into ``out_dir`` (default ``results/``)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(exist_ok=True)
    for spin, lo, hi in ((2, 0.3, 1.4), (4, 0.2, 0.9)):
        rep = spin_matrices(2 * spin)
        path = out_dir / f"q_kernel_spin{spin}.csv"
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["lambda", "q_m0"])
            for lam in np.linspace(lo, hi, 111):
                writer.writerow([f"{lam:.15g}",
                                 f"{q_coefficient(rep, 0.0, lam):.15g}"])
        print(f"wrote {path}")
    for spin in ("2", "4"):
        out = out_dir / f"magic_spin{spin}.csv"
        main(["magic", "--spin", spin, "--eta-min", "0", "--eta-max", "0.5",
              "--n", "11", "--out", str(out)])
        print(f"wrote {out}")


if __name__ == "__main__":
    run()
