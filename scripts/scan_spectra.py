#!/usr/bin/env python3
"""Energy and polarization curves for spins 2, 3, 4 over their usual
coupling ranges; one CSV per spin."""

from pathlib import Path

from spinberry.cli import main

RANGES = {"2": ("0", "2"), "3": ("0", "1.4"), "4": ("0", "1.2")}
OUT = Path(__file__).resolve().parent.parent / "results"


def run(out_dir=OUT):
    """Write the CSVs into ``out_dir`` (default ``results/``)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(exist_ok=True)
    for spin, (lo, hi) in RANGES.items():
        out = out_dir / f"spectrum_spin{spin}.csv"
        main(["spectrum", "--spin", spin, "--lambda-min", lo,
              "--lambda-max", hi, "--n", "201", "--out", str(out)])
        print(f"wrote {out}")


if __name__ == "__main__":
    run()
