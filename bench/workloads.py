"""Per-round CLI inputs of each workload, drawn from the run's seed.

A round is one call of each of the workload's commands.  Round k of a
run with seed n draws its inputs from ``random.Random(f"{workload}:{n}:{k}")``,
so the same seed gives the same inputs and no two rounds share them.  The
ranges are listed in bench/README.md; each keeps the work per round
nearly constant (grids of fixed size and span, durations with a fixed
mean) so that the median round time does not depend on the seed.
"""

from __future__ import annotations

import random

WORKLOADS = ("scan", "propagate", "cycle")

SCAN_SPINS = ("2", "5/2", "3", "4")
SPECTRUM_POINTS = 6
SPECTRUM_SPAN = 2.5
GAUGE_POINTS = 9
TRANSVERSE_POINTS = 3
TRANSVERSE_SPAN = 0.2
ENTANGLE_STAGE = 15.0


def _num(x: float) -> str:
    return repr(float(x))


def scan_round(rng: random.Random) -> list[list[str]]:
    cmds = []
    for spin in SCAN_SPINS:
        lo = rng.uniform(-1.2, -0.8)
        cmds.append(["spectrum", "--spin", spin, "--lambda-min", _num(lo),
                     "--lambda-max", _num(lo + SPECTRUM_SPAN),
                     "--n", str(SPECTRUM_POINTS)])
    # The theta grid is fixed by n; the sign of m mirrors it.
    for spin in ("1", "2"):
        m = rng.choice(("1", "-1"))
        cmds.append(["gauge-sphere", "--spin", spin, "--m", m,
                     "--n", str(GAUGE_POINTS)])
    eta = rng.uniform(0.2, 0.45)
    cmds.append(["magic", "--spin", "2", "--eta-min", _num(eta),
                 "--eta-max", _num(eta), "--n", "1"])
    lo = rng.uniform(0.7, 0.9)
    cmds.append(["transverse", "--spin", "2", "--m", "0",
                 "--lambda-min", _num(lo),
                 "--lambda-max", _num(lo + TRANSVERSE_SPAN),
                 "--n", str(TRANSVERSE_POINTS)])
    return cmds


def _ramp_durations(rng: random.Random) -> str:
    return ",".join(_num(base + rng.uniform(-1.0, 1.0)) for base in (10, 20, 30))


def propagate_round(rng: random.Random, lambda_max: float) -> list[list[str]]:
    return [
        ["ramp", "--spin", "2", "--m", "-1",
         "--lambda0", _num(rng.uniform(0.9, 1.1)), "--shape", "blackman",
         "--T", _ramp_durations(rng)],
        ["ramp", "--spin", "2", "--m", "0",
         "--lambda0", _num(rng.uniform(0.8, 0.88)), "--shape", "blackman",
         "--T", _ramp_durations(rng)],
        # lambda_max is the only coupling at which the fidelity check holds,
        # and T = 15 the shortest stage that keeps sector leakage below 1e-3.
        ["entangle", "--lambda0", _num(lambda_max), "--T", _num(ENTANGLE_STAGE),
         "--tune", "auto"],
    ]


def cycle_schedule(lambda0: float) -> str:
    """Ramp 0 -> lambda0 over 10, rotate alpha by a half-turn over 20, ramp back."""
    return (f"# ramp up, rotate alpha by pi, ramp down\n"
            f"lambda0 = 0.0\n"
            f"segment1.kind = ramp\n"
            f"segment1.duration = 10\n"
            f"segment1.shape = blackman\n"
            f"segment1.lambda_to = {_num(lambda0)}\n"
            f"segment2.kind = rotate\n"
            f"segment2.duration = 20\n"
            f"segment2.shape = blackman\n"
            f"segment2.alpha_half_turns = 1\n"
            f"segment3.kind = ramp\n"
            f"segment3.duration = 10\n"
            f"segment3.shape = blackman\n"
            f"segment3.lambda_to = 0.0\n")


def cycle_lambda0(rng: random.Random) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(0.8, 1.2)


def round_rng(workload: str, seed: int, k: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{k}")
