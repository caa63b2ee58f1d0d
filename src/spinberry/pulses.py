"""Pulse shapes for parameter ramps and rotation rates.

A shape prescribes the *rate* profile of a parameter change over a unit
interval; its integral is normalized to one analytically so a ramp always
lands exactly on its target.  The smooth option is the Blackman window
0.42 - 0.5 cos(2 pi s) + 0.08 cos(4 pi s), whose mean over [0, 1] is 0.42
and whose value and slope vanish at both ends.

Every function here takes a fraction s or an array of them and returns a
value of the same shape (a scalar s gives a numpy scalar).  A value outside
[0, 1] anywhere in the array raises ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BLACKMAN_MEAN = 0.42

# The names of the pulse shapes, in the order that ``ramp --shape`` lists them.
SHAPES = ("linear", "blackman")


def _fractions(s) -> np.ndarray:
    """s as a float array, checked to lie in [0, 1] everywhere."""
    s = np.asarray(s, dtype=float)
    outside = ~((0.0 <= s) & (s <= 1.0))
    if np.any(outside):
        raise ValueError(f"fraction must lie in [0, 1], got {s[outside][0]}")
    return s


def blackman(s):
    """Blackman window value at fraction s in [0, 1]."""
    s = _fractions(s)
    return 0.42 - 0.5 * np.cos(2 * np.pi * s) + 0.08 * np.cos(4 * np.pi * s)


def blackman_integral(s):
    """Integral of the Blackman window from 0 to s (s in [0, 1])."""
    s = _fractions(s)
    return (0.42 * s - 0.5 * np.sin(2 * np.pi * s) / (2 * np.pi)
            + 0.08 * np.sin(4 * np.pi * s) / (4 * np.pi))


@dataclass(frozen=True)
class PulseShape:
    """Normalized rate profile over a unit interval, named in :data:`SHAPES`."""

    kind: str

    def __post_init__(self):
        if self.kind not in SHAPES:
            raise ValueError(f"unknown pulse shape {self.kind!r}")

    def fraction(self, s):
        """Completed fraction of the total change after a fraction s of time."""
        if self.kind == "linear":
            return _fractions(s)[()]
        return blackman_integral(s) / BLACKMAN_MEAN

    def rate(self, s):
        """d fraction / d s; integrates to exactly one over [0, 1]."""
        if self.kind == "linear":
            return np.ones_like(_fractions(s))[()]
        return blackman(s) / BLACKMAN_MEAN
