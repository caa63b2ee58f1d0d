"""Exact spin operators and rotation unitaries for arbitrary spin.

Basis convention throughout the package: the standard |S, m> angular
momentum basis ordered by descending m (m = S, S-1, ..., -S), with the
standard phase convention so that Sigma_x and Sigma_z are real symmetric
and Sigma_y is purely imaginary antisymmetric.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class EulerAngles:
    """z-y-z Euler angles; theta restricted to [0, pi], the others may wind.
    Arrays of angles (broadcast together) describe one rotation per entry."""

    theta: float | np.ndarray
    phi: float | np.ndarray
    alpha: float | np.ndarray

    def __post_init__(self):
        if not np.all((self.theta >= 0.0) & (self.theta <= np.pi)):
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")


@dataclass(frozen=True)
class SpinRep:
    """Spin-S representation: dimensionless spin matrices in the |S, m> basis.

    ``two_s`` is the doubled spin (so S = two_s / 2, integer or half-integer).
    """

    two_s: int
    dim: int
    sigma_x: np.ndarray
    sigma_y: np.ndarray
    sigma_z: np.ndarray

    @property
    def s(self) -> float:
        return self.two_s / 2.0

    @property
    def m_values(self) -> np.ndarray:
        """m quantum numbers in basis order (descending)."""
        return (self.two_s - 2 * np.arange(self.dim)) / 2.0

    @cached_property
    def sy_eigensystem(self):
        """Eigendecomposition (w, v) of Sigma_y, solved on first use."""
        return np.linalg.eigh(self.sigma_y)


def spin_matrices(two_s: int) -> SpinRep:
    """Build the (2S+1)-dimensional spin matrices from ladder operators."""
    if not isinstance(two_s, (int, np.integer)) or two_s < 0:
        raise ValueError(f"two_s must be a non-negative integer, got {two_s!r}")
    two_s = int(two_s)
    dim = two_s + 1
    s = two_s / 2.0
    m = (two_s - 2 * np.arange(dim)) / 2.0
    raising = np.zeros((dim, dim))
    for i in range(1, dim):
        raising[i - 1, i] = np.sqrt(s * (s + 1) - m[i] * (m[i] + 1))
    sx = (raising + raising.T) / 2.0
    sy = (raising - raising.T) / 2j
    sz = np.diag(m)
    return SpinRep(two_s=two_s, dim=dim, sigma_x=sx, sigma_y=sy, sigma_z=sz)


def m_parity(two_s: int, m: float) -> int:
    """Eigenvalue (-1)^(S-m) of the pi-rotation parity about the z axis."""
    s = two_s / 2.0
    k = s - m
    if abs(k - round(k)) > 1e-12 or abs(m) > s + 1e-12:
        raise ValueError(f"invalid m={m} for two_s={two_s}")
    return 1 if round(k) % 2 == 0 else -1


def rotation_unitary(rep: SpinRep, angles: EulerAngles) -> np.ndarray:
    """Unitary exp(-i Sz phi) exp(-i Sy theta) exp(-i Sz alpha).

    The two z-factors are diagonal; the y-factor comes from the cached
    eigendecomposition of Sigma_y, so the result is unitary to rounding.
    When theta is zero everywhere there is no y-factor and the result is
    exactly diagonal.  Array-valued angles give the unitaries stacked along
    the leading axes.
    """
    m = rep.m_values
    left = np.exp(np.multiply.outer(angles.phi, -1j * m))
    right = np.exp(np.multiply.outer(angles.alpha, -1j * m))
    if np.any(angles.theta):
        w, v = rep.sy_eigensystem
        mid = v * np.exp(np.multiply.outer(angles.theta, -1j * w))[..., None, :]
        mid = mid @ v.conj().T
    else:
        mid = np.broadcast_to(np.eye(rep.dim), np.shape(angles.theta) + (rep.dim,) * 2)
    return left[..., :, None] * mid * right[..., None, :]
