"""Characteristic polynomials of the small parity blocks.

Eigensolves use ``numpy.linalg.eigh`` directly; this module holds only
the eigensolve-free Faddeev-LeVerrier recursion that the characteristic
polynomial checks rely on.
"""

from __future__ import annotations

import numpy as np


def monic_characteristic_coefficients(matrix: np.ndarray) -> np.ndarray:
    """Coefficients of det(x*I - A), monic, in descending powers of x.

    Faddeev-LeVerrier recursion: exact up to float rounding, no eigensolve.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    n = a.shape[0]
    coeffs = np.empty(n + 1)
    coeffs[0] = 1.0
    m = np.zeros_like(a)
    c = 1.0
    for k in range(1, n + 1):
        m = a @ m + c * np.eye(n)
        c = -np.trace(a @ m) / k
        coeffs[k] = c
    return coeffs
