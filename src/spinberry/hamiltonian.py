"""Reduced spin Hamiltonian Sigma_z + lambda * Sigma_x**2 and its spectrum.

The Hamiltonian conserves the parity (-1)^(S-m), so it splits into two
blocks that never mix.  Eigenvalues are labeled by the magnetic number m
of the basis state they connect to as lambda -> 0.  Sigma_x**2 couples m
only to m +- 2, so for lambda != 0 each block is an unreduced tridiagonal
(Jacobi) matrix: its eigenvalues are simple and never cross.  The level
labeled m is therefore, for every real lambda, the eigenvalue of the same
rank within its block, and one eigensolve per block labels a spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import monic_characteristic_coefficients
from .spin_algebra import SpinRep


@dataclass(frozen=True)
class ReducedHamiltonian:
    """Dimensionless Hamiltonian Sigma_z + lambda * Sigma_x**2."""

    rep: SpinRep
    lam: float
    matrix: np.ndarray


@dataclass(frozen=True)
class ParityBlock:
    """One parity sub-block of the reduced Hamiltonian.

    ``m_values`` maps block indices to the m of the underlying basis state.
    For integer spins the even/odd names follow the parity of m itself;
    for half-integer spins they follow the parity of S - m.
    """

    name: str
    matrix: np.ndarray
    m_values: np.ndarray


def reduced_hamiltonian(rep: SpinRep, lam: float) -> ReducedHamiltonian:
    lam = float(lam)
    if not np.isfinite(lam):
        raise ValueError("lambda must be finite")
    matrix = rep.sigma_z + lam * (rep.sigma_x @ rep.sigma_x)
    return ReducedHamiltonian(rep=rep, lam=lam, matrix=matrix)


def _even_block_mask(two_s: int) -> np.ndarray:
    idx = np.arange(two_s + 1)
    if two_s % 2 == 0:
        doubled_m = two_s - 2 * idx
        return doubled_m % 4 == 0
    return idx % 2 == 0


def parity_blocks(h: ReducedHamiltonian) -> tuple[ParityBlock, ParityBlock]:
    """Split the reduced Hamiltonian into its (even, odd) parity blocks."""
    mask = _even_block_mask(h.rep.two_s)
    m = h.rep.m_values
    blocks = []
    for name, sel in (("even", mask), ("odd", ~mask)):
        sub = h.matrix[np.ix_(sel, sel)]
        blocks.append(ParityBlock(name=name, matrix=sub, m_values=m[sel]))
    # cross-block couplings are structural zeros; guard against regressions
    cross = h.matrix[np.ix_(mask, ~mask)]
    if cross.size and np.any(cross != 0.0):
        raise AssertionError("parity selection rule violated")
    return blocks[0], blocks[1]


def characteristic_polynomial(block) -> np.ndarray:
    """Monic characteristic polynomial coefficients, descending powers."""
    matrix = block.matrix if isinstance(block, ParityBlock) else np.asarray(block)
    return monic_characteristic_coefficients(matrix)


def _label_index(rep: SpinRep, m: float) -> int:
    """Column of the level labeled m (labels in descending-m basis order)."""
    i = int(round(rep.s - m))
    if not 0 <= i < rep.dim or abs(rep.m_values[i] - m) > 1e-12:
        raise ValueError(f"no level labeled m={m}")
    return i


@dataclass(frozen=True)
class LabeledSpectrum:
    """Labeled eigensystem of the reduced Hamiltonian at one lambda.

    Columns of ``vectors`` are real eigenvectors aligned with ``m_labels``
    (descending m).  Each eigenvector has support only on basis states of
    its own parity, and its sign is fixed by a positive overlap with the
    parent basis state whenever that overlap exceeds 1e-12.
    """

    rep: SpinRep
    lam: float
    m_labels: np.ndarray
    energies: np.ndarray
    vectors: np.ndarray

    def index_of(self, m: float) -> int:
        return _label_index(self.rep, m)

    def energy(self, m: float) -> float:
        return float(self.energies[self.index_of(m)])

    def vector(self, m: float) -> np.ndarray:
        return self.vectors[:, self.index_of(m)].copy()

    def polarization(self, m: float) -> float:
        v = self.vectors[:, self.index_of(m)]
        return float(np.sum(self.rep.m_values * v * v))


def _spectra(rep: SpinRep, lams) -> tuple[np.ndarray, np.ndarray]:
    """Labeled energies and eigenvectors at every lambda of ``lams``.

    Returns arrays of shape ``shape(lams) + (dim,)`` and
    ``shape(lams) + (dim, dim)``, labels in basis (descending-m) order.
    Each parity block is diagonalized for all lambdas in one stacked
    ``eigh``; its k-th lowest eigenvalue belongs to its k-th lowest m.
    """
    lams = np.asarray(lams, dtype=float)
    if not np.all(np.isfinite(lams)):
        raise ValueError("lambda must be finite")
    sxsq = rep.sigma_x @ rep.sigma_x
    energies = np.empty(lams.shape + (rep.dim,))
    vectors = np.zeros(lams.shape + (rep.dim, rep.dim))
    mask = _even_block_mask(rep.two_s)
    for sel in (np.flatnonzero(mask), np.flatnonzero(~mask)):
        if sel.size == 0:
            continue
        block = np.ix_(sel, sel)
        w, v = np.linalg.eigh(rep.sigma_z[block]
                              + lams[..., None, None] * sxsq[block])
        ranked = sel[::-1]  # eigh sorts ascending, the basis descends in m
        energies[..., ranked] = w
        vectors[..., sel[:, None], ranked] = v
    # sign: parent component positive wherever it exceeds 1e-12; it
    # vanishes at isolated lambdas, where eigh's own sign stands
    parent = np.diagonal(vectors, axis1=-2, axis2=-1)
    vectors *= np.where(parent < -1e-12, -1.0, 1.0)[..., None, :]
    return energies, vectors


def labeled_spectrum(rep: SpinRep, lam: float) -> LabeledSpectrum:
    """Labeled spectrum at ``lam``: level m is the eigenvalue of m's rank
    within its parity block."""
    lam = float(lam)
    energies, vectors = _spectra(rep, lam)
    return LabeledSpectrum(rep=rep, lam=lam, m_labels=rep.m_values.copy(),
                           energies=energies, vectors=vectors)


def polarization(rep: SpinRep, m: float, lam: float) -> float:
    """<Sigma_z> in the eigenstate labeled m (exact eigenvector expectation)."""
    return labeled_spectrum(rep, lam).polarization(m)


def _eigensystem(rep: SpinRep, lam: float):
    """Labeled energies E, eigenvectors U, V = U^T Sigma_x**2 U and the mask
    of label pairs of equal parity, at one lambda (V vanishes off it)."""
    energies, vectors = _spectra(rep, float(lam))
    idx = np.arange(rep.dim)
    v = vectors.T @ rep.sigma_x @ rep.sigma_x @ vectors
    return energies, vectors, v, (idx[:, None] - idx) % 2 == 0


def energy_derivative(rep: SpinRep, m: float, lam: float,
                      order: int = 1) -> float:
    """d^order E(m, lambda) / d lambda^order, exact to rounding.

    With V = Sigma_x**2 in the eigenbasis and D_n = E_m - E_n over the
    other levels n of m's parity block:  E' = V_mm (Hellmann-Feynman),
    E'' = 2 sum_n V_mn^2 / D_n and
    E'''/6 = sum_nk V_mn V_nk V_km / (D_n D_k) - V_mm sum_n V_mn^2 / D_n^2.
    The block is unreduced tridiagonal, so no D_n vanishes for real lambda.
    """
    if order not in (1, 2, 3):
        raise ValueError("order must be 1, 2 or 3")
    energies, _, v, same = _eigensystem(rep, lam)
    i = _label_index(rep, m)
    if order == 1:
        return float(v[i, i])
    n = same[i] & (np.arange(rep.dim) != i)
    w = v[i, n] / (energies[i] - energies[n])
    if order == 2:
        return float(2 * v[i, n] @ w)
    return float(6 * (w @ v[np.ix_(n, n)] @ w - v[i, i] * (w @ w)))


def polarization_hellmann_feynman(rep: SpinRep, m: float, lam: float) -> float:
    """p = E - lambda dE/dlambda, the B-field gradient of the eigenenergy."""
    spec = labeled_spectrum(rep, lam)
    return spec.energy(m) - lam * energy_derivative(rep, m, lam, order=1)


def perturbative_polarization_m0(rep: SpinRep, lam: float) -> float:
    """Leading-order polarization of the m = 0 level, (1/8) lam^3 S(S+2)(S^2-1).

    Cubic in the coupling; useful for |lambda| <~ 0.4 at S = 2 and the
    validity window shrinks quickly with S (|lambda| <~ 0.12 at S = 3).
    """
    if rep.two_s % 2 != 0:
        raise ValueError("m = 0 level requires integer spin")
    s = rep.s
    if s < 2:
        raise ValueError("formula applies to integer S >= 2")
    return lam**3 * s * (s + 2) * (s**2 - 1) / 8.0
