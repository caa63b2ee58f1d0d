"""Reduced spin Hamiltonian Sigma_z + lambda * Sigma_x**2 and its spectrum.

The Hamiltonian conserves the parity (-1)^(S-m), so it splits into two
blocks that never mix.  In the descending-m basis Sigma_x**2 couples index
i only to i +- 2, so the parity block of the level labeled m is every
other basis index, starting from the parity of m's own index S - m
(:func:`_block`); every module takes its blocks from here.  Eigenvalues
are labeled by the magnetic number m of the basis state they connect to
as lambda -> 0.  For lambda != 0 each block is an unreduced tridiagonal
(Jacobi) matrix: its eigenvalues are simple and never cross.  The level
labeled m is therefore, for every real lambda, the eigenvalue of the same
rank within its block: a read of one level solves only its block
(:func:`_level`), and only a whole spectrum solves both (:func:`_spectra`).
A two-state block is solved in closed form, a larger one by stacked
``eigh`` (:func:`_block_spectra`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def _reduced(rep: SpinRep, lam) -> np.ndarray:
    """Sigma_z + lambda Sigma_x^2, stacked for array-valued lambda."""
    return rep.sigma_z + np.asarray(lam)[..., None, None] * (rep.sigma_x @ rep.sigma_x)


def reduced_hamiltonian(rep: SpinRep, lam: float) -> ReducedHamiltonian:
    lam = float(lam)
    if not np.isfinite(lam):
        raise ValueError("lambda must be finite")
    return ReducedHamiltonian(rep=rep, lam=lam, matrix=_reduced(rep, lam))


def _block(rep: SpinRep, m: float) -> np.ndarray:
    """Basis indices of the parity block of the level labeled m."""
    return np.arange(_label_index(rep, m) % 2, rep.dim, 2)


def _block_operators(rep: SpinRep, sel: np.ndarray):
    """Sigma_z and Sigma_x**2 on the evenly spaced basis indices ``sel`` of
    a block (every other index for :func:`_block`), as strided slices."""
    block = slice(sel[0], sel[-1] + 1, sel[1] - sel[0] if len(sel) > 1 else 1)
    return rep.sigma_z[block, block], (rep.sigma_x @ rep.sigma_x)[block, block]


def parity_blocks(h: ReducedHamiltonian) -> tuple[ParityBlock, ParityBlock]:
    """Split the reduced Hamiltonian into its (even, odd) parity blocks."""
    rep = h.rep
    # even: m even for integer S (m = 0's block), S - m even otherwise (m = S's)
    even = _block(rep, rep.s if rep.two_s % 2 else 0.0)
    odd = np.arange(1 - even[0], rep.dim, 2)
    # cross-block couplings are structural zeros; guard against regressions
    cross = h.matrix[np.ix_(even, odd)]
    if cross.size and np.any(cross != 0.0):
        raise AssertionError("parity selection rule violated")
    return tuple(ParityBlock(name=name, matrix=h.matrix[np.ix_(sel, sel)],
                             m_values=rep.m_values[sel])
                 for name, sel in (("even", even), ("odd", odd)))


def characteristic_polynomial(block) -> np.ndarray:
    """Coefficients of det(x*I - A), monic, in descending powers of x, for a
    block or square matrix A.  Faddeev-LeVerrier recursion: exact up to
    float rounding, no eigensolve."""
    a = np.asarray(block.matrix if isinstance(block, ParityBlock) else block,
                   dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    n = a.shape[0]
    coeffs = np.ones(n + 1)
    m = np.zeros_like(a)
    c = 1.0
    for k in range(1, n + 1):
        m = a @ m + c * np.eye(n)
        c = -np.trace(a @ m) / k
        coeffs[k] = c
    return coeffs


def _label_index(rep: SpinRep, m: float) -> int:
    """Column of the level labeled m (labels in descending-m basis order)."""
    i = int(round(rep.s - m)) if np.isfinite(m) else -1
    if not 0 <= i < rep.dim or abs(rep.s - i - m) > 1e-12:
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
        """<Sigma_z> in level m, summed over m's parity block (where its
        eigenvector lives) as :func:`polarization` sums it."""
        sel = _block(self.rep, m)
        v = self.vectors[sel, self.index_of(m)]
        return float(np.sum(self.rep.m_values[sel] * v * v))


def _finite(lams) -> np.ndarray:
    lams = np.asarray(lams, dtype=float)
    if not np.all(np.isfinite(lams)):
        raise ValueError("lambda must be finite")
    return lams


def _block_spectra(rep: SpinRep, m: float, lams):
    """Basis indices ``sel`` of level m's parity block, and the block's
    energies (..., n) and eigenvectors (..., n, n) at every lambda of
    ``lams``, ascending: column k is the level of the block's k-th lowest m
    (basis index ``sel[-1 - k]``), its sign fixed by a positive parent
    component wherever that exceeds 1e-12 (it vanishes at isolated lambdas,
    where eigh's own sign stands).  A block mean + [[half, off], [off, -half]]
    of two states has energies mean -/+ hypot(half, off) and columns
    (-sin f, cos f), (cos f, sin f), f = atan2(off, half) / 2, whose parent
    components cos f are never negative; a larger one takes stacked ``eigh``."""
    sel = _block(rep, m)
    sz, sxsq = _block_operators(rep, sel)
    h = sz + lams[..., None, None] * sxsq
    if len(sel) == 2:
        mean, half = 0.5 * (h[..., 0, 0] + h[..., 1, 1]), 0.5 * (h[..., 0, 0] - h[..., 1, 1])
        radius, f = np.hypot(half, h[..., 1, 0]), 0.5 * np.arctan2(h[..., 1, 0], half)
        cos, sin = np.cos(f), np.sin(f)
        v = np.moveaxis(np.array([[-sin, cos], [cos, sin]]), (0, 1), (-2, -1))
        return sel, np.stack([mean - radius, mean + radius], axis=-1), v
    w, v = np.linalg.eigh(h)
    parent = np.diagonal(v[..., ::-1, :], axis1=-2, axis2=-1)
    v *= np.where(parent < -1e-12, -1.0, 1.0)[..., None, :]
    return sel, w, v


def _level(rep: SpinRep, m: float, lams):
    """Basis indices ``sel`` of level m's parity block, and the level's
    energies, eigenvectors on ``sel`` and polarizations p = sum_k m_k v_k^2
    at every lambda of ``lams``: the eigenvalue of m's rank within its
    block, from one stacked solve of that block alone."""
    sel, w, v = _block_spectra(rep, m, _finite(lams))
    k = len(sel) - 1 - _label_index(rep, m) // 2
    v = v[..., k]
    return sel, w[..., k], v, np.sum(rep.m_values[sel] * v * v, axis=-1)


def _spectra(rep: SpinRep, lams) -> tuple[np.ndarray, np.ndarray]:
    """Labeled energies and eigenvectors at every lambda of ``lams``.

    Returns arrays of shape ``shape(lams) + (dim,)`` and
    ``shape(lams) + (dim, dim)``, labels in basis (descending-m) order.
    Each parity block is solved for all lambdas in one stacked call
    (:func:`_block_spectra`); its k-th lowest eigenvalue is its k-th lowest m.
    """
    lams = _finite(lams)
    energies = np.empty(lams.shape + (rep.dim,))
    vectors = np.zeros(lams.shape + (rep.dim, rep.dim))
    for m in (rep.s, rep.s - 1)[:rep.dim]:  # the two blocks (one for S = 0)
        sel, w, v = _block_spectra(rep, m, lams)
        ranked = sel[::-1]  # eigh sorts ascending, the basis descends in m
        energies[..., ranked] = w
        vectors[..., sel[:, None], ranked] = v
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
    return float(_level(rep, m, float(lam))[3])


def _eigensystem(rep: SpinRep, lam: float):
    """Labeled energies E, eigenvectors U, V = U^T Sigma_x**2 U and the mask
    of label pairs of equal parity, at one lambda (V vanishes off it)."""
    energies, vectors = _spectra(rep, float(lam))
    idx = np.arange(rep.dim)
    v = vectors.T @ rep.sigma_x @ rep.sigma_x @ vectors
    return energies, vectors, v, (idx[:, None] - idx) % 2 == 0


def _energy_derivatives(rep: SpinRep, m: float, lam: float):
    """E(m, lambda) and its first three lambda-derivatives, from one
    eigensystem (the sums are those of :func:`energy_derivative`)."""
    energies, _, v, same = _eigensystem(rep, lam)
    i = _label_index(rep, m)
    n = same[i] & (np.arange(rep.dim) != i)
    w = v[i, n] / (energies[i] - energies[n])
    return (float(energies[i]), float(v[i, i]), float(2 * v[i, n] @ w),
            float(6 * (w @ v[np.ix_(n, n)] @ w - v[i, i] * (w @ w))))


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
    return _energy_derivatives(rep, m, lam)[order]


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
