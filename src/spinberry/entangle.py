"""Holonomic entanglement of four spin-1/2 particles via a collective cycle.

The collective Hamiltonian b (S_z + lambda S_x^2), built from the *total*
spin of four qubits, is invariant under every spin permutation.  The
M = 1 subspace of the product space splits into one totally symmetric
S = 2 state and three orthogonal S = 1 "towers" that never mix, so a
closed cycle multiplies each sector by its own phase.  A coupling ramp
plus a 3 pi rotation of the transverse-field axis imprints the phase
difference

    Delta_beta(lambda0) = 3 pi [ 2/sqrt(9 lambda0^2 + 4)
                                - 2/sqrt(lambda0^2 + 4) ],

and lambda0 = lambda_max (about -0.97, where Delta_beta = -pi) turns any
of the four one-flip product states into a maximally spread entangled
superposition.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dynamics import (LeakageWarning, _block_hamiltonian, _mirror_pair, _ramp_run,
                       _run_propagator, _step_grid, adiabatic_dynamical_phase)
from .hamiltonian import _label_index, _level
from .schedules import alpha_rotation_cycle, three_stage_cycle
from .spin_algebra import spin_matrices

logger = logging.getLogger(__name__)

_N_SPINS = 4
_DIM = 2 ** _N_SPINS

# Sector leakage above which the cycle is untrusted (``entangle`` exits 1).
_SECTOR_LEAKAGE_BOUND = 1e-3

# The paper's cycle: alpha turns by 3 pi, every stage with a Blackman profile.
_N_ALPHA = 3
_SHAPE = "blackman"

# Window of ramp stretches searched by tune_stage_stretch.
_STRETCH_BOUNDS = (0.88, 1.12)

# Simpson nodes of the ramp's dynamical phase (error about 3e-11 rad at lambda_max).
_PHASE_QUAD_POINTS = 257


def _candidate_margin(stage_duration: float) -> float:
    """Margin below its best within which a grid maximum of the adiabatic
    fidelity prediction is polished on the exact fidelity: twice the
    prediction's miss, which on the 25-stretch grid at lambda_max is
    0.107 / T to 0.128 / T for every stage length T from 7 to 50 (7.8e-3
    at T = 15), and at least 0.02, the margin from T = 13 up."""
    return max(0.02, 0.26 / stage_duration)


@dataclass(frozen=True)
class FourSpinState:
    """Unit vector over the four-qubit product basis.

    Basis order is lexicographic in (m1, m2, m3, m4) with +1/2 before
    -1/2, i.e. index bit 3 - k set means spin k+1 is down.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (_DIM,):
            raise ValueError(f"expected {_DIM} amplitudes")
        if abs(np.linalg.norm(amp) - 1.0) > 1e-12:
            raise ValueError("state is not normalized")
        object.__setattr__(self, "amplitudes", amp)

    def overlap(self, other: "FourSpinState") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@lru_cache(maxsize=1)
def collective_spin() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Total spin components (Sx, Sy, Sz) on the four-qubit product space."""
    half = spin_matrices(1)
    singles = (half.sigma_x, half.sigma_y, half.sigma_z)
    eye = np.eye(2)
    totals = []
    for op in singles:
        total = np.zeros((_DIM, _DIM), dtype=op.dtype)
        for site in range(_N_SPINS):
            factors = [eye] * _N_SPINS
            factors[site] = op
            term = factors[0]
            for f in factors[1:]:
                term = np.kron(term, f)
            total = total + term
        totals.append(total)
    return tuple(totals)


def _one_flip_states() -> list[np.ndarray]:
    """Product states with a single down spin, Phi^(1)..Phi^(4)."""
    return list(np.eye(_DIM)[[1 << (_N_SPINS - 1 - site) for site in range(_N_SPINS)]])


@dataclass(frozen=True)
class SymmetricBasis:
    """Orthonormal permutation-adapted basis of the four-qubit M = 1 space.

    ``psi_21`` is the totally symmetric S = 2, M = 1 state; ``psi_11``
    are the three S = 1, M = 1 towers.  ``expansion`` holds the +-1
    coefficients a[i, j] in Phi^(i) = (sum_j a[i,j] Psi^j + Psi_21) / 2.
    """

    psi_21: FourSpinState
    psi_11: tuple[FourSpinState, FourSpinState, FourSpinState]
    expansion: np.ndarray


# a[i, j] of Phi^(i) = (sum_j a[i, j] Psi^j + Psi_21) / 2, so that
# Psi^j = sum_i a[i, j] Phi^(i) / 2 and Psi_21 = sum_i Phi^(i) / 2.
_TOWER_SIGNS = np.array([[1, 1, 1], [-1, -1, 1], [1, -1, -1], [-1, 1, -1]], dtype=float)


def _half_sum(signs) -> FourSpinState:
    """sum_i signs[i] Phi^(i) / 2."""
    return FourSpinState(0.5 * sum(a * phi for a, phi in zip(signs, _one_flip_states())))


def symmetric_basis_m1() -> SymmetricBasis:
    return SymmetricBasis(psi_21=_half_sum(np.ones(_N_SPINS)),
                          psi_11=tuple(_half_sum(signs) for signs in _TOWER_SIGNS.T),
                          expansion=_TOWER_SIGNS.copy())


def bp_target_state() -> FourSpinState:
    """Maximally entangled target Phi^(1) - (1/2) sum_j Phi^(j) (unit norm)."""
    return _half_sum((1.0, -1.0, -1.0, -1.0))


def _beta_alpha_only(b_sq: float, lam0: float) -> float:
    with np.errstate(over="ignore"):  # numpy's lam0**2 overflows to inf, Python's raises
        return _N_ALPHA * np.pi * (2.0 / np.sqrt(b_sq * np.float64(lam0)**2 + 4.0) - 1.0)


@dataclass(frozen=True)
class DeltaBeta:
    """Closed-form sector phases for an alpha-only 3 pi rotation."""

    beta_21: float
    beta_11: float
    delta: float


def closed_form_delta_beta(lambda0: float) -> DeltaBeta:
    """Sector phases beta(2,1), beta(1,1) and their difference at lambda0."""
    b21 = _beta_alpha_only(9.0, lambda0)
    b11 = _beta_alpha_only(1.0, lambda0)
    return DeltaBeta(beta_21=b21, beta_11=b11, delta=b21 - b11)


def lambda_max_solve() -> float:
    """Negative coupling at which the sector phase difference equals -pi."""
    from scipy.optimize import brentq  # on demand: keeps scipy off start-up
    root = brentq(lambda lam: closed_form_delta_beta(lam).delta + np.pi,
                  -1.5, -0.5, xtol=1e-14, rtol=8.9e-16)
    return float(root)


def _tower_embeddings():
    """Multiplet bases: (16x5 S=2 embedding, 16x3 S=1 tower embeddings)."""
    sx, sy, _ = collective_spin()
    s_minus = sx - 1j * sy

    def lower_chain(top, s):
        cols = [top / np.linalg.norm(top)]
        m = s
        while m > -s + 0.5:
            nxt = s_minus @ cols[-1]
            cols.append(nxt / np.linalg.norm(nxt))
            m -= 1.0
        return np.column_stack(cols)

    top2 = np.zeros(_DIM, dtype=complex)
    top2[0] = 1.0  # |++++>
    w2 = lower_chain(top2, 2.0)
    basis = symmetric_basis_m1()
    w1 = [lower_chain(tower.amplitudes, 1.0) for tower in basis.psi_11]
    return w2, w1


@dataclass(frozen=True)
class EntangleResult:
    """Outcome of the three-stage entangling cycle."""

    final_state: FourSpinState
    fidelity: float
    delta_beta_measured: float
    delta_beta_closed_form: float
    sector_leakage: float
    stage_stretch: float
    stage_duration: float
    lambda0: float


def entangling_cycle(lambda0: float, stage_duration: float = 25.0,
                     steps: int | None = None,
                     tune_factor: float = 1.0) -> EntangleResult:
    """Run the ramp / rotate / ramp cycle on the four-spin M = 1 sector.

    The S = 2 multiplet and one of the three identical S = 1 towers each run
    the cycle and its image from M = 1 (the parity-block runs of
    :func:`spinberry.dynamics.mirror_phase_difference`, without its
    warnings).  The sector phase difference is the difference of their
    extracted phases; the final state embeds the lab-frame forward final
    states into the 16-dim product space.  ``tune_factor`` stretches the two
    ramp stages to steer the residual dynamical-phase difference (see
    :func:`tune_stage_stretch`).
    """
    schedule = three_stage_cycle(lambda0, stage_duration, _N_ALPHA, tune_factor,
                                 _SHAPE)
    pair2, pair1 = (_mirror_pair(spin_matrices(two_s), 1.0, schedule, steps)
                    for two_s in (4, 2))
    delta_measured = pair2.extracted_phase - pair1.extracted_phase
    w2, w1 = _tower_embeddings()
    state = 0.5 * (w2 @ pair2.forward.final_state
                   + sum(w @ pair1.forward.final_state for w in w1))
    final = FourSpinState(state / np.linalg.norm(state))

    basis = symmetric_basis_m1()
    sector_pop = abs(basis.psi_21.overlap(final)) ** 2 + sum(
        abs(tower.overlap(final)) ** 2 for tower in basis.psi_11)
    leakage = np.maximum(1.0 - sector_pop, 0.0)  # a NaN state leaks NaN
    if not leakage <= _SECTOR_LEAKAGE_BOUND:
        warnings.warn(LeakageWarning(f"four-spin cycle leaked {leakage:.2e} out of "
                                     f"the M = 1 symmetry sectors", leakage,
                                     _SECTOR_LEAKAGE_BOUND),
                      stacklevel=2)
    fidelity = abs(bp_target_state().overlap(final)) ** 2
    return EntangleResult(final_state=final, fidelity=float(fidelity),
                          delta_beta_measured=float(delta_measured),
                          delta_beta_closed_form=closed_form_delta_beta(lambda0).delta,
                          sector_leakage=float(leakage),
                          stage_stretch=float(tune_factor),
                          stage_duration=float(stage_duration),
                          lambda0=float(lambda0))


def _rotation_blocks(lambda0: float, stage_duration: float):
    """(rep, operators, U_rot, k) of the S = 2 and S = 1 multiplets: the
    rotation stage's propagator on the M = 1 parity block, whose operators
    (Sigma_z, Sigma_x^2) are the ramps' too, and M = 1's index k in it.
    The stage does not depend on the stretch, so the tuner forms it once for
    both its objective and its prediction."""
    rotation = alpha_rotation_cycle(lambda0, _N_ALPHA, 2.0 * stage_duration, _SHAPE)
    grid = _step_grid(rotation)
    blocks = []
    for rep in (spin_matrices(4), spin_matrices(2)):
        _, ops, coeffs = _block_hamiltonian(rep, 1.0, [rotation], grid.nodes)
        # the block is every other basis index, so M = 1 sits at index // 2
        blocks.append((rep, ops, _run_propagator(ops, coeffs[0], grid.dts),
                       _label_index(rep, 1.0) // 2))
    return tuple(blocks)


def _stretch_fidelity(lambda0: float, stage_duration: float, blocks=None):
    """The fidelity of :func:`entangling_cycle` at the default step grid, as
    a function of an array of stage stretches (the tuner's exact objective).

    The cycle's ramps have the real symmetric co-rotating Hamiltonian
    Sigma_z + lambda Sigma_x^2, and the ramp down is the ramp up reversed in
    time, so its propagator is U_up^T: step by step, the transposed CF4 step
    is the step at the mirrored Gauss nodes.  The rotation stage does not
    depend on the stretch.  So each block run from M = 1 ends with the M = 1
    amplitude <1|U_up^T U_rot U_up|1>, where U_rot is formed once, or taken
    from ``blocks`` (:func:`_rotation_blocks`).  Each stretch's ramp is one
    run propagator per spin, sampled once from its schedule for both
    (:func:`spinberry.dynamics._ramp_run`): the S = 2 and S = 1 blocks share
    its coefficients (1, lambda) and differ only in their operators.  The
    target's overlap with the cycled Phi^(1) is (3 a(1,1) - a(2,1)) / 4 in
    these amplitudes.
    """
    blocks = blocks or _rotation_blocks(lambda0, stage_duration)

    def one(stretch):
        *_, coeffs, dts = _ramp_run(blocks[0][0], 1.0, lambda0, stage_duration * stretch,
                                    _SHAPE)
        amplitudes = []
        for _, ops, u_rot, k in blocks:
            up = _run_propagator(ops, coeffs, dts)[..., k]  # a one-row stack
            amplitudes.append(np.einsum("sa,ab,sb->s", up, u_rot, up))
        a21, a11 = amplitudes
        return np.abs(0.25 * (3.0 * a11 - a21)) ** 2

    def fidelity(stretches):
        return np.concatenate([one(stretch) for stretch in np.asarray(stretches)])
    return fidelity


def _adiabatic_fidelity(lambda0: float, stage_duration: float, blocks=None):
    """The adiabatic prediction of :func:`_stretch_fidelity`, as a function
    of an array of stage stretches.

    A ramp of duration s T that follows the M = 1 level adiabatically takes
    |1> to exp(-i s T theta) psi, with psi the level at lambda0 and
    theta = int_0^1 E(M = 1, lambda0 f(tau)) dtau along the ramp's profile f,
    the dynamical phase of the unit-length ramp with its sign turned
    (:func:`spinberry.dynamics.adiabatic_dynamical_phase`; a real
    Hamiltonian adds no Berry phase).  So a(S, 1) is
    exp(-2 i s T theta_S) psi_S^T U_rot psi_S: one closed form per
    multiplet, with no ramp integrated (U_rot as in :func:`_stretch_fidelity`).
    """
    thetas, overlaps = [], []
    for rep, _, u_rot, _ in blocks or _rotation_blocks(lambda0, stage_duration):
        thetas.append(-adiabatic_dynamical_phase(rep, 1.0, lambda0, 1.0, _SHAPE,
                                                 _PHASE_QUAD_POINTS))
        psi = _level(rep, 1.0, lambda0)[2]
        overlaps.append(psi @ u_rot @ psi)

    def fidelity(stretches):
        a21, a11 = (overlap * np.exp(-2j * stage_duration * theta * np.asarray(stretches))
                    for theta, overlap in zip(thetas, overlaps))
        return np.abs(0.25 * (3.0 * a11 - a21)) ** 2
    return fidelity


def tune_stage_stretch(lambda0: float, stage_duration: float = 25.0) -> float:
    """Ramp-duration stretch that maximizes the entangled-state fidelity.

    The objective is the fidelity that :func:`entangling_cycle` reports at
    its default step grid, evaluated from one ramp propagator per spin
    (:func:`_stretch_fidelity`).  The stretch window spans more than one full
    period of the relative dynamical phase.  Where its maxima lie comes from
    the adiabatic prediction (:func:`_adiabatic_fidelity`) on a grid of 25
    stretches: every grid maximum (a window edge counts) whose predicted
    fidelity is within :func:`_candidate_margin` of the predicted best is
    polished on the exact objective by a bounded search between its grid
    neighbours.  Below T = 7 the prediction's miss outgrows that margin
    (5.8e-2 at T = 6 against a margin of 4.3e-2), so there a true maximum
    can go unpolished and the stretch returned may be a lesser maximum of
    the exact fidelity.  A maximum may sit at a window edge on the flank of one
    outside the window, so an interior maximum nearly as good is polished
    too.  Maxima one period apart reach nearly the same fidelity, so of the
    polished stretches within 1e-6 of the best fidelity the one nearest 1
    is returned, and a rounding-level change cannot make the result jump.
    The number of objective evaluations, of candidates polished and of
    predicted grid maxima, and the returned stretch with its predicted and
    exact fidelity, are logged at DEBUG level.
    """
    from scipy.optimize import minimize_scalar  # on demand, as in lambda_max_solve

    blocks = _rotation_blocks(lambda0, stage_duration)
    fidelity = _stretch_fidelity(lambda0, stage_duration, blocks)
    predicted = _adiabatic_fidelity(lambda0, stage_duration, blocks)

    def objective(s):
        return -float(fidelity(np.array([s]))[0])

    grid = np.linspace(*_STRETCH_BOUNDS, 25)
    values = predicted(grid)
    padded = np.pad(values, 1, constant_values=-np.inf)
    maxima = [k for k in range(len(grid)) if values[k] >= max(padded[k], padded[k + 2])]
    starts = [k for k in maxima
              if values[k] >= values.max() - _candidate_margin(stage_duration)]
    polished = [minimize_scalar(objective, bounds=(grid[max(0, k - 1)],
                                                   grid[min(len(grid) - 1, k + 1)]),
                                method="bounded", options={"xatol": 1e-6})
                for k in starts]
    best = min(res.fun for res in polished)
    chosen = min((res for res in polished if res.fun <= best + 1e-6),
                 key=lambda res: abs(res.x - 1.0))
    logger.debug("tune_stage_stretch: %d objective evaluations polishing %d of %d "
                 "predicted grid maxima; returned stretch %.10f (predicted fidelity "
                 "%.12f, fidelity %.12f)", sum(res.nfev for res in polished), len(starts),
                 len(maxima), chosen.x, predicted(np.array([chosen.x]))[0], -chosen.fun)
    return float(chosen.x)
