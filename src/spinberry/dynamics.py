"""Exact time-dependent Schroedinger integration.

Every run goes through one fourth-order Magnus stepper, :func:`_magnus_run`,
by default at ``STEPS_PER_UNIT`` steps per unit time.  Tracked runs, like
the four-spin odd blocks of :mod:`spinberry.entangle`, integrate in the
paper's co-rotating frame; :func:`lab_hamiltonian` is the laboratory-frame
reference the tests hold them to.  Time is in units of 1/(gamma_S B0)
throughout.  Functions of time (and of angles or couplings) take scalars
or arrays; arrays give their matrices stacked along the leading axes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson

from .berry import _quad_grid
from .hamiltonian import _label_index, _spectra, labeled_spectrum
from .schedules import CycleSchedule, Segment, from_segments
from .spin_algebra import EulerAngles, SpinRep, rotation_unitary, spin_matrices

# Steps diagonalized by one stacked eigh: enough to amortize the call, few
# enough that a block's Hamiltonians and propagators stay small next to
# the trajectory.
_BLOCK_STEPS = 512

# Gauss nodes c-/+ and weights a-/+ of the CF4 step (see _magnus_run).
_C_MINUS, _C_PLUS = 0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0
_A_MINUS, _A_PLUS = 0.25 - np.sqrt(3.0) / 6.0, 0.25 + np.sqrt(3.0) / 6.0

# The one default step density of every run (steps per unit time).
STEPS_PER_UNIT = 25


class LeakageWarning(UserWarning):
    """A run left ``leakage`` of its population outside the tracked level
    (or symmetry sectors), more than the ``bound`` its result trusts."""

    def __init__(self, message: str, leakage: float, bound: float):
        super().__init__(message)
        self.leakage = leakage
        self.bound = bound


@dataclass
class CycleResult:
    """Outcome of one integrated run against its adiabatic reference.

    ``total_phase`` is the accumulated (un-wrapped) argument of the overlap
    with the tracked instantaneous eigenstate; ``dynamical_phase`` is
    -int E dt along the same level, and ``geometric_phase`` their
    difference.  ``leakage`` is the final population outside the tracked
    eigenstate.  ``final_state`` and ``sz_expectation`` are in the lab frame.
    """

    final_state: np.ndarray
    total_phase: float
    dynamical_phase: float
    geometric_phase: float
    leakage: float
    norm_drift: float
    sz_expectation: float


def _magnus_run(h_of_ts, initial, duration, steps):
    """States at the ends of ``steps`` equal steps dt over [0, duration].

    The scheme is the fourth-order commutator-free Magnus integrator CF4:2
    of Blanes & Moan, Appl. Numer. Math. 56, 1519 (2006) (see also
    Alvermann & Fehske, J. Comput. Phys. 230, 5930 (2011)), whose global
    error falls as dt**4.  Step k samples the Hamiltonian at the Gauss
    nodes t(k + c-/+) dt, c-/+ = 1/2 -/+ sqrt(3)/6, giving H- and H+, and
    applies

        exp(-i dt (a- H- + a+ H+)) exp(-i dt (a+ H- + a- H+)),

    a-/+ = 1/4 -/+ sqrt(3)/6: the factor applied first weights the earlier
    node (the other order is only second order).  Each exponential is
    formed from an eigendecomposition, so every step is unitary to
    rounding and phases are not polluted by norm drift.  ``h_of_ts(ts)``
    returns the Hermitian Hamiltonians at an array of times stacked along
    the first axis; for each block of ``_BLOCK_STEPS`` steps the exponents
    of both factors are diagonalized by one stacked ``numpy.linalg.eigh``
    and the steps are then applied in order, one matrix-vector product
    each.  One Newton-Schulz step P (3 - P^dag P) / 2 makes each step
    propagator unitary to second order in its error: eigh's eigenvectors
    fall slightly but systematically short of orthonormal, which would
    otherwise build up as norm drift over thousands of steps.  Returns an
    array of shape (steps + 1, dim) whose row k is the state at time k dt.

    The default density of ``STEPS_PER_UNIT`` steps per unit time assumes
    max ||H|| dt <~ 1; larger spins or couplings should pass more steps
    (``--steps`` on the command line).
    """
    if not duration > 0:
        raise ValueError(f"duration must be positive, got {duration}")
    dt = duration / steps
    psi = np.asarray(initial, dtype=complex)
    states = np.empty((steps + 1, psi.size), dtype=complex)
    states[0] = psi
    eye = np.eye(psi.size)
    for first in range(0, steps, _BLOCK_STEPS):
        starts = np.arange(first, min(first + _BLOCK_STEPS, steps))
        nodes = np.concatenate([starts + _C_MINUS, starts + _C_PLUS]) * dt
        h_early, h_late = np.split(np.asarray(h_of_ts(nodes)), 2)
        w, u = np.linalg.eigh(np.stack([_A_PLUS * h_early + _A_MINUS * h_late,
                                        _A_MINUS * h_early + _A_PLUS * h_late]))
        applied_first, applied_second = (
            (u * np.exp(-1j * w * dt)[..., None, :]) @ u.conj().swapaxes(-1, -2))
        # whole step propagators: one matrix-vector product per step below
        props = applied_second @ applied_first
        props = props @ (1.5 * eye - 0.5 * (props.conj().swapaxes(1, 2) @ props))
        for k, prop in enumerate(props, first + 1):
            psi = prop @ psi
            states[k] = psi
    return states


def _checked(h_of_ts):
    """A caller's h(ts) for the kernel; rejects non-Hermitian samples."""
    def checked(ts):
        h = np.asarray(h_of_ts(ts))
        scale = np.maximum(1.0, np.abs(h).max(axis=(1, 2)))
        skew = np.abs(h - h.conj().swapaxes(1, 2)).max(axis=(1, 2))
        if np.any(skew > 1e-12 * scale):
            raise ValueError("Hamiltonian is not Hermitian")
        return h
    return checked


def _default_steps(duration, steps=None):
    """``steps`` (at least 2), or ``STEPS_PER_UNIT`` per unit ``duration`` if None."""
    if steps is None:
        return max(2, int(round(STEPS_PER_UNIT * duration)))
    if steps < 2:
        raise ValueError(f"steps must be at least 2, got {steps}")
    return steps


def _norm_drift(states):
    """Largest deviation of the norm from its initial value along a run."""
    norms = np.linalg.norm(states, axis=1)
    return float(np.abs(norms - norms[0]).max())


def _unwrapped_phase(amplitudes, step_phases=0.0):
    """Argument accumulated by a sampled amplitude, summed step by step.

    Each step's increment is taken within pi of its expected value
    ``step_phases`` (one per step, or a scalar), so a step may turn the
    amplitude by more than pi without wrapping.
    """
    turns = np.angle(amplitudes[1:] / amplitudes[:-1] * np.exp(-1j * step_phases))
    return float(np.sum(turns + step_phases))


def propagate(h_of_ts, initial, duration, steps):
    """Fourth-order Magnus run (see :func:`_magnus_run`); returns
    (times, final state, norm_drift).

    ``h_of_ts(ts)`` takes an array of times and returns the Hamiltonians
    at those times stacked along the first axis.
    """
    states = _magnus_run(_checked(h_of_ts), initial, duration,
                         _default_steps(duration, steps))
    return np.linspace(0.0, duration, steps + 1), states[-1], _norm_drift(states)


def _stacked(x):
    """Scalar or array x as coefficients of (stacked) matrices."""
    return np.asarray(x)[..., None, None]


def _frames(rep: SpinRep, schedule: CycleSchedule, t) -> np.ndarray:
    """Rotation unitaries U(R(t)) of the schedule's field axes."""
    return rotation_unitary(rep, EulerAngles(theta=schedule.theta(t),
                                             phi=schedule.phi(t),
                                             alpha=schedule.alpha(t)))


def coriolis_operators(rep: SpinRep, theta, alpha):
    """Generators (D_theta, D_phi, D_alpha) of the frame rotation rates."""
    theta, alpha = _stacked(theta), _stacked(alpha)
    d_alpha = rep.sigma_z
    d_phi = (rep.sigma_z * np.cos(theta)
             + np.sin(theta) * (-rep.sigma_x * np.cos(alpha)
                                + rep.sigma_y * np.sin(alpha)))
    d_theta = rep.sigma_y * np.cos(alpha) + rep.sigma_x * np.sin(alpha)
    return d_theta, d_phi, d_alpha


def _reduced(rep: SpinRep, lam) -> np.ndarray:
    """Sigma_z + lambda Sigma_x^2, stacked for array-valued lambda."""
    return rep.sigma_z + _stacked(lam) * (rep.sigma_x @ rep.sigma_x)


def lab_hamiltonian(rep: SpinRep, schedule: CycleSchedule, t) -> np.ndarray:
    """Laboratory-frame Hamiltonian b U(R) (Sigma_z + lambda Sigma_x^2) U(R)^dag
    (the reference for the co-rotating runs)."""
    u = _frames(rep, schedule, t)
    return _stacked(schedule.b(t)) * (u @ _reduced(rep, schedule.lam(t))
                                      @ u.conj().swapaxes(-1, -2))


def rotating_frame_hamiltonian(rep: SpinRep, schedule: CycleSchedule,
                               t) -> np.ndarray:
    """Co-rotating-frame Hamiltonian: reduced part plus the Coriolis field."""
    d_theta, d_phi, d_alpha = coriolis_operators(rep, schedule.theta(t),
                                                 schedule.alpha(t))
    return (_stacked(schedule.b(t)) * _reduced(rep, schedule.lam(t))
            - (_stacked(schedule.alpha_dot(t)) * d_alpha
               + _stacked(schedule.phi_dot(t)) * d_phi
               + _stacked(schedule.theta_dot(t)) * d_theta))


def _tracked_run(rep: SpinRep, m: float, schedule: CycleSchedule,
                 steps: int | None = None, winding=0.0) -> CycleResult:
    """Co-rotating-frame run of the schedule that starts in and tracks level m.

    In this frame the reference at each step end is the labeled
    eigenvector psi_hat(m, lambda) of Sigma_z + lambda Sigma_x^2, made
    sign-continuous.  Each step's dynamical phase integrates -b E(m, lambda)
    by Simpson's rule on the step ends and midpoint, and the overlap with
    the reference is unwrapped relative to it, so neither limits the order
    of the stepper nor wraps when a step turns the phase by more than pi.
    ``winding`` is added to the total phase; the final state is rotated
    back to the laboratory frame.
    """
    steps = _default_steps(schedule.duration, steps)
    dt = schedule.duration / steps
    i = _label_index(rep, m)
    nodes = 0.5 * dt * np.arange(2 * steps + 1)  # step ends and midpoints
    energies, vectors = _spectra(rep, schedule.lam(nodes))
    terms = schedule.b(nodes) * energies[:, i]
    step_phases = -dt / 6.0 * (terms[:-1:2] + 4.0 * terms[1::2] + terms[2::2])
    refs = vectors[::2, :, i]
    # the phase needs a continuous reference, and the per-lambda sign
    # convention flips where the parent component passes through zero
    overlaps = np.sum(refs[1:] * refs[:-1], axis=-1)
    refs[1:] *= np.cumprod(np.where(overlaps < 0.0, -1.0, 1.0))[:, None]
    states = _magnus_run(lambda ts: rotating_frame_hamiltonian(rep, schedule, ts),
                         refs[0].astype(complex), schedule.duration, steps)
    tracked = np.sum(refs * states, axis=-1)  # the references are real
    dynamical = float(np.sum(step_phases))
    leakage = max(0.0, 1.0 - abs(tracked[-1]) ** 2 / np.linalg.norm(states[-1]) ** 2)
    total_phase = _unwrapped_phase(tracked, step_phases) + winding
    psi = _frames(rep, schedule, schedule.duration) @ states[-1]
    return CycleResult(final_state=psi, total_phase=total_phase,
                       dynamical_phase=dynamical,
                       geometric_phase=total_phase - dynamical,
                       leakage=float(leakage), norm_drift=_norm_drift(states),
                       sz_expectation=float(np.real(np.vdot(psi, rep.sigma_z @ psi))))


def run_cycle(rep: SpinRep, m: float, schedule: CycleSchedule,
              steps: int | None = None) -> CycleResult:
    """Integrate one closed cycle starting from the instantaneous eigenstate m.

    The run is made in the co-rotating frame (see :func:`_tracked_run`).
    Its phase is referred back to the *initial* eigenstate by adding the
    winding phase -m (2 n_phi + n_alpha) pi that the laboratory eigenstate
    U(R(t)) psi_hat(m, lambda(t)) carries, so ``total_phase`` is directly
    comparable across windings.
    """
    schedule.validate()
    return _tracked_run(rep, m, schedule, steps,
                        winding=-m * (2 * schedule.n_phi + schedule.n_alpha) * np.pi)


@dataclass(frozen=True)
class MirrorResult:
    """Geometric phase extracted by subtracting the image cycle."""

    extracted_phase: float
    forward: CycleResult
    mirrored: CycleResult


def mirror_phase_difference(rep: SpinRep, m: float, schedule: CycleSchedule,
                            steps: int | None = None) -> MirrorResult:
    """Half the difference of the total phases of a cycle and its image.

    The dynamical phase and all even-in-rotation-rate corrections cancel
    in the subtraction; what survives is the geometric phase plus the
    odd-order non-adiabatic corrections.
    """
    forward = run_cycle(rep, m, schedule, steps=steps)
    mirrored = run_cycle(rep, m, schedule.mirror(), steps=steps)
    bound = 0.01
    for name, res in (("forward", forward), ("mirrored", mirrored)):
        if res.leakage > bound:
            warnings.warn(LeakageWarning(
                f"{name} run leaked {res.leakage:.3f} out of the tracked "
                f"level; extracted phase is untrusted", res.leakage, bound),
                stacklevel=2)
    extracted = 0.5 * (forward.total_phase - mirrored.total_phase)
    return MirrorResult(extracted_phase=extracted, forward=forward,
                        mirrored=mirrored)


_BRANCH_TWO_S = {"S1": 2, "S2": 4}


def _odd_doublet(two_s):
    """Basis indices of m = (1, -1) in spin S, and Sigma_z and Sigma_x^2
    restricted to them.  For S = 1 and 2 these two states make up the
    whole odd parity block."""
    rep = spin_matrices(two_s)
    idx = [_label_index(rep, 1.0), _label_index(rep, -1.0)]
    block = np.ix_(idx, idx)
    return idx, rep.sigma_z[block], (rep.sigma_x @ rep.sigma_x)[block]


def two_level_rotating_hamiltonian(s_branch: str, lam: float,
                                   lam_dot: float) -> np.ndarray:
    """Rotating-basis 2x2 Hamiltonian of an odd parity doublet under ramping.

    On the (m = 1, m = -1) doublet of spin S = 1 (``"S1"``) or S = 2
    (``"S2"``), Sigma_z + lambda Sigma_x^2 is
    d lambda * 1 + sigma_z + c lambda sigma_x with d = <1|Sigma_x^2|1> and
    c = <1|Sigma_x^2|-1>, read off the spin matrices (d, c = 1/2, 1/2 for
    S = 1 and 5/2, 3/2 for S = 2).  With tan(zeta) = c lambda, the basis
    rotating with zeta turns it into
    d lambda * 1 + sec(zeta) sigma_z - (zeta_dot / 2) sigma_y.
    """
    if s_branch not in _BRANCH_TWO_S:
        raise ValueError(f"s_branch must be 'S1' or 'S2', got {s_branch!r}")
    _, _, sxsq = _odd_doublet(_BRANCH_TWO_S[s_branch])
    tan_zeta = sxsq[0, 1] * lam
    zeta = np.arctan(tan_zeta)
    zeta_dot = sxsq[0, 1] * lam_dot / (1.0 + tan_zeta**2)
    offset = sxsq[0, 0] * lam
    sec_zeta = 1.0 / np.cos(zeta)
    return np.moveaxis(np.array([[offset + sec_zeta, 0.5j * zeta_dot],
                                 [-0.5j * zeta_dot, offset - sec_zeta]]),
                       (0, 1), (-2, -1))


@dataclass(frozen=True)
class RampResult:
    """Final <Sigma_z> of a coupling ramp against the adiabatic prediction."""

    sz_final: float
    sz_adiabatic: float
    deviation: float
    final_state: np.ndarray


def _ramp(lambda0: float, duration: float, shape: str) -> CycleSchedule:
    """The coupling ramp 0 -> lambda0 as a one-segment schedule with fixed
    field axes."""
    return from_segments([Segment("ramp", duration, shape, lambda_to=lambda0)])


def ramp_fidelity(rep: SpinRep, m: float, lambda0: float, duration: float,
                  shape: str = "blackman", steps: int | None = None) -> RampResult:
    """Ramp the coupling 0 -> lambda0 with fixed field axes and compare
    the final <Sigma_z> with the adiabatic polarization p(m, lambda0)."""
    ramp = _ramp(lambda0, duration, shape)
    psi0 = np.eye(rep.dim, dtype=complex)[labeled_spectrum(rep, 0.0).index_of(m)]
    _, psi, _ = propagate(lambda ts: _reduced(rep, ramp.lam(ts)), psi0, duration,
                          _default_steps(duration, steps))
    sz_final = float(np.real(np.vdot(psi, rep.sigma_z @ psi)))
    sz_adiabatic = labeled_spectrum(rep, lambda0).polarization(m)
    return RampResult(sz_final=sz_final, sz_adiabatic=sz_adiabatic,
                      deviation=sz_final - sz_adiabatic, final_state=psi)


def adiabatic_dynamical_phase(rep: SpinRep, m: float, lambda0: float,
                              duration: float, shape: str = "blackman",
                              quad_points: int = 4097) -> float:
    """-int E(m, lambda(t)) dt along a coupling ramp (adiabatic reference)."""
    ts = _quad_grid(duration, quad_points)
    energies, _ = _spectra(rep, _ramp(lambda0, duration, shape).lam(ts))
    return float(simpson(-energies[:, _label_index(rep, m)], x=ts))


def ramp_phase(rep: SpinRep, m: float, lambda0: float, duration: float,
               shape: str = "blackman", steps: int | None = None) -> CycleResult:
    """Exact phase bookkeeping of a coupling ramp (for phase-robustness checks).

    The ramp is the one-segment schedule of :func:`ramp_fidelity`, whose
    level labeled m is tracked as in :func:`run_cycle`.
    """
    return _tracked_run(rep, m, _ramp(lambda0, duration, shape), steps)


def rotating_basis_transform(rep: SpinRep, lam: float) -> np.ndarray:
    """Real orthogonal matrix whose columns are the labeled eigenvectors.

    V diagonalizes the reduced Hamiltonian: V^T H(lambda) V has the labeled
    energies on the diagonal in descending-m order.
    """
    return labeled_spectrum(rep, lam).vectors.copy()
