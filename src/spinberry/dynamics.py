"""Exact time-dependent Schroedinger integration in lab and rotating frames.

The integrator applies the exponential of the midpoint Hamiltonian on each
step (second-order Magnus) through an eigendecomposition, so every step is
exactly unitary and phases are not polluted by norm drift.  Time is in
units of 1/(gamma_S B0) throughout.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson

from .hamiltonian import _label_index, _spectra, labeled_spectrum
from .pulses import PulseShape, blackman  # noqa: F401  (blackman is public API)
from .schedules import CycleSchedule
from .spin_algebra import EulerAngles, SpinRep, rotation_unitary


@dataclass
class CycleResult:
    """Outcome of one integrated run against its adiabatic reference.

    ``total_phase`` is the accumulated (un-wrapped) argument of the overlap
    with the tracked instantaneous eigenstate;
    ``dynamical_phase`` is -int E dt along the same level, and
    ``geometric_phase`` their difference.  ``leakage`` is the final
    population outside the tracked eigenstate.
    """

    final_state: np.ndarray
    total_phase: float
    dynamical_phase: float
    geometric_phase: float
    leakage: float
    norm_drift: float
    sz_expectation: float | None = None
    converged: bool | None = None
    convergence_error: float | None = None
    times: np.ndarray | None = None
    states: np.ndarray | None = None


def _check_hermitian(h):
    scale = max(1.0, float(np.abs(h).max()))
    if np.abs(h - h.conj().T).max() > 1e-12 * scale:
        raise ValueError("Hamiltonian is not Hermitian")


def propagate(h_of_t, initial, duration, steps, store_trajectory=False):
    """Midpoint-exponential propagation; returns (times, states, norm_drift).

    ``states`` holds the full trajectory (including t = 0) when
    ``store_trajectory`` is true, otherwise only the final state.
    """
    if steps < 2:
        raise ValueError("steps must be at least 2")
    psi = np.asarray(initial, dtype=complex).copy()
    norm0 = np.linalg.norm(psi)
    dt = duration / steps
    times = np.linspace(0.0, duration, steps + 1)
    states = [psi.copy()] if store_trajectory else None
    max_drift = 0.0
    for k in range(steps):
        h = np.asarray(h_of_t(times[k] + 0.5 * dt))
        _check_hermitian(h)
        w, u = np.linalg.eigh(h)
        psi = u @ (np.exp(-1j * w * dt) * (u.conj().T @ psi))
        max_drift = max(max_drift, abs(np.linalg.norm(psi) - norm0))
        if store_trajectory:
            states.append(psi.copy())
    if store_trajectory:
        return times, np.array(states), max_drift
    return times, psi, max_drift


def _tracked_run(h_of_t, initial, duration, steps, sz=None,
                 store_trajectory=False):
    """Propagate while tracking the instantaneous eigenstate that the
    initial condition projects onto, accumulating its un-wrapped phase."""
    psi = np.asarray(initial, dtype=complex).copy()
    dt = duration / steps
    w0, u0 = np.linalg.eigh(np.asarray(h_of_t(0.0)))
    target = u0[:, int(np.argmax(np.abs(u0.conj().T @ psi)))]
    overlap = np.vdot(target, psi)
    total_phase = float(np.angle(overlap))
    dynamical = 0.0
    norm0 = np.linalg.norm(psi)
    drift = 0.0
    trajectory = [psi.copy()] if store_trajectory else None
    for k in range(steps):
        tmid = (k + 0.5) * dt
        h = np.asarray(h_of_t(tmid))
        _check_hermitian(h)
        w, u = np.linalg.eigh(h)
        psi = u @ (np.exp(-1j * w * dt) * (u.conj().T @ psi))
        drift = max(drift, abs(np.linalg.norm(psi) - norm0))
        # continue the tracked eigenstate through the midpoint and endpoint
        j = int(np.argmax(np.abs(target.conj() @ u)))
        dynamical += -w[j] * dt
        we, ue = np.linalg.eigh(np.asarray(h_of_t((k + 1) * dt)))
        je = int(np.argmax(np.abs(target.conj() @ ue)))
        new_target = ue[:, je]
        phase_fix = np.vdot(new_target, target)
        if phase_fix != 0:
            new_target = new_target * (phase_fix / abs(phase_fix))
        target = new_target
        new_overlap = np.vdot(target, psi)
        total_phase += float(np.angle(new_overlap / overlap))
        overlap = new_overlap
        if store_trajectory:
            trajectory.append(psi.copy())
    leakage = max(0.0, 1.0 - abs(overlap) ** 2 / np.linalg.norm(psi) ** 2)
    result = CycleResult(
        final_state=psi, total_phase=total_phase, dynamical_phase=dynamical,
        geometric_phase=total_phase - dynamical, leakage=float(leakage),
        norm_drift=float(drift),
        sz_expectation=(float(np.real(np.vdot(psi, sz @ psi)))
                        if sz is not None else None))
    if store_trajectory:
        result.times = np.linspace(0.0, duration, steps + 1)
        result.states = np.array(trajectory)
    return result


def evolve(h_of_t, initial, duration, steps, sz=None, convergence_tol=None,
           store_trajectory=False):
    """Integrate i dpsi/dt = H(t) psi and compare with the tracked eigenstate.

    Returns a :class:`CycleResult` (with the sampled trajectory attached
    when ``store_trajectory`` is set).  With ``convergence_tol`` set, the
    run is repeated at half the step size and the result carries a
    ``converged`` flag with the final-state difference.
    """
    result = _tracked_run(h_of_t, initial, duration, steps, sz=sz,
                          store_trajectory=store_trajectory)
    if convergence_tol is not None:
        fine = _tracked_run(h_of_t, initial, duration, 2 * steps, sz=sz)
        err = float(np.linalg.norm(fine.final_state - result.final_state))
        result.converged = err < convergence_tol
        result.convergence_error = err
    return result


def coriolis_operators(rep: SpinRep, theta: float, alpha: float):
    """Generators (D_theta, D_phi, D_alpha) of the frame rotation rates."""
    d_alpha = rep.sigma_z
    d_phi = (rep.sigma_z * np.cos(theta)
             + np.sin(theta) * (-rep.sigma_x * np.cos(alpha)
                                + rep.sigma_y * np.sin(alpha)))
    d_theta = rep.sigma_y * np.cos(alpha) + rep.sigma_x * np.sin(alpha)
    return d_theta, d_phi, d_alpha


def lab_hamiltonian(rep: SpinRep, schedule: CycleSchedule, t: float) -> np.ndarray:
    """Laboratory-frame Hamiltonian b U(R) (Sigma_z + lambda Sigma_x^2) U(R)^dag."""
    u = rotation_unitary(rep, EulerAngles(theta=schedule.theta(t),
                                          phi=schedule.phi(t),
                                          alpha=schedule.alpha(t)))
    hred = rep.sigma_z + schedule.lam(t) * (rep.sigma_x @ rep.sigma_x)
    return schedule.b(t) * (u @ hred @ u.conj().T)


def rotating_frame_hamiltonian(rep: SpinRep, schedule: CycleSchedule,
                               t: float) -> np.ndarray:
    """Co-rotating-frame Hamiltonian: reduced part plus the Coriolis field."""
    d_theta, d_phi, d_alpha = coriolis_operators(rep, schedule.theta(t),
                                                 schedule.alpha(t))
    hred = rep.sigma_z + schedule.lam(t) * (rep.sigma_x @ rep.sigma_x)
    return (schedule.b(t) * hred
            - (schedule.alpha_dot(t) * d_alpha + schedule.phi_dot(t) * d_phi
               + schedule.theta_dot(t) * d_theta))


def run_cycle(rep: SpinRep, m: float, schedule: CycleSchedule,
              steps: int | None = None) -> CycleResult:
    """Integrate one closed cycle starting from the instantaneous eigenstate m.

    The phase is accumulated un-wrapped against the labeled
    instantaneous eigenstate Psi(m, t) = U(R(t)) psi_hat(m, lambda(t)) and
    then referred back to the *initial* eigenstate by adding the winding
    phase -m (2 n_phi + n_alpha) pi that the moving reference carries, so
    ``total_phase`` is directly comparable across windings.
    """
    schedule.validate()
    if steps is None:
        steps = max(2, int(round(200 * schedule.duration)))
    dt = schedule.duration / steps
    i = _label_index(rep, m)
    ends = dt * np.arange(steps + 1)
    mids = dt * (np.arange(steps) + 0.5)
    energies = _spectra(rep, [schedule.lam(t) for t in mids])[0][:, i]
    refs = _spectra(rep, [schedule.lam(t) for t in ends])[1][:, :, i]
    # the phase needs a continuous reference, and the per-lambda sign
    # convention flips where the parent component passes through zero
    overlaps = np.sum(refs[1:] * refs[:-1], axis=-1)
    refs[1:] *= np.cumprod(np.where(overlaps < 0.0, -1.0, 1.0))[:, None]

    def frame(t):
        return rotation_unitary(rep, EulerAngles(theta=schedule.theta(t),
                                                 phi=schedule.phi(t),
                                                 alpha=schedule.alpha(t)))

    psi = frame(0.0) @ refs[0].astype(complex)
    overlap = 1.0 + 0.0j
    total_phase = 0.0
    dynamical = 0.0
    norm0 = np.linalg.norm(psi)
    drift = 0.0
    for k in range(steps):
        h = lab_hamiltonian(rep, schedule, mids[k])
        w, u = np.linalg.eigh(h)
        psi = u @ (np.exp(-1j * w * dt) * (u.conj().T @ psi))
        drift = max(drift, abs(np.linalg.norm(psi) - norm0))
        dynamical += -schedule.b(mids[k]) * energies[k] * dt
        target = frame(ends[k + 1]) @ refs[k + 1].astype(complex)
        new_overlap = np.vdot(target, psi)
        total_phase += float(np.angle(new_overlap / overlap))
        overlap = new_overlap
    leakage = max(0.0, 1.0 - abs(overlap) ** 2 / np.linalg.norm(psi) ** 2)
    sz = float(np.real(np.vdot(psi, rep.sigma_z @ psi)))
    winding = -m * (2 * schedule.n_phi + schedule.n_alpha) * np.pi
    total_phase += winding
    return CycleResult(final_state=psi, total_phase=total_phase,
                       dynamical_phase=dynamical,
                       geometric_phase=total_phase - dynamical,
                       leakage=float(leakage), norm_drift=float(drift),
                       sz_expectation=sz)


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
    for name, res in (("forward", forward), ("mirrored", mirrored)):
        if res.leakage > 0.01:
            warnings.warn(
                f"{name} run leaked {res.leakage:.3f} out of the tracked "
                f"level; extracted phase is untrusted", stacklevel=2)
    extracted = 0.5 * (forward.total_phase - mirrored.total_phase)
    return MirrorResult(extracted_phase=extracted, forward=forward,
                        mirrored=mirrored)


_PAULI_0 = np.eye(2)
_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def two_level_rotating_hamiltonian(s_branch: str, lam: float,
                                   lam_dot: float) -> np.ndarray:
    """Rotating-basis 2x2 Hamiltonian of an odd parity doublet under ramping.

    With zeta = arctan(3 lambda / 2) for the S = 2 doublet (arctan(lambda/2)
    for S = 1), the odd block becomes
    offset*1 + sec(zeta) sigma_z - (zeta_dot / 2) sigma_y, where the offset
    is (5/3) tan(zeta) for S = 2 and tan(zeta) for S = 1.
    """
    if s_branch == "S2":
        zeta = np.arctan(1.5 * lam)
        zeta_dot = 6.0 * lam_dot / (9.0 * lam**2 + 4.0)
        offset = (5.0 / 3.0) * np.tan(zeta)
    elif s_branch == "S1":
        zeta = np.arctan(0.5 * lam)
        zeta_dot = 2.0 * lam_dot / (lam**2 + 4.0)
        offset = np.tan(zeta)
    else:
        raise ValueError(f"s_branch must be 'S1' or 'S2', got {s_branch!r}")
    return (offset * _PAULI_0 + (1.0 / np.cos(zeta)) * _PAULI_Z
            - 0.5 * zeta_dot * _PAULI_Y)


@dataclass(frozen=True)
class RampResult:
    """Final <Sigma_z> of a coupling ramp against the adiabatic prediction."""

    sz_final: float
    sz_adiabatic: float
    deviation: float
    final_state: np.ndarray


def ramp_fidelity(rep: SpinRep, m: float, lambda0: float, duration: float,
                  shape: str = "blackman", steps: int | None = None) -> RampResult:
    """Ramp the coupling 0 -> lambda0 with fixed field axes and compare
    the final <Sigma_z> with the adiabatic polarization p(m, lambda0)."""
    pulse = PulseShape(shape)
    if steps is None:
        steps = max(2, int(round(200 * duration)))
    if duration <= 0:
        raise ValueError("duration must be positive")

    def h(t):
        lam = lambda0 * pulse.fraction(t / duration)
        return rep.sigma_z + lam * (rep.sigma_x @ rep.sigma_x)

    psi0 = np.zeros(rep.dim, dtype=complex)
    psi0[labeled_spectrum(rep, 0.0).index_of(m)] = 1.0
    _, psi, _ = propagate(h, psi0, duration, steps)
    sz_final = float(np.real(np.vdot(psi, rep.sigma_z @ psi)))
    sz_adiabatic = labeled_spectrum(rep, lambda0).polarization(m)
    return RampResult(sz_final=sz_final, sz_adiabatic=sz_adiabatic,
                      deviation=sz_final - sz_adiabatic, final_state=psi)


def adiabatic_dynamical_phase(rep: SpinRep, m: float, lambda0: float,
                              duration: float, shape: str = "blackman",
                              quad_points: int = 4097) -> float:
    """-int E(m, lambda(t)) dt along a coupling ramp (adiabatic reference)."""
    pulse = PulseShape(shape)
    ts = np.linspace(0.0, duration,
                     quad_points + 1 if quad_points % 2 == 0 else quad_points)
    fractions = np.array([pulse.fraction(t / duration) for t in ts])
    energies, _ = _spectra(rep, lambda0 * fractions)
    return float(simpson(-energies[:, _label_index(rep, m)], x=ts))


def ramp_phase(rep: SpinRep, m: float, lambda0: float, duration: float,
               shape: str = "blackman", steps: int | None = None) -> CycleResult:
    """Exact phase bookkeeping of a coupling ramp (for phase-robustness checks)."""
    pulse = PulseShape(shape)
    if steps is None:
        steps = max(2, int(round(400 * duration)))

    def h(t):
        lam = lambda0 * pulse.fraction(t / duration)
        return rep.sigma_z + lam * (rep.sigma_x @ rep.sigma_x)

    psi0 = np.zeros(rep.dim, dtype=complex)
    psi0[labeled_spectrum(rep, 0.0).index_of(m)] = 1.0
    return evolve(h, psi0, duration, steps, sz=rep.sigma_z)


def rotating_basis_transform(rep: SpinRep, lam: float) -> np.ndarray:
    """Real orthogonal matrix whose columns are the labeled eigenvectors.

    V diagonalizes the reduced Hamiltonian: V^T H(lambda) V has the labeled
    energies on the diagonal in descending-m order.
    """
    return labeled_spectrum(rep, lam).vectors.copy()
