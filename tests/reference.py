"""Reference implementations that the tests hold the library's paths to.

Each one is a second way to a quantity that :mod:`spinberry` computes on
its own path, kept here because only the tests use it:

- a fourth-order Magnus run of any h(t), as coefficients of the n**2
  matrix units (:func:`propagate`), and the laboratory-frame and
  co-rotating-frame Hamiltonians as stacked matrices
  (:func:`lab_hamiltonian`, :func:`rotating_frame_hamiltonian`,
  :func:`coriolis_operators`), against the co-rotating runs of
  :mod:`spinberry.dynamics`, which step on operator coefficients;
- the tracked run of a coupling ramp (:func:`ramp_phase`), against
  :func:`spinberry.dynamics.ramp_fidelity`'s run propagator;
- the two-level doublet model of a ramp
  (:func:`two_level_rotating_hamiltonian`), against the runs of the
  doublet's parity block;
- the polarization from the energy's slope
  (:func:`polarization_hellmann_feynman`), against the eigenvector
  expectation of :func:`spinberry.hamiltonian.polarization`;
- the 16 x 16 collective Hamiltonian and the site permutations of four
  spin-1/2 (:func:`collective_hamiltonian`, :func:`permutation_operator`),
  against the multiplet blocks that :mod:`spinberry.entangle` runs;
- the 3 x 3 rotation of the Euler angles (:func:`rotation_matrix_3d`),
  against :func:`spinberry.spin_algebra.rotation_unitary`;
- cubic-spline schedules from tabulated samples (:func:`from_table`), for
  theta and phi cycles that no segment list describes.
"""

from __future__ import annotations

import numpy as np

from spinberry.dynamics import (CycleResult, _compose, _frames, _grid, _magnus_run, _norm_drift,
                                _ramp, _tracked_run)
from spinberry.entangle import _DIM, _N_SPINS, collective_spin
from spinberry.hamiltonian import _block, _block_operators, _energy_derivatives, _reduced
from spinberry.schedules import CycleSchedule, ScheduleError, _const
from spinberry.spin_algebra import EulerAngles, SpinRep, spin_matrices


def propagate(h_of_ts, initial, duration, steps):
    """Fourth-order Magnus run of ``steps`` equal steps (see
    :func:`_magnus_run`); returns (times, final state, norm_drift).

    ``h_of_ts(ts)`` takes an array of times and returns the Hermitian
    Hamiltonians at those times stacked along the first axis; the run takes
    them as coefficients of the n**2 matrix units.
    """
    if not duration > 0:
        raise ValueError(f"duration must be positive, got {duration}")
    grid = _grid([0.0, duration], [steps])
    h = np.asarray(h_of_ts(grid.nodes.ravel()))
    skew = np.abs(h - h.conj().swapaxes(1, 2)).max(axis=(1, 2))
    if np.any(skew > 1e-12 * np.maximum(1.0, np.abs(h).max(axis=(1, 2)))):
        raise ValueError("Hamiltonian is not Hermitian")
    n = h.shape[-1]
    states = _magnus_run(np.eye(n * n).reshape(n * n, n, n),
                         h.reshape(len(grid.dts), 2, n * n), grid.dts, initial)
    return np.linspace(0.0, duration, steps + 1), states[-1], _norm_drift(states)


def _stacked(x):
    """Scalar or array x as coefficients of (stacked) matrices."""
    return np.asarray(x)[..., None, None]


def coriolis_operators(rep: SpinRep, theta, alpha):
    """Generators (D_theta, D_phi, D_alpha) of the frame rotation rates."""
    theta, alpha = _stacked(theta), _stacked(alpha)
    d_alpha = rep.sigma_z
    d_phi = (rep.sigma_z * np.cos(theta)
             + np.sin(theta) * (-rep.sigma_x * np.cos(alpha)
                                + rep.sigma_y * np.sin(alpha)))
    d_theta = rep.sigma_y * np.cos(alpha) + rep.sigma_x * np.sin(alpha)
    return d_theta, d_phi, d_alpha


def lab_hamiltonian(rep: SpinRep, schedule: CycleSchedule, t) -> np.ndarray:
    """Laboratory-frame Hamiltonian b U(R) (Sigma_z + lambda Sigma_x^2) U(R)^dag
    (the reference for the co-rotating runs)."""
    u = _frames(rep, schedule, t)
    return _stacked(schedule.b(t)) * _compose(_compose(u, _reduced(rep, schedule.lam(t))),
                                              u.conj().swapaxes(-1, -2))


def rotating_frame_hamiltonian(rep: SpinRep, schedule: CycleSchedule, t) -> np.ndarray:
    """Co-rotating-frame Hamiltonian: reduced part less the Coriolis field of
    the frame rotation rates (:func:`coriolis_operators`)."""
    d_theta, d_phi, d_alpha = coriolis_operators(rep, schedule.theta(t), schedule.alpha(t))
    return (_stacked(schedule.b(t)) * _reduced(rep, schedule.lam(t))
            - (_stacked(schedule.alpha_dot(t)) * d_alpha + _stacked(schedule.phi_dot(t)) * d_phi
               + _stacked(schedule.theta_dot(t)) * d_theta))


def two_level_rotating_hamiltonian(s_branch: str, lam: float,
                                   lam_dot: float) -> np.ndarray:
    """Rotating-basis 2x2 Hamiltonian of an odd parity doublet under ramping.

    On the (m = 1, m = -1) doublet of spin S = 1 (``"S1"``) or S = 2
    (``"S2"``), Sigma_z + lambda Sigma_x^2 is
    d lambda * 1 + sigma_z + c lambda sigma_x with d = <1|Sigma_x^2|1> and
    c = <1|Sigma_x^2|-1>, read off m = 1's parity block (d, c = 1/2, 1/2 for
    S = 1 and 5/2, 3/2 for S = 2).  With tan(zeta) = c lambda, the basis
    rotating with zeta turns it into
    d lambda * 1 + sec(zeta) sigma_z - (zeta_dot / 2) sigma_y.
    """
    if s_branch not in ("S1", "S2"):
        raise ValueError(f"s_branch must be 'S1' or 'S2', got {s_branch!r}")
    rep = spin_matrices(2 * int(s_branch[1]))
    d, c = _block_operators(rep, _block(rep, 1.0))[1][0]
    tan_zeta = c * lam
    zeta = np.arctan(tan_zeta)
    zeta_dot = c * lam_dot / (1.0 + tan_zeta**2)
    offset = d * lam
    sec_zeta = 1.0 / np.cos(zeta)
    return np.moveaxis(np.array([[offset + sec_zeta, 0.5j * zeta_dot],
                                 [-0.5j * zeta_dot, offset - sec_zeta]]),
                       (0, 1), (-2, -1))


def ramp_phase(rep: SpinRep, m: float, lambda0: float, duration: float,
               shape: str = "blackman", steps: int | None = None) -> CycleResult:
    """Exact phase bookkeeping of a coupling ramp 0 -> lambda0 with fixed
    field axes, whose level labeled m is tracked as in :func:`run_cycle`."""
    return _tracked_run(rep, m, _ramp(lambda0, duration, shape), steps)


def polarization_hellmann_feynman(rep: SpinRep, m: float, lam: float) -> float:
    """p = E - lambda dE/dlambda, the B-field gradient of the eigenenergy."""
    energy, slope = _energy_derivatives(rep, m, lam)[:2]
    return energy - lam * slope


def collective_hamiltonian(lam: float) -> np.ndarray:
    """16 x 16 collective Hamiltonian S_z + lambda S_x^2 (real symmetric)."""
    sx, _, sz = collective_spin()
    return (sz + lam * (sx @ sx)).real


def permutation_operator(perm) -> np.ndarray:
    """Operator permuting the four tensor factors: site i <- perm[i]."""
    perm = tuple(perm)
    if sorted(perm) != [0, 1, 2, 3]:
        raise ValueError(f"not a permutation of 0..3: {perm}")
    op = np.zeros((_DIM, _DIM))
    for idx in range(_DIM):
        bits = [(idx >> (_N_SPINS - 1 - k)) & 1 for k in range(_N_SPINS)]
        new_bits = [bits[perm[k]] for k in range(_N_SPINS)]
        new_idx = 0
        for b in new_bits:
            new_idx = (new_idx << 1) | b
        op[new_idx, idx] = 1.0
    return op


def rotation_matrix_3d(angles: EulerAngles) -> np.ndarray:
    """3x3 orthogonal matrix Rz(phi) Ry(theta) Rz(alpha)."""

    def rz(c):
        return np.array([[np.cos(c), -np.sin(c), 0.0],
                         [np.sin(c), np.cos(c), 0.0],
                         [0.0, 0.0, 1.0]])

    def ry(c):
        return np.array([[np.cos(c), 0.0, np.sin(c)],
                         [0.0, 1.0, 0.0],
                         [-np.sin(c), 0.0, np.cos(c)]])

    return rz(angles.phi) @ ry(angles.theta) @ rz(angles.alpha)


def _unwrapped(f):
    """f with a 0-d array result returned as a numpy scalar."""
    return lambda t: f(t)[()]


def from_table(t, theta, phi, alpha, lam, b=None, n_phi: int = 0,
               n_alpha: int = 0) -> CycleSchedule:
    """Schedule from tabulated samples, cubic-spline interpolated.

    Every sample must be finite and every field sample ``b`` positive.
    Splines use not-a-knot ends.  A finite-difference curvature bound,
    10 max(1, range) (2 pi / T)^2 per column, guards against tables with
    derivative kinks.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ScheduleError("t table has a non-finite sample")
    if t.ndim != 1 or t.size < 4 or np.any(np.diff(t) <= 0):
        raise ScheduleError("need at least 4 strictly increasing time samples")
    T = t[-1] - t[0]
    columns = {"theta": np.asarray(theta, float), "phi": np.asarray(phi, float),
               "alpha": np.asarray(alpha, float), "lambda": np.asarray(lam, float)}
    if b is not None:
        columns["b"] = np.asarray(b, float)
    for name, y in columns.items():
        if y.shape != t.shape:
            raise ScheduleError(f"{name} table length mismatch")
        if not np.all(np.isfinite(y)):
            raise ScheduleError(f"{name} table has a non-finite sample")
    if b is not None and not np.all(columns["b"] > 0):
        raise ScheduleError(f"b table must be positive, got {columns['b'].min()}")
    dt = np.diff(t)
    for name in ("theta", "phi", "alpha", "lambda"):
        y = columns[name]
        curv = np.abs(np.diff(np.diff(y) / dt) / dt[1:])
        bound = 10.0 * max(1.0, float(np.ptp(y))) * (2 * np.pi / T) ** 2
        if curv.size and curv.max() > bound:
            raise ScheduleError(
                f"{name} table fails the smoothness bound "
                f"(curvature {curv.max():.3g} > {bound:.3g})")

    from scipy.interpolate import CubicSpline  # on demand: keeps scipy off start-up

    t0 = t[0]
    splines = {k: CubicSpline(t - t0, v, bc_type="not-a-knot")
               for k, v in columns.items()}
    value = {k: _unwrapped(sp) for k, sp in splines.items()}
    rate = {k: _unwrapped(sp.derivative()) for k, sp in splines.items()}
    return CycleSchedule(
        duration=float(T),
        theta=value["theta"], phi=value["phi"], alpha=value["alpha"],
        lam=value["lambda"], theta_dot=rate["theta"], phi_dot=rate["phi"],
        alpha_dot=rate["alpha"], lam_dot=rate["lambda"],
        n_phi=n_phi, n_alpha=n_alpha, b=value.get("b", _const(1.0)))
