import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from reference import (_stacked, lab_hamiltonian, propagate, ramp_phase,
                       rotating_frame_hamiltonian, two_level_rotating_hamiltonian)
from spinberry import (alpha_rotation_cycle, berry_phase_adiabatic, blackman,
                       labeled_spectrum, magic_lambda,
                       mirror_phase_difference, phi_rotation_cycle,
                       ramp_fidelity, run_cycle,
                       spin_matrices, three_stage_cycle)
from spinberry.pulses import PulseShape, blackman_integral
from spinberry.spin_algebra import EulerAngles, rotation_unitary

HALF = spin_matrices(1)
S1 = spin_matrices(2)
S2 = spin_matrices(4)


def _constant(h):
    """Array-valued h(ts) of a time-independent Hamiltonian."""
    return lambda ts: np.broadcast_to(h, ts.shape + np.shape(h))


# --- pulses -----------------------------------------------------------------


def test_blackman_values():
    assert blackman(0.0) == pytest.approx(0.0, abs=1e-15)
    assert blackman(1.0) == pytest.approx(0.0, abs=1e-15)
    assert blackman(0.5) == pytest.approx(1.0)
    assert blackman(0.25) == pytest.approx(0.34)
    with pytest.raises(ValueError):
        blackman(1.2)


def test_pulse_normalization():
    for kind in ("linear", "blackman"):
        shape = PulseShape(kind)
        assert shape.fraction(0.0) == 0.0
        assert shape.fraction(1.0) == pytest.approx(1.0, abs=1e-15)
        # rate integrates to one (trapezoid over a fine grid)
        s = np.linspace(0, 1, 20001)
        total = np.trapezoid(shape.rate(s), s)
        assert total == pytest.approx(1.0, abs=1e-8)
    assert PulseShape("blackman").rate(0.0) == pytest.approx(0.0, abs=1e-15)
    assert blackman_integral(1.0) == pytest.approx(0.42)
    with pytest.raises(ValueError):
        PulseShape("welch")


# --- integrator -------------------------------------------------------------


def test_stationary_state_phase():
    spec = labeled_spectrum(S2, 0.7)
    v = spec.vector(1.0).astype(complex)
    e = spec.energy(1.0)
    h = _constant(S2.sigma_z + 0.7 * (S2.sigma_x @ S2.sigma_x))
    duration = 3.0
    _, psi, drift = propagate(h, v, duration, steps=600)
    assert drift < 1e-12
    assert np.abs(psi - np.exp(-1j * e * duration) * v).max() < 1e-10


def test_larmor_precession():
    # |+x> under Sigma_z: <Sigma_x>(t) = cos(t)/2
    h = _constant(HALF.sigma_z)
    psi0 = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    for t in (0.5, np.pi, 2 * np.pi, 5.0):
        _, psi, _ = propagate(h, psi0, t, steps=400)
        sx = np.real(np.vdot(psi, HALF.sigma_x @ psi))
        assert sx == pytest.approx(np.cos(t) / 2, abs=1e-6)


def test_rabi_oscillation_constant_two_level():
    # H = delta sz/2... use sigma_z + omega sigma_x/2 form via spin-1/2 ops:
    # популяция transfer follows the generalized Rabi formula
    delta, omega = 0.8, 0.6
    h_mat = delta * HALF.sigma_z + omega * HALF.sigma_x
    h = _constant(h_mat)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    t = 7.3
    _, psi, _ = propagate(h, psi0, t, steps=2000)
    rabi = np.sqrt(delta**2 + omega**2) / 2 * 2  # eigenvalue splitting
    p_down = (omega**2 / (delta**2 + omega**2)) * np.sin(rabi * t / 2) ** 2
    assert abs(psi[1]) ** 2 == pytest.approx(p_down, abs=1e-8)


def test_propagate_rejects_nonhermitian():
    h = _constant(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        propagate(h, np.array([1, 0], complex), 1.0, steps=10)


def test_stepper_rejects_bad_steps_and_duration():
    h = _constant(HALF.sigma_z)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    for steps in (1, 0, -3):
        with pytest.raises(ValueError, match="steps"):
            propagate(h, psi0, 1.0, steps=steps)
    for duration in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="duration"):
            propagate(h, psi0, duration, steps=10)
    with pytest.raises(ValueError, match="duration"):
        ramp_phase(S2, -1.0, 1.0, 0.0)


def _smooth_h(ts):
    # spin 2, complex Hermitian, with non-commuting time-dependent terms
    return (S2.sigma_z + _stacked(0.8 + 0.5 * np.sin(ts)) * (S2.sigma_x @ S2.sigma_x)
            + _stacked(0.3 * np.cos(1.3 * ts)) * S2.sigma_y)


def test_magnus_order_of_convergence():
    # the commutator-free Magnus step is fourth order: halving the step
    # divides the final-state error by sixteen
    duration = 4.0
    psi0 = np.full(5, 1.0 / np.sqrt(5), dtype=complex)
    ref = solve_ivp(lambda t, y: -1j * (_smooth_h(t) @ y), (0.0, duration),
                    psi0, method="DOP853", rtol=1e-13, atol=1e-13).y[:, -1]
    errors = [np.linalg.norm(propagate(_smooth_h, psi0, duration, n)[1] - ref)
              for n in (25, 50, 100, 200)]
    ratios = np.array(errors[:-1]) / np.array(errors[1:])
    assert np.all((ratios > 15.5) & (ratios < 16.5)), ratios


def _expm_step(h, dt, psi):
    """exp(-i h dt) psi from one eigendecomposition of h."""
    w, u = np.linalg.eigh(h)
    return u @ (np.exp(-1j * w * dt) * (u.conj().T @ psi))


def _midpoint_final(h_of_ts, psi, duration, steps):
    """Final state of the second-order midpoint-exponential rule."""
    dt = duration / steps
    for h in h_of_ts(dt * (np.arange(steps) + 0.5)):
        psi = _expm_step(h, dt, psi)
    return psi


# --- the stacked stepper against the per-step loop it replaced ---------------


def _reference_trajectory(h_of_ts, psi, duration, steps):
    """Two eigh-exponentials per step (CF4 at the Gauss nodes), applied as
    they come: the earlier node weighs more in the factor applied first."""
    psi = np.asarray(psi, dtype=complex)
    dt = duration / steps
    root = np.sqrt(3.0) / 6.0
    a_minus, a_plus = 0.25 - root, 0.25 + root
    states = [psi]
    for k in range(steps):
        h_early, h_late = h_of_ts(dt * np.array([k + 0.5 - root, k + 0.5 + root]))
        psi = _expm_step(a_plus * h_early + a_minus * h_late, dt, psi)
        psi = _expm_step(a_minus * h_early + a_plus * h_late, dt, psi)
        states.append(psi)
    return states


def _reference_cycle(rep, m, sched, steps):
    """Final state, total and dynamical phase of run_cycle, step by step in
    the co-rotating frame."""
    from spinberry.hamiltonian import _label_index, _spectra
    dt = sched.duration / steps
    i = _label_index(rep, m)
    ends = dt * np.arange(steps + 1)
    mids = dt * (np.arange(steps) + 0.5)
    mid_energies = _spectra(rep, sched.lam(mids))[0][:, i]
    end_energies, end_vecs = _spectra(rep, sched.lam(ends))
    end_energies, refs = end_energies[:, i], end_vecs[:, :, i]
    overlaps = np.sum(refs[1:] * refs[:-1], axis=-1)
    refs[1:] *= np.cumprod(np.where(overlaps < 0.0, -1.0, 1.0))[:, None]
    mid_fields, end_fields = sched.b(mids), sched.b(ends)
    states = _reference_trajectory(
        lambda ts: rotating_frame_hamiltonian(rep, sched, ts), refs[0],
        sched.duration, steps)
    overlap = 1.0 + 0.0j
    total_phase = dynamical = 0.0
    for k in range(steps):
        # Simpson's rule over the step
        dynamical += -dt / 6.0 * (end_fields[k] * end_energies[k]
                                  + 4.0 * mid_fields[k] * mid_energies[k]
                                  + end_fields[k + 1] * end_energies[k + 1])
        new_overlap = np.vdot(refs[k + 1], states[k + 1])
        total_phase += float(np.angle(new_overlap / overlap))
        overlap = new_overlap
    total_phase += -m * (2 * sched.n_phi + sched.n_alpha) * np.pi
    frame_end = rotation_unitary(rep, EulerAngles(sched.theta(sched.duration),
                                                  sched.phi(sched.duration),
                                                  sched.alpha(sched.duration)))
    return frame_end @ states[-1], total_phase, dynamical


@pytest.mark.parametrize("steps", [511, 513, 1537])
def test_stepper_matches_per_step_loop(steps):
    # step counts around powers of two, so that odd elements pass up the
    # sweep's tree at many levels (block joins: test_scan_matches_step_loop)
    from spinberry.dynamics import _block_hamiltonian, _magnus_run, _step_grid
    psi0 = np.full(5, 1.0 / np.sqrt(5), dtype=complex)
    _, psi, _ = propagate(_smooth_h, psi0, 4.0, steps)
    ref = _reference_trajectory(_smooth_h, psi0, 4.0, steps)[-1]
    assert np.abs(psi - ref).max() < 1e-12

    sched = three_stage_cycle(0.9, stage_duration=3.0)
    res = run_cycle(S2, 1.0, sched, steps=steps)
    ref_psi, ref_total, ref_dynamical = _reference_cycle(S2, 1.0, sched, steps)
    assert np.abs(res.final_state - ref_psi).max() < 1e-12
    assert abs(res.total_phase - ref_total) < 1e-12
    assert abs(res.dynamical_phase - ref_dynamical) < 1e-12

    # the M = 1 parity-block run of a cycle and of its image against the
    # whole multiplet, whose M = 1 and M = -1 amplitudes it must carry
    stages = three_stage_cycle(-0.97, 2.0, n_alpha=3, stretch=0.9)
    for two_s, rows in ((4, [1, 3]), (2, [0, 2])):
        rep = spin_matrices(two_s)
        for sign, cycle in ((+1, stages), (-1, stages.mirror())):
            def h(ts):
                return (rep.sigma_z + _stacked(stages.lam(ts)) * (rep.sigma_x @ rep.sigma_x)
                        - sign * _stacked(stages.alpha_dot(ts)) * rep.sigma_z)
            start = np.zeros(rep.dim, dtype=complex)
            start[rows[0]] = 1.0
            multiplet = np.array(_reference_trajectory(h, start, stages.duration,
                                                       steps))
            grid = _step_grid(cycle, steps)
            sel, ops, coeffs = _block_hamiltonian(rep, 1.0, [cycle], grid.nodes)
            block = _magnus_run(ops, coeffs, grid.dts, start[sel][None])[0]
            assert sel.tolist() == rows
            assert np.abs(block[-1] - multiplet[-1, rows]).max() < 1e-12
            amps = multiplet[:, rows[0]]
            ref_phase = sum(np.angle(amps[1:] / amps[:-1]))
            assert abs(np.sum(np.angle(block[1:, 0] / block[:-1, 0])) - ref_phase) < 1e-12


def _magnus_dims(monkeypatch):
    """Dimensions of the runs that go through the stepper from now on (one
    entry per call, which may step a stack of runs)."""
    from spinberry import dynamics
    dims, run = [], dynamics._magnus_run

    def recording(ops, coeffs, dts, initial):
        dims.append(np.shape(initial)[-1])
        return run(ops, coeffs, dts, initial)

    monkeypatch.setattr(dynamics, "_magnus_run", recording)
    return dims


def test_parity_block_run_matches_full_dimension(monkeypatch):
    # alpha-only runs integrate the tracked level's parity block; one block
    # holding every basis state makes the same runs keep the full dimension
    # (the tilted alpha-cycle has theta0 = 0.7 and field b = 1.3)
    from spinberry import dynamics
    from spinberry.schedules import Segment, from_segments
    from spinberry.spin_algebra import m_parity
    tilted = from_segments([Segment(kind="rotate", duration=4.0, alpha_half_turns=2)],
                           theta0=0.7, lambda0=-0.4, b=1.3)
    schedules = [dynamics._ramp(0.6, 4.0, "blackman"),
                 alpha_rotation_cycle(0.5, 1, 4.0), tilted]
    levels = [(two_s, m) for two_s in range(1, 13)
              for m in spin_matrices(two_s).m_values]
    dims = _magnus_dims(monkeypatch)
    block = [dynamics._tracked_run(spin_matrices(two_s), m, sched, steps=100)
             for two_s, m in levels for sched in schedules]
    # the block Hamiltonian against the full co-rotating one, field b != 1
    ours = block[levels.index((4, 1.0)) * len(schedules) + 2]
    ref_psi, ref_total, _ = _reference_cycle(S2, 1.0, tilted, 100)
    assert np.abs(ours.final_state - ref_psi).max() < 1e-12
    assert abs(ours.total_phase - ref_total) < 1e-12
    expected = [sum(m_parity(two_s, mj) == m_parity(two_s, m)
                    for mj in spin_matrices(two_s).m_values)
                for two_s, m in levels for _ in schedules]
    assert dims == expected
    monkeypatch.setattr(dynamics, "_block", lambda rep, m: np.arange(rep.dim))
    full = [dynamics._tracked_run(spin_matrices(two_s), m, sched, steps=100)
            for two_s, m in levels for sched in schedules]
    assert dims[len(block):] == [two_s + 1 for two_s, _ in levels
                                 for _ in schedules]
    for ours, ref in zip(block, full):
        assert np.abs(ours.final_state - ref.final_state).max() < 1e-12
        assert abs(ours.total_phase - ref.total_phase) < 1e-12
        assert abs(ours.sz_expectation - ref.sz_expectation) < 1e-12


def test_phi_and_theta_cycles_keep_the_full_dimension(monkeypatch):
    from reference import from_table
    t = np.linspace(0.0, 4.0, 81)
    s = 2 * np.pi * t / 4.0
    theta_cycle = from_table(t, theta=0.9 + 0.3 * np.sin(s), phi=0.0 * s,
                             alpha=0.5 * s, lam=0.3 + 0.1 * np.sin(s), n_alpha=1)
    phi_cycle = phi_rotation_cycle(theta0=0.9, n_phi=1, duration=4.0, lambda0=0.3)
    dims = _magnus_dims(monkeypatch)
    for sched in (phi_cycle, theta_cycle):
        res = run_cycle(S2, 1.0, sched, steps=200)
        ref_psi, ref_total, _ = _reference_cycle(S2, 1.0, sched, 200)
        assert np.abs(res.final_state - ref_psi).max() < 1e-12
        assert abs(res.total_phase - ref_total) < 1e-12
    assert dims == [S2.dim, S2.dim]


def _bench_cycle(lambda0):
    """The benchmark's cycle: Blackman ramp 0 -> lambda0 over 10, half-turn
    of alpha over 20, ramp back over 10."""
    from spinberry.schedules import Segment, from_segments
    return from_segments([
        Segment(kind="ramp", duration=10.0, lambda_to=lambda0),
        Segment(kind="rotate", duration=20.0, alpha_half_turns=1),
        Segment(kind="ramp", duration=10.0, lambda_to=0.0)])


def _bench_cycle_rotating_rhs(rep, lambda0):
    """Co-rotating-frame Schroedinger right-hand side of the benchmark's
    cycle from closed-form Blackman profiles (cheap per scalar time)."""
    sz = rep.sigma_z.real
    sxsq = (rep.sigma_x @ rep.sigma_x).real

    def fraction(s):
        return (0.42 * s - 0.5 * np.sin(2 * np.pi * s) / (2 * np.pi)
                + 0.08 * np.sin(4 * np.pi * s) / (4 * np.pi)) / 0.42

    def rhs(t, psi):
        if t < 10.0:
            lam, rate = lambda0 * fraction(t / 10.0), 0.0
        elif t < 30.0:
            s = (t - 10.0) / 20.0
            lam = lambda0
            rate = (np.pi / 20.0) * (0.42 - 0.5 * np.cos(2 * np.pi * s)
                                     + 0.08 * np.cos(4 * np.pi * s)) / 0.42
        else:
            lam, rate = lambda0 * (1.0 - fraction(min(t - 30.0, 10.0) / 10.0)), 0.0
        return -1j * (((1.0 - rate) * sz + lam * sxsq) @ psi)

    return rhs


@pytest.mark.parametrize("two_s, lambda0",
                         [(2, 1.0), (4, -1.05), (5, -2.0), (8, 2.0), (12, 2.0)])
def test_default_density_beats_midpoint_rule(two_s, lambda0):
    # run_cycle at its default density against the second-order midpoint
    # rule at 200 steps per unit time, the density it replaced; both are
    # measured against DOP853 (rtol 1e-12) in the co-rotating frame
    rep = spin_matrices(two_s)
    m = 1.0 if two_s % 2 == 0 else 0.5
    sched = _bench_cycle(lambda0)
    res = run_cycle(rep, m, sched)
    start = labeled_spectrum(rep, 0.0).vector(m).astype(complex)
    sol = solve_ivp(_bench_cycle_rotating_rhs(rep, lambda0), (0.0, sched.duration),
                    start, method="DOP853", rtol=1e-12, atol=1e-12)
    frame_end = rotation_unitary(rep, EulerAngles(0.0, 0.0, np.pi))
    ref = frame_end @ sol.y[:, -1]
    midpoint = _midpoint_final(lambda ts: lab_hamiltonian(rep, sched, ts), start,
                               sched.duration, int(200 * sched.duration))
    magnus_error = np.linalg.norm(res.final_state - ref)
    assert 5.0 * magnus_error < np.linalg.norm(midpoint - ref), magnus_error


@pytest.mark.parametrize("two_s, lambda0",
                         [(2, 1.0), (4, -1.05), (5, -2.0), (8, 2.0), (12, 2.0)])
def test_default_density_final_state_accuracy(two_s, lambda0):
    # run_cycle integrates in the co-rotating frame; at its default density
    # its final state is 4.3e-10 (2S = 2) to 1.1e-8 (2S = 12) from DOP853
    # (rtol 1e-12), where the laboratory-frame run was up to 5.9e-6 off
    rep = spin_matrices(two_s)
    m = 1.0 if two_s % 2 == 0 else 0.5
    sched = _bench_cycle(lambda0)
    start = labeled_spectrum(rep, 0.0).vector(m).astype(complex)
    sol = solve_ivp(_bench_cycle_rotating_rhs(rep, lambda0), (0.0, sched.duration),
                    start, method="DOP853", rtol=1e-12, atol=1e-12)
    ref = rotation_unitary(rep, EulerAngles(0.0, 0.0, np.pi)) @ sol.y[:, -1]
    error = np.linalg.norm(run_cycle(rep, m, sched).final_state - ref)
    assert error < 5e-8, error


@pytest.mark.parametrize("steps", [10, 40, 250])
def test_constant_hamiltonian_phase_does_not_wrap(steps):
    # a hold at 2S = 8, lambda = 2 turns the phase by 8.5 rad per step at 10
    # steps; the stepper and Simpson's rule are both exact for a constant
    # Hamiltonian, so the whole phase is dynamical
    from spinberry.schedules import Segment, from_segments
    rep = spin_matrices(8)
    sched = from_segments([Segment(kind="hold", duration=10.0)], lambda0=2.0)
    res = run_cycle(rep, 0.0, sched, steps=steps)
    exact = -10.0 * labeled_spectrum(rep, 2.0).energy(0.0)
    assert abs(res.geometric_phase) < 1e-9
    assert abs(res.total_phase - res.dynamical_phase) < 1e-9
    assert abs(res.dynamical_phase - exact) < 1e-9


def test_norm_drift_on_long_cycle():
    # 8,000 steps of the benchmark's cycle at this coupling, on the 2x2 m = 1
    # block: its closed-form steps drift by 1.1e-13.  On eigh steps, whose
    # eigenvectors fall short of orthonormal by about 6e-17, the drift builds
    # up to 1.04e-12 unless each propagator gets a Newton-Schulz step
    sched = three_stage_cycle(-1.1655059345201522, stage_duration=10.0, n_alpha=1)
    assert run_cycle(S2, 1.0, sched, steps=8000).norm_drift < 1e-12


def test_unitarity_drift_bound():
    sched = three_stage_cycle(0.9, stage_duration=3.0)
    res = run_cycle(S2, 0.0, sched, steps=1200)
    assert res.norm_drift < 1e-12
    assert abs(np.linalg.norm(res.final_state) - 1.0) < 1e-12
    assert 0.0 <= res.leakage <= 1.0


# --- closed-form two-level steps ----------------------------------------------


def _eigh_cf4_steps(h_nodes, dts):
    """The CF4 step propagators by stacked eigh plus one Newton-Schulz step,
    as steps of more than three levels are formed: the reference of the
    closed-form cross-checks below."""
    from spinberry.dynamics import _A_MINUS, _A_PLUS
    h_early, h_late = h_nodes[..., 0, :, :], h_nodes[..., 1, :, :]
    w, u = np.linalg.eigh(np.stack([_A_PLUS * h_early + _A_MINUS * h_late,
                                    _A_MINUS * h_early + _A_PLUS * h_late]))
    applied_first, applied_second = (
        (u * np.exp(-1j * w * dts[..., None])[..., None, :]) @ u.conj().swapaxes(-1, -2))
    props = applied_second @ applied_first
    eye = np.eye(props.shape[-1])
    return props @ (1.5 * eye - 0.5 * (props.conj().swapaxes(-1, -2) @ props))


_PAULI_OPS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]],
                       [[1, 0], [0, -1]]])


def _coefficients(h_nodes):
    """Operators and coefficients (..., K) of sampled Hermitian Hamiltonians
    ``h_nodes`` (..., n, n): on two levels the real Pauli components on
    (1, sigma_x, sigma_y, sigma_z), on more the n**2 matrix units."""
    n = h_nodes.shape[-1]
    if n == 2:
        return _PAULI_OPS, np.stack([0.5 * (h_nodes[..., 0, 0] + h_nodes[..., 1, 1]).real,
                                     h_nodes[..., 1, 0].real, h_nodes[..., 1, 0].imag,
                                     0.5 * (h_nodes[..., 0, 0] - h_nodes[..., 1, 1]).real],
                                    axis=-1)
    return np.eye(n * n).reshape(n * n, n, n), h_nodes.reshape(h_nodes.shape[:-2] + (n * n,))


def _matrices(ops, coeffs):
    """The Hamiltonians sum_k c_k O_k (..., n, n) of coefficients (..., K)."""
    return np.tensordot(coeffs, ops, axes=(-1, 0))


def _cayley_klein(a, b, a_early, b_early):
    """The product of Cayley-Klein pairs, the later (a, b) times the earlier
    (a', b'): (a a' - conj(b) b', b a' + conj(a) b')."""
    return a * a_early - b.conj() * b_early, b * a_early + a.conj() * b_early


def _su2_matrices(phase, a, b):
    """The matrices exp(-i phase) [[a, -conj(b)], [b, conj(a)]] (..., 2, 2)
    of Cayley-Klein parameters (...)."""
    props = np.stack([a, -b.conj(), b, a.conj()], axis=-1).reshape(a.shape + (2, 2))
    return props * np.exp(-1j * phase)[..., None, None]


def _library_steps(h_nodes, dts):
    """The library's CF4 step propagators (..., steps, n, n) of sampled
    matrices, from their coefficients (``_cf4_propagators``: closed forms
    on two and three levels, else eigh)."""
    from spinberry.dynamics import _cf4_propagators, _exponent_basis
    ops, coeffs = _coefficients(h_nodes)
    return np.moveaxis(_cf4_propagators(_exponent_basis(ops), coeffs, dts), 0, -3)


def _matmul_run_propagator(h_nodes, dts, step_propagators=_library_steps):
    """Run propagators as stacked matrix products of the CF4 step matrices
    (by default those of ``_cf4_propagators``), about 512 steps of all runs
    at a time, multiplied pairwise in time order: the reference of the
    Cayley-Klein composition of two-level runs."""
    eye = np.eye(h_nodes.shape[-1])
    block = max(1, 512 * dts.shape[-1] // dts.size)
    total = eye
    for first in range(0, dts.shape[-1], block):
        props = step_propagators(h_nodes[..., first:first + block, :, :, :],
                                 dts[..., first:first + block])
        while props.shape[-3] > 1:
            if props.shape[-3] % 2:
                props = np.concatenate(
                    [props, np.broadcast_to(eye, props[..., :1, :, :].shape)], axis=-3)
            props = props[..., 1::2, :, :] @ props[..., ::2, :, :]
        total = props[..., 0, :, :] @ total
    return total


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("k", range(1, 7))
def test_compose_matches_matmul(complex_, k):
    # inner sizes on both sides of the switch from broadcast outer products
    # to matmul (k = 4), for the tree's matrix products, the down-sweep's
    # matrix-vector products, a propagator's root (..., 1, k, k) applied to
    # the identity's columns (k, k, 1) and the CF4 weights applied to each
    # run's coefficients (300 columns, matmul at every k), each entry to
    # 1e-15 of the sum of its terms' magnitudes
    from spinberry.dynamics import _compose
    rng = np.random.default_rng(23)

    def draw(*shape):
        x = rng.normal(size=shape)
        return x + 1j * rng.normal(size=shape) if complex_ else x

    for late, early in ((draw(5, 3, k, k), draw(5, 3, k, k)), (draw(7, k, k), draw(7, k, 1)),
                        (draw(4, 1, k, k), np.eye(k)[..., None]), (draw(8, k), draw(3, k, 300))):
        got, ref = _compose(late, early), np.matmul(late, early)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert np.all(np.abs(got - ref) <= 1e-15 * (np.abs(late) @ np.abs(early)))


def _random_nodes(rng, n, complex_, norm_dts, levels=2):
    """``n`` pairs of random Hermitian node Hamiltonians on ``levels`` levels
    and step widths that give each step max ||H|| dt = ``norm_dts``."""
    a = rng.normal(size=(n, 2, levels, levels))
    if complex_:
        a = a + 1j * rng.normal(size=a.shape)
    h = a + a.conj().swapaxes(-1, -2)
    return h, norm_dts / np.linalg.norm(h, ord=2, axis=(-2, -1)).max(axis=-1)


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_two_level_steps_match_eigh_steps(complex_):
    rng = np.random.default_rng(15)
    # ||H|| dt, and with it r = |x|, from 1e-9 to 10
    h, dts = _random_nodes(rng, 4000, complex_, np.logspace(-9, 1, 4000))
    got = _library_steps(h, dts)
    assert np.abs(got - _eigh_cf4_steps(h, dts)).max() < 1e-14
    assert np.abs(got.conj().swapaxes(-1, -2) @ got - np.eye(2)).max() < 1e-14
    # the tuner pads ragged runs with H = 0, dt = 0, which must be the identity
    padding = _library_steps(np.zeros((3, 2, 2, 2), dtype=h.dtype), np.zeros(3))
    np.testing.assert_array_equal(padding, np.broadcast_to(np.eye(2), (3, 2, 2)))


def _random_runs(rng, runs, steps, complex_, levels=2):
    """``runs`` stacked runs of ``steps`` random steps on ``levels`` levels,
    with ||H|| dt spread from 1e-9 to 50 in random order."""
    norm_dts = rng.permutation(np.logspace(-9, np.log10(50.0), runs * steps))
    h, dts = _random_nodes(rng, runs * steps, complex_, norm_dts, levels)
    return h.reshape(runs, steps, 2, levels, levels), dts.reshape(runs, steps)


def _assert_unitary(props):
    assert np.abs(props.conj().swapaxes(-1, -2) @ props - np.eye(2)).max() < 1e-14


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("runs, steps", [(1, 1), (1, 2), (3, 301), (40, 99)])
def test_cayley_klein_runs_match_matmul_products(complex_, runs, steps):
    from spinberry.dynamics import _run_propagator
    h, dts = _random_runs(np.random.default_rng(18), runs, steps, complex_)
    got = _run_propagator(*_coefficients(h), dts)
    assert got.shape == (runs, 2, 2)
    assert np.abs(got - _matmul_run_propagator(h, dts)).max() < 1e-13
    _assert_unitary(got)


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_cayley_klein_runs_cross_block_boundaries(complex_):
    # 5 runs of 2,000 steps make blocks of 1,024 steps: a boundary per run
    from spinberry.dynamics import _STEP_RUNS, _run_propagator
    h, dts = _random_runs(np.random.default_rng(19), 5, 2000, complex_)
    assert 2 * (_STEP_RUNS // 5) < 2000
    got = _run_propagator(*_coefficients(h), dts)
    assert np.abs(got - _matmul_run_propagator(h, dts)).max() < 1e-13
    _assert_unitary(got)
    # each run alone is one block of 2,000 steps
    alone = np.array([_run_propagator(*_coefficients(h_run), dts_run)
                      for h_run, dts_run in zip(h, dts)])
    assert np.abs(got - alone).max() < 1e-13


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_cayley_klein_ragged_runs_pad_with_identity_steps(complex_):
    # the tuner pads ragged runs with H = 0, dt = 0: padding steps are
    # exactly the identity, so a run of padding alone is the identity bit
    # for bit, and a padded run is the run alone
    from spinberry.dynamics import _run_propagator
    h, dts = _random_runs(np.random.default_rng(20), 4, 1500, complex_)
    lengths = [1500, 977, 3, 0]
    for k, n in enumerate(lengths):
        h[k, n:], dts[k, n:] = 0.0, 0.0
    got = _run_propagator(*_coefficients(h), dts)
    np.testing.assert_array_equal(got[-1], np.eye(2))
    assert np.abs(got - _matmul_run_propagator(h, dts)).max() < 1e-13
    _assert_unitary(got)
    for k, n in enumerate(lengths[:-1]):
        alone = _run_propagator(*_coefficients(h[k, :n]), dts[k, :n])
        assert np.abs(got[k] - alone).max() < 1e-13


def test_run_propagator_logs_what_it_did(caplog):
    import logging
    from spinberry.dynamics import _run_propagator
    # the bound on max ||H|| dt is sum_k |c_k| ||O_k|| dt: (0.5 + 0.5) * 0.04
    # on (1, sigma_x, sigma_y, sigma_z) with one node at c = -0.5 and 0.5 for
    # sigma_x and sigma_y, and (0.5 + 2 * 1.5) * 0.1 on two 3x3 operators of
    # largest absolute row sums 1 and 1.5, and 2 * 0.1 on the 4x4 identity;
    # each names its step form
    dts = np.full((3, 2500), 0.04)
    coeffs = np.zeros((3, 2500, 2, 4))
    coeffs[1, 7, 1, 1:3] = -0.5, 0.5
    ops = np.array([np.diag([1.0, 0.0, -1.0]), np.full((3, 3), 0.5)])
    with caplog.at_level(logging.DEBUG, logger="spinberry.dynamics"):
        _run_propagator(_PAULI_OPS, coeffs, dts)
        _run_propagator(ops, np.tile([0.5, -2.0], (2, 2500, 2, 1)), np.full((2, 2500), 0.1))
        _run_propagator(np.eye(4)[None], np.full((1, 100, 2, 1), 2.0), np.full((1, 100), 0.1))
    assert [(r.name, r.levelno) for r in caplog.records] == [("spinberry.dynamics",
                                                             logging.DEBUG)] * 3
    assert [r.getMessage() for r in caplog.records] == [
        "_run_propagator: 3 runs of 2500 steps in 2 blocks of 2048 steps, K = 4, "
        "max ||H|| dt <= 0.04, propagators (Cayley-Klein)",
        "_run_propagator: 2 runs of 2500 steps in 2 blocks of 2048 steps, K = 2, "
        "max ||H|| dt <= 0.35, propagators (closed form)",
        "_run_propagator: 1 runs of 100 steps in 1 blocks of 2048 steps, K = 1, "
        "max ||H|| dt <= 0.2, propagators (eigh)"]


def _step_loop(step_propagators, calls):
    """A ``_magnus_run`` that forms all steps of a run by
    ``step_propagators`` on the sampled matrices sum_k c_k O_k and applies
    them one ``prop @ psi`` at a time, as runs on more than two levels are
    stepped; each call appends the shape of its initial states to
    ``calls``."""
    def run(ops, coeffs, dts, initial):
        calls.append(np.shape(initial))
        states = [np.asarray(initial, dtype=complex)[..., None]]
        for prop in np.moveaxis(step_propagators(_matrices(ops, coeffs), dts), -3, 0):
            states.append(prop @ states[-1])
        return np.moveaxis(np.array(states)[..., 0], 0, -2)
    return run


def _run_drift(states):
    """Largest norm deviation from the initial norm, over a stack of runs."""
    norms = np.linalg.norm(states, axis=-1)
    return np.abs(norms - norms[..., :1]).max()


_SCAN_RUNS = [((), 2), ((), 5000), ((2,), 1), ((2,), 2100), ((3,), 1500), ((2, 2), 700)]
_SCAN_RUNS_ALONE = [((), steps) for steps in (1, 3, 5, 63, 65, 1023, 1025)]


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("shape, steps, levels", [
    pytest.param(shape, steps, 2, id=f"shape{k}-{steps}")
    for k, (shape, steps) in enumerate(_SCAN_RUNS)
] + [
    pytest.param(shape, steps, levels, id=f"{levels}-levels-{len(shape)}d-{steps}")
    for levels in (2, 3, 5)
    for shape, steps in _SCAN_RUNS_ALONE + (_SCAN_RUNS if levels > 2 else [])
])
def test_scan_matches_step_loop(complex_, shape, steps, levels):
    # the sweep's step-end states against the library's steps applied one at
    # a time: one run of 1, 2, 3 and 5 steps, of 2**k +- 1 steps (an odd
    # element out at every level of the tree), stacked mirror pairs and
    # larger stacks, in one block or (5,000 steps of one run, 2,100 of two,
    # 1,500 of three, and every stack on 3 and 5 levels) across a block
    # boundary, with ||H|| dt from 1e-9 to 50 and every seventh step of zero
    # width
    from spinberry.dynamics import _magnus_run
    rng = np.random.default_rng(21)
    h, dts = _random_runs(rng, int(np.prod(shape)), steps, complex_, levels)
    # every run on the first run's widths, at its own ||H|| dt
    h = (h * (dts / dts[0])[..., None, None, None]).reshape(shape + (steps, 2, levels, levels))
    dts = dts[0].copy()
    dts[::7] = 0.0
    initial = rng.normal(size=shape + (levels,)) + 1j * rng.normal(size=shape + (levels,))
    initial /= np.linalg.norm(initial, axis=-1, keepdims=True)
    ops, coeffs = _coefficients(h)
    got = _magnus_run(ops, coeffs, dts, initial)
    ref = _step_loop(_library_steps, [])(ops, coeffs, dts, initial)
    assert got.shape == shape + (steps + 1, levels)
    np.testing.assert_array_equal(got[..., 0, :], initial)
    assert np.abs(got - ref).max() < 1e-13
    # not renormalized: the drift is the steps' rounding, a random walk of
    # the loop's size (over seeds 21-24 the ratio of the largest drifts
    # ran from 0.64 to 2.25, of the mean drifts from 0.44 to 2.29)
    assert _run_drift(got) < 1e-13
    assert _run_drift(got) <= 3.0 * _run_drift(ref) + 1e-15


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("levels", [2, 3, 5])
def test_last_state_is_propagator_applied(complex_, levels):
    # the down-sweep's last state and the up-sweep's root are the same
    # product, over three stacked runs of 3,001 steps across block
    # boundaries.  The propagator is made unitary and the states keep their
    # norm drift (up to about 2e-14 here over seeds 22-39; the directions agree
    # to 5e-15), so the state is held to the propagator at its own norm.
    from spinberry.dynamics import _magnus_run, _run_propagator
    rng = np.random.default_rng(22)
    h, dts = _random_runs(rng, 3, 3001, complex_, levels)
    h = h * (dts / dts[0])[..., None, None, None]
    initial = rng.normal(size=(3, levels)) + 1j * rng.normal(size=(3, levels))
    initial /= np.linalg.norm(initial, axis=-1, keepdims=True)
    ops, coeffs = _coefficients(h)
    states = _magnus_run(ops, coeffs, dts[0], initial)
    props = _run_propagator(ops, coeffs, np.broadcast_to(dts[0], dts.shape))
    last, applied = states[:, -1], np.einsum("rij,rj->ri", props, initial)
    assert np.abs(last - np.linalg.norm(last, axis=-1, keepdims=True) * applied).max() < 1e-14
    assert np.abs(last - applied).max() < 1e-14 + _run_drift(states)


def test_magnus_run_logs_what_it_did(caplog):
    import logging
    from spinberry.dynamics import _magnus_run
    # a zero run bounds max ||H|| dt by 0; the 3x3 one by |-3| * 2 * 0.01
    with caplog.at_level(logging.DEBUG, logger="spinberry.dynamics"):
        _magnus_run(_PAULI_OPS[:2], np.zeros((2, 2100, 2, 2)), np.zeros(2100), np.ones((2, 2)))
        _magnus_run(np.eye(3)[None] * [2.0, 1.0, 0.5], np.full((5000, 2, 1), -3.0),
                    np.full(5000, 0.01), np.ones(3))
    assert [(r.name, r.levelno) for r in caplog.records] == [("spinberry.dynamics",
                                                             logging.DEBUG)] * 2
    assert [r.getMessage() for r in caplog.records] == [
        "_magnus_run: 2 runs of 2100 steps in 2 blocks of 2048 steps, K = 2, "
        "max ||H|| dt <= 0, states (Cayley-Klein loop)",
        "_magnus_run: 1 runs of 5000 steps in 2 blocks of 4096 steps, K = 1, "
        "max ||H|| dt <= 0.06, states (closed form loop)"]


def test_debug_logging_leaves_output_unchanged(tmp_path, capsys, caplog):
    # the run records go to logging only: a two-level ramp (one run
    # propagator per duration) and a three-level cycle (one stepped run)
    # write the same bytes with and without DEBUG records captured, and
    # print nothing to stderr
    import logging
    from spinberry.cli import main
    sched = tmp_path / "cycle.sched"
    sched.write_text("lambda0 = 0.9\n"
                     "segment1.kind = rotate\nsegment1.duration = 20\n"
                     "segment1.alpha_half_turns = 1\n")
    commands = [["ramp", "--spin", "2", "--m", "-1", "--lambda0", "1", "--T", "5,8"],
                ["cycle", "--schedule", str(sched), "--spin", "2", "--m", "0"]]
    outputs = []
    for level in (logging.WARNING, logging.DEBUG):
        caplog.clear()
        with caplog.at_level(level, logger="spinberry.dynamics"):
            for k, argv in enumerate(commands):
                out = tmp_path / f"{level}-{k}.out"
                assert main(argv + ["--out", str(out)]) == 0
                outputs.append(out.read_bytes())
        outputs.append(capsys.readouterr())
        assert outputs[-1].err == ""
        paths = [(r.getMessage().split(":")[0], r.getMessage().split(", ")[1],
                  r.getMessage().split("(")[-1]) for r in caplog.records]
        assert paths == ([] if level == logging.WARNING
                         else [("_run_propagator", "K = 2", "Cayley-Klein)")] * 2
                         + [("_magnus_run", "K = 2", "closed form loop)")])
    assert outputs[:3] == outputs[3:]


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_two_level_steps_match_exact_exponentials(complex_):
    # up to ||H|| dt = 50, against the CF4 step at 40 digits: there the eigh
    # step itself is off by about 1e-14
    mpmath = pytest.importorskip("mpmath")
    from spinberry.dynamics import _A_MINUS, _A_PLUS
    rng = np.random.default_rng(16)
    h, dts = _random_nodes(rng, 60, complex_, np.linspace(10.0, 50.0, 60))
    got = _library_steps(h, dts)
    with mpmath.workdps(40):
        a_minus = mpmath.mpf(1) / 4 - mpmath.sqrt(3) / 6
        a_plus = mpmath.mpf(1) / 4 + mpmath.sqrt(3) / 6
        for (h_early, h_late), dt, prop in zip(h, dts, got):
            early, late = mpmath.matrix(h_early.tolist()), mpmath.matrix(h_late.tolist())
            exact = (mpmath.expm(-1j * dt * (a_minus * early + a_plus * late))
                     * mpmath.expm(-1j * dt * (a_plus * early + a_minus * late)))
            exact = np.array([[complex(exact[i, j]) for j in range(2)] for i in range(2)])
            assert np.abs(prop - exact).max() < 1e-14


_TWO_LEVEL_BLOCKS = ([(2, m) for m in (1.0, -1.0)]
                     + [(3, m) for m in (1.5, 0.5, -0.5, -1.5)]
                     + [(4, m) for m in (1.0, -1.0)])


@pytest.mark.parametrize("two_s, m", _TWO_LEVEL_BLOCKS)
def test_two_level_block_runs_match_eigh_steps(two_s, m, monkeypatch):
    # every two-dimensional parity-block run, on a ramp and on an alpha-cycle,
    # against the same run on eigh steps applied one at a time, with eigh
    # references: the largest difference is 1.2e-14, in <Sigma_z>
    from conftest import _eigh_block_spectra, _recorded_block_spectra
    from spinberry import dynamics
    rep = spin_matrices(two_s)
    schedules = [dynamics._ramp(-0.97, 12.0, "blackman"), alpha_rotation_cycle(0.8, 2, 6.0)]
    ours = [dynamics._tracked_run(rep, m, sched) for sched in schedules]
    calls = []
    monkeypatch.setattr(dynamics, "_magnus_run", _step_loop(_eigh_cf4_steps, calls))
    eigh_block_spectra = _recorded_block_spectra(monkeypatch, _eigh_block_spectra)
    for res, sched in zip(ours, schedules):
        ref = dynamics._tracked_run(rep, m, sched)
        assert np.abs(res.final_state - ref.final_state).max() < 1e-12
        assert abs(res.total_phase - ref.total_phase) < 1e-12
        assert abs(res.geometric_phase - ref.geometric_phase) < 1e-12
        assert abs(res.sz_expectation - ref.sz_expectation) < 1e-12
        assert abs(res.leakage - ref.leakage) < 1e-12
    assert calls == [(1, 2)] * 2
    assert [size for size, _ in eigh_block_spectra] == [2] * 2


def test_spin_half_phi_cycle_matches_eigh_steps(monkeypatch):
    # the complex full-dimension 2x2 run of a phi-cycle
    from spinberry import dynamics
    sched = phi_rotation_cycle(theta0=0.9, n_phi=1, duration=8.0, lambda0=0.3)
    ours = run_cycle(HALF, 0.5, sched)
    calls = []
    monkeypatch.setattr(dynamics, "_magnus_run", _step_loop(_eigh_cf4_steps, calls))
    ref = run_cycle(HALF, 0.5, sched)
    assert calls == [(1, 2)]
    assert np.abs(ours.final_state - ref.final_state).max() < 1e-12
    assert abs(ours.total_phase - ref.total_phase) < 1e-12
    assert abs(ours.geometric_phase - ref.geometric_phase) < 1e-12


def test_stretch_fidelity_matches_eigh_steps(monkeypatch):
    # the tuner's rotation and ramp propagators
    from spinberry import entangle
    stretches = np.linspace(0.88, 1.12, 7)
    ours = entangle._stretch_fidelity(-0.97, 10.0)(stretches)
    calls = []

    def eigh_run(ops, coeffs, dts):
        calls.append(dts.shape)
        return _matmul_run_propagator(_matrices(ops, coeffs), dts, _eigh_cf4_steps)
    monkeypatch.setattr(entangle, "_run_propagator", eigh_run)
    ref = entangle._stretch_fidelity(-0.97, 10.0)(stretches)
    assert len(calls) == 2 * (1 + len(stretches))  # the rotation and each ramp, per spin
    assert np.abs(ours - ref).max() < 1e-12


# --- closed-form three-level steps -------------------------------------------


def _three_level(x):
    """The library's closed-form exp(-i X) of 3x3 Hermitian X (..., 3, 3)."""
    from spinberry.dynamics import _three_level_exponentials
    x = np.asarray(x)
    return _three_level_exponentials(x, np.ones(x.shape[:-2]))


def _assert_matches_expm(x):
    # each exp(-i X) against scipy's to 1e-14 max(1, ||X||)
    from scipy.linalg import expm
    x = np.asarray(x).reshape(-1, 3, 3)
    got = _three_level(x)
    want = np.array([expm(-1j * xk) for xk in x])
    bound = 1e-14 * np.maximum(1.0, np.linalg.norm(x, ord=2, axis=(-2, -1)))
    assert np.all(np.abs(got - want).max(axis=(-2, -1)) <= bound)


def test_three_level_exponential_of_a_multiple_of_the_identity():
    # X = 0 is the identity to the bit; X = c I is exp(-i c) I
    np.testing.assert_array_equal(_three_level(np.zeros((4, 3, 3))),
                                  np.broadcast_to(np.eye(3), (4, 3, 3)))
    cs = np.array([0.0, 1e-300, 1e-9, 1.0, -7.5, 10.0])
    x = cs[:, None, None] * np.eye(3)
    got = _three_level(x)
    assert np.abs(got - np.exp(-1j * cs)[:, None, None] * np.eye(3)).max() < 1e-15
    _assert_matches_expm(x)
    _assert_matches_expm(x.astype(complex))


@pytest.mark.parametrize("center", [0.0, 1.0, -3.7])
def test_three_level_exponential_of_nearly_degenerate_diagonals(center):
    # gaps from 1e-15 to 1e-4: all three levels close, two close and one far
    for gap in np.logspace(-15, -4, 12):
        for levels in ([0.0, gap, 2.0 * gap], [0.0, gap, 1.0], [0.0, 1.0, 1.0 + gap],
                       [gap, 0.0, -gap]):
            _assert_matches_expm(np.diag(center + np.array(levels)))


def _clustered_hermitian(draw_seed, complex_, center, gaps):
    """A random real symmetric or complex Hermitian 3x3 matrix with the
    eigenvalues center, center + gaps[0] and center + gaps[0] + gaps[1]."""
    rng = np.random.default_rng(draw_seed)
    a = rng.normal(size=(3, 3)) + (1j * rng.normal(size=(3, 3)) if complex_ else 0.0)
    q = np.linalg.qr(a)[0]
    x = (q * (center + np.array([0.0, gaps[0], gaps[0] + gaps[1]]))) @ q.conj().T
    return 0.5 * (x + x.conj().T)


_GAPS = st.tuples(st.floats(1.0, 9.99), st.integers(-16, 0)).map(lambda g: g[0] * 10.0 ** g[1])


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), complex_=st.booleans(),
       center=st.floats(-4.0, 4.0), gaps=st.tuples(_GAPS | st.just(0.0), _GAPS | st.just(0.0)))
def test_three_level_exponential_matches_expm(seed, complex_, center, gaps):
    # clustered eigenvalues at every scale from coinciding to ||X|| = 10
    gaps = tuple(min(g, 3.0) for g in gaps)
    _assert_matches_expm(_clustered_hermitian(seed, complex_, center, gaps))


def _three_state_blocks():
    """(label, operators (K, 3, 3)) of every three-state parity block of
    the paper's spins: S = 2, m = 0; both blocks of S = 5/2; the even block
    of S = 3."""
    from spinberry.hamiltonian import _block, _block_operators
    blocks = [("S=2 m=0", 4, 0.0), ("S=5/2 m=5/2", 5, 2.5), ("S=5/2 m=3/2", 5, 1.5),
              ("S=3 m=0", 6, 0.0)]
    return [(label, np.stack(_block_operators(spin_matrices(two_s),
                                              _block(spin_matrices(two_s), m))))
            for label, two_s, m in blocks]


@pytest.mark.parametrize("density", [25, 400])
def test_three_level_steps_match_eigh_steps(density):
    # the closed-form CF4 steps against stacked eigh plus Newton-Schulz, the
    # path they replace, to 1e-14 in every entry: each 3-state block over
    # lambda in [-3, 3] (the m = 0 / m = 2 avoided crossing near 0.43 among
    # them) with (b - alpha_dot) = 1, 0 (near-degenerate exponents) and
    # -0.5, and the whole S = 1 multiplet of a cycle on which phi and theta
    # both move (complex exponents on four operators)
    from spinberry.dynamics import _block_hamiltonian, _cf4_propagators, _exponent_basis, _grid
    from reference import from_table
    dt = 1.0 / density
    lams = np.append(np.linspace(-3.0, 3.0, 601), [0.43, 0.4317])
    runs = []
    for label, ops in _three_state_blocks():
        for rate in (1.0, 0.0, -0.5):
            coeffs = np.empty((len(lams), 2, 2))
            coeffs[..., 0] = rate
            coeffs[:, 0, 1], coeffs[:, 1, 1] = lams, lams + 0.3 * dt
            runs.append((f"{label}, b - alpha_dot = {rate}", ops, coeffs,
                         np.full(len(lams), dt)))
    t = np.linspace(0.0, 4.0, 81)
    s = 2 * np.pi * t / 4.0
    sched = from_table(t, theta=0.9 + 0.3 * np.sin(s), phi=s, alpha=0.5 * s,
                       lam=0.3 + 2.5 * np.sin(s), n_phi=1, n_alpha=1)
    grid = _grid([0.0, sched.duration], [4 * density])
    _, ops, coeffs = _block_hamiltonian(S1, 1.0, [sched], grid.nodes)
    assert ops.shape == (4, 3, 3) and np.iscomplexobj(_exponent_basis(ops))
    runs.append(("S=1 phi and theta", ops, coeffs[0], grid.dts))
    for label, ops, coeffs, dts in runs:
        got = np.moveaxis(_cf4_propagators(_exponent_basis(ops), coeffs, dts), 0, -3)
        assert np.abs(got - _eigh_cf4_steps(_matrices(ops, coeffs), dts)).max() <= 1e-14, label


def test_spin_one_phi_cycle_matches_eigh_steps_and_propagate(monkeypatch):
    # the complex 3-state steps of an S = 1 phi-turn cycle: the tracked run
    # against the same run on eigh steps, and its final state against the
    # lab-frame reference propagate (also on 3-state steps), which it meets
    # to 4.7e-12 at 800 steps against 4,000
    from spinberry import dynamics
    sched = phi_rotation_cycle(theta0=0.9, n_phi=1, duration=8.0, lambda0=0.3)
    ours = run_cycle(S1, 1.0, sched, steps=800)
    psi0 = (dynamics._frames(S1, sched, 0.0)
            @ labeled_spectrum(S1, 0.3).vector(1.0).astype(complex))
    _, lab, drift = propagate(lambda ts: lab_hamiltonian(S1, sched, ts), psi0,
                              sched.duration, 4000)
    assert drift < 1e-12
    assert np.abs(ours.final_state - lab).max() < 1e-10
    calls = []
    monkeypatch.setattr(dynamics, "_magnus_run", _step_loop(_eigh_cf4_steps, calls))
    ref = run_cycle(S1, 1.0, sched, steps=800)
    assert calls == [(1, 3)]
    assert np.abs(ours.final_state - ref.final_state).max() < 1e-12
    assert abs(ours.total_phase - ref.total_phase) < 1e-12
    assert abs(ours.geometric_phase - ref.geometric_phase) < 1e-12


@pytest.mark.parametrize("steps, bound", [(8000, 1e-12), (40000, 2e-12)])
def test_three_state_norm_drift_on_long_cycles(steps, bound):
    # S = 2, m = 0 cycles on closed-form steps: 1.5e-13 to 1.7e-13 at 8,000
    # steps and 8.3e-13 to 1.25e-12 at 40,000, where eigh steps read 2.5e-14
    # to 3.8e-14 and 1.2e-13 to 7.0e-13.  Each step's Newton-Schulz step
    # adds a bias of about 2e-17 per step; without it these runs drift less,
    # but a closed-form step is unitary only to about 5e-15 ||H|| dt, which
    # the random runs of test_scan_matches_step_loop (||H|| dt up to 50) show
    for lam in (-1.1655059345201522, 0.9, 2.5):
        sched = three_stage_cycle(lam, stage_duration=10.0, n_alpha=1)
        assert run_cycle(S2, 0.0, sched, steps=steps).norm_drift < bound


def _eigh_calls(monkeypatch):
    """Record the shape of every numpy.linalg.eigh call."""
    eigh, calls = np.linalg.eigh, []

    def counted_eigh(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    return calls


def test_three_state_ramp_steps_make_no_eigh(monkeypatch):
    # an m = 0 ramp of S = 2: its steps are closed-form, so the only eigh
    # calls are the two single-lambda spectra of its 3-state block, the
    # initial level at lambda = 0 and the adiabatic polarization at lambda0;
    # a 5-state block (S = 4, m = 0) still steps by stacked eigh
    calls = _eigh_calls(monkeypatch)
    ramp_fidelity(S2, 0.0, 0.85, 10.0)
    assert calls == [(3, 3)] * 2
    calls.clear()
    ramp_fidelity(spin_matrices(8), 0.0, 0.5, 4.0)
    assert [shape for shape in calls if len(shape) > 2] == [(2, 1, 1, 100, 5, 5)]


# --- frames -----------------------------------------------------------------


def test_coriolis_operator_identity():
    # i U^dag dU/dt must equal alpha_dot D_alpha + phi_dot D_phi
    # + theta_dot D_theta; checked by high-order finite differences
    from reference import coriolis_operators
    theta, phi, alpha = 0.9, 1.3, -0.4
    theta_dot, phi_dot, alpha_dot = 0.7, -1.1, 0.5
    h = 1e-5
    for rep in (HALF, S1, S2):
        def u_of(eps):
            return rotation_unitary(rep, EulerAngles(theta + theta_dot * eps,
                                                     phi + phi_dot * eps,
                                                     alpha + alpha_dot * eps))
        du = (8 * (u_of(h) - u_of(-h)) - (u_of(2 * h) - u_of(-2 * h))) / (12 * h)
        lhs = 1j * u_of(0.0).conj().T @ du
        d_theta, d_phi, d_alpha = coriolis_operators(rep, theta, alpha)
        rhs = alpha_dot * d_alpha + phi_dot * d_phi + theta_dot * d_theta
        assert np.abs(lhs - rhs).max() < 1e-9


def test_stacked_frames_match_pointwise():
    # Hamiltonians and Coriolis generators on a time array are the stack
    # of their values at each time
    from reference import coriolis_operators
    from spinberry.schedules import Segment, from_segments
    sched = from_segments([Segment(kind="ramp", duration=2.0, lambda_to=0.6),
                           Segment(kind="rotate", duration=3.0, shape="linear",
                                   phi_turns=1, alpha_half_turns=-2)],
                          theta0=0.7, lambda0=0.1, b=1.4)
    ts = np.linspace(0.0, sched.duration, 23)
    for build in (lab_hamiltonian, rotating_frame_hamiltonian):
        stack = build(S2, sched, ts)
        for t, h in zip(ts, stack):
            assert np.abs(h - build(S2, sched, t)).max() < 1e-14
    d_theta, d_phi, _ = coriolis_operators(S2, sched.theta(ts), sched.alpha(ts))
    for k, t in enumerate(ts):
        one = coriolis_operators(S2, sched.theta(t), sched.alpha(t))
        assert np.abs(d_theta[k] - one[0]).max() < 1e-15
        assert np.abs(d_phi[k] - one[1]).max() < 1e-15


def _frame_agreement(rep, sched, steps):
    psi0 = labeled_spectrum(rep, 0.0).vector(1.0).astype(complex)

    def frame(t):
        return rotation_unitary(rep, EulerAngles(sched.theta(t), sched.phi(t),
                                                 sched.alpha(t)))

    _, lab, _ = propagate(lambda ts: lab_hamiltonian(rep, sched, ts), psi0,
                          sched.duration, steps)
    rot0 = frame(0.0).conj().T @ psi0
    _, rot, _ = propagate(lambda ts: rotating_frame_hamiltonian(rep, sched, ts),
                          rot0, sched.duration, steps)
    return np.abs(lab - frame(sched.duration) @ rot).max()


def test_rotating_vs_lab_frame_convergence():
    # both integrations are fourth order; their disagreement must fall by
    # about 256x when the step count is quadrupled (same-dt identity in the
    # limit), and by at least 12x
    sched = three_stage_cycle(0.8, stage_duration=3.0, n_alpha=2)
    coarse = _frame_agreement(S2, sched, 3000)
    fine = _frame_agreement(S2, sched, 12000)
    assert coarse < 1e-4
    assert fine < coarse / 12.0


def test_rotating_frame_with_phi_and_theta_terms():
    sched = phi_rotation_cycle(theta0=0.9, n_phi=1, duration=14.0, lambda0=0.3)
    assert _frame_agreement(S1, sched, 7000) < 1e-5
    # theta moves too, so the D_theta term is exercised
    from reference import from_table
    t = np.linspace(0.0, 10.0, 201)
    s = 2 * np.pi * t / 10.0
    sched = from_table(t, theta=0.9 + 0.3 * np.sin(s), phi=s, alpha=0.5 * s,
                       lam=0.3 + 0.1 * np.sin(s), n_phi=1, n_alpha=1)
    for rep in (S1, S2):
        assert _frame_agreement(rep, sched, 2000) < 1e-9


# --- two-level rotating Hamiltonian ------------------------------------------


def test_two_level_rotating_limits():
    h = two_level_rotating_hamiltonian("S2", 0.0, 0.0)
    assert np.abs(h - np.diag([1.0, -1.0])).max() < 1e-15
    h = two_level_rotating_hamiltonian("S2", 1.0, 0.0)
    w = np.linalg.eigvalsh(h)
    root13 = np.sqrt(13.0)
    assert np.allclose(sorted(w), [(5 - root13) / 2, (5 + root13) / 2])
    h = two_level_rotating_hamiltonian("S1", 1.0, 0.0)
    w = np.linalg.eigvalsh(h)
    assert np.allclose(sorted(w), [0.5 - np.sqrt(1.25), 0.5 + np.sqrt(1.25)])
    with pytest.raises(ValueError):
        two_level_rotating_hamiltonian("S3", 0.1, 0.0)


def test_two_level_rate_term():
    lam, lam_dot = 0.4, 0.9
    h = two_level_rotating_hamiltonian("S2", lam, lam_dot)
    zeta_dot = 6 * lam_dot / (9 * lam**2 + 4)
    assert h[0, 1] == pytest.approx(0.5j * zeta_dot)
    h1 = two_level_rotating_hamiltonian("S1", lam, lam_dot)
    assert h1[0, 1] == pytest.approx(0.5j * 2 * lam_dot / (lam**2 + 4))


def test_two_level_matches_odd_block_evolution():
    # ramp in the tilted 2x2 frame vs direct odd-block integration
    lam0, duration, steps = 1.0, 12.0, 6000
    shape = PulseShape("blackman")
    dt = duration / steps

    def lam_of(ts):
        return lam0 * shape.fraction(np.minimum(ts / duration, 1.0))

    def lam_dot_of(ts):
        return lam0 * shape.rate(np.minimum(ts / duration, 1.0)) / duration

    # direct: H_odd(2, lam) in the (m=1, m=-1) basis
    def h_direct(ts):
        return (np.diag([1.0, -1.0])
                + _stacked(lam_of(ts)) * np.array([[2.5, 1.5], [1.5, 2.5]]))

    psi0 = np.array([0.0, 1.0], dtype=complex)  # start in m = -1
    _, direct, _ = propagate(h_direct, psi0, duration, steps)

    def h_rot(ts):
        return two_level_rotating_hamiltonian("S2", lam_of(ts), lam_dot_of(ts))

    _, rot, _ = propagate(h_rot, psi0, duration, steps)
    zeta = np.arctan(1.5 * lam_of(duration))
    c, s = np.cos(zeta / 2), np.sin(zeta / 2)
    v_back = np.array([[c, -s], [s, c]])  # exp(-i zeta sigma_y / 2)
    assert np.abs(direct - v_back @ rot).max() < 1e-7


# --- ramps -------------------------------------------------------------------


def test_ramp_fidelity_blackman_vs_linear_short():
    res_b = ramp_fidelity(S2, -1.0, 1.0, 12.0, shape="blackman")
    res_l = ramp_fidelity(S2, -1.0, 1.0, 12.0, shape="linear")
    assert res_b.sz_adiabatic == pytest.approx(-2 / np.sqrt(13), abs=1e-10)
    assert abs(res_b.deviation) < 0.01
    assert abs(res_l.deviation) > 2 * abs(res_b.deviation)


@pytest.mark.parametrize("two_s", range(1, 9))
def test_ramp_fidelity_matches_ramp_phase(two_s):
    # the final state from the block's run propagator against the tracked
    # ramp_phase run, for every level, coupling, shape and step grid
    import itertools
    rep = spin_matrices(two_s)
    for m, lambda0, shape, duration, steps in itertools.product(
            rep.m_values, (-1.5, 1.0, 5.0), ("linear", "blackman"), (3.0, 7.0, 10.3),
            (None, 300)):
        ours = ramp_fidelity(rep, m, lambda0, duration, shape, steps)
        ref = ramp_phase(rep, m, lambda0, duration, shape, steps)
        assert np.abs(ours.final_state - ref.final_state).max() < 1e-13
        assert abs(ours.sz_final - ref.sz_expectation) < 1e-13


def test_step_count_is_bounded_before_allocating(capsys):
    # an overlong run fails with its duration, density and count before any
    # step array exists: the traced peak stays below 1 MB, where one
    # 1,000,001-step sample would take 8 MB
    import re
    import tracemalloc
    from spinberry import dynamics
    from spinberry.cli import main
    over = dynamics._MAX_STEPS + 1
    calls = [
        (lambda: ramp_fidelity(S2, 0.0, 1.0, 1e9),
         "duration 1e+09 at 25 steps per unit time takes 25,000,000,000 steps"),
        (lambda: ramp_fidelity(S2, 0.0, 1.0, 2.0, "linear", steps=over),
         "duration 2 at 500000 steps per unit time takes 1,000,001 steps"),
        (lambda: dynamics._step_grid(dynamics._ramp(1.0, 1e20, "linear")),
         "duration 1e+20 at 25 steps per unit time takes 2,500,000,000,000,000,000,000 steps"),
        (lambda: dynamics._step_grid(three_stage_cycle(0.9, 1.0), steps=over),
         "duration 4 at 250000 steps per unit time takes 1,000,001 steps"),
        (lambda: propagate(_constant(HALF.sigma_z), np.array([1.0, 0.0]), 0.5, over),
         "duration 0.5 at 2e+06 steps per unit time takes 1,000,001 steps"),
        (lambda: main(["ramp", "--spin", "2", "--m", "0", "--lambda0", "1", "--T", "3,1e9"]),
         None)]
    tracemalloc.start()
    try:
        for call, message in calls:
            if message is None:
                assert call() == 1
                continue
            pattern = re.escape(f"{message}, more than 1,000,000") + "$"
            with pytest.raises(ValueError, match=pattern):
                call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, peak
    assert capsys.readouterr().err == ("error: a run of duration 1e+09 at 25 steps per unit "
                                       "time takes 25,000,000,000 steps, more than 1,000,000\n")
    # the longest allowed run passes the bound
    ramp = dynamics._ramp(1.0, 4e4, "linear")
    assert dynamics._step_grid(ramp).dts.shape == (dynamics._MAX_STEPS,)


def _argmax_tracked_phases(h_of_ts, states, duration):
    """(total, dynamical) phase of the eigenvector of h(t) that the initial
    state projects onto, continued through every step by largest overlap."""
    steps = len(states) - 1
    dt = duration / steps
    w_mid, u_mid = np.linalg.eigh(h_of_ts(dt * (np.arange(steps) + 0.5)))
    w_end, u_end = np.linalg.eigh(h_of_ts(dt * np.arange(steps + 1)))
    j = int(np.argmax(np.abs(u_end[0].conj().T @ states[0])))
    target = u_end[0][:, j]
    overlap = np.vdot(target, states[0])
    total = float(np.angle(overlap))
    dynamical = 0.0
    for k, psi in enumerate(states[1:]):
        j_mid = int(np.argmax(np.abs(target.conj() @ u_mid[k])))
        j_next = int(np.argmax(np.abs(target.conj() @ u_end[k + 1])))
        # Simpson's rule over the step
        dynamical += -dt / 6.0 * (w_end[k, j] + 4.0 * w_mid[k, j_mid]
                                  + w_end[k + 1, j_next])
        j = j_next
        new_target = u_end[k + 1][:, j]
        phase_fix = np.vdot(new_target, target)
        target = new_target * (phase_fix / abs(phase_fix))
        new_overlap = np.vdot(target, psi)
        total += float(np.angle(new_overlap / overlap))
        overlap = new_overlap
    return total, dynamical


@pytest.mark.parametrize("duration", [25.0, 30.0])
@pytest.mark.parametrize("shape", ["blackman", "linear"])
def test_ramp_phase_matches_argmax_tracking(duration, shape):
    # the rank labels of ramp_phase against the argmax tracking they replaced,
    # on the criterion 10 ramps
    from spinberry.dynamics import STEPS_PER_UNIT, _grid, _magnus_run
    pulse = PulseShape(shape)

    def h(ts):
        return S2.sigma_z + _stacked(pulse.fraction(ts / duration)) * (S2.sigma_x @ S2.sigma_x)

    res = ramp_phase(S2, -1.0, 1.0, duration, shape=shape)
    psi0 = np.zeros(5, dtype=complex)
    psi0[3] = 1.0
    grid = _grid([0.0, duration], [round(STEPS_PER_UNIT * duration)])
    fractions = pulse.fraction(grid.nodes / duration)
    states = _magnus_run(np.array([S2.sigma_z, S2.sigma_x @ S2.sigma_x]),
                         np.stack([np.ones_like(fractions), fractions], axis=-1), grid.dts, psi0)
    total, dynamical = _argmax_tracked_phases(h, states, duration)
    assert np.abs(res.final_state - states[-1]).max() < 1e-12
    assert abs(res.total_phase - total) < 1e-12
    assert abs(res.dynamical_phase - dynamical) < 1e-12


def test_ramp_phase_consistency():
    res = ramp_phase(S2, -1.0, 1.0, 10.0, shape="blackman", steps=4000)
    from spinberry.dynamics import adiabatic_dynamical_phase
    adiab = adiabatic_dynamical_phase(S2, -1.0, 1.0, 10.0, shape="blackman")
    assert res.total_phase == pytest.approx(adiab, abs=0.05)
    assert res.leakage < 0.01


# --- geometric phase extraction ----------------------------------------------


def test_mirror_static_schedule():
    from spinberry.schedules import Segment, from_segments
    sched = from_segments([Segment(kind="hold", duration=2.0)], lambda0=0.4)
    res = mirror_phase_difference(S2, 0.0, sched, steps=400)
    assert res.extracted_phase == pytest.approx(0.0, abs=1e-12)


def test_mirror_leakage_warning_carries_its_numbers():
    from spinberry import LeakageWarning
    sched = alpha_rotation_cycle(1.0, n_alpha=1, duration=4.0)
    with pytest.warns(LeakageWarning) as record:
        res = mirror_phase_difference(S2, 0.0, sched)
    warning = record[0].message
    assert warning.leakage == res.forward.leakage
    assert warning.bound == 0.01
    assert str(warning) == (f"forward run leaked {res.forward.leakage:.3f} out of "
                            f"the tracked level; extracted phase is untrusted")


def _mirror_cases():
    """(spin, level, cycle) of the stacked mirror-pair checks: alpha-cycles
    with ramps on parity blocks of 1 to 3 states, a phi-cycle, which keeps
    the full dimension, and a tabulated alpha-cycle."""
    from reference import from_table
    t = np.linspace(0.0, 6.0, 121)
    s = 2 * np.pi * t / 6.0
    table = from_table(t, theta=0.4 + 0.0 * s, phi=0.0 * s, alpha=0.5 * s,
                       lam=0.6 + 0.2 * np.sin(s), n_alpha=1)
    ramped = three_stage_cycle(0.9, stage_duration=4.0, n_alpha=1)
    phi_cycle = phi_rotation_cycle(theta0=0.9, n_phi=1, duration=6.0, lambda0=0.3)
    return ([(S2, m, ramped) for m in (1.0, 0.0, -1.0)]
            + [(spin_matrices(3), m, ramped) for m in (1.5, 0.5)]
            + [(S2, 1.0, phi_cycle), (S2, 0.0, table), (spin_matrices(3), -0.5, table)])


def test_mirror_pair_is_two_tracked_runs(monkeypatch):
    # the cycle and its image stepped as one stacked run, against each run
    # on its own, bit for bit; the image has the same lambda(t) and b(t), and
    # so the same references
    from spinberry import dynamics
    cases = _mirror_cases()
    dims = _magnus_dims(monkeypatch)
    pairs = [dynamics._mirror_pair(rep, m, sched) for rep, m, sched in cases]
    # one stepper call per pair; the phi-cycle keeps all five states
    assert dims == [2, 3, 2, 2, 2, 5, 3, 2]
    for (rep, m, sched), pair in zip(cases, pairs):
        for ours, cycle in ((pair.forward, sched), (pair.mirrored, sched.mirror())):
            ref = dynamics._tracked_run(rep, m, cycle)
            np.testing.assert_array_equal(ours.final_state, ref.final_state)
            for field in ("total_phase", "dynamical_phase", "geometric_phase",
                          "leakage", "norm_drift", "sz_expectation"):
                assert getattr(ours, field) == getattr(ref, field), field
        assert pair.extracted_phase == 0.5 * (pair.forward.geometric_phase
                                              - pair.mirrored.geometric_phase)


def _cycle_solves(m, tmp_path, monkeypatch, spectra_calls):
    """Run ``cycle --spin 2 --m m`` on a ramp-rotate-ramp schedule; return
    the grid of each references call, the block sizes each solves, and every
    eigh call as (inside the references, of Sigma_y, shape)."""
    from spinberry import dynamics
    from spinberry.cli import main
    eigh, references = np.linalg.eigh, dynamics._references
    solves, spectra, grids, inside = [], [], [], []

    def counted_eigh(a, *args, **kwargs):
        solves.append((bool(inside), np.array_equal(a, S2.sigma_y), np.shape(a)))
        return eigh(a, *args, **kwargs)

    def counted_references(rep, m, schedule, grid):
        grids.append(grid)
        inside.append(True)
        before = len(spectra_calls)
        try:
            return references(rep, m, schedule, grid)
        finally:
            inside.pop()
            spectra.append([size for size, _ in spectra_calls[before:]])

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(dynamics, "_references", counted_references)
    sched = tmp_path / "cycle.sched"
    sched.write_text("lambda0 = 0.0\n"
                     "segment1.kind = ramp\nsegment1.duration = 10\n"
                     "segment1.lambda_to = 0.9\n"
                     "segment2.kind = rotate\nsegment2.duration = 20\n"
                     "segment2.alpha_half_turns = 1\n"
                     "segment3.kind = ramp\nsegment3.duration = 10\n"
                     "segment3.lambda_to = 0.0\n")
    assert main(["cycle", "--schedule", str(sched), "--spin", "2", "--m", str(m),
                 "--out", str(tmp_path / "cycle.json")]) == 0
    return grids, spectra, solves


def test_cycle_references_solve_one_parity_block(tmp_path, monkeypatch, spectra_calls):
    # cycle --spin 2 --m 1: the references of the stacked pair solve only
    # m = 1's parity block, once for all step ends and midpoints.  It has two
    # states and is solved in closed form, as the steps are, and the alpha
    # cycle's frames have no y-factor, so the command makes no eigh call at
    # all, not even of Sigma_y
    grids, spectra, solves = _cycle_solves(1, tmp_path, monkeypatch, spectra_calls)
    assert len(grids) == 1 and spectra == [[2]]
    assert solves == []


def test_three_state_cycle_references_solve_one_eigh(tmp_path, monkeypatch, spectra_calls):
    # cycle --spin 2 --m 0: m = 0's parity block has three states, and the
    # references make exactly one stacked eigh of it at all step ends and
    # midpoints; the other (2x2) block is never solved
    grids, spectra, solves = _cycle_solves(0, tmp_path, monkeypatch, spectra_calls)
    assert len(grids) == 1 and spectra == [[3]]
    assert ([shape for within, _, shape in solves if within]
            == [(len(grids[0].halves), 3, 3)])


def test_bench_cycle_solves_two_blocks(tmp_path, spectra_calls):
    # the benchmark's cycle schedule at spin 2, m = 1: the Berry quadrature
    # and the references of the stacked mirror pair each solve m = 1's 2x2
    # block once, and nothing else is diagonalized
    from spinberry.cli import main
    sched = tmp_path / "cycle.sched"
    sched.write_text("lambda0 = 0.0\n"
                     "segment1.kind = ramp\nsegment1.duration = 10\n"
                     "segment1.shape = blackman\nsegment1.lambda_to = -1.1\n"
                     "segment2.kind = rotate\nsegment2.duration = 20\n"
                     "segment2.shape = blackman\nsegment2.alpha_half_turns = 1\n"
                     "segment3.kind = ramp\nsegment3.duration = 10\n"
                     "segment3.shape = blackman\nsegment3.lambda_to = 0.0\n")
    assert main(["cycle", "--schedule", str(sched), "--spin", "2", "--m", "1",
                 "--out", str(tmp_path / "cycle.json")]) == 0
    assert [size for size, _ in spectra_calls] == [2, 2]


@pytest.mark.parametrize("two_s, m", [(4, 1), (4, 0), (8, 1), (8, 0), (12, 1), (12, 0)],
                         ids=[f"{n}-states" for n in range(2, 8)])
def test_stacked_runs_change_a_runs_states_only_where_blocks_join(two_s, m, caplog):
    # an alpha cycle of 500 steps from its level at lambda = 1, stacked
    # with copies of itself as in the mirror pair: the stack changes the
    # block size, yet a run split in at most two blocks has the states of
    # the run alone to the bit, and one split in more within 2e-15
    import logging
    import re
    from spinberry import dynamics
    from spinberry.hamiltonian import _level
    from spinberry.schedules import Segment, from_segments
    rep = spin_matrices(two_s)
    cycle = from_segments([Segment("rotate", 20.0, alpha_half_turns=1)], lambda0=1.0)
    grid = dynamics._step_grid(cycle)
    _, _, vectors, _ = _level(rep, m, np.array([1.0]))

    def stacked(count):
        sel, ops, coeffs = dynamics._block_hamiltonian(rep, m, [cycle] * count, grid.nodes)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="spinberry.dynamics"):
            runs = dynamics._magnus_run(ops, coeffs, grid.dts,
                                        np.broadcast_to(vectors[0], (count, len(sel))))
        return runs, int(re.search(r" in (\d+) blocks", caplog.messages[-1]).group(1))

    (alone,), blocks = stacked(1)
    assert len(grid.dts) == 500 and blocks == 1
    split = []
    for count in (2, 3, 4, 8, 25, 64):
        runs, blocks = stacked(count)
        if blocks <= 2:
            np.testing.assert_array_equal(runs, np.broadcast_to(alone, runs.shape))
        else:
            split.append(count)
            assert np.abs(runs - alone).max() <= 2e-15
    assert split[0] > 2 and split[-1] == 64


def test_mirror_pair_samples_shared_fields_once():
    # the README cycle pair (S = 2, m = 0, 2,500 steps): lambda(t) and b(t)
    # are sampled once at the 5,000 Gauss nodes for both runs, once at the
    # 5,001 step ends and midpoints of the references, and lambda twice more
    # by validate(); each run samples its own rotation rates
    import dataclasses
    sched = three_stage_cycle(-0.97, stage_duration=25.0)
    counts = {}

    def counted(name):
        field = getattr(sched, name)

        def sample(t):
            counts[name] = counts.get(name, 0) + np.size(t)
            return field(t)
        return sample

    names = ("lam", "b", "phi_dot", "theta_dot", "alpha_dot")
    sched = dataclasses.replace(sched, **{name: counted(name) for name in names})
    mirror_phase_difference(S2, 0.0, sched)
    assert counts == {"lam": 10_003, "b": 10_001, "phi_dot": 10_000,
                      "theta_dot": 10_000, "alpha_dot": 10_000}


def test_cycle_reference_continuous_through_parent_zero():
    # for S = 5/2 the m = -1/2 eigenvector's parent component vanishes at
    # lambda = -2, so its sign convention flips there; a ramp cycle through
    # that point must not pick up the flip as a geometric phase of -2 pi
    from spinberry.schedules import Segment, from_segments
    sched = from_segments([Segment(kind="ramp", duration=60.0, lambda_to=-2.2),
                           Segment(kind="ramp", duration=60.0, lambda_to=0.0)],
                          lambda0=0.0)
    res = run_cycle(spin_matrices(5), -0.5, sched, steps=3000)
    assert res.leakage < 1e-3
    assert abs(res.geometric_phase) < 0.2


def test_mirror_solid_angle():
    sched = phi_rotation_cycle(theta0=np.pi / 3, n_phi=1, duration=480.0)
    res = mirror_phase_difference(S1, 1.0, sched, steps=48000)
    assert res.extracted_phase == pytest.approx(-np.pi, abs=1e-3)
    assert res.forward.leakage < 1e-3


def test_mirror_magic_alpha_cycle():
    lam_star = magic_lambda(S2, 0.0)
    sched = three_stage_cycle(lam_star, stage_duration=20.0, n_alpha=1)
    res = mirror_phase_difference(S2, 0.0, sched, steps=16000)
    beta = berry_phase_adiabatic(S2, 0.0, sched)
    assert res.extracted_phase == pytest.approx(beta.value, abs=1e-3)


def test_slower_cycles_reduce_extraction_error():
    def extraction_error(duration):
        sched = alpha_rotation_cycle(1.0, n_alpha=1, duration=duration)
        res = mirror_phase_difference(S2, 0.0, sched, steps=int(500 * duration))
        # both runs stay in the tracked level, so the error is the odd-order
        # correction and not a leaked population
        assert res.forward.leakage < 0.01 and res.mirrored.leakage < 0.01
        beta = berry_phase_adiabatic(S2, 0.0, sched)
        return abs(res.extracted_phase - beta.value)

    fast = extraction_error(16.0)
    slow = extraction_error(32.0)
    # odd corrections scale as the square of the rotation rate
    assert fast / 5.0 < slow < fast / 4.0


# --- rotating basis transform -------------------------------------------------


def test_rotating_basis_transform_properties():
    v0 = labeled_spectrum(S2, 0.0).vectors
    assert np.abs(v0 - np.eye(5)).max() == 0.0
    v = labeled_spectrum(S2, 1.0).vectors
    assert np.abs(v.T @ v - np.eye(5)).max() < 1e-12
    h = S2.sigma_z + 1.0 * (S2.sigma_x @ S2.sigma_x)
    d = v.T @ h @ v
    off = d - np.diag(np.diag(d))
    assert np.abs(off).max() < 1e-12
    spec = labeled_spectrum(S2, 1.0)
    assert np.allclose(np.diag(d), [spec.energy(m) for m in S2.m_values])
    # m = 0 column is the exact eigenvector (-3/4, sqrt(3/8), 1/4) of the
    # even block at unit coupling, embedded at positions (2, 0, -2)
    col = v[:, 2]
    want = np.zeros(5)
    want[[0, 2, 4]] = [-0.75, np.sqrt(3 / 8), 0.25]
    assert np.abs(col - want).max() < 1e-10


# --- step grids ---------------------------------------------------------------


def _stages(ramp, rotate):
    from spinberry.schedules import Segment, from_segments
    return from_segments([Segment("ramp", ramp, lambda_to=-0.97),
                          Segment("rotate", rotate, alpha_half_turns=1),
                          Segment("ramp", ramp, lambda_to=0.0)])


@pytest.mark.parametrize("sched", [_stages(10.3, 20.0), _stages(10.0, 20.0),
                                   three_stage_cycle(-0.97, 15.0, stretch=0.95),
                                   alpha_rotation_cycle(0.5, 1, 4.33)])
def test_default_grid_ends_on_stage_boundaries(sched):
    from spinberry.dynamics import STEPS_PER_UNIT, _step_grid
    grid = _step_grid(sched)
    ends = grid.halves[::2]
    edges = [0.0, *sched.boundaries, sched.duration]
    for edge in edges:
        assert np.abs(ends - edge).min() < 1e-12
    # STEPS_PER_UNIT equal steps per unit time of each stage
    assert len(grid.dts) == sum(round(STEPS_PER_UNIT * (b - a))
                                for a, b in zip(edges[:-1], edges[1:]))
    assert np.abs(np.diff(ends) - grid.dts).max() < 1e-12
    assert np.abs(grid.halves[1::2] - (ends[:-1] + grid.dts / 2)).max() < 1e-12
    assert np.all((grid.nodes > ends[:-1, None]) & (grid.nodes < ends[1:, None]))
    # an explicit step count keeps its meaning: that many equal steps
    uniform = _step_grid(sched, 101)
    assert np.abs(uniform.halves - np.linspace(0.0, sched.duration, 203)).max() < 1e-12


def test_integer_stage_grid_is_the_uniform_grid():
    # the README cycle schedule: stages of 25, 50 and 25 time units
    from spinberry.schedules import from_dict
    from spinberry.dynamics import _step_grid
    sched = from_dict({"segment1.kind": "ramp", "segment1.duration": "25",
                       "segment1.lambda_to": "-0.97",
                       "segment2.kind": "rotate", "segment2.duration": "50",
                       "segment2.alpha_half_turns": "3",
                       "segment3.kind": "ramp", "segment3.duration": "25",
                       "segment3.lambda_to": "0.0"})
    assert np.array_equal(_step_grid(sched).nodes, _step_grid(sched, 2500).nodes)
    staged, uniform = run_cycle(S2, 0.0, sched), run_cycle(S2, 0.0, sched, steps=2500)
    assert np.abs(staged.final_state - uniform.final_state).max() < 1e-12
    assert abs(staged.total_phase - uniform.total_phase) < 1e-12
    assert abs(staged.geometric_phase - uniform.geometric_phase) < 1e-12
    staged = mirror_phase_difference(S2, 0.0, sched)
    uniform = mirror_phase_difference(S2, 0.0, sched, steps=2500)
    assert abs(staged.extracted_phase - uniform.extracted_phase) < 1e-12


def test_stage_grid_matches_a_denser_run():
    # 10.3 / 20 / 10.3: stage grids of 258, 500 and 258 steps against a uniform
    # run at four times the density; the differences measured 8e-10 (2.7e-12
    # for the mirror extraction), the CF4 error of the default density
    sched = _stages(10.3, 20.0)
    staged, dense = run_cycle(S2, 1.0, sched), run_cycle(S2, 1.0, sched, steps=4064)
    assert np.abs(staged.final_state - dense.final_state).max() < 5e-9
    assert abs(staged.total_phase - dense.total_phase) < 5e-9
    assert abs(staged.geometric_phase - dense.geometric_phase) < 5e-9
    staged = mirror_phase_difference(S2, 1.0, sched)
    dense = mirror_phase_difference(S2, 1.0, sched, steps=4064)
    assert abs(staged.extracted_phase - dense.extracted_phase) < 5e-9


# --- the coefficient path against the matrix path it replaced ------------------


def _matrix_two_level_steps(h_nodes, dts):
    """Cayley-Klein steps (phase, a, b) of sampled 2x2 node Hamiltonians, as
    they were formed from matrices: the CF4 exponents as matrices, each
    scaled by dt, and their Pauli components read back out of it."""
    from spinberry.dynamics import _A_MINUS, _A_PLUS
    h_early, h_late = h_nodes[..., 0, :, :], h_nodes[..., 1, :, :]

    def rotation(h):
        h = h * dts[..., None, None]
        x = (h[..., 1, 0].real, h[..., 1, 0].imag, 0.5 * (h[..., 0, 0] - h[..., 1, 1]).real)
        r = np.sqrt(x[0] ** 2 + x[1] ** 2 + x[2] ** 2)
        sinc = np.sinc(r / np.pi)
        return 0.5 * (h[..., 0, 0] + h[..., 1, 1]).real, np.cos(r), [sinc * xk for xk in x]

    x0_1, c1, (a1, b1, z1) = rotation(_A_PLUS * h_early + _A_MINUS * h_late)
    x0_2, c2, (a2, b2, z2) = rotation(_A_MINUS * h_early + _A_PLUS * h_late)
    c = c2 * c1 - (a2 * a1 + b2 * b1 + z2 * z1)
    sx = c2 * a1 + c1 * a2 + (b2 * z1 - z2 * b1)
    sy = c2 * b1 + c1 * b2 + (z2 * a1 - a2 * z1)
    sz = c2 * z1 + c1 * z2 + (a2 * b1 - b2 * a1)
    return x0_1 + x0_2, c - 1j * sz, sy - 1j * sx


def _matrix_run_propagator(h_nodes, dts):
    """Run propagators of sampled node Hamiltonians (..., steps, 2, n, n) in
    blocks as before: Cayley-Klein trees of the matrix-path steps on two
    levels, pairwise products of eigh steps on more."""
    n, steps = h_nodes.shape[-1], dts.shape[-1]
    block = max(1, (4096 if n == 2 else 512) // (dts.size // steps))
    total = np.eye(n)
    for first in range(0, steps, block):
        h, d = h_nodes[..., first:first + block, :, :, :], dts[..., first:first + block]
        if n != 2:
            total = _matmul_run_propagator(h, d, _eigh_cf4_steps) @ total
            continue
        phase, a, b = _matrix_two_level_steps(h, d)
        while a.shape[-1] > 1:
            if a.shape[-1] % 2:
                a = np.concatenate([a, np.ones_like(a[..., :1])], axis=-1)
                b = np.concatenate([b, np.zeros_like(b[..., :1])], axis=-1)
            a, b = _cayley_klein(a[..., 1::2], b[..., 1::2], a[..., ::2], b[..., ::2])
        norm = np.sqrt(np.abs(a[..., 0]) ** 2 + np.abs(b[..., 0]) ** 2)
        total = _su2_matrices(np.sum(phase, axis=-1), a[..., 0] / norm, b[..., 0] / norm) @ total
    return total


def _matrix_magnus_run(h_nodes, dts, initial):
    """Step-end states of runs of sampled node Hamiltonians (..., steps, 2,
    n, n) as before: the prefix products of the matrix-path Cayley-Klein
    steps on two levels, eigh steps applied in turn on more."""
    psi = np.asarray(initial, dtype=complex)
    if psi.shape[-1] != 2:
        props = np.moveaxis(_eigh_cf4_steps(h_nodes, dts), -3, 0)
        states = [psi]
        for prop in props:
            states.append(np.einsum("...ij,...j->...i", prop, states[-1]))
        return np.moveaxis(np.array(states), 0, -2)
    phase, a, b = _matrix_two_level_steps(h_nodes, dts)
    up, down = [], []
    for k in range(len(dts)):  # the prefix products in turn
        pa, pb = (a[..., 0], b[..., 0]) if k == 0 else _cayley_klein(
            a[..., k], b[..., k], pa, pb)
        up.append(pa * psi[..., 0] - pb.conj() * psi[..., 1])
        down.append(pb * psi[..., 0] + pa.conj() * psi[..., 1])
    turn = np.cumprod(np.exp(-1j * phase), axis=-1)
    ends = np.stack([turn * np.moveaxis(up, 0, -1), turn * np.moveaxis(down, 0, -1)], axis=-1)
    return np.concatenate([psi[..., None, :], ends], axis=-2)


_CROSS_LAMBDAS = [0.0, 0.43, -0.43, 1.0, -1.0, 300.0, -300.0]


def _cross_run(rep, lam):
    """Duration and steps of the cross-checks at coupling ``lam``: ||H|| T
    up to about 10 rad, so that the phase a run accumulates, and with it
    its rounding, stays small, and max ||H|| dt near 1 or less."""
    scale = (1.0 + abs(lam)) * rep.s ** 2
    duration = min(4.0, 10.0 / scale)
    return duration, max(50, int(np.ceil(duration * scale)))


@pytest.mark.parametrize("lam", _CROSS_LAMBDAS)
@pytest.mark.parametrize("two_s", range(1, 9))
def test_coefficient_path_matches_matrix_path(two_s, lam):
    # every level of 2S = 1..8 at lambda0 in {0, +-0.43, +-1, +-300}: two
    # ramps, and an alpha-cycle and its mirror image (b = 1.3, tilted axis),
    # on the level's parity block, against the matrix path on the sampled
    # node Hamiltonians: propagators and step-end states agree to 6.7e-15 at
    # most
    from spinberry import dynamics
    from spinberry.hamiltonian import _block, _block_operators
    from spinberry.schedules import Segment, from_segments
    rep = spin_matrices(two_s)
    duration, steps = _cross_run(rep, lam)
    ramps = [dynamics._ramp(lam, T, "blackman") for T in (duration, 0.7 * duration)]
    cycle = from_segments([Segment(kind="rotate", duration=duration, alpha_half_turns=2)],
                          theta0=0.7, lambda0=lam, b=1.3)
    grid = dynamics._step_grid(cycle, steps)
    worst = 0.0
    for m in rep.m_values:
        sel = _block(rep, m)
        sz, sxsq = _block_operators(rep, sel)
        for ramp in ramps:
            ramp_grid = dynamics._step_grid(ramp, steps)
            _, ops, coeffs = dynamics._block_hamiltonian(rep, m, [ramp], ramp_grid.nodes)
            ours = dynamics._run_propagator(ops, coeffs, ramp_grid.dts)[0]
            h_ramp = ramp.lam(ramp_grid.nodes)[..., None, None] * sxsq + sz
            worst = max(worst, np.abs(ours - _matrix_run_propagator(h_ramp, ramp_grid.dts)).max())

        pair = [cycle, cycle.mirror()]
        block, ops, coeffs = dynamics._block_hamiltonian(rep, m, pair, grid.nodes)
        assert np.array_equal(block, sel) and ops.shape == (2, len(sel), len(sel))
        h_pair = np.array([rotating_frame_hamiltonian(rep, s, grid.nodes)[..., sel[:, None], sel]
                           for s in pair])
        initial = np.full((2, len(sel)), 1.0 / np.sqrt(len(sel)))
        states = dynamics._magnus_run(ops, coeffs, grid.dts, initial)
        worst = max(worst, np.abs(states - _matrix_magnus_run(h_pair, grid.dts, initial)).max())
        pair_dts = np.broadcast_to(grid.dts, (2, len(grid.dts)))
        props = dynamics._run_propagator(ops, coeffs, pair_dts)
        worst = max(worst, np.abs(props - _matrix_run_propagator(h_pair, pair_dts)).max())
    assert worst < 1e-14, worst


@pytest.mark.parametrize("lam", _CROSS_LAMBDAS)
def test_moving_coefficient_path_matches_matrix_path(lam):
    # runs whose phi (S = 1/2, tilted alpha) or theta, phi and alpha (S = 1)
    # move keep the whole multiplet, with Sigma_x and Sigma_y among their
    # operators (agreement to 1.1e-15 at most)
    from spinberry import dynamics
    from reference import from_table
    from spinberry.schedules import Segment, from_segments
    duration, steps = _cross_run(S1, lam)
    t = np.linspace(0.0, duration, 61)
    s = 2 * np.pi * t / duration
    theta_cycle = from_table(t, theta=0.9 + 0.3 * np.sin(s), phi=0.4 * np.sin(s),
                             alpha=0.5 * s, lam=lam + 0.1 * np.sin(s), n_alpha=1)
    phi_cycle = from_segments([Segment(kind="rotate", duration=duration, phi_turns=1)],
                              theta0=0.9, alpha0=0.6, lambda0=lam)
    worst = 0.0
    for rep, cycle in ((HALF, phi_cycle), (S1, theta_cycle)):
        grid = dynamics._step_grid(cycle, steps)
        sel, ops, coeffs = dynamics._block_hamiltonian(rep, rep.s, [cycle], grid.nodes)
        assert len(sel) == rep.dim and ops.shape == (4, rep.dim, rep.dim)
        h = rotating_frame_hamiltonian(rep, cycle, grid.nodes)[None]
        initial = np.full((1, rep.dim), 1.0 / np.sqrt(rep.dim))
        states = dynamics._magnus_run(ops, coeffs, grid.dts, initial)
        worst = max(worst, np.abs(states - _matrix_magnus_run(h, grid.dts, initial)).max())
        props = dynamics._run_propagator(ops, coeffs[0], grid.dts)
        worst = max(worst, np.abs(props - _matrix_run_propagator(h[0], grid.dts)).max())
    assert worst < 1e-14, worst
