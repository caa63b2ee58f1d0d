import numpy as np
import pytest
from scipy.integrate import solve_ivp

from spinberry import (alpha_rotation_cycle, berry_phase_adiabatic, blackman,
                       labeled_spectrum, magic_lambda,
                       mirror_phase_difference, phi_rotation_cycle,
                       ramp_fidelity, rotating_basis_transform, run_cycle,
                       spin_matrices, three_stage_cycle,
                       two_level_rotating_hamiltonian)
from spinberry.dynamics import (lab_hamiltonian, propagate, ramp_phase,
                                rotating_frame_hamiltonian)
from spinberry.pulses import PulseShape, blackman_integral
from spinberry.spin_algebra import EulerAngles, rotation_unitary

HALF = spin_matrices(1)
S1 = spin_matrices(2)
S2 = spin_matrices(4)


def _stacked(x):
    """Coefficients x(t) as factors of matrices stacked along the time axis."""
    return np.asarray(x)[..., None, None]


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
    # step counts straddle the eigh block size, so partial blocks and block
    # joins are both exercised
    from spinberry.dynamics import _unwrapped_phase
    from spinberry.entangle import _odd_block_run
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

    # the odd-block run against the whole multiplet, whose M = 1 and
    # M = -1 amplitudes it must carry
    stages = three_stage_cycle(-0.97, 2.0, n_alpha=3, stretch=0.9)
    for two_s, rows in ((4, [1, 3]), (2, [0, 2])):
        rep = spin_matrices(two_s)
        for sign in (+1, -1):
            def h(ts):
                return (rep.sigma_z + _stacked(stages.lam(ts)) * (rep.sigma_x @ rep.sigma_x)
                        - sign * _stacked(stages.alpha_dot(ts)) * rep.sigma_z)
            start = np.zeros(rep.dim, dtype=complex)
            start[rows[0]] = 1.0
            multiplet = np.array(_reference_trajectory(h, start, stages.duration,
                                                       steps))
            block = _odd_block_run(two_s, stages, steps, sign)
            assert np.abs(block[-1] - multiplet[-1, rows]).max() < 1e-12
            amps = multiplet[:, rows[0]]
            ref_phase = sum(np.angle(amps[1:] / amps[:-1]))
            assert abs(_unwrapped_phase(block[:, 0]) - ref_phase) < 1e-12


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
    # 8,000 steps of the benchmark's cycle at this coupling: eigh's
    # eigenvectors fall short of orthonormal by about 6e-17, which builds up
    # to a drift of 1.04e-12 unless each propagator gets a Newton-Schulz step
    sched = three_stage_cycle(-1.1655059345201522, stage_duration=10.0, n_alpha=1)
    assert run_cycle(S2, 1.0, sched, steps=8000).norm_drift < 1e-12


def test_unitarity_drift_bound():
    sched = three_stage_cycle(0.9, stage_duration=3.0)
    res = run_cycle(S2, 0.0, sched, steps=1200)
    assert res.norm_drift < 1e-12
    assert abs(np.linalg.norm(res.final_state) - 1.0) < 1e-12
    assert 0.0 <= res.leakage <= 1.0


# --- frames -----------------------------------------------------------------


def test_coriolis_operator_identity():
    # i U^dag dU/dt must equal alpha_dot D_alpha + phi_dot D_phi
    # + theta_dot D_theta; checked by high-order finite differences
    from spinberry.dynamics import coriolis_operators
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
    from spinberry.dynamics import coriolis_operators
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
    from spinberry.dynamics import STEPS_PER_UNIT, _magnus_run
    pulse = PulseShape(shape)

    def h(ts):
        return S2.sigma_z + _stacked(pulse.fraction(ts / duration)) * (S2.sigma_x @ S2.sigma_x)

    res = ramp_phase(S2, -1.0, 1.0, duration, shape=shape)
    psi0 = np.zeros(5, dtype=complex)
    psi0[3] = 1.0
    states = _magnus_run(h, psi0, duration, int(round(STEPS_PER_UNIT * duration)))
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
    v0 = rotating_basis_transform(S2, 0.0)
    assert np.abs(v0 - np.eye(5)).max() == 0.0
    v = rotating_basis_transform(S2, 1.0)
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
