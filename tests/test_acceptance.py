"""Acceptance suite: one test per contract criterion, one report line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL lines.
Every tolerance is pinned here; criteria that the implementation cannot
meet are asserted at their stated tolerance anyway and fail loudly with
the measured value.  Where the measured value is right and only the
criterion is in question, a companion test next to it asserts the cause.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import spinberry as sb
from reference import polarization_hellmann_feynman, ramp_phase
from spinberry.entangle import _one_flip_states

S1 = sb.spin_matrices(2)
S2 = sb.spin_matrices(4)
S3 = sb.spin_matrices(6)
S4 = sb.spin_matrices(8)
REPS = {1: S1, 2: S2, 3: S3, 4: S4}


def report(criterion: int, ok: bool, detail: str) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion:02d} {status}: {detail}")
    return ok


# -- 1 -----------------------------------------------------------------------

def test_criterion_01_exact_values():
    spec = sb.labeled_spectrum(S2, 1.0)
    err_e = abs(spec.energy(0.0) - 2.0)
    err_p = abs(spec.polarization(0.0) - 1.0)
    ok = err_e < 1e-10 and err_p < 1e-10
    assert report(1, ok, f"E(0,1), p(0,1) exact within 1e-10 "
                         f"(errors {err_e:.1e}, {err_p:.1e})")


# -- 2 -----------------------------------------------------------------------

CHAR_POLYS = {
    (2, "odd"): lambda u: [1, -5 * u, 4 * u**2 - 1],
    (2, "even"): lambda u: [1, -5 * u, 4 * u**2 - 4, 12 * u],
    (3, "odd"): lambda u: [1, -14 * u, 49 * u**2 - 10,
                           -36 * u**3 + 102 * u, -216 * u**2 + 9],
    (3, "even"): lambda u: [1, -14 * u, 49 * u**2 - 4, -36 * u**3 + 24 * u],
    (4, "odd"): lambda u: [1, -30 * u, 273 * u**2 - 10,
                           -820 * u**3 + 182 * u, 576 * u**4 - 712 * u**2 + 9],
    (4, "even"): lambda u: [1, -30 * u, 273 * u**2 - 20,
                            -820 * u**3 + 472 * u,
                            576 * u**4 - 3152 * u**2 + 64,
                            5760 * u**3 - 640 * u],
}


def test_criterion_02_characteristic_polynomials():
    worst = 0.0
    for (spin, name), poly in CHAR_POLYS.items():
        rep = REPS[spin]
        for lam in np.linspace(-2.0, 2.0, 20):
            even, odd = sb.parity_blocks(sb.reduced_hamiltonian(rep, lam))
            block = even if name == "even" else odd
            got = sb.characteristic_polynomial(block)
            worst = max(worst, np.abs(got - np.array(poly(lam))).max())
    ok = worst < 1e-10
    assert report(2, ok, f"block characteristic polynomials match references "
                         f"at 20 couplings (worst {worst:.2e} < 1e-10)")


# -- 3 -----------------------------------------------------------------------

def test_criterion_03_sum_rule_and_reflection():
    worst_sum = worst_refl = 0.0
    for spin in (1, 2, 3, 4):
        rep = REPS[spin]
        for lam in np.linspace(-2.0, 2.0, 50):
            spec = sb.labeled_spectrum(rep, lam)
            neg = sb.labeled_spectrum(rep, -lam)
            worst_sum = max(worst_sum, abs(sum(
                spec.polarization(m) for m in rep.m_values)))
            for m in rep.m_values:
                worst_refl = max(worst_refl,
                                 abs(spec.energy(m) + neg.energy(-m)))
    ok = worst_sum < 1e-10 and worst_refl < 1e-10
    assert report(3, ok, f"polarization sum rule ({worst_sum:.2e}) and "
                         f"reflection symmetry ({worst_refl:.2e}) < 1e-10")


# -- 4 -----------------------------------------------------------------------

def test_criterion_04_closed_form_polarization():
    worst = 0.0
    for lam in np.linspace(0.0, 1.4, 29):
        want = 2.0 / np.sqrt(9 * lam**2 + 4)
        worst = max(worst, abs(sb.polarization(S2, 1.0, lam) - want),
                    abs(sb.polarization(S2, -1.0, lam) + want))
    ok = worst < 1e-9
    assert report(4, ok, f"odd-doublet polarization matches closed form over "
                         f"[0, 1.4] (worst {worst:.2e} < 1e-9)")


# -- 5 -----------------------------------------------------------------------

def test_criterion_05_magic_roots():
    root2 = sb.magic_lambda(S2, 0.0)
    root4 = sb.magic_lambda(S4, 0.0)
    e2, e4 = abs(root2 - 0.838213), abs(root4 - 0.509982)
    ok = e2 < 1e-4 and e4 < 1e-4
    assert report(5, ok, f"magic couplings at zero rate: spin 2 -> {root2:.6f}"
                         f" (err {e2:.1e}), spin 4 -> {root4:.6f} (err {e4:.1e})"
                         f", both within 1e-4")


@pytest.mark.parametrize("spin", [2, 4])
def test_criterion_05_fit_precision(spin):
    rep = REPS[spin]
    worst = 0.0
    for eta in np.linspace(0.0, 0.5, 11):
        fit = sb.magic_lambda_fit(rep.two_s, eta)
        worst = max(worst, abs(sb.delta_p(rep, 0.0, fit, eta)))
    ok = worst < 3e-7
    assert report(5, ok, f"spin-{spin} fit keeps |Delta_p| < 3e-7 over "
                         f"eta in [0, 0.5] (worst {worst:.2e})")


# -- 6 -----------------------------------------------------------------------

def test_criterion_06_three_pi_rotation_quadrature():
    worst2 = worst1 = 0.0
    for lam0 in np.linspace(-1.2, 1.2, 10):
        sched = sb.alpha_rotation_cycle(lam0, n_alpha=3, duration=12.0)
        got2 = sb.berry_phase_adiabatic(S2, 1.0, sched).value
        want2 = 3 * np.pi * (2 / np.sqrt(9 * lam0**2 + 4) - 1)
        worst2 = max(worst2, abs(got2 - want2))
        got1 = sb.berry_phase_adiabatic(S1, 1.0, sched).value
        want1 = 3 * np.pi * (2 / np.sqrt(lam0**2 + 4) - 1)
        worst1 = max(worst1, abs(got1 - want1))
    ok = worst2 < 1e-9 and worst1 < 1e-9
    assert report(6, ok, f"3-pi rotation phases match closed forms at 10 "
                         f"couplings (worst {max(worst1, worst2):.2e} < 1e-9)")


# -- 7 -----------------------------------------------------------------------

def test_criterion_07_solid_angle_limit():
    worst = 0.0
    for m, theta0, n_phi, rep in ((1.0, 0.8, 1, S1), (0.0, 1.1, 2, S2),
                                  (2.0, np.pi / 3, 1, S2), (-1.0, 2.0, 3, S1)):
        sched = sb.phi_rotation_cycle(theta0=theta0, n_phi=n_phi, duration=9.0)
        got = sb.berry_phase_adiabatic(rep, m, sched).value
        want = -m * 2 * np.pi * (1 - np.cos(theta0)) * n_phi
        worst = max(worst, abs(got - want))
    ok = worst < 1e-9
    assert report(7, ok, f"pure-dipole cycles reproduce the solid-angle "
                         f"phase (worst {worst:.2e} < 1e-9)")


# -- 8 -----------------------------------------------------------------------

def test_criterion_08_blackman_taming_two_level():
    res_b = sb.ramp_fidelity(S2, -1.0, 1.0, 25.0, shape="blackman")
    res_l = sb.ramp_fidelity(S2, -1.0, 1.0, 25.0, shape="linear")
    dev_b, dev_l = abs(res_b.deviation), abs(res_l.deviation)
    ok = dev_b < 5e-4 and dev_l > 10 * dev_b
    assert report(8, ok, f"Blackman ramp deviation {dev_b:.2e} < 5e-4; linear "
                         f"{dev_l:.2e} is {dev_l / dev_b:.0f}x larger (>10x)")


# -- 9 -----------------------------------------------------------------------

def test_criterion_09_blackman_taming_three_level():
    res = sb.ramp_fidelity(S2, 0.0, 0.838, 25.0, shape="blackman")
    rel = abs(res.deviation / res.sz_adiabatic)
    ok = rel < 5e-3
    assert report(9, ok, f"three-level Blackman ramp relative deviation "
                         f"{rel:.2e} (required < 5e-3)")


def test_criterion_09_ramp_matches_adaptive_integrator():
    # the criterion-09 deviation is not step error: an independent adaptive
    # integrator of the same ramp lands on the same final <Sigma_z>
    lambda0, duration = 0.838, 25.0
    pulse = sb.PulseShape("blackman")
    sxsq = S2.sigma_x @ S2.sigma_x

    def rhs(t, psi):
        lam = lambda0 * pulse.fraction(min(t / duration, 1.0))
        return -1j * ((S2.sigma_z + lam * sxsq) @ psi)

    psi0 = np.zeros(S2.dim, dtype=complex)
    psi0[sb.labeled_spectrum(S2, 0.0).index_of(0.0)] = 1.0
    sol = solve_ivp(rhs, (0.0, duration), psi0, method="DOP853",
                    rtol=1e-12, atol=1e-12)
    psi = sol.y[:, -1]
    sz_ref = float(np.real(np.vdot(psi, S2.sigma_z @ psi)))
    res = sb.ramp_fidelity(S2, 0.0, lambda0, duration, shape="blackman")
    diff = abs(res.sz_final - sz_ref)
    ok = diff < 1e-7
    assert report(9, ok, f"ramp <Sigma_z> {res.sz_final:.8f} matches DOP853 "
                         f"(rtol 1e-12) within {diff:.1e} (< 1e-7)")


# -- 10 ----------------------------------------------------------------------

def test_criterion_10_dynamical_phase_robustness():
    from spinberry.dynamics import adiabatic_dynamical_phase
    worst = 0.0
    for duration in (25.0, 30.0):
        for shape in ("blackman", "linear"):
            res = ramp_phase(S2, -1.0, 1.0, duration, shape=shape)
            adiab = adiabatic_dynamical_phase(S2, -1.0, 1.0, duration,
                                              shape=shape)
            worst = max(worst, abs(res.total_phase - adiab))
    ok = worst < 0.008
    assert report(10, ok, f"two-level ramp phases track the adiabatic value "
                          f"(worst |diff| {worst:.4f} < 0.008)")


# -- 11 ----------------------------------------------------------------------

LAMBDA_MAX = sb.lambda_max_solve()


def test_criterion_11_lambda_max_and_closed_form():
    delta = sb.closed_form_delta_beta(LAMBDA_MAX).delta
    ok = -0.975 <= LAMBDA_MAX <= -0.965 and abs(delta + np.pi) < 1e-10
    assert report(11, ok, f"lambda_max = {LAMBDA_MAX:.6f} in [-0.975, -0.965] "
                          f"with Delta_beta = -pi (err {abs(delta + np.pi):.1e})")


@pytest.fixture(scope="module")
def tuned_cycle():
    stretch = sb.tune_stage_stretch(LAMBDA_MAX, 25.0)
    return sb.entangling_cycle(LAMBDA_MAX, stage_duration=25.0,
                               tune_factor=stretch)


def test_criterion_11_cycle_fidelity(tuned_cycle):
    ok = tuned_cycle.fidelity >= 0.99
    assert report(11, ok, f"tuned cycle fidelity {tuned_cycle.fidelity:.6f} "
                          f">= 0.99 (stretch {tuned_cycle.stage_stretch:.4f})")


def test_criterion_11_cycle_leakage(tuned_cycle):
    ok = tuned_cycle.sector_leakage < 1e-3
    assert report(11, ok, f"sector leakage {tuned_cycle.sector_leakage:.2e} "
                          f"< 1e-3")


def test_criterion_11_delta_beta_budget(tuned_cycle):
    err = abs(tuned_cycle.delta_beta_measured
              - tuned_cycle.delta_beta_closed_form)
    ok = err <= 1e-2
    assert report(11, ok, f"measured Delta_beta off closed form by {err:.4f} "
                          f"rad (required <= 1e-2)")


def test_criterion_11_delta_beta_offset_is_odd_order(tuned_cycle):
    # the mirror subtraction keeps the odd orders in eta = alpha_dot of the
    # rotation stage: int eta [Delta_p(S=2) - Delta_p(S=1)] dt for m = 1,
    # computed from spectra alone (16-point Gauss-Legendre, using the
    # symmetry of the Blackman rate about mid-stage)
    lam0, t2 = tuned_cycle.lambda0, 2.0 * tuned_cycle.stage_duration
    pulse = sb.PulseShape("blackman")
    x, w = np.polynomial.legendre.leggauss(16)
    odd = 0.0
    for s, ws in zip(0.5 * (x[:8] + 1.0), w[:8]):
        rate = 3 * np.pi * pulse.rate(s)  # alpha_dot * t2 for a 3 pi turn
        odd += ws * rate * (sb.delta_p(S2, 1.0, lam0, rate / t2)
                            - sb.delta_p(S1, 1.0, lam0, rate / t2))
    offset = (tuned_cycle.delta_beta_measured
              - tuned_cycle.delta_beta_closed_form)
    err = abs(offset - odd)
    ok = err < 1e-3
    assert report(11, ok, f"Delta_beta offset {offset:.4f} rad minus odd-order "
                          f"correction {odd:.4f} rad is {err:.1e} (< 1e-3)")


def test_criterion_11_amplitude_spread(tuned_cycle):
    # all four one-flip amplitudes of the final state have modulus 1/2
    amps = tuned_cycle.final_state.amplitudes
    moduli = [abs(np.vdot(phi, amps)) for phi in _one_flip_states()]
    worst = max(abs(m - 0.5) for m in moduli)
    ok = worst < 1e-2
    assert report(11, ok, f"final-state amplitude spread max deviation from "
                          f"1/2 is {worst:.2e} (< 1e-2)")


# -- 12 ----------------------------------------------------------------------

def test_criterion_12_unitarity_and_parity():
    sched = sb.three_stage_cycle(0.9, stage_duration=4.0)
    res = sb.run_cycle(S2, 0.0, sched)
    ok_drift = res.norm_drift < 1e-12
    h = sb.reduced_hamiltonian(S3, 1.3)
    m = S3.m_values
    ok_parity = all(h.matrix[i, j] == 0.0
                    for i in range(S3.dim) for j in range(S3.dim)
                    if round(m[i] - m[j]) % 2 != 0)
    ok = ok_drift and ok_parity
    assert report(12, ok, f"norm drift {res.norm_drift:.2e} < 1e-12; parity "
                          f"off-block entries exactly zero: {ok_parity}")


def test_criterion_12_eigenvector_quality():
    worst_orth = worst_real = 0.0
    for rep in (S2, S3, S4):
        for lam in (0.7, -1.1):
            spec = sb.labeled_spectrum(rep, lam)
            gram = spec.vectors.T @ spec.vectors
            worst_orth = max(worst_orth,
                             np.abs(gram - np.eye(rep.dim)).max())
            worst_real = max(worst_real, float(np.abs(
                np.imag(spec.vectors.astype(complex))).max()))
    ok = worst_orth < 1e-12 and worst_real == 0.0
    assert report(12, ok, f"eigenvectors real and orthonormal "
                          f"(orthonormality defect {worst_orth:.2e} < 1e-12)")


def test_criterion_12_hellmann_feynman():
    worst = 0.0
    for m, lam in ((2.0, 0.8), (0.0, 1.2), (-1.0, 0.5), (1.0, -0.9)):
        worst = max(worst, abs(sb.polarization(S2, m, lam)
                               - polarization_hellmann_feynman(S2, m, lam)))
    ok = worst < 1e-8
    assert report(12, ok, f"Hellmann-Feynman vs direct polarization agree "
                          f"(worst {worst:.2e} < 1e-8)")


def test_criterion_12_gauge_invariance():
    sched = sb.alpha_rotation_cycle(1.0, n_alpha=1, duration=10.0)
    g = lambda phi, theta, alpha, lam: np.sin(phi) * np.cos(2 * alpha) \
        + 0.5 * lam * np.sin(2 * alpha)
    diff = sb.gauge_invariance_check(S2, 0.0, sched, g)
    ok = diff < 1e-8
    assert report(12, ok, f"gauge-function loop invariance {diff:.2e} < 1e-8")


def test_criterion_12_rotating_vs_lab():
    from reference import lab_hamiltonian, propagate, rotating_frame_hamiltonian
    from spinberry.spin_algebra import EulerAngles, rotation_unitary
    sched = sb.three_stage_cycle(0.5, stage_duration=2.0, n_alpha=2)
    steps = 80000
    psi0 = sb.labeled_spectrum(S1, 0.0).vector(1.0).astype(complex)
    _, lab, _ = propagate(lambda ts: lab_hamiltonian(S1, sched, ts), psi0,
                          sched.duration, steps)
    _, rot, _ = propagate(lambda ts: rotating_frame_hamiltonian(S1, sched, ts),
                          psi0, sched.duration, steps)
    u = rotation_unitary(S1, EulerAngles(sched.theta(sched.duration),
                                         sched.phi(sched.duration),
                                         sched.alpha(sched.duration)))
    diff = float(np.abs(lab - u @ rot).max())
    ok = diff < 1e-9
    assert report(12, ok, f"rotating-frame vs lab-frame evolution agree to "
                          f"{diff:.2e} (< 1e-9)")


def test_criterion_12_delta_p_properties():
    worst_even = 0.0
    for eta in (0.05, 0.3, 0.8):
        for m, lam in ((0.0, 0.9), (1.0, 0.4)):
            worst_even = max(worst_even, abs(sb.delta_p(S2, m, lam, eta)
                                             - sb.delta_p(S2, m, lam, -eta)))
    eta = 1e-3
    worst_ratio = 0.0
    for m, lam in ((0.0, 0.9), (1.0, 0.5)):
        ratio = sb.delta_p(S2, m, lam, eta) / eta**2
        q = sb.q_coefficient(S2, m, lam)
        worst_ratio = max(worst_ratio, abs(ratio / q - 1.0))
    ok = worst_even < 1e-12 and worst_ratio < 1e-3
    assert report(12, ok, f"Delta_p even in eta ({worst_even:.2e} < 1e-12); "
                          f"small-eta ratio within {worst_ratio:.2e} of q "
                          f"(< 1e-3)")
