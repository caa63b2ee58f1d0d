import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import polarization_hellmann_feynman
from spinberry import (CoriolisParams, NearDegeneracyError, NoRootError,
                       alpha_rotation_cycle, delta_p, energy_derivative,
                       labeled_spectrum, longitudinal_phase, magic_lambda,
                       magic_lambda_fit, polarization, q_coefficient,
                       reduced_hamiltonian, spin_matrices,
                       transverse_second_order)
from spinberry.berry import berry_phase_adiabatic

HALF = spin_matrices(1)
S1 = spin_matrices(2)
S2 = spin_matrices(4)
S4 = spin_matrices(8)


def q_closed_form_s2_odd(m, lam):
    # from E = (5 lam + 2m sqrt(9 lam^2/4 + 1))/2 differentiated analytically
    return -m * 36 * lam**2 / (9 * lam**2 + 4) ** 2.5


# --- independent references -------------------------------------------------
# Finite-difference and finite-mu solver paths for the quantities that the
# library sums exactly over one eigensystem.


def richardson_q(rep, m, lam):
    """q as (lam^2 p'' + 2 lam p') / 6 from central differences of the
    polarization, step 1e-3 * max(1, |lam|), one Richardson level."""
    h = 1e-3 * max(1.0, abs(lam))

    def p(x):
        return polarization(rep, m, x)

    def d1(hh):
        return (p(lam + hh) - p(lam - hh)) / (2 * hh)

    def d2(hh):
        return (p(lam + hh) - 2 * p(lam) + p(lam - hh)) / hh**2

    p1 = (4 * d1(h / 2) - d1(h)) / 3
    p2 = (4 * d2(h / 2) - d2(h)) / 3
    return (lam**2 * p2 + 2 * lam * p1) / 6.0


def richardson_p2(rep, m, lam):
    """p2 = E_perp2 + lam dE_perp2/dlam by central differences of the
    shift, step 1e-3 * max(1, |lam|), one Richardson level."""
    h = 1e-3 * max(1.0, abs(lam))

    def e2(x):
        return transverse_second_order(rep, m, x).value

    def d1(hh):
        return (e2(lam + hh) - e2(lam - hh)) / (2 * hh)

    return e2(lam) + lam * (4 * d1(h / 2) - d1(h)) / 3


def mu_extrapolated_shift(rep, m, lam):
    """E_perp2 as the half-sum of the shifts of the auxiliary spectra of
    H(lam) - mu Sigma_{x,y}, divided by mu^2 at mu = 1e-3 and 2e-3 and
    Richardson-extrapolated to mu = 0."""
    spec = labeled_spectrum(rep, lam)
    vi, e0 = spec.vector(m), spec.energy(m)
    h0 = reduced_hamiltonian(rep, lam).matrix
    shifts = []
    for op in (rep.sigma_x, rep.sigma_y):
        ratios = []
        for mu in (1e-3, 2e-3):
            w, v = np.linalg.eigh(h0 - mu * op)
            j = int(np.argmax(np.abs(vi @ v)))
            ratios.append((w[j] - e0) / mu**2)
        shifts.append((4 * ratios[0] - ratios[1]) / 3)
    return 0.5 * (shifts[0] + shifts[1])


@pytest.mark.parametrize("two_s", range(1, 13))
def test_q_and_p2_match_richardson(two_s):
    # bounds sit above the differences' own error over this grid, relative
    # to max(1, |value|): worst 2.5e-8 for q and, where the opposite-parity
    # gap is at least 1e-3, 4.0e-9 for p2
    rep = spin_matrices(two_s)
    for m in rep.m_values:
        for lam in np.linspace(-3.0, 3.0, 13):
            q = q_coefficient(rep, m, lam)
            assert abs(q - richardson_q(rep, m, lam)) <= 2e-7 * max(1.0, abs(q))
            try:
                shift = transverse_second_order(rep, m, lam)
            except NearDegeneracyError:
                continue
            if shift.min_gap < 1e-3:
                continue
            p2 = shift.p2
            assert abs(p2 - richardson_p2(rep, m, lam)) <= \
                4e-8 * max(1.0, abs(p2)), (m, lam)


# --- q coefficient ----------------------------------------------------------


def test_q_vanishes_at_zero_coupling():
    for rep, m in ((S2, 1.0), (S2, 0.0), (S4, -2.0)):
        assert q_coefficient(rep, m, 0.0) == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("lam", [0.3, 0.7, 1.0, -0.9])
@pytest.mark.parametrize("m", [1.0, -1.0])
def test_q_matches_closed_form(lam, m):
    got = q_coefficient(S2, m, lam)
    assert got == pytest.approx(q_closed_form_s2_odd(m, lam), abs=1e-6)


def test_q_sign_change_for_m0():
    assert q_coefficient(S2, 0.0, 0.6) * q_coefficient(S2, 0.0, 1.0) < 0


# --- delta_p ----------------------------------------------------------------


def test_delta_p_rejects_large_eta():
    with pytest.raises(ValueError):
        delta_p(S2, 0.0, 0.8, 1.0)
    with pytest.raises(ValueError):
        delta_p(S2, 0.0, 0.8, -1.2)


@pytest.mark.parametrize("solve, blocks", [
    (lambda: delta_p(S2, 0.0, 0.9, 0.3), 1),
    (lambda: delta_p(S4, -1.0, -1.2, -0.45), 1),
    (lambda: longitudinal_phase(S2, 0.0, alpha_rotation_cycle(1.0, n_alpha=1,
                                                              duration=10.0)), 1),
    (lambda: q_coefficient(S2, 0.0, 0.9), 2),
    (lambda: polarization_hellmann_feynman(S4, -2.0, 1.3), 2),
], ids=["delta_p-s2", "delta_p-s4", "longitudinal_phase", "q_coefficient",
        "polarization_hellmann_feynman"])
def test_one_spectrum_solve_per_call(solve, blocks, spectra_calls):
    # one stacked solve per call: of level m's block alone where only level
    # m is read (Delta_p, the longitudinal phase), of both blocks where the
    # perturbation sums need the whole eigensystem
    solve()
    assert len(spectra_calls) == blocks


def test_magic_root_at_zero_eta_solves(spectra_calls):
    # the eta = 0 objective is q, one labelled spectrum (two blocks) per
    # evaluation
    magic_lambda(S2, 0.0)
    assert len(spectra_calls) == 24


@pytest.mark.parametrize("two_s", [1, 2, 4, 7, 12])
def test_one_solve_derivatives_are_the_per_order_values(two_s):
    # q and the Hellmann-Feynman polarization from one eigensystem equal,
    # bit for bit, their expressions in the separate per-order solves
    rep = spin_matrices(two_s)
    for m in rep.m_values:
        for lam in (-2.5, -0.4, 0.0, 0.838, 3.0):
            d1, d2, d3 = (energy_derivative(rep, m, lam, k) for k in (1, 2, 3))
            assert q_coefficient(rep, m, lam) == -(lam**3 * d3 + 3 * lam**2 * d2) / 6.0
            assert (polarization_hellmann_feynman(rep, m, lam)
                    == labeled_spectrum(rep, lam).energy(m) - lam * d1)


def test_delta_p_zero_coupling_exact():
    for eta in (0.0, 0.2, 0.7):
        assert delta_p(S2, 1.0, 0.0, eta) == pytest.approx(0.0, abs=1e-13)


def test_delta_p_small_eta_limit():
    # at the series threshold the direct difference must agree with q eta^2
    eta = 1e-3
    for rep, m, lam in ((S2, 0.0, 0.9), (S2, 1.0, 0.5), (S4, 0.0, 0.45)):
        ratio = delta_p(rep, m, lam, eta) / eta**2
        q = q_coefficient(rep, m, lam)
        assert ratio == pytest.approx(q, rel=1e-3)


def test_delta_p_tiny_eta_branch():
    eta = 1e-4
    got = delta_p(S2, 1.0, 0.8, eta)
    assert got == pytest.approx(q_coefficient(S2, 1.0, 0.8) * eta**2, rel=0.01)


@settings(max_examples=25, deadline=None)
@given(eta=st.floats(1e-3, 0.9), lam=st.floats(-1.5, 1.5),
       m=st.sampled_from([2.0, 1.0, 0.0, -1.0, -2.0]))
def test_delta_p_even_in_eta(eta, lam, m):
    a = delta_p(S2, m, lam, eta)
    b = delta_p(S2, m, lam, -eta)
    assert abs(a - b) < 1e-12 * max(1.0, abs(a))


@settings(max_examples=30, deadline=None)
@given(two_s=st.integers(1, 12), lam=st.floats(-3.0, 3.0),
       eta=st.floats(-0.5, 0.5))
def test_delta_p_eta_sweep(two_s, lam, eta):
    # Delta_p is exactly even in eta on both branches; across the series
    # threshold the direct difference and q eta^2 agree to the difference's
    # cancellation noise (worst 3.3e-11, at 2S = 12 and |lambda| = 3)
    from spinberry.nonadiabatic import _ETA_SERIES_THRESHOLD
    rep = spin_matrices(two_s)
    below = np.nextafter(_ETA_SERIES_THRESHOLD, 0.0)
    for m in rep.m_values:
        assert delta_p(rep, m, lam, eta) == delta_p(rep, m, lam, -eta)
        jump = (delta_p(rep, m, lam, _ETA_SERIES_THRESHOLD)
                - delta_p(rep, m, lam, below))
        assert abs(jump) <= 1e-10, (m, jump)
    if two_s in (4, 8):
        assert magic_lambda(rep, -eta) == magic_lambda(rep, eta)


def test_delta_p_near_paper_magic_point():
    # the quoted six-digit magic coupling roots the eta->0 kernel closely
    assert abs(q_coefficient(S2, 0.0, 0.838213)) < 3e-7


def test_delta_p_analytic_oracle_s2_odd():
    # (1+eta) E(lam/(1+eta)) has the closed form (5 lam + sqrt(9 lam^2
    # + 4 (1+eta)^2))/2 on the m=+1 branch
    lam, eta = 0.7, 0.4
    plus = (5 * lam + np.sqrt(9 * lam**2 + 4 * (1 + eta) ** 2)) / 2
    minus = (5 * lam + np.sqrt(9 * lam**2 + 4 * (1 - eta) ** 2)) / 2
    want = (plus - minus) / (2 * eta) - 2 / np.sqrt(9 * lam**2 + 4)
    assert delta_p(S2, 1.0, lam, eta) == pytest.approx(want, abs=1e-12)


# --- magic coupling ---------------------------------------------------------


def test_magic_lambda_eta_zero():
    assert magic_lambda(S2, 0.0) == pytest.approx(0.838213, abs=1e-4)
    assert magic_lambda(S4, 0.0) == pytest.approx(0.509982, abs=1e-4)


def test_magic_lambda_eta_zero_high_precision():
    # roots of q(0, lambda) from mpmath at 40 digits: E(0, lambda) by eigsy
    # on the m = 0 parity block, E'' and E''' by mpmath.diff, then findroot
    assert magic_lambda(S2, 0.0) == pytest.approx(0.83821316188336616,
                                                  abs=1e-13)
    assert magic_lambda(S4, 0.0) == pytest.approx(0.50998242340870349,
                                                  abs=1e-13)


def test_magic_lambda_default_bracket():
    # S = 3 has no bracket of its own; the default (0.05, 2.0) holds its root
    s3 = spin_matrices(6)
    root = magic_lambda(s3, 0.0)
    assert root == pytest.approx(0.483125, abs=1e-6)
    assert abs(q_coefficient(s3, 0.0, root)) <= 1e-10
    root = magic_lambda(s3, 0.3)
    assert root == pytest.approx(0.473533, abs=1e-6)
    assert abs(delta_p(s3, 0.0, root, 0.3)) <= 1e-10
    # for S = 6, q has one sign at both ends of the default bracket (it has
    # two roots inside, near 0.375 and 0.853)
    s6 = spin_matrices(12)
    assert q_coefficient(s6, 0.0, 0.05) * q_coefficient(s6, 0.0, 2.0) > 0
    with pytest.raises(NoRootError):
        magic_lambda(s6, 0.0)


def test_magic_lambda_matches_fit_at_half():
    got = magic_lambda(S2, 0.5)
    assert got == pytest.approx(magic_lambda_fit(4, 0.5), abs=1e-3)
    assert got == pytest.approx(0.814127, abs=1e-3)


def test_magic_lambda_roots_delta_p():
    for eta in (0.2, 0.4):
        root = magic_lambda(S2, eta)
        assert abs(delta_p(S2, 0.0, root, eta)) < 1e-10


def test_magic_lambda_validation():
    with pytest.raises(ValueError):
        magic_lambda(spin_matrices(3), 0.1)  # half-integer spin
    with pytest.raises(ValueError):
        magic_lambda(S2, 0.7)  # outside the fit validity window
    # S = 1 has an m = 0 level but its kernel is identically zero
    with pytest.raises(NoRootError):
        magic_lambda(S1, 0.2)


def test_magic_coupling_rejects_nan_eta():
    # NaN fails every comparison, so the window check is "not |eta| <= 0.5"
    for call in (lambda: magic_lambda(S2, float("nan")),
                 lambda: magic_lambda_fit(4, float("nan"))):
        with pytest.raises(ValueError, match=r"\|eta\| <= 0.5 required, got nan"):
            call()


def test_magic_fit_polynomial_values():
    assert magic_lambda_fit(4, 0.0) == 0.838213
    assert magic_lambda_fit(8, 0.0) == 0.509982
    for two_s in (6, 3):
        with pytest.raises(ValueError, match="tabulated for spin 2 and 4 only"):
            magic_lambda_fit(two_s, 0.1)


# --- transverse corrections -------------------------------------------------


def test_transverse_zero_coupling():
    # E_perp2(m, 0) = m/2 exactly: both neighbors contribute with unit gaps
    for rep in (S2, S4):
        for m in rep.m_values:
            shift = transverse_second_order(rep, m, 0.0)
            assert shift.value == pytest.approx(m / 2, abs=1e-12)
            assert shift.ex == pytest.approx(m / 2, abs=1e-12)
            assert shift.ey == pytest.approx(m / 2, abs=1e-12)
            assert shift.value == pytest.approx(
                mu_extrapolated_shift(rep, m, 0.0), abs=1e-6)
            assert not shift.large_correction


@pytest.mark.parametrize("m,lam", [(0.0, 0.9), (-1.0, 1.1), (2.0, 0.5),
                                   (0.0, -1.3)])
def test_transverse_cross_validation(m, lam):
    shift = transverse_second_order(S2, m, lam)
    assert shift.min_gap > 1e-3
    assert shift.value == pytest.approx(mu_extrapolated_shift(S2, m, lam),
                                        abs=1e-6)


def test_transverse_blowup_for_m1():
    peak = max(abs(transverse_second_order(S2, 1.0, lam).p2)
               for lam in np.linspace(0.7, 1.2, 6))
    assert peak > 100.0


def test_transverse_large_correction_flag():
    # the collapsing (m=2, m=1) doublet pushes the gap into the flag window
    shift = transverse_second_order(S2, 1.0, 2.5)
    assert 1e-6 < shift.min_gap < 1e-2
    assert shift.large_correction
    assert np.isfinite(shift.value)


def test_transverse_near_degeneracy_error():
    # at very large coupling the S=2 doublet (m=2, m=1) collapses
    with pytest.raises(NearDegeneracyError):
        transverse_second_order(S2, 1.0, 60.0)


def test_transverse_order_of_magnitude_fig_region():
    for m in (0.0, -1.0):
        for lam in np.linspace(0.7, 1.2, 6):
            shift = transverse_second_order(S2, m, lam)
            assert abs(shift.p2) < 5.0
            assert abs(shift.c_xy) < 5.0


def test_p2_reduces_to_shift_at_zero_coupling():
    for m in (2.0, -1.0):
        shift = transverse_second_order(S2, m, 0.0)
        assert shift.p2 == pytest.approx(shift.value, abs=1e-9)


def test_cross_terms_cancel():
    # the x-y cross contribution to the second-order shift vanishes because
    # x elements are real and y elements purely imaginary between real
    # eigenvectors of opposite parity
    from spinberry import labeled_spectrum
    for lam in (0.5, 1.0):
        spec = labeled_spectrum(S2, lam)
        for m in S2.m_values:
            i = spec.index_of(m)
            vi = spec.vectors[:, i].astype(complex)
            cross = 0.0
            for n in range(S2.dim):
                if n == i or (n - i) % 2 == 0:
                    continue
                vn = spec.vectors[:, n].astype(complex)
                x_nm = np.vdot(vn, S2.sigma_x @ vi)
                y_nm = np.vdot(vn, S2.sigma_y @ vi)
                gap = spec.energies[i] - spec.energies[n]
                cross += np.real(np.conj(x_nm) * y_nm) / gap
            assert abs(cross) < 1e-12


def test_cxy_frozen_oracles():
    # S=2, m=2 at zero coupling: single neighbor, unit gap, x=1, y=1
    assert transverse_second_order(S2, 2.0, 0.0).c_xy == pytest.approx(-1.0, abs=1e-12)
    # spin-1/2: one-dimensional parity blocks, gap 1, x = y = 1/2
    for lam in (0.0, 0.7, -1.0):
        assert transverse_second_order(HALF, 0.5, lam).c_xy == pytest.approx(
            -0.25, abs=1e-12)


# --- longitudinal phase -----------------------------------------------------


def test_longitudinal_phase_eta_zero():
    sched = alpha_rotation_cycle(0.8, n_alpha=1, duration=10.0)
    full, first = longitudinal_phase(S2, 0.0, sched, eta_of_t=lambda ts: 0.0)
    assert first == 0.0
    # full reduces to -int E dt = -E * T at constant coupling
    from spinberry import labeled_spectrum
    want = -labeled_spectrum(S2, 0.8).energy(0.0) * 10.0
    assert full == pytest.approx(want, abs=1e-9)


def test_longitudinal_first_order_equals_loop_integral():
    sched = alpha_rotation_cycle(1.0, n_alpha=1, duration=10.0)
    _, first = longitudinal_phase(S2, 0.0, sched)
    beta = berry_phase_adiabatic(S2, 0.0, sched)
    assert first == pytest.approx(beta.value - beta.winding_phase, abs=1e-9)


def test_magic_cancellation_of_odd_orders():
    # constant rotation rate at the matching magic coupling: the odd-in-eta
    # part of the longitudinal phase equals the loop integral exactly
    eta_bar = 0.2
    duration = np.pi / eta_bar
    lam_star = magic_lambda(S2, eta_bar)
    sched = alpha_rotation_cycle(lam_star, n_alpha=1, duration=duration,
                                 shape="linear")
    full_p, _ = longitudinal_phase(S2, 0.0, sched)
    full_m, _ = longitudinal_phase(S2, 0.0, sched,
                                   eta_of_t=lambda ts: -sched.eta(ts))
    odd_part = 0.5 * (full_p - full_m)
    beta = berry_phase_adiabatic(S2, 0.0, sched)
    assert abs(odd_part - (beta.value - beta.winding_phase)) < 1e-9


def test_off_magic_residual_matches_q_eta_squared():
    eta_bar = 0.1
    duration = np.pi / eta_bar
    sched = alpha_rotation_cycle(1.0, n_alpha=1, duration=duration,
                                 shape="linear")
    full_p, _ = longitudinal_phase(S2, 0.0, sched)
    full_m, _ = longitudinal_phase(S2, 0.0, sched,
                                   eta_of_t=lambda ts: -sched.eta(ts))
    odd_part = 0.5 * (full_p - full_m)
    beta = berry_phase_adiabatic(S2, 0.0, sched)
    residual = odd_part - (beta.value - beta.winding_phase)
    want = np.pi * q_coefficient(S2, 0.0, 1.0) * eta_bar**2
    assert residual == pytest.approx(want, rel=0.05)


def test_longitudinal_phase_rejects_unit_eta():
    sched = alpha_rotation_cycle(0.5, n_alpha=1, duration=2.0, shape="linear")
    with pytest.raises(ValueError):
        longitudinal_phase(S2, 0.0, sched, eta_of_t=lambda ts: 1.0)


# --- Coriolis parameter bundle ----------------------------------------------


def test_coriolis_params():
    p = CoriolisParams.from_rates(theta=0.5, phi_dot=0.3, alpha_dot=0.1)
    assert p.eta == pytest.approx(np.cos(0.5) * 0.3 + 0.1)
    assert p.mu == pytest.approx(np.sin(0.5) * 0.3)
    assert p.mu_tilde == pytest.approx(p.mu / (1 - p.eta))
    assert CoriolisParams(eta=0.5, mu=0.1).mu_tilde == pytest.approx(0.2)
    with pytest.raises(ValueError):
        CoriolisParams(eta=1.0, mu=0.1)
