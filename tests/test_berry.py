import numpy as np
import pytest

from spinberry import (alpha_rotation_cycle, berry_phase_adiabatic,
                       gauge_field, gauge_field_sphere,
                       gauge_invariance_check, phi_rotation_cycle,
                       spin_matrices, three_stage_cycle)
from spinberry.schedules import ScheduleError, Segment, from_segments

S1 = spin_matrices(2)
S2 = spin_matrices(4)


def test_simple_alpha_cycle_gives_pi():
    # m = 0 at unit coupling, alpha advancing by pi
    sched = alpha_rotation_cycle(1.0, n_alpha=1, duration=10.0)
    res = berry_phase_adiabatic(S2, 0.0, sched)
    assert res.value == pytest.approx(np.pi, abs=1e-10)
    assert res.mod_2pi == pytest.approx(np.pi, abs=1e-10)
    assert res.winding_phase == 0.0


def test_solid_angle_limit():
    sched = phi_rotation_cycle(theta0=np.pi / 3, n_phi=1, duration=10.0)
    res = berry_phase_adiabatic(S1, 1.0, sched)
    assert res.value == pytest.approx(-np.pi, abs=1e-9)
    assert res.winding_phase == pytest.approx(-2 * np.pi)


def test_static_cycle_is_zero():
    sched = from_segments([Segment(kind="hold", duration=5.0)], lambda0=0.7)
    for m in (2.0, 0.0, -1.0):
        res = berry_phase_adiabatic(S2, m, sched)
        assert res.value == 0.0
        assert res.winding_phase == 0.0


@pytest.mark.parametrize("n_phi,theta0,m", [(1, 0.8, 1.0), (2, 2.2, -1.0),
                                            (3, np.pi / 3, 0.0)])
def test_winding_phase_and_solid_angle_general(n_phi, theta0, m):
    sched = phi_rotation_cycle(theta0=theta0, n_phi=n_phi, duration=8.0)
    res = berry_phase_adiabatic(S1, m, sched)
    want = -m * 2 * np.pi * (1 - np.cos(theta0)) * n_phi
    assert res.value == pytest.approx(want, abs=1e-9)
    assert res.winding_phase == pytest.approx(-m * 2 * np.pi * n_phi)


def test_three_pi_alpha_rotation_closed_forms():
    # both odd-doublet branches at fixed coupling
    for lam0 in (0.4, 1.0, -0.97):
        sched = alpha_rotation_cycle(lam0, n_alpha=3, duration=12.0)
        got2 = berry_phase_adiabatic(S2, 1.0, sched).value
        want2 = 3 * np.pi * (2 / np.sqrt(9 * lam0**2 + 4) - 1)
        assert got2 == pytest.approx(want2, abs=1e-9)
        got1 = berry_phase_adiabatic(S1, 1.0, sched).value
        want1 = 3 * np.pi * (2 / np.sqrt(lam0**2 + 4) - 1)
        assert got1 == pytest.approx(want1, abs=1e-9)


def test_mirror_antisymmetry():
    sched = three_stage_cycle(0.9, stage_duration=4.0)
    fwd = berry_phase_adiabatic(S2, 1.0, sched).value
    bwd = berry_phase_adiabatic(S2, 1.0, sched.mirror()).value
    assert fwd == pytest.approx(-bwd, abs=1e-10)
    assert fwd != pytest.approx(0.0, abs=1e-3)


def test_field_scale_invariance():
    sched = alpha_rotation_cycle(0.8, n_alpha=2, duration=6.0)
    base = berry_phase_adiabatic(S2, 0.0, sched).value
    scaled = berry_phase_adiabatic(S2, 0.0, sched.scaled_field(7.3)).value
    assert scaled == base


def test_quadrature_convergence():
    sched = three_stage_cycle(-0.97, stage_duration=4.0)
    coarse = berry_phase_adiabatic(S2, 1.0, sched, quad_points=2049).value
    fine = berry_phase_adiabatic(S2, 1.0, sched, quad_points=4097).value
    assert abs(fine - coarse) < 1e-9


def test_rejects_open_schedule():
    bad = from_segments([Segment(kind="ramp", duration=5.0, lambda_to=0.5)])
    with pytest.raises(ScheduleError):
        berry_phase_adiabatic(S2, 0.0, bad)


# --- gauge field ------------------------------------------------------------


def test_gauge_field_values():
    g = gauge_field(S1, 1.0, lam=0.0, theta=0.7)
    assert g.a_alpha == pytest.approx(0.0, abs=1e-12)
    assert g.a_phi == pytest.approx(np.cos(0.7) - 1.0, abs=1e-12)
    g = gauge_field(S2, 0.0, lam=1.0, theta=0.0)
    assert g.a_alpha == pytest.approx(1.0, abs=1e-10)
    assert g.a_phi == pytest.approx(1.0, abs=1e-10)
    assert gauge_field(S2, 0.0, lam=-1.0, theta=0.0).a_alpha == pytest.approx(
        -1.0, abs=1e-10)


@pytest.mark.parametrize("two_s", [1, 4, 9, 12])
def test_gauge_field_on_arrays_is_pointwise(two_s):
    # one stacked solve over arrays of lambda and theta equals the scalar
    # calls exactly, the gauge-sphere poles |lambda| = 230 included
    rep = spin_matrices(two_s)
    lams = np.array([-230.0, -10.0, -2.3, -1e-3, 0.0, 0.7, 1.0, 10.0, 300.0])
    thetas = np.linspace(0.0, np.pi, len(lams))
    for m in rep.m_values:
        field = gauge_field(rep, m, lams, thetas)
        points = [gauge_field(rep, m, lam, theta) for lam, theta in zip(lams, thetas)]
        np.testing.assert_array_equal(field.a_phi, [g.a_phi for g in points])
        np.testing.assert_array_equal(field.a_alpha, [g.a_alpha for g in points])


@pytest.mark.parametrize("rep, m, sched", [
    (S2, 1.0, phi_rotation_cycle(theta0=0.8, n_phi=1, duration=10.0, lambda0=0.9)),
    (S2, 0.0, phi_rotation_cycle(theta0=2.2, n_phi=2, duration=10.0, lambda0=-1.3)),
    (S2, 1.0, three_stage_cycle(-0.97, 5.0)),
    (spin_matrices(9), -0.5, three_stage_cycle(0.8, 5.0, n_alpha=1)),
], ids=["phi-s2-m1", "phi-s2-m0", "alpha-s2-m1", "alpha-s9half"])
def test_berry_integrand_is_the_loop_expression(rep, m, sched, monkeypatch):
    # A_phi phi_dot + A_alpha alpha_dot from gauge_field equals, bit for bit,
    # the integrand written out: -(m - p cos theta) phi_dot - (m - p) alpha_dot
    from spinberry import berry
    from spinberry.hamiltonian import _level
    simpson, seen = berry._simpson, []

    def captured(y, ts):
        seen.append((y, ts))
        return simpson(y, ts)

    monkeypatch.setattr(berry, "_simpson", captured)
    berry_phase_adiabatic(rep, m, sched, quad_points=1001)
    (y, ts), = seen
    p = _level(rep, m, sched.lam(ts))[3]
    want = (-(m - p * np.cos(sched.theta(ts))) * sched.phi_dot(ts)
            - (m - p) * sched.alpha_dot(ts))
    assert np.any(sched.phi_dot(ts)) or np.any(sched.alpha_dot(ts))
    np.testing.assert_array_equal(y, want)


def test_gauge_field_sphere():
    assert gauge_field_sphere(S2, 0.0, np.pi / 2) == pytest.approx(0.0, abs=1e-12)
    # theta_tilde with lambda = 1: pi - arccot(1/2)
    tt = np.pi - np.arctan(2.0)
    assert gauge_field_sphere(S2, 0.0, tt) == pytest.approx(1.0, abs=1e-9)
    # mirror about pi/2 flips the sign (lambda -> -lambda, p odd for m=0)
    for tt in (0.9, 1.3, 2.0):
        a = gauge_field_sphere(S2, 0.0, tt)
        b = gauge_field_sphere(S2, 0.0, np.pi - tt)
        assert a == pytest.approx(-b, abs=1e-10)
    # dipole-limit shape for S=1, m=1: cos(theta_tilde') under the sphere map
    # reduces to A_alpha = p - m = 2/sqrt(lam^2+4) - 1
    lam = -2.0 / np.tan(1.1)
    want = 2 / np.sqrt(lam**2 + 4) - 1
    assert gauge_field_sphere(S1, 1.0, 1.1) == pytest.approx(want, abs=1e-10)
    for bad in (0.0, np.pi, -0.1, np.nan, [1.0, np.pi]):
        with pytest.raises(ValueError):
            gauge_field_sphere(S2, 0.0, bad)


@pytest.mark.parametrize("two_s", range(13))
def test_gauge_field_sphere_grid_is_pointwise_gauge_field(two_s):
    # one stacked solve over every 10th point of `gauge-sphere --n 361`,
    # both end points (|lambda| = 230) included, equals the one-point path
    rep = spin_matrices(two_s)
    thetas = np.linspace(0.0, np.pi, 363)[1:-1][::10]
    assert max(abs(2.0 / np.tan(thetas))) > 229.0
    for m in rep.m_values:
        want = [gauge_field(rep, m, -2.0 / np.tan(tt), 0.0).a_alpha for tt in thetas]
        np.testing.assert_array_equal(gauge_field_sphere(rep, m, thetas), want)


@pytest.mark.parametrize("rep,factor", [(S1, 1.0), (S2, 9.0)])
def test_gauge_field_sphere_near_poles(rep, factor):
    # the outermost points of `gauge-sphere --n 361`, where |lambda| = 230;
    # for m = +-1, p = m / sqrt(1 + factor cot^2) in closed form
    thetas = np.linspace(0.0, np.pi, 363)[1:-1]
    for tt in (thetas[0], thetas[-1]):
        assert abs(2.0 / np.tan(tt)) > 229.0
        for m in (1.0, -1.0):
            want = m * (-1.0 + 1.0 / np.sqrt(1.0 + factor / np.tan(tt) ** 2))
            assert abs(gauge_field_sphere(rep, m, tt) - want) < 1e-12


def test_gauge_field_sphere_nonmonotone_for_s2():
    # the m = 0 curve rises from 0 toward +1 and returns to 0 at the pole side
    grid = np.linspace(0.55 * np.pi, 0.98 * np.pi, 40)
    vals = np.array([gauge_field_sphere(S2, 0.0, t) for t in grid])
    peak = vals.argmax()
    assert vals[peak] > 0.9
    assert 0 < peak < len(vals) - 1
    assert vals[0] < 0.4 and vals[-1] < 0.4


# --- gauge invariance -------------------------------------------------------


def test_gauge_invariance_zero_function():
    sched = alpha_rotation_cycle(1.0, n_alpha=1, duration=10.0)
    diff = gauge_invariance_check(S2, 0.0, sched, lambda p, t, a, l: 0.0)
    assert diff == 0.0


def test_gauge_invariance_periodic_functions():
    sched = alpha_rotation_cycle(1.0, n_alpha=1, duration=10.0)
    g1 = lambda phi, theta, alpha, lam: np.sin(phi) * np.cos(2 * alpha)
    assert gauge_invariance_check(S2, 0.0, sched, g1) < 1e-8
    g2 = lambda phi, theta, alpha, lam: lam * np.sin(2 * alpha)
    assert gauge_invariance_check(S2, 0.0, sched, g2) < 1e-8
    # combined winding in phi and alpha
    sched2 = from_segments([Segment(kind="rotate", duration=12.0,
                                    phi_turns=1, alpha_half_turns=2)],
                           theta0=1.0, lambda0=0.5)
    g3 = lambda phi, theta, alpha, lam: np.cos(phi) + 0.3 * np.sin(4 * alpha)
    assert gauge_invariance_check(S1, 1.0, sched2, g3) < 1e-8


def test_gauge_dependence_detected_for_inadmissible_function():
    # half-period function in alpha is not single-valued; the check must
    # report a macroscopic difference
    sched = alpha_rotation_cycle(1.0, n_alpha=1, duration=10.0)
    g = lambda phi, theta, alpha, lam: np.cos(alpha)
    assert gauge_invariance_check(S2, 0.0, sched, g) > 0.5


# --- quadrature -------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 9, 65, 4097])
def test_simpson_matches_scipy_on_quad_grid(n):
    from scipy.integrate import simpson

    from spinberry.berry import _quad_grid, _simpson
    rng = np.random.default_rng(n)
    for duration in (1.0, 37.5, 100.0):
        ts = _quad_grid(duration, n)
        for y in (np.cos(0.3 * ts) + ts / duration, np.exp(-ts / duration),
                  rng.uniform(0.5, 1.5, ts.size)):
            reference = simpson(y, x=ts)
            assert abs(_simpson(y, ts) - reference) <= 1e-14 * abs(reference)
