import itertools

import numpy as np
import pytest

from reference import collective_hamiltonian, permutation_operator
from spinberry import (FourSpinState, LeakageWarning, closed_form_delta_beta,
                       entangling_cycle, lambda_max_solve, symmetric_basis_m1,
                       three_stage_cycle, tune_stage_stretch)
from spinberry.entangle import (_one_flip_states, _tower_embeddings,
                                bp_target_state, collective_spin)


def test_collective_spin_algebra():
    sx, sy, sz = collective_spin()
    assert np.abs(sx @ sy - sy @ sx - 1j * sz).max() < 1e-12
    # diagonal of Sz is M = (number of up spins - number of down spins)/2
    m_diag = np.real(np.diag(sz))
    for idx in range(16):
        downs = bin(idx).count("1")
        assert m_diag[idx] == pytest.approx((4 - 2 * downs) / 2)


def test_four_spin_state_validation():
    with pytest.raises(ValueError):
        FourSpinState(np.zeros(16))
    with pytest.raises(ValueError):
        FourSpinState(np.ones(8))
    vec = np.zeros(16)
    vec[3] = 1.0
    FourSpinState(vec)  # no raise


def test_symmetric_basis_orthonormal_and_total_spin():
    basis = symmetric_basis_m1()
    states = [basis.psi_21, *basis.psi_11]
    for a, b in itertools.combinations_with_replacement(range(4), 2):
        want = 1.0 if a == b else 0.0
        got = states[a].overlap(states[b])
        assert abs(got - want) < 1e-12
    sx, sy, sz = collective_spin()
    s_squared = sx @ sx + sy @ sy + sz @ sz
    v = basis.psi_21.amplitudes
    assert np.abs(s_squared @ v - 6.0 * v).max() < 1e-12
    assert np.abs(sz @ v - 1.0 * v).max() < 1e-12
    for tower in basis.psi_11:
        v = tower.amplitudes
        assert np.abs(s_squared @ v - 2.0 * v).max() < 1e-12
        assert np.abs(sz @ v - 1.0 * v).max() < 1e-12


def test_expansion_coefficients():
    basis = symmetric_basis_m1()
    assert np.allclose(basis.expansion,
                       [[1, 1, 1], [-1, -1, 1], [1, -1, -1], [-1, 1, -1]])
    # Phi^(i) = (sum_j a_ij Psi^j + Psi_21)/2 reconstructs the flip states
    phi = _one_flip_states()
    for i in range(4):
        rebuilt = 0.5 * (sum(basis.expansion[i, j] * basis.psi_11[j].amplitudes
                             for j in range(3)) + basis.psi_21.amplitudes)
        assert np.abs(rebuilt - phi[i]).max() < 1e-12


def test_permutation_action_on_towers():
    # Each tower is fixed (eigenvalue +1) by exactly one of the three
    # transpositions (23), (24), (34); the other two transpositions map
    # the towers onto one another.  The totally symmetric state is fixed
    # by every permutation.
    basis = symmetric_basis_m1()
    p23 = permutation_operator((0, 2, 1, 3))
    p24 = permutation_operator((0, 3, 2, 1))
    p34 = permutation_operator((0, 1, 3, 2))
    t1, t2, t3 = (t.amplitudes for t in basis.psi_11)
    assert np.abs(p24 @ t1 - t1).max() < 1e-12
    assert np.abs(p23 @ t2 - t2).max() < 1e-12
    assert np.abs(p34 @ t3 - t3).max() < 1e-12
    assert np.abs(p23 @ t1 - t3).max() < 1e-12
    assert np.abs(p34 @ t1 - t2).max() < 1e-12
    assert np.abs(p24 @ t2 - t3).max() < 1e-12
    for perm in itertools.permutations(range(4)):
        p = permutation_operator(perm)
        assert np.abs(p @ basis.psi_21.amplitudes
                      - basis.psi_21.amplitudes).max() < 1e-12


def test_collective_hamiltonian_block_structure():
    basis = symmetric_basis_m1()
    for lam in (0.3, 1.0, -0.97):
        h = collective_hamiltonian(lam)
        states = [basis.psi_21, *basis.psi_11]
        # towers never mix with each other or with the symmetric state
        for i in range(1, 4):
            for j in range(4):
                if i == j:
                    continue
                elem = np.vdot(states[i].amplitudes, h @ states[j].amplitudes)
                assert abs(elem) < 1e-12
        # permutation invariance of the full matrix
        for perm in itertools.permutations(range(4)):
            p = permutation_operator(perm)
            assert np.abs(p.T @ h @ p - h).max() < 1e-12


def test_collective_hamiltonian_zero_coupling():
    sx, sy, sz = collective_spin()
    assert np.abs(collective_hamiltonian(0.0) - sz.real).max() == 0.0


def test_m_mixing_only_by_two():
    h = collective_hamiltonian(0.8)
    _, _, sz = collective_spin()
    m_diag = np.real(np.diag(sz))
    for i in range(16):
        for j in range(16):
            if abs(round(m_diag[i] - m_diag[j])) % 2 == 1:
                assert h[i, j] == 0.0


def test_odd_block_matches_doublet_matrix():
    # restricted to the S=2 multiplet M=+-1 pair, the collective Hamiltonian
    # is the same 2x2 odd block as for an isolated spin 2
    basis = symmetric_basis_m1()
    w2, _ = _tower_embeddings()
    psi_2_m1 = basis.psi_21.amplitudes          # M = +1 (index 1 in multiplet)
    psi_2_mm1 = w2[:, 3]                        # M = -1
    lam = 1.0
    h = collective_hamiltonian(lam)
    block = np.empty((2, 2))
    for a, va in enumerate((psi_2_m1, psi_2_mm1)):
        for b, vb in enumerate((psi_2_m1, psi_2_mm1)):
            block[a, b] = np.real(np.vdot(va, h @ vb))
    want = np.array([[2.5 * lam + 1, 1.5 * lam], [1.5 * lam, 2.5 * lam - 1]])
    assert np.abs(block - want).max() < 1e-12


def test_tower_embeddings_are_isometries():
    w2, w1 = _tower_embeddings()
    assert np.abs(w2.conj().T @ w2 - np.eye(5)).max() < 1e-12
    for w in w1:
        assert np.abs(w.conj().T @ w - np.eye(3)).max() < 1e-12


# --- closed forms ------------------------------------------------------------


def test_closed_form_delta_beta():
    db = closed_form_delta_beta(0.0)
    assert db.beta_21 == 0.0 and db.beta_11 == 0.0 and db.delta == 0.0
    db = closed_form_delta_beta(1.0)
    assert db.beta_21 == pytest.approx(3 * np.pi * (2 / np.sqrt(13) - 1))
    assert db.beta_11 == pytest.approx(3 * np.pi * (2 / np.sqrt(5) - 1))
    assert closed_form_delta_beta(-0.97).delta == pytest.approx(-np.pi, abs=2e-3)


def test_lambda_max():
    lam_max = lambda_max_solve()
    assert -0.975 <= lam_max <= -0.965
    assert closed_form_delta_beta(lam_max).delta + np.pi == pytest.approx(
        0.0, abs=1e-10)
    # the phase difference is even in the coupling
    assert closed_form_delta_beta(-lam_max).delta + np.pi == pytest.approx(
        0.0, abs=1e-10)


# --- cycle -------------------------------------------------------------------


def test_trivial_cycle_returns_initial_state():
    res = entangling_cycle(0.0, stage_duration=2.0, steps=1600)
    phi1 = _one_flip_states()[0]
    overlap = abs(np.vdot(phi1, res.final_state.amplitudes)) ** 2
    assert overlap == pytest.approx(1.0, abs=1e-10)
    assert res.delta_beta_closed_form == 0.0
    assert abs(res.delta_beta_measured) < 1e-6
    assert res.sector_leakage < 1e-12


def test_fast_cycle_triggers_adiabaticity_warning():
    # a deliberately fast cycle leaks population from M = 1 to M = -1 inside
    # each multiplet; the diagnostic must catch it and warn
    from spinberry import LeakageWarning
    with pytest.warns(LeakageWarning, match="leaked") as record:
        res = entangling_cycle(-0.97, stage_duration=3.0)
    assert 1e-3 < res.sector_leakage < 0.2
    # the warning carries the numbers that triggered it
    warning = record[0].message
    assert warning.leakage == res.sector_leakage
    assert warning.bound == 1e-3
    assert str(warning) == (f"four-spin cycle leaked {res.sector_leakage:.2e} "
                            f"out of the M = 1 symmetry sectors")
    assert np.isfinite(res.delta_beta_measured)
    assert 0.0 <= res.fidelity <= 1.0


def test_non_finite_cycle_fails_the_leakage_contracts(tmp_path, capsys, monkeypatch):
    # at lambda0 = 1e200 the step bound sum_k |c_k| ||O_k|| dt (about 1e199)
    # is far above 2**52, so the runs raise before they step, and `cycle` and
    # `entangle` exit 1 with one error line naming the schedule file or the
    # coupling, and the bound.  A run that
    # still comes out NaN (here from NaN coefficients, whose NaN bound
    # passes) leaks NaN, which no leakage bound accepts
    from spinberry import dynamics
    from spinberry.cli import main
    from spinberry.dynamics import _mirror_pairs
    from spinberry.spin_algebra import spin_matrices
    sched = tmp_path / "cycle.sched"
    sched.write_text("segment1.kind = ramp\nsegment1.duration = 2\n"
                     "segment1.lambda_to = 1e200\n"
                     "segment2.kind = rotate\nsegment2.duration = 2\n"
                     "segment2.alpha_half_turns = 1\n"
                     "segment3.kind = ramp\nsegment3.duration = 2\n"
                     "segment3.lambda_to = 0\n")
    with np.errstate(all="ignore"):
        for run in (lambda: entangling_cycle(1e200, stage_duration=2.0),
                    lambda: _mirror_pairs([spin_matrices(4)], 1.0, three_stage_cycle(1e200, 2.0))):
            with pytest.raises(ValueError, match=r"step bound .* = 1\.\d+e\+199 is above 2\*\*52"):
                run()
    assert closed_form_delta_beta(1e200).delta == 0.0
    for argv, what in ((["cycle", "--schedule", str(sched), "--spin", "2", "--m", "1"],
                        f"the cycle of {sched}"),
                       (["entangle", "--lambda0", "1e200", "--T", "2"],
                        "the cycle at lambda0=1e+200")):
        assert main([*argv, "--out", str(tmp_path / "out.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {what} overflows the step arithmetic (the step bound")
        assert "e+199 is above 2**52" in err and err.count("\n") == 1
    coefficients = dynamics._coefficients

    def nan_coefficients(*args):
        return np.full_like(coefficients(*args), np.nan)
    monkeypatch.setattr(dynamics, "_coefficients", nan_coefficients)
    with np.errstate(all="ignore"), pytest.warns(LeakageWarning) as record:
        res = entangling_cycle(-0.97, stage_duration=2.0)
        pair, = _mirror_pairs([spin_matrices(4)], 1.0, three_stage_cycle(-0.97, 2.0))
    assert np.isnan(res.sector_leakage) and np.isnan(record[0].message.leakage)
    assert np.isnan(pair.forward.leakage) and np.isnan(pair.mirrored.leakage)


@pytest.mark.parametrize("stage", [15.0, 20.0, 25.0, 30.0])
def test_tuned_stretch_is_an_interior_maximum(stage):
    # at stage 30 the best grid point sits at the window edge, on the flank
    # of a maximum outside the window; the tuner must return an interior one
    from spinberry.entangle import _stretch_fidelity
    lam_max = lambda_max_solve()
    stretch_fidelity = _stretch_fidelity(lam_max, stage)

    def fidelity(s):
        return stretch_fidelity(np.array([s]))[0]

    stretch = tune_stage_stretch(lam_max, stage)
    best = fidelity(stretch)
    assert best >= 0.999
    assert best >= fidelity(stretch - 2e-3)
    assert best >= fidelity(stretch + 2e-3)


def test_tuner_prefers_the_maximum_nearest_unit_stretch(monkeypatch):
    # two maxima of the fidelity within 1e-6 of each other: the tuner takes
    # the one nearer stretch 1, not the one a rounding-level change may favour
    from spinberry import entangle

    def two_maxima(stretch):
        return (np.cos(np.pi * (stretch - 0.881) / 0.15) ** 2
                - 5e-7 * (stretch - 0.881) / 0.15)

    with monkeypatch.context() as patch:
        # the same function is the exact objective and its prediction
        for name in ("_stretch_fidelity", "_adiabatic_fidelity"):
            patch.setattr(entangle, name, lambda lambda0, stage_duration, blocks: two_maxima)
        assert tune_stage_stretch(-0.97, 25.0) == pytest.approx(1.031, abs=1e-4)
    # at the README parameters the two candidates are 0.881239 and 1.064154
    assert tune_stage_stretch(-0.9699, 25.0) == pytest.approx(1.06415, abs=1e-4)


def test_slow_cycle_keeps_sectors_clean():
    res = entangling_cycle(-0.97, stage_duration=20.0)
    assert res.sector_leakage < 1e-6


def test_stage_profile_rotation_end():
    # rounding puts (t - t1) / t2 at 1 + 2e-16 at the end of the rotation
    stage, stretch = 14.88410160597642, 0.52
    sched = three_stage_cycle(-0.97, stage, n_alpha=1, stretch=stretch)
    assert np.isfinite(sched.alpha_dot(stage * stretch + 2.0 * stage))


def test_multiplet_vs_full_sixteen_dim():
    # the parity-block runs, embedded into the multiplets, must match the raw
    # 16-dim integration
    lam0, stage, steps = -0.8, 2.0, 3200
    sched = three_stage_cycle(lam0, stage, n_alpha=3)
    sx, sy, sz = collective_spin()
    sxsq = (sx @ sx).real
    phi1 = _one_flip_states()[0].astype(complex)
    dt = sched.duration / steps
    # CF4 at the Gauss nodes, two eigh-exponentials per step
    root = np.sqrt(3.0) / 6.0
    a_minus, a_plus = 0.25 - root, 0.25 + root
    nodes = dt * (np.arange(steps)[:, None] + np.array([0.5 - root, 0.5 + root]))
    h = (sz.real + sched.lam(nodes)[..., None, None] * sxsq
         - sched.alpha_dot(nodes)[..., None, None] * sz.real)
    psi = phi1.copy()
    for h_early, h_late in h:
        for gen in (a_plus * h_early + a_minus * h_late,
                    a_minus * h_early + a_plus * h_late):
            w, u = np.linalg.eigh(gen)
            psi = u @ (np.exp(-1j * w * dt) * (u.conj().T @ psi))
    # back to the lab frame: each M component picks up exp(-i M alpha(T))
    psi = np.exp(-1j * np.real(np.diag(sz)) * sched.alpha(sched.duration)) * psi
    # the same state as entangling_cycle assembles it from the reduced runs
    # (the cycle is too fast to keep the sectors clean)
    with pytest.warns(LeakageWarning):
        rebuilt = entangling_cycle(lam0, stage, steps=steps).final_state.amplitudes
    assert np.abs(rebuilt - psi).max() < 1e-8


def test_two_level_block_matches_multiplet():
    # odd-block 2x2 evolution in the tilted frame reproduces the M=+-1
    # amplitudes of the S = 2 parity-block run
    from reference import propagate, two_level_rotating_hamiltonian
    from spinberry.dynamics import _magnus_run, _sampled
    from spinberry.spin_algebra import spin_matrices
    lam0, stage, steps = -0.9, 2.0, 4000
    sched = three_stage_cycle(lam0, stage, n_alpha=3)

    def h_two(ts):
        lam = sched.lam(ts)
        base = two_level_rotating_hamiltonian("S2", lam, sched.lam_dot(ts))
        zeta = np.arctan(1.5 * lam)[:, None, None]
        eta = sched.alpha_dot(ts)[:, None, None]
        tilt = np.cos(zeta) * np.array([[1, 0], [0, -1]]) \
            - np.sin(zeta) * np.array([[0, 1], [1, 0]])
        return base - eta * tilt

    psi0 = np.array([1.0, 0.0], dtype=complex)
    _, rot, _ = propagate(h_two, psi0, sched.duration, steps)
    zeta_end = np.arctan(1.5 * sched.lam(sched.duration))
    c, s = np.cos(zeta_end / 2), np.sin(zeta_end / 2)
    tilted_back = np.array([[c, -s], [s, c]]) @ rot
    start = np.eye(5)[1]  # M = 1
    grid, (sel,), (ops,), coeffs = _sampled([spin_matrices(4)], 1.0, [sched], steps)
    states = _magnus_run(ops, coeffs, grid.dts, start[sel][None])[0]
    psi2 = states[-1]
    assert abs(tilted_back[0] - psi2[0]) < 1e-6
    assert abs(tilted_back[1] - psi2[1]) < 1e-6


def test_bp_target_structure():
    target = bp_target_state()
    basis = symmetric_basis_m1()
    assert basis.psi_21.overlap(target) == pytest.approx(-0.5)
    for tower in basis.psi_11:
        assert tower.overlap(target) == pytest.approx(0.5)


# --- stretch tuner ---------------------------------------------------------------


def _ramp_propagator(rep, m, ramp):
    from spinberry.dynamics import _run_propagator, _sampled
    grid, (sel,), (ops,), coeffs = _sampled([rep], m, [ramp])
    return sel, _run_propagator(ops, coeffs[0], grid.dts)


@pytest.mark.parametrize("shape", ["blackman", "linear"])
@pytest.mark.parametrize("two_s, m, dim", [(2, 1.0, 2), (4, 1.0, 2), (6, 1.0, 4)])
def test_ramp_down_is_ramp_up_transposed(shape, two_s, m, dim):
    # the tuner's identity U_down = U_up^T, at the level of the CF4 steps
    from spinberry.schedules import Segment, from_segments
    from spinberry.spin_algebra import spin_matrices
    rep, lam0, duration = spin_matrices(two_s), -0.97, 13.37
    up = from_segments([Segment("ramp", duration, shape, lambda_to=lam0)])
    down = from_segments([Segment("ramp", duration, shape, lambda_to=0.0)],
                         lambda0=lam0)
    sel, u_up = _ramp_propagator(rep, m, up)
    _, u_down = _ramp_propagator(rep, m, down)
    assert len(sel) == dim
    assert np.abs(u_down - u_up.T).max() < 1e-13
    assert np.abs(u_up - np.eye(dim)).max() > 0.1


@pytest.mark.parametrize("lam0, stage, stretch", [(None, 15.0, 0.95),
                                                  (-0.9699, 25.0, 1.06415),
                                                  (None, 30.0, 1.1),
                                                  (None, 30.0, 1.093)])
def test_stretch_fidelity_is_the_reported_fidelity(lam0, stage, stretch):
    # ramps of 356.25, 665.09 and 819.75 default steps, whose stage grids
    # differ from the uniform one, and of 825 steps, where the two coincide
    from spinberry.entangle import _stretch_fidelity
    lam0 = lambda_max_solve() if lam0 is None else lam0
    fidelity = _stretch_fidelity(lam0, stage)
    # in a ragged stack, padded with identity steps
    stacked = fidelity(np.array([0.88, stretch, 1.12]))
    reported = entangling_cycle(lam0, stage, tune_factor=stretch).fidelity
    assert abs(stacked[1] - reported) < 1e-12
    assert abs(fidelity(np.array([stretch]))[0] - reported) < 1e-12


def test_tuner_logs_what_it_did(caplog):
    import logging

    from spinberry.entangle import _adiabatic_fidelity, _stretch_fidelity
    lam_max = lambda_max_solve()
    with caplog.at_level(logging.DEBUG, logger="spinberry.entangle"):
        stretch = tune_stage_stretch(lam_max, 15.0)
    (record,) = caplog.records
    assert record.levelno == logging.DEBUG
    assert record.name == "spinberry.entangle"
    message = record.getMessage()
    evaluations = int(message.split(":")[1].split()[0])
    assert 0 < evaluations <= 10  # the polish alone, from one candidate here
    assert " polishing 1 of " in message and " predicted grid maxima; " in message
    assert f"returned stretch {stretch:.10f}" in message
    predicted = _adiabatic_fidelity(lam_max, 15.0)(np.array([stretch]))[0]
    exact = _stretch_fidelity(lam_max, 15.0)(np.array([stretch]))[0]
    assert f"(predicted fidelity {predicted:.12f}, fidelity {exact:.12f})" in message


def _scan_tuned_stretch(lambda0, stage_duration):
    """Reference of the tuner's candidate search: a scan of the exact
    objective at 25 stretches, whose best point and best interior maximum
    are polished as the tuner polishes its candidates."""
    from scipy.optimize import minimize_scalar

    from spinberry.entangle import _stretch_fidelity
    fidelity = _stretch_fidelity(lambda0, stage_duration)

    def objective(s):
        return -float(fidelity(np.array([s]))[0])

    grid = np.linspace(0.88, 1.12, 25)
    values = -fidelity(grid)
    interior = [k for k in range(1, len(grid) - 1)
                if values[k] <= min(values[k - 1], values[k + 1])]
    starts = {int(np.argmin(values))}
    if interior:
        starts.add(min(interior, key=lambda k: values[k]))
    polished = [minimize_scalar(objective, bounds=(grid[max(0, k - 1)],
                                                   grid[min(len(grid) - 1, k + 1)]),
                                method="bounded", options={"xatol": 1e-6})
                for k in sorted(starts)]
    best = min(res.fun for res in polished)
    return float(min((res for res in polished if res.fun <= best + 1e-6),
                     key=lambda res: abs(res.x - 1.0)).x)


@pytest.mark.parametrize("stage", [8.0, 10.0, 15.0, 20.0, 25.0, 30.0, 40.0, 50.0])
def test_tuner_matches_the_exact_scan(stage):
    # the candidates from the adiabatic prediction reach the fidelity of the
    # exact 25-stretch scan (at worst 4.0e-9 lower over this grid), and at
    # the bench and README parameters the very same stretch
    from spinberry.entangle import _stretch_fidelity
    lam_max = lambda_max_solve()
    for lam0 in [*np.linspace(-1.3, -0.6, 15), lam_max, -0.97, -0.9699]:
        reference = _scan_tuned_stretch(lam0, stage)
        stretch = tune_stage_stretch(lam0, stage)
        ours, ref = _stretch_fidelity(lam0, stage)(np.array([stretch, reference]))
        assert ours >= ref - 1e-6, (lam0, stretch, reference)
        if (lam0, stage) in ((lam_max, 15.0), (lam_max, 25.0), (-0.9699, 25.0)):
            assert stretch == reference


@pytest.mark.parametrize("stage", [8.0, 10.0, 12.0, 15.0, 25.0, 40.0])
def test_adiabatic_fidelity_predicts_the_exact_one(stage):
    # measured at most 1.53e-2, 1.11e-2, 1.06e-2, 7.8e-3, 4.7e-3 and 3.0e-3
    # over the grid: within half the tuner's candidate margin at each stage
    # length, so no exact maximum is left unpolished
    from spinberry.entangle import _adiabatic_fidelity, _candidate_margin, _stretch_fidelity
    lam_max, grid = lambda_max_solve(), np.linspace(0.88, 1.12, 25)
    error = np.abs(_adiabatic_fidelity(lam_max, stage)(grid)
                   - _stretch_fidelity(lam_max, stage)(grid)).max()
    assert error < _candidate_margin(stage) / 2
    assert _candidate_margin(stage) == (0.02 if stage >= 13.0 else 0.26 / stage)



def test_stretch_objective_samples_its_ramp_once(monkeypatch):
    # one evaluation of the tuner's exact objective builds one ramp schedule
    # and samples lambda(t) once, at its Gauss nodes, for both spins
    import dataclasses
    from spinberry import dynamics, entangle
    fidelity = entangle._stretch_fidelity(lambda_max_solve(), 25.0)
    expected = fidelity(np.array([1.03]))
    ramp, built, samples = dynamics._ramp, [], []

    def counted(lambda0, duration, shape):
        schedule = ramp(lambda0, duration, shape)
        built.append(schedule)

        def lam(t):
            samples.append(np.shape(t))
            return schedule.lam(t)
        return dataclasses.replace(schedule, lam=lam)

    monkeypatch.setattr(entangle, "_ramp", counted)
    assert fidelity(np.array([1.03])).tobytes() == expected.tobytes()
    assert len(built) == 1 and built[0].duration == 25.0 * 1.03
    assert samples == [dynamics._step_grid(built[0]).nodes.shape]


def test_multiplets_step_as_one_run(monkeypatch, caplog):
    # entangling_cycle steps the S = 2 and S = 1 cycles and their images in
    # one _magnus_run; the tuner forms both rotation propagators in one
    # _run_propagator and both ramps of each evaluation in one more
    import logging

    from spinberry import dynamics, entangle
    calls = []

    def counted(name, run):
        def wrapped(ops, *args):
            calls.append((name, ops.shape[:-3]))
            return run(ops, *args)
        return wrapped

    monkeypatch.setattr(dynamics, "_magnus_run", counted("states", dynamics._magnus_run))
    monkeypatch.setattr(entangle, "_run_propagator",
                        counted("propagators", entangle._run_propagator))
    lam_max = lambda_max_solve()
    entangling_cycle(lam_max, 15.0)
    assert calls == [("states", (2, 1))]  # (S = 2, S = 1) by (cycle, image)
    calls.clear()
    entangle._stretch_fidelity(lam_max, 15.0)(np.array([0.9, 1.0, 1.1]))
    assert calls == [("propagators", (2,))] * 4  # the rotation, then one per stretch
    calls.clear()
    with caplog.at_level(logging.DEBUG, logger="spinberry.entangle"):
        tune_stage_stretch(lam_max, 15.0)
    evaluations = int(caplog.records[-1].getMessage().split(":")[1].split()[0])
    assert calls == [("propagators", (2,))] * (1 + evaluations)
