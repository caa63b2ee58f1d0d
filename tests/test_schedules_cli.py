import bisect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spinberry.cli import main
from spinberry.pulses import PulseShape, blackman, blackman_integral
from spinberry.schedules import (ScheduleError, Segment, from_dict, from_file,
                                 from_segments, from_table, three_stage_cycle)

SCHEDULE_TEXT = """\
# three-stage entangling cycle
lambda0 = 0.0
segment1.kind = ramp
segment1.duration = 25
segment1.shape = blackman
segment1.lambda_to = -0.97
segment2.kind = rotate
segment2.duration = 50
segment2.shape = blackman
segment2.alpha_half_turns = 3
segment3.kind = ramp
segment3.duration = 25
segment3.shape = blackman
segment3.lambda_to = 0.0
"""


# --- schedule construction ----------------------------------------------------


def test_segments_schedule_boundaries():
    sched = three_stage_cycle(-0.97, stage_duration=25.0)
    sched.validate()
    assert sched.duration == 100.0
    assert sched.lam(0.0) == 0.0
    assert sched.lam(50.0) == -0.97
    assert sched.lam(100.0) == pytest.approx(0.0, abs=1e-15)
    assert sched.alpha(100.0) == pytest.approx(3 * np.pi)
    assert sched.n_alpha == 3 and sched.n_phi == 0
    # rates vanish at the segment joints for blackman shaping
    for t in (0.0, 25.0, 75.0, 100.0):
        assert abs(sched.lam_dot(t)) < 1e-14
        assert abs(sched.alpha_dot(t)) < 1e-14


def test_schedule_file_round_trip(tmp_path):
    path = tmp_path / "cycle.sched"
    path.write_text(SCHEDULE_TEXT)
    sched = from_file(path)
    sched.validate()
    reference = three_stage_cycle(-0.97, stage_duration=25.0)
    for t in np.linspace(0, 100, 17):
        assert sched.lam(t) == pytest.approx(reference.lam(t), abs=1e-14)
        assert sched.alpha(t) == pytest.approx(reference.alpha(t), abs=1e-14)


def test_schedule_file_errors(tmp_path):
    bad = tmp_path / "bad.sched"
    bad.write_text("segment1.kind = ramp\nsegment1.duration = 5\n")
    with pytest.raises(ScheduleError):  # ramp without lambda_to
        from_file(bad)
    bad.write_text("nonsense\n")
    with pytest.raises(ScheduleError):
        from_file(bad)
    bad.write_text("segment2.kind = hold\nsegment2.duration = 1\n")
    with pytest.raises(ScheduleError):  # numbering must start at 1
        from_file(bad)
    with pytest.raises(ScheduleError):
        from_dict({"mystery": "1"})


def test_mirror_and_scaled_field():
    sched = three_stage_cycle(0.5, stage_duration=2.0)
    mirror = sched.mirror()
    mirror.validate()
    assert mirror.n_alpha == -3
    assert mirror.alpha(sched.duration) == pytest.approx(-3 * np.pi)
    assert mirror.lam(3.0) == sched.lam(3.0)
    scaled = sched.scaled_field(2.5)
    assert scaled.b(1.0) == 2.5
    with pytest.raises(ScheduleError):
        sched.scaled_field(0.0)


def test_validate_catches_open_cycles():
    bad = from_segments([Segment(kind="ramp", duration=4.0, lambda_to=1.0)])
    with pytest.raises(ScheduleError):
        bad.validate()
    # a manually mislabeled winding count must be caught
    good = three_stage_cycle(0.5, stage_duration=2.0)
    from dataclasses import replace
    with pytest.raises(ScheduleError):
        replace(good, n_alpha=2).validate()


def test_eta_of_schedule():
    sched = three_stage_cycle(0.5, stage_duration=2.0)
    t_mid = sched.duration / 2
    assert sched.eta(t_mid) == pytest.approx(sched.alpha_dot(t_mid))
    assert sched.eta(0.5) == 0.0


def test_tabulated_schedule_and_smoothness_guard():
    t = np.linspace(0.0, 10.0, 201)
    smooth = from_table(t, theta=np.full_like(t, 0.4),
                        phi=2 * np.pi * (t / 10 - np.sin(2 * np.pi * t / 10)
                                         / (2 * np.pi)),
                        alpha=np.zeros_like(t), lam=np.zeros_like(t), n_phi=1)
    smooth.validate()
    res = smooth.phi(10.0) - smooth.phi(0.0)
    assert res == pytest.approx(2 * np.pi, abs=1e-9)
    # a derivative kink must trip the finite-difference curvature bound
    kinked = np.abs(t - 5.0)
    with pytest.raises(ScheduleError):
        from_table(t, theta=np.zeros_like(t), phi=np.zeros_like(t),
                   alpha=kinked, lam=np.zeros_like(t))


# --- array evaluation -----------------------------------------------------------

FIELDS = ("theta", "phi", "alpha", "lam", "theta_dot", "phi_dot", "alpha_dot",
          "lam_dot", "b")


def _bisect_eval(param, t, method):
    """One scalar time through the bisect lookup that array evaluation replaced."""
    starts = list(param.starts)
    t = min(max(t, 0.0), param.total)
    i = max(0, min(bisect.bisect_right(starts, t) - 1, len(starts) - 1))
    s = min(max((t - starts[i]) / param.durations[i], 0.0), 1.0)
    pulse = PulseShape(str(param.kinds[i]))
    if method == "value":
        if param.deltas[i] == 0.0:
            return param.base_values[i]
        return param.base_values[i] + param.deltas[i] * pulse.fraction(s)
    if param.deltas[i] == 0.0:
        return 0.0
    return param.deltas[i] * pulse.rate(s) / param.durations[i]


def _assert_array_matches_scalar(sched, ts):
    for name in FIELDS:
        field = getattr(sched, name)
        values = field(ts)
        assert values.shape == ts.shape, name
        scalars = [field(t) for t in ts]
        assert all(type(v) is np.float64 for v in scalars), name
        assert np.array_equal(values, scalars), name
    assert np.array_equal(sched.eta(ts), [sched.eta(t) for t in ts])


def test_segment_schedule_array_matches_scalar_and_bisect():
    segs = [Segment(kind="ramp", duration=3.0, shape="linear", lambda_to=0.7),
            Segment(kind="hold", duration=1.5),
            Segment(kind="rotate", duration=4.0, phi_turns=1, alpha_half_turns=2),
            Segment(kind="ramp", duration=2.5, lambda_to=-0.3),
            Segment(kind="rotate", duration=2.0, shape="linear",
                    alpha_half_turns=-1),
            Segment(kind="ramp", duration=1.0, shape="linear", lambda_to=0.0)]
    sched = from_segments(segs, theta0=0.8, b=1.3)
    joints = np.cumsum([0.0] + [seg.duration for seg in segs])
    # exact segment boundaries, the clamped ends beyond [0, T], and a grid
    ts = np.concatenate([joints, [-1.0, -1e-300, 14.0 + 1e-9, 20.0],
                         np.linspace(-0.5, 14.5, 601)])
    _assert_array_matches_scalar(sched, ts)
    for name, method in (("lam", "value"), ("phi", "value"), ("alpha", "value"),
                         ("lam_dot", "rate"), ("phi_dot", "rate"),
                         ("alpha_dot", "rate")):
        param = getattr(sched, name).__self__
        want = [_bisect_eval(param, t, method) for t in ts]
        assert np.array_equal(getattr(sched, name)(ts), want), name
    mirror = sched.mirror().scaled_field(2.0)
    _assert_array_matches_scalar(mirror, ts)


def test_table_schedule_array_matches_scalar():
    t = np.linspace(0.0, 10.0, 41)
    sched = from_table(t, theta=0.4 + 0.1 * np.sin(2 * np.pi * t / 10),
                       phi=2 * np.pi * t / 10, alpha=np.zeros_like(t),
                       lam=0.5 * np.sin(np.pi * t / 10) ** 2,
                       b=1.0 + 0.2 * np.cos(2 * np.pi * t / 10), n_phi=1)
    sched.validate()
    _assert_array_matches_scalar(sched, np.concatenate([t, np.linspace(0, 10, 97)]))


@pytest.mark.parametrize("fn", [blackman, blackman_integral,
                                PulseShape("linear").fraction,
                                PulseShape("linear").rate,
                                PulseShape("blackman").fraction,
                                PulseShape("blackman").rate])
def test_pulses_reject_out_of_range_anywhere(fn):
    good = np.linspace(0.0, 1.0, 7)
    assert fn(good).shape == good.shape
    assert np.array_equal(fn(good), [fn(s) for s in good])
    for bad in (1.0 + 1e-12, -1e-300, np.nan):
        with pytest.raises(ValueError, match="fraction"):
            fn(np.concatenate([good, [bad], good]))
        with pytest.raises(ValueError, match="fraction"):
            fn(bad)


# --- CLI -----------------------------------------------------------------------


def run_cli(args, tmp_path, name):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out.read_text()


def test_cli_spectrum(tmp_path):
    code, text = run_cli(["spectrum", "--spin", "2", "--lambda-min", "0",
                          "--lambda-max", "2", "--n", "21"], tmp_path, "spec.csv")
    assert code == 0
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    assert header[0] == "lambda"
    assert "E_m0" in header and "p_m2" in header
    # row at lambda = 1 carries the exact values E(0,1)=2, p(0,1)=1
    row = dict(zip(header, lines[1 + 10].split(",")))
    assert float(row["lambda"]) == pytest.approx(1.0)
    assert float(row["E_m0"]) == pytest.approx(2.0, abs=1e-10)
    assert float(row["p_m0"]) == pytest.approx(1.0, abs=1e-10)


def test_cli_spectrum_s3_lambda0_row(tmp_path):
    code, text = run_cli(["spectrum", "--spin", "3", "--lambda-min", "0",
                          "--lambda-max", "1.4", "--n", "3"], tmp_path, "s3.csv")
    assert code == 0
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    row = [float(x) for x in lines[1].split(",")]
    energies = row[1:8]
    assert np.allclose(energies, [3, 2, 1, 0, -1, -2, -3])
    assert len(header) == 1 + 7 + 7


def test_cli_spectrum_spin4_columns(tmp_path):
    code, text = run_cli(["spectrum", "--spin", "4", "--lambda-min", "0",
                          "--lambda-max", "1.2", "--n", "2"], tmp_path, "s4.csv")
    assert code == 0
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert len(lines[0].split(",")) == 1 + 9 + 9


def test_cli_determinism(tmp_path):
    args = ["gauge-sphere", "--spin", "2", "--m", "0", "--n", "11"]
    _, first = run_cli(args, tmp_path, "a.csv")
    _, second = run_cli(args, tmp_path, "b.csv")
    assert first == second


def test_cli_gauge_sphere_values(tmp_path):
    code, text = run_cli(["gauge-sphere", "--spin", "1", "--m", "1",
                          "--n", "9"], tmp_path, "gs.csv")
    assert code == 0
    lines = [l for l in text.splitlines() if not l.startswith("#")][1:]
    for line in lines:
        tt, a_alpha = (float(x) for x in line.split(","))
        lam = -2.0 / np.tan(tt)
        assert a_alpha == pytest.approx(2 / np.sqrt(lam**2 + 4) - 1, abs=1e-9)


def test_cli_magic(tmp_path):
    code, text = run_cli(["magic", "--spin", "2", "--eta-min", "0",
                          "--eta-max", "0.4", "--n", "3"], tmp_path, "magic.csv")
    assert code == 0
    lines = [l for l in text.splitlines() if not l.startswith("#")][1:]
    eta0 = [float(x) for x in lines[0].split(",")]
    assert eta0[1] == pytest.approx(0.838213, abs=1e-4)
    assert eta0[2] == 0.838213
    for line in lines:
        row = [float(x) for x in line.split(",")]
        assert abs(row[1] - row[2]) < 1e-3


def test_cli_ramp(tmp_path):
    code, text = run_cli(["ramp", "--spin", "2", "--m", "-1", "--lambda0", "1",
                          "--shape", "blackman", "--T", "12,16"],
                         tmp_path, "ramp.csv")
    assert code == 0
    lines = [l for l in text.splitlines() if not l.startswith("#")][1:]
    assert len(lines) == 2
    for line in lines:
        row = [float(x) for x in line.split(",")]
        assert abs(row[2]) < 0.02


def test_cli_transverse(tmp_path):
    code, text = run_cli(["transverse", "--spin", "2", "--m", "0",
                          "--lambda-min", "0.8", "--lambda-max", "1.0",
                          "--n", "3"], tmp_path, "tv.csv")
    assert code == 0
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert lines[0] == "lambda,p2,c_xy"
    assert len(lines) == 4


def test_cli_cycle(tmp_path):
    sched = tmp_path / "alpha.sched"
    sched.write_text("lambda0 = 1.0\n"
                     "segment1.kind = rotate\n"
                     "segment1.duration = 80\n"
                     "segment1.shape = blackman\n"
                     "segment1.alpha_half_turns = 1\n")
    out = tmp_path / "cycle.json"
    code = main(["cycle", "--schedule", str(sched), "--spin", "2", "--m", "0",
                 "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert float(data["adiabatic_beta"]) == pytest.approx(np.pi, abs=1e-9)
    assert float(data["mirror_extracted_beta"]) == pytest.approx(np.pi, abs=5e-3)
    assert float(data["leakage"]) < 1e-3


@pytest.mark.parametrize("text", [
    "segment1.kind = rotate\nsegment1.duration = ten\nsegment1.alpha_half_turns = 1\n",
    "segment1.kind = rotate\nsegment1.duration = 4\nsegment1.shape = welch\n"
    "segment1.alpha_half_turns = 1\n",
    "segment1.kind = ramp\nsegment1.duration = 10\nsegment1.lambda_to = 0.5\n",
    "segment1.kind = rotate\nsegment1.duration = nan\nsegment1.alpha_half_turns = 1\n",
], ids=["non-numeric", "unknown-shape", "open-cycle", "nan-duration"])
def test_cli_cycle_rejects_bad_schedule(text, tmp_path, capsys):
    sched = tmp_path / "bad.sched"
    sched.write_text(text)
    out = tmp_path / "x.json"
    code = main(["cycle", "--schedule", str(sched), "--spin", "2", "--m", "0",
                 "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_cli_cycle_missing_schedule_file(tmp_path, capsys):
    missing = tmp_path / "absent.sched"
    code = main(["cycle", "--schedule", str(missing), "--spin", "2",
                 "--m", "0"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_transverse_near_degeneracy(tmp_path, capsys):
    # the S = 2 doublet (m = 2, m = 1) collapses below the gap threshold
    out = tmp_path / "tv.csv"
    code = main(["transverse", "--spin", "2", "--m", "1", "--lambda-min", "60",
                 "--lambda-max", "60", "--n", "1", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "lambda=60.0" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["cycle", "--steps", "0"],
    ["cycle", "--steps", "-3"],
    ["entangle", "--steps", "0"],
    ["entangle", "--steps", "-3"],
    ["entangle", "--tune", "-1"],
    ["entangle", "--T", "0", "--tune", "auto"],
])
def test_cli_rejects_bad_steps_and_stretch(argv, tmp_path, capsys):
    sched = tmp_path / "alpha.sched"
    sched.write_text("lambda0 = 1.0\n"
                     "segment1.kind = rotate\n"
                     "segment1.duration = 4\n"
                     "segment1.alpha_half_turns = 1\n")
    required = {"cycle": ["--schedule", str(sched), "--spin", "2", "--m", "0"],
                "entangle": ["--lambda0", "-0.97"]}[argv[0]]
    out = tmp_path / "out.json"
    code = main([argv[0], *required, *argv[1:], "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists() or out.read_text() == ""


def test_cli_entangle_short(tmp_path):
    out = tmp_path / "ent.json"
    code = main(["entangle", "--lambda0", "0.0", "--T", "2.0",
                 "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert float(data["delta_beta_closed_form"]) == 0.0
    assert len(data["final_amplitudes_re_im"]) == 16


def test_cli_entangle_leakage_exit_code(tmp_path):
    # a too-fast cycle violates the sector-leakage contract -> exit 1
    out = tmp_path / "fast.json"
    with pytest.warns(UserWarning):
        code = main(["entangle", "--lambda0", "-0.97", "--T", "3.0",
                     "--out", str(out)])
    assert code == 1
    data = json.loads(out.read_text())
    assert float(data["sector_leakage"]) > 1e-3


def test_cli_json_format(tmp_path):
    code, text = run_cli(["spectrum", "--spin", "1", "--n", "3",
                          "--format", "json"], tmp_path, "spec.json")
    assert code == 0
    data = json.loads(text)
    assert data["columns"][0] == "lambda"
    assert len(data["rows"]) == 3


def test_cli_entry_point_runs():
    # the child imports the package from where this process found it
    import spinberry
    path = [str(Path(spinberry.__file__).resolve().parents[1]),
            os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-m", "spinberry.cli", "--version"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "spinberry" in proc.stdout


def test_cli_spin_parsing(tmp_path):
    code, text = run_cli(["spectrum", "--spin", "3/2", "--n", "2",
                          "--lambda-max", "0.5"], tmp_path, "half.csv")
    assert code == 0
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert "E_m3over2" in lines[0]


def test_cli_transverse_warns_outside_perturbation_theory(tmp_path, capsys):
    # for S = 2, m = 1 the opposite-parity gap is 6.95e-2 at lambda = 1 but
    # 5.19e-3 at lambda = 2.5, below the 1e-2 warning threshold: the table
    # is still written, with one warning line for that row only
    out = tmp_path / "tv.csv"
    code = main(["transverse", "--spin", "2", "--m", "1", "--lambda-min", "1",
                 "--lambda-max", "2.5", "--n", "2", "--out", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 7
    err = capsys.readouterr().err
    assert err == ("warning: opposite-parity gap 5.19e-03 below 1e-02 at "
                   "lambda=2.5; outside perturbation theory\n")
