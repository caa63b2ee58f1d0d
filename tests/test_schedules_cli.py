import bisect
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import from_table
from spinberry.cli import main
from spinberry.pulses import PulseShape, blackman, blackman_integral
from spinberry.schedules import (ScheduleError, Segment, from_dict, from_file,
                                 from_segments, three_stage_cycle)

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


@pytest.mark.parametrize("duration", [0.0, -1.0, np.inf, np.nan])
def test_segment_rejects_non_finite_or_non_positive_duration(duration):
    with pytest.raises(ScheduleError, match=f"got {duration}"):
        Segment(kind="hold", duration=duration)


@pytest.mark.parametrize("field, value", [
    ("theta0", np.nan), ("phi0", np.inf), ("alpha0", -np.inf),
    ("lambda0", np.nan), ("b", np.inf), ("b", 0.0), ("b", -1.0),
    ("theta0", 4.0), ("theta0", -0.5),
])
def test_segment_schedule_rejects_bad_numbers(field, value):
    with pytest.raises(ScheduleError, match=f"{field} must be"):
        from_segments([Segment(kind="hold", duration=1.0)], **{field: value})


@pytest.mark.parametrize("kind", ["ramp", "rotate", "hold"])
@pytest.mark.parametrize("field", ["lambda_to", "phi_turns", "alpha_half_turns"])
def test_segment_takes_exactly_the_fields_its_kind_moves(kind, field):
    # a field that the kind does not move is an error, not dropped
    moves = {"ramp": {"lambda_to"}, "rotate": {"phi_turns", "alpha_half_turns"},
             "hold": set()}[kind]
    given = {"lambda_to": 0.5} if kind == "ramp" else {}
    given[field] = 1
    if field in moves:
        assert getattr(Segment(kind, 1.0, **given), field) == 1
    else:
        with pytest.raises(ScheduleError, match=f"a {kind} segment takes no {field}"):
            Segment(kind, 1.0, **given)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_ramp_segment_rejects_non_finite_target(value):
    with pytest.raises(ScheduleError, match="lambda_to must be finite"):
        Segment(kind="ramp", duration=1.0, lambda_to=value)


@pytest.mark.parametrize("field", ["phi_turns", "alpha_half_turns"])
@pytest.mark.parametrize("value", [1.5, np.float64(-0.5), np.nan, np.inf])
def test_segment_rejects_a_turn_count_that_is_not_whole(field, value):
    # phi by 2 pi * 1.5 = 3 pi, or alpha by pi * 1.5, leaves the cycle open
    with pytest.raises(ScheduleError, match=f"{field} must be an integer, got {value}"):
        from_segments([Segment("rotate", 4.0, **{field: value})], theta0=1.0)


@pytest.mark.parametrize("turns", [2, -1, np.int64(3), np.int32(-2)])
def test_segment_takes_python_and_numpy_integer_turns(turns):
    sched = from_segments([Segment("rotate", 4.0, phi_turns=turns, alpha_half_turns=turns)],
                          theta0=1.0)
    sched.validate()
    assert sched.n_phi == sched.n_alpha == turns


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


@pytest.mark.parametrize("name", ["theta", "lambda", "phi", "alpha"])
def test_validate_names_each_failing_parameter(name):
    # each parameter is sampled once, at t = 0 and T together, and an open
    # cycle in any one of them is reported by name with its residual
    from dataclasses import replace
    good = three_stage_cycle(0.5, stage_duration=2.0)
    fields = {"theta": "theta", "lambda": "lam", "phi": "phi", "alpha": "alpha"}
    samples = []

    def sampled(field, shift):
        f = getattr(good, field)

        def sample(t):
            samples.append((field, np.size(t)))
            return f(t) + shift * np.asarray(t) / good.duration
        return sample

    bad = replace(good, **{field: sampled(field, 0.25 if key == name else 0.0)
                           for key, field in fields.items()})
    with pytest.raises(ScheduleError,
                       match=rf"^boundary condition violated for {name}: residual 2\.500e-01$"):
        bad.validate()
    assert samples == [(field, 2) for field in fields.values()]


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
    pulse = param.pulses[param.pulse_index[i]]
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


def _string_mask_eval(param, method, t):
    """A segment parameter's value or rate as evaluated when each segment's
    shape was held as a string and every shape was masked on every call."""
    kinds = np.array([param.pulses[k].kind for k in param.pulse_index])
    t = np.clip(t, 0.0, param.total)
    i = np.clip(np.searchsorted(param.starts, t, side="right") - 1, 0, len(param.starts) - 1)
    s = np.clip((t - param.starts[i]) / param.durations[i], 0.0, 1.0)
    out = np.empty(np.shape(s))
    for kind in dict.fromkeys(kinds):
        sel = kinds[i] == kind
        out[sel] = getattr(PulseShape(kind), "fraction" if method == "value" else "rate")(s[sel])
    if method == "value":
        return (param.base_values[i] + param.deltas[i] * out)[()]
    return (param.deltas[i] * out / param.durations[i])[()]


@pytest.mark.parametrize("shapes", [("blackman",) * 3, ("linear",) * 3,
                                    ("linear", "blackman", "linear")])
def test_segment_evaluation_matches_string_masks(shapes):
    # one shape for all segments skips the masks; mixed shapes mask by index
    rng = np.random.default_rng(len(set(shapes)) + len(shapes[0]))
    segs = [Segment(kind="ramp", duration=2.7, shape=shapes[0], lambda_to=-0.9),
            Segment(kind="rotate", duration=5.1, shape=shapes[1], phi_turns=1,
                    alpha_half_turns=-3),
            Segment(kind="ramp", duration=1.9, shape=shapes[2], lambda_to=0.4)]
    sched = from_segments(segs, phi0=0.3, alpha0=-0.2, lambda0=0.1)
    joints = np.cumsum([0.0] + [seg.duration for seg in segs])
    ts = np.concatenate([rng.uniform(-1.0, sched.duration + 1.0, 4097), joints])
    for name, method in (("lam", "value"), ("phi", "value"), ("alpha", "value"),
                         ("lam_dot", "rate"), ("phi_dot", "rate"), ("alpha_dot", "rate")):
        param = getattr(sched, name).__self__
        assert getattr(param, method) == getattr(sched, name)
        for t in (ts, ts[:60].reshape(3, 20)):
            got, want = getattr(param, method)(t), _string_mask_eval(param, method, t)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
        for t in ts[::97]:
            got, want = getattr(param, method)(t), _string_mask_eval(param, method, t)
            assert type(got) is type(want) is np.float64 and got.tobytes() == want.tobytes()
        for t in (np.nan, np.array([1.0, np.nan])):
            with pytest.raises(ValueError, match="fraction must lie in"):
                getattr(param, method)(t)


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


def test_cli_transverse_at_a_huge_coupling(tmp_path):
    # gap**2 overflows only where C_xy underflows to 0 anyway: the rounded 0,
    # a finite p2 and no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run_cli(["transverse", "--spin", "2", "--m", "0", "--n", "3",
                              "--lambda-max", "1e200"], tmp_path, "tv.csv")
    assert code == 0
    lam, p2, c_xy = map(float, text.splitlines()[-1].split(","))
    assert lam == 1e200 and np.isfinite(p2) and c_xy == 0.0


@pytest.mark.parametrize("argv, solves", [
    (["transverse", "--spin", "2", "--m", "0", "--n", "7"], 14),
    (["gauge-sphere", "--spin", "2", "--m", "0", "--n", "361"], 1),
])
def test_cli_spectrum_solves(argv, solves, tmp_path, spectra_calls):
    # one labelled spectrum (two block solves) per transverse row; one solve
    # of level m's block for the whole sphere grid
    code, _ = run_cli(argv, tmp_path, "out.csv")
    assert code == 0
    assert len(spectra_calls) == solves


RESULTS = Path(__file__).resolve().parent.parent / "results"


def _load_script(name):
    import importlib.util
    spec = importlib.util.spec_from_file_location(name, RESULTS.parent / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MAKE_RESULTS = _load_script("make_results")


@pytest.mark.parametrize("name", MAKE_RESULTS.RECIPES)
def test_recipe_reproduces_results_file(name, tmp_path):
    # scripts/make_results.py's recipe of the committed file, into tmp_path
    assert MAKE_RESULTS.make(name, tmp_path / name) == 0
    assert (tmp_path / name).read_bytes() == (RESULTS / name).read_bytes()


def test_every_command_recipe_takes_the_table_path():
    from spinberry import cli
    argvs = [recipe for recipe in MAKE_RESULTS.RECIPES.values() if not callable(recipe)]
    assert len(argvs) == 14
    for argv in argvs:
        assert cli._read_table([*argv, "--out", "x.csv"]) is not None, argv


def test_results_holds_exactly_the_recipe_table():
    # no committed file without its recipe, and no recipe without its file
    assert sorted(path.name for path in RESULTS.iterdir()) == sorted(MAKE_RESULTS.RECIPES)


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


_ROTATION = "segment1.kind = rotate\nsegment1.duration = 4\nsegment1.alpha_half_turns = 1\n"


@pytest.mark.parametrize("text, named", [
    ("segment1.kind = rotate\nsegment1.duration = ten\nsegment1.alpha_half_turns = 1\n",
     "segment1.duration must be a number, got 'ten'"),
    ("segment1.kind = rotate\nsegment1.duration = 4\nsegment1.shape = welch\n"
     "segment1.alpha_half_turns = 1\n", "segment1: unknown pulse shape 'welch'"),
    ("segment1.kind = ramp\nsegment1.duration = 10\nsegment1.lambda_to = 0.5\n",
     "boundary condition violated for lambda"),
    ("segment1.kind = rotate\nsegment1.duration = nan\nsegment1.alpha_half_turns = 1\n",
     "segment1: segment duration must be finite and positive, got nan"),
    ("b = 0\nsegment1.kind = rotate\nsegment1.duration = 4\nsegment1.alpha_half_turns = 1\n",
     "b must be positive"),
    ("segment1.kind = ramp\nsegment1.duration = 2\nsegment1.lambda_to = 1e200\n",
     "boundary condition violated for lambda: residual 1.000e+200"),
    ("segment1.kind = rotate\nsegment1.duration = 4\nsegment1.alpha_half_turns = 1.5\n",
     "segment1.alpha_half_turns must be an integer, got '1.5'"),
    ("lambda0 = x\nsegment1.kind = rotate\nsegment1.duration = 4\n"
     "segment1.alpha_half_turns = 1\n", "lambda0 must be a number, got 'x'"),
    ("segment1.kind = rotate\nsegment1.duration = 4\nsegment1.shpe = linear\n"
     "segment1.alpha_half_turns = 1\n", "unknown schedule key 'segment1.shpe'"),
    ("segment1.kind = rotate\nsegment1.duration = 4\nsegment1.alpha_half_turn = 1\n",
     "unknown schedule key 'segment1.alpha_half_turn'"),
    (b"segment1.kind = rotate\nsegment1.duration = 4\xff\nsegment1.alpha_half_turns = 1\n",
     "not UTF-8 text ('utf-8' codec can't decode byte 0xff in position 44"),
    ("theta0 = 4\nsegment1.kind = rotate\nsegment1.duration = 4\n"
     "segment1.alpha_half_turns = 1\n", "theta0 must be in [0, pi], got 4.0"),
    ("segment1.kind = rotate\nsegment1.duration = 4\nsegment1.alpha_half_turns = 1\n"
     "segment1.lambda_to = 0.5\n", "segment1: a rotate segment takes no lambda_to"),
    ("segment1.kind = ramp\nsegment1.duration = 4\nsegment1.lambda_to = 0\n"
     "segment1.phi_turns = 1\n", "segment1: a ramp segment takes no phi_turns"),
    # an error that the segment itself raises names its number
    (_ROTATION + "segment2.kind = rotate\nsegment2.duration = 4\nsegment2.lambda_to = 0.5\n",
     "segment2: a rotate segment takes no lambda_to (a ramp does)"),
    (_ROTATION + "segment2.kind = hold\nsegment2.duration = 1\nsegment2.shape = welch\n",
     "segment2: unknown pulse shape 'welch'"),
    (_ROTATION + "segment2.kind = hold\nsegment2.duration = inf\n",
     "segment2: segment duration must be finite and positive, got inf"),
    (_ROTATION + "segment2.kind = ramp\nsegment2.duration = 2\nsegment2.lambda_to = nan\n",
     "segment2: lambda_to must be finite, got nan"),
    (_ROTATION + "segment2.kind = ramp\nsegment2.duration = 2\n",
     "segment2: ramp segment needs lambda_to"),
], ids=["non-numeric", "unknown-shape", "open-cycle", "nan-duration", "zero-field",
        "open-overflow", "fractional-turns", "non-numeric-scalar", "misspelt-shape",
        "misspelt-turns", "not-utf8", "theta0-above-pi", "rotate-lambda-to",
        "ramp-phi-turns", "segment2-rotate-lambda-to", "segment2-unknown-shape",
        "segment2-inf-duration", "segment2-nan-lambda-to", "segment2-ramp-no-target"])
def test_cli_cycle_rejects_bad_schedule(text, named, tmp_path, capsys):
    # one error line, naming the file once and the offending key or condition
    sched = tmp_path / "bad.sched"
    if isinstance(text, bytes):
        sched.write_bytes(text)
    else:
        sched.write_text(text)
    out = tmp_path / "x.json"
    code = main(["cycle", "--schedule", str(sched), "--spin", "2", "--m", "0",
                 "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {sched}: ") and err.count(str(sched)) == 1
    assert named in err
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


def test_cli_magic_rejects_nan_eta(tmp_path, capsys):
    # the message names eta, the bad value, not a lambda derived from it
    out = tmp_path / "magic.csv"
    code = main(["magic", "--spin", "2", "--eta-min", "nan", "--eta-max", "0.3", "--n", "2",
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "error: |eta| <= 0.5 required, got nan\n"
    assert not out.exists()


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


# the runs whose step bound is above 2**52 name their coupling, as an overflow does
_STEP_BOUND_CONTEXT = {
    ("entangle", "--lambda0", "1e200", "--T", "2"): "the cycle at lambda0=1e+200",
    ("ramp", "--m", "1", "--lambda0", "1e200", "--T", "2"): "the ramp to lambda0=1e+200",
    ("ramp", "--m", "0", "--lambda0", "1e200", "--T", "2"): "the ramp to lambda0=1e+200",
    ("ramp", "--m", "-1", "--lambda0", "1e20", "--T", "2"): "the ramp to lambda0=1e+20",
}


# grid bounds that are infinite, or whose span overflows, name both flags
_GRID_BOUND_ERRORS = {
    ("spectrum", "--lambda-max", "inf"): "--lambda-min and --lambda-max must span a "
                                         "finite interval, got 0.0 and inf",
    ("spectrum", "--lambda-min=-inf"): "--lambda-min and --lambda-max must span a "
                                       "finite interval, got -inf and 2.0",
    ("spectrum", "--lambda-min=-1e308", "--lambda-max", "1e308"):
        "--lambda-min and --lambda-max must span a finite interval, got -1e+308 and 1e+308",
    ("transverse", "--lambda-max", "inf"): "--lambda-min and --lambda-max must span a "
                                           "finite interval, got 0.7 and inf",
    ("transverse", "--lambda-min=-inf"): "--lambda-min and --lambda-max must span a "
                                         "finite interval, got -inf and 1.2",
    ("transverse", "--lambda-min=-1e308", "--lambda-max", "1e308"):
        "--lambda-min and --lambda-max must span a finite interval, got -1e+308 and 1e+308",
    ("magic", "--spin", "2", "--eta-max", "inf"): "--eta-min and --eta-max must span a "
                                                  "finite interval, got 0.0 and inf",
    ("magic", "--spin", "2", "--eta-min=-inf"): "--eta-min and --eta-max must span a "
                                                "finite interval, got -inf and 0.5",
    ("magic", "--spin", "2", "--eta-min=-1e308", "--eta-max", "1e308"):
        "--eta-min and --eta-max must span a finite interval, got -1e+308 and 1e+308",
    # finite, but twice lambda times a row sum of |Sigma_x^2| overflows at spin 2
    ("spectrum", "--lambda-min", "1e308", "--lambda-max", "1.7e308"):
        "--lambda-min and --lambda-max must lie within +-1.65e+307 at spin 2, "
        "got 1e+308 and 1.7e+308",
    ("transverse", "--lambda-min", "1e308", "--lambda-max", "1.7e308"):
        "--lambda-min and --lambda-max must lie within +-1.65e+307 at spin 2, "
        "got 1e+308 and 1.7e+308",
}


@pytest.mark.parametrize("argv", [
    ["cycle", "--steps", "0"],
    ["cycle", "--steps", "-3"],
    ["entangle", "--steps", "0"],
    ["entangle", "--steps", "-3"],
    ["entangle", "--tune", "-1"],
    ["entangle", "--tune", "abc"],
    ["entangle", "--T", "0", "--tune", "auto"],
    ["ramp", "--T", "inf"],
    ["ramp", "--T", "nan"],
    ["entangle", "--T", "inf"],
    ["entangle", "--T", "nan", "--tune", "auto"],
    ["entangle", "--lambda0", "nan"],
    ["entangle", "--lambda0", "nan", "--tune", "auto"],
    ["ramp", "--lambda0", "inf", "--T", "5"],
    ["ramp", "--T", "5", "--m", "inf"],
    ["ramp", "--T", "5", "--m", "nan"],
    ["gauge-sphere", "--m", "inf"],
    ["gauge-sphere", "--m", "nan"],
    ["magic", "--spin", "3"],
    ["magic", "--spin", "3/2"],
    ["ramp", "--T", "1e16"],  # first allocation 1.73 EiB: fails at once
    ["entangle", "--T", "1e16"],  # 6.94 EiB
    ["entangle", "--lambda0", "1e200", "--T", "2"],  # step bound ~1.6e199
    ["ramp", "--m", "1", "--lambda0", "1e200", "--T", "2"],
    ["cycle", "--schedule", "overflow.sched", "--m", "1"],
    ["ramp", "--m", "0", "--lambda0", "1e200", "--T", "2"],  # step bound ~2.2e199
    ["ramp", "--m", "-1", "--lambda0", "1e20", "--T", "2"],  # step bound ~1.6e19
    *map(list, _GRID_BOUND_ERRORS),
])
def test_cli_rejects_bad_steps_and_stretch(argv, tmp_path, capsys):
    context = _STEP_BOUND_CONTEXT.get(tuple(argv))
    grid_error = _GRID_BOUND_ERRORS.get(tuple(argv))
    sched = tmp_path / "alpha.sched"
    sched.write_text("lambda0 = 1.0\n"
                     "segment1.kind = rotate\n"
                     "segment1.duration = 4\n"
                     "segment1.alpha_half_turns = 1\n")
    (tmp_path / "overflow.sched").write_text("segment1.kind = ramp\n"
                                             "segment1.duration = 2\n"
                                             "segment1.lambda_to = 1e200\n")
    argv = [str(tmp_path / a) if a.endswith(".sched") else a for a in argv]
    required = {"cycle": ["--schedule", str(sched), "--spin", "2", "--m", "0"],
                "entangle": ["--lambda0", "-0.97"],
                "ramp": ["--spin", "2", "--m", "0", "--lambda0", "1"],
                "gauge-sphere": ["--spin", "2", "--n", "3"],
                "magic": ["--n", "2"],
                "spectrum": ["--spin", "2", "--n", "3"],
                "transverse": ["--spin", "2", "--m", "0", "--n", "3"]}[argv[0]]
    out = tmp_path / "out.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would write more than the error line
        code = main([argv[0], *required, *argv[1:], "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists() or out.read_text() == ""
    if context is not None:
        assert err.startswith(f"error: {context} overflows the step arithmetic (the step bound")
    if "abc" in argv:
        assert err == "error: --tune must be a number, got 'abc'\n"
    if grid_error is not None:
        assert err == f"error: {grid_error}\n"


@pytest.mark.parametrize("argv", [
    ["spectrum", "--spin", "2", "--n", "0"],
    ["gauge-sphere", "--spin", "2", "--m", "0", "--n", "-1"],
    ["magic", "--spin", "2", "--n", "0"],
    ["transverse", "--spin", "2", "--m", "0", "--n", "0"],
    ["ramp", "--spin", "2", "--m", "0", "--lambda0", "1", "--T", ","],
    ["spectrum", "--spin", "1/0"],
    ["spectrum", "--spin", "inf"],
    ["spectrum", "--spin", "2/inf"],
    ["spectrum", "--spin", "nan/2"],
])
def test_cli_rejects_empty_grids(argv, tmp_path, capsys):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--out", str(out)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {argv[-2]}:" in err and "Traceback" not in err
    assert not out.exists()


def test_count_stops_at_the_step_ceiling():
    # a grid may hold as many points as a run may take steps, and no more
    import argparse

    from spinberry import cli
    assert cli._count("1") == 1 and cli._count("1000000") == 1_000_000
    with pytest.raises(argparse.ArgumentTypeError,
                       match="^must be at most 1,000,000, got 1000001$"):
        cli._count("1000001")


@pytest.mark.parametrize("argv", [
    ["spectrum", "--spin", "2"],
    ["gauge-sphere", "--spin", "2", "--m", "0"],
    ["magic", "--spin", "2"],
    ["transverse", "--spin", "2", "--m", "0"],
])
def test_cli_rejects_a_huge_grid_before_allocating_it(argv, tmp_path, capsys):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--n", "1000000000000000", "--out", str(out)])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: argument --n: must be at most 1,000,000, got 1000000000000000\n")
    assert not out.exists()


def test_cli_entangle_short(tmp_path):
    out = tmp_path / "ent.json"
    code = main(["entangle", "--lambda0", "0.0", "--T", "2.0",
                 "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert float(data["delta_beta_closed_form"]) == 0.0
    assert len(data["final_amplitudes_re_im"]) == 16


def test_cli_entangle_leakage_exit_code(tmp_path, capsys):
    # a too-fast cycle violates the sector-leakage contract -> exit 1, with
    # one line carrying the leakage and the bound, and no warning
    out = tmp_path / "fast.json"
    code = main(["entangle", "--lambda0", "-0.97", "--T", "3.0",
                 "--out", str(out)])
    assert code == 1
    leakage = float(json.loads(out.read_text())["sector_leakage"])
    assert leakage > 1e-3
    assert capsys.readouterr().err == ("adiabaticity contract failed: sector "
                                       f"leakage {leakage:.2e} exceeds 1e-3\n")


def test_cli_cycle_leakage_exit_code(tmp_path, capsys):
    # a 4-unit alpha cycle leaks past the 0.01 contract -> exit 1
    sched = tmp_path / "fast.sched"
    sched.write_text("lambda0 = 1.0\n"
                     "segment1.kind = rotate\n"
                     "segment1.duration = 4\n"
                     "segment1.alpha_half_turns = 2\n")
    code = main(["cycle", "--schedule", str(sched), "--spin", "2", "--m", "0",
                 "--out", str(tmp_path / "fast.json")])
    assert code == 1
    # the worse of the cycle (0.220) and its image (0.059)
    assert capsys.readouterr().err == ("adiabaticity contract failed: leakage "
                                       "2.20e-01 exceeds 0.01\n")


@pytest.mark.parametrize("command", ["cycle", "entangle"])
def test_cli_bundles_take_no_format(command, capsys):
    # the scalar bundles write JSON only: --format is not theirs to ignore
    with pytest.raises(SystemExit) as exit_info:
        main([command, *_COMMAND_ARGS[command], "--format", "csv"])
    assert exit_info.value.code == 2
    assert "error: unrecognized arguments: --format csv" in capsys.readouterr().err


def test_cli_json_format(tmp_path):
    code, text = run_cli(["spectrum", "--spin", "1", "--n", "3",
                          "--format", "json"], tmp_path, "spec.json")
    assert code == 0
    data = json.loads(text)
    assert data["columns"][0] == "lambda"
    assert len(data["rows"]) == 3


def test_cli_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "spinberry.cli", "--version"],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert "spinberry" in proc.stdout


def test_cli_builds_each_parser_once_per_command_per_process(tmp_path, capsys, monkeypatch):
    # a valid call builds no argparse parser: the command's table entry reads
    # it; --version, --help and errors build the whole parser (the top level
    # and one sub-parser per command), once per process; later calls exit as
    # the first did
    import argparse

    from spinberry import __version__, cli
    built, init = [], argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    cli._parser.cache_clear()
    outcomes = []
    try:
        for _ in range(2):
            outcome = [main(["spectrum", "--spin", "1", "--n", "2",
                             "--out", str(tmp_path / "s.csv")])]
            if not outcomes:
                assert built == []
            for argv in (["--version"], ["--help"], ["spectrum", "--spin", "1/0"]):
                with pytest.raises(SystemExit) as exit_info:
                    main(argv)
                outcome.append((exit_info.value.code, capsys.readouterr()))
            outcomes.append(outcome)
    finally:
        cli._parser.cache_clear()
    assert built == ["spinberry", *(f"spinberry {name}" for name in cli._COMMANDS)]
    assert outcomes[0] == outcomes[1]
    code, version, help_, error = outcomes[0]
    assert code == 0
    assert version == (0, (f"spinberry {__version__}\n", ""))
    assert help_[0] == 0 and help_[1].out.startswith("usage: spinberry")
    assert error[0] == 2 and "error: argument --spin: spin must be" in error[1].err


# A valid call of each command, not run: only parsed.
_COMMAND_ARGS = {
    "spectrum": ["--spin", "2", "--lambda-max", "1.5", "--n", "5"],
    "gauge-sphere": ["--spin", "3/2", "--m", "0.5", "--format", "json"],
    "magic": ["--spin", "2", "--eta-min", "0.1", "--eta-max", "0.3", "--n", "4"],
    "ramp": ["--spin", "2", "--m", "-1", "--lambda0", "1", "--shape", "linear",
             "--T", "10,25", "--steps", "300"],
    "transverse": ["--spin", "2", "--m", "0", "--lambda-min", "0.8", "--out", "tv.csv"],
    "cycle": ["--schedule", "cycle.sched", "--spin", "2", "--m", "0"],
    "entangle": ["--lambda0", "-0.97", "--T", "15", "--tune", "auto"],
}


def _exit_of(parse, argv, capsys):
    """(exit code, stdout, stderr) of ``parse(argv)``, which must exit."""
    with pytest.raises(SystemExit) as exit_info:
        parse(argv)
    out, err = capsys.readouterr()
    return exit_info.value.code, out, err


@pytest.mark.parametrize("command", list(_COMMAND_ARGS))
def test_command_parser_matches_the_whole_parsers_sub_parser(command, capsys):
    # main reads a valid command line from the command's table entry, as the
    # whole parser reads it; help and argparse errors (exit 2) are the whole
    # parser's own
    import argparse

    from spinberry import cli
    whole = cli.build_parser()
    sub_parsers = next(a for a in whole._actions
                       if isinstance(a, argparse._SubParsersAction))
    assert list(sub_parsers.choices) == list(_COMMAND_ARGS)
    argv = [command, *_COMMAND_ARGS[command]]
    assert vars(cli._read_table(argv)) == vars(whole.parse_args(argv))
    for trial in ([command, "--help"], [command], *(argv + bad for bad in (
            ["--spin", "1/0"], ["--lambda0", "x"], ["--n", "0"], ["--format", "xml"],
            ["--bogus"], ["--version"], ["--", "x"], ["--spin", "-1e-3"], ["--spin"],
            ["--format=xml"], ["--o"]))):
        expected = _exit_of(whole.parse_args, trial, capsys)
        assert expected[0] == (0 if trial[1:] == ["--help"] else 2)
        assert _exit_of(main, trial, capsys) == expected


# Values that argparse reads in different ways: as a value ("", "-" and
# negative numbers as it spells them, "-١" among them since \d is any
# decimal digit) or as a flag ("-1.", "-1e-3", "-inf", "-²", "--"); then a
# few plain ones.
_VALUES = ["", "-", "-3", "-.5", "-1.", "-1e-3", "-inf", "-١", "-²", "--", "-h",
               "- 1", "-3\n", "nan", "1e400", "x", "0", "1", "3/2", "1,2", "json", "auto"]


def _as_text(args):
    """A namespace as comparable text: NaN equals NaN, -0.0 differs from 0.0."""
    return repr(sorted(vars(args).items()))


@st.composite
def _command_lines(draw):
    """A command, often its valid call, then its flags (each with its value
    in that call, or one of _VALUES), misspelt flags and stray values."""
    from spinberry import cli
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    base = _COMMAND_ARGS[command]
    own = dict(zip(base[::2], base[1::2]))
    flags = [flag for flag, _ in cli._arguments(command)]
    variants = flags + [f"{flag}=1" for flag in flags] + [flag[:-1] for flag in flags] + [
        "--help", "--version", "--bogus", "-"]
    pairs = st.sampled_from(flags).flatmap(lambda flag: st.tuples(st.just(flag), st.one_of(
        st.just(own.get(flag, "1")), st.sampled_from(_VALUES))))
    tokens = st.one_of(*[pairs] * 6, st.tuples(st.sampled_from(variants)),
                       st.tuples(st.sampled_from(_VALUES)))
    argv = [command, *(base if draw(st.integers(0, 3)) else [])]
    return argv + [t for group in draw(st.lists(tokens, max_size=4)) for t in group]


@settings(max_examples=600, deadline=None)
@given(argv=_command_lines())
def test_table_reads_what_argparse_reads(argv):
    # wherever the table answers, argparse reads the same namespace and does
    # not exit; everywhere else main asks argparse
    import contextlib
    import io

    from spinberry import cli
    table = cli._read_table(argv)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            whole = cli._parser().parse_args(argv)
        except SystemExit:
            whole = None
    if table is not None:
        assert whole is not None and _as_text(table) == _as_text(whole)


def test_table_path_answers_for_values_argparse_takes():
    from spinberry import cli
    for value, read in (("-3", -3.0), ("-.5", -0.5), ("-١", -1.0), ("-0.97", -0.97)):
        args = cli._read_table(["entangle", "--lambda0", value])
        assert args is not None and args.lambda0 == read
    assert cli._read_table(["spectrum", "--spin", "2", "--out", "-"]).out == "-"
    assert cli._read_table(["spectrum", "--spin", "2", "--out", ""]).out == ""
    for value in ("-1.", "-1e-3", "-inf", "-²", "--", "-h"):
        assert cli._read_table(["entangle", "--lambda0", value]) is None


# The keywords of add_argument that the table path reads ("help" only renders).
_TABLE_KEYWORDS = {"type", "choices", "required", "default", "dest", "help"}


@pytest.mark.parametrize("command", list(_COMMAND_ARGS))
def test_every_flag_uses_only_what_the_table_reads(command):
    # a flag with nargs, action, const or another keyword would read argv in a
    # way that the table path does not; a typed flag with a string default
    # would have argparse convert that default, which the table does not
    from spinberry import cli
    for flag, kwargs in cli._arguments(command):
        assert flag.startswith("--") and set(kwargs) <= _TABLE_KEYWORDS, (flag, kwargs)
        assert not ("type" in kwargs and isinstance(kwargs.get("default"), str)), flag


def test_readme_commands_take_the_table_path():
    # each spinberry line of the README's command block is read by its
    # command's table entry, as the whole parser reads it
    import shlex

    from spinberry import cli
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = "spinberry " + readme.split("```\nspinberry ", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines()]
    assert [argv[0] for argv in commands] == list(cli._COMMANDS)
    for argv in commands:
        table = cli._read_table(argv)
        assert table is not None, argv
        assert vars(table) == vars(cli.build_parser().parse_args(argv))


def test_main_without_arguments_reads_the_command_line(tmp_path, monkeypatch):
    from spinberry import __version__
    out = tmp_path / "s.csv"
    monkeypatch.setattr(sys, "argv", ["spinberry", "spectrum", "--spin", "1", "--n", "2",
                                      "--out", str(out)])
    assert main() == 0
    assert out.read_text().startswith(f"# spinberry {__version__} spectrum\n")


def _child_env():
    """Environment whose PYTHONPATH finds the package this process imports."""
    import spinberry
    path = [str(Path(spinberry.__file__).resolve().parents[1]),
            os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


_SCIPY_FREE_CHILD = """\
import json, sys
def scipy_modules():
    return sorted(k for k in sys.modules if k.split(".")[0] == "scipy")
from spinberry import cli
after_import = scipy_modules()
out, sched = sys.argv[1], sys.argv[2]
codes = [cli.main(argv + ["--out", out]) for argv in (
    ["spectrum", "--spin", "2", "--n", "5"],
    ["gauge-sphere", "--spin", "2", "--m", "0", "--n", "9"],
    ["transverse", "--spin", "2", "--m", "0", "--n", "3"],
    ["ramp", "--spin", "2", "--m", "0", "--lambda0", "1", "--T", "2"],
    ["cycle", "--schedule", sched, "--spin", "2", "--m", "0"])]
print(json.dumps([after_import, codes, scipy_modules()]))
"""


def test_cli_start_up_and_scipy_free_commands_load_no_scipy(tmp_path):
    # of the commands, only magic and entangle --tune auto import scipy
    sched = tmp_path / "alpha.sched"
    sched.write_text("lambda0 = 1.0\n"
                     "segment1.kind = rotate\n"
                     "segment1.duration = 80\n"
                     "segment1.alpha_half_turns = 1\n")
    proc = subprocess.run([sys.executable, "-c", _SCIPY_FREE_CHILD,
                           str(tmp_path / "out"), str(sched)],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    after_import, codes, after_commands = json.loads(proc.stdout)
    assert after_import == []
    assert codes == [0] * 5
    assert after_commands == []


@pytest.mark.parametrize("argv", [
    ["cycle", "--spin", "2", "--m", "0"],
    ["ramp", "--spin", "2", "--m", "-1", "--lambda0", "1", "--shape", "blackman",
     "--T", "10,25,40"],
], ids=["cycle", "ramp"])
def test_readme_output_unchanged_under_scipy_simpson(argv, tmp_path, monkeypatch):
    # README commands print the same bytes with scipy's Simpson rule in
    # place of the private one
    from scipy.integrate import simpson

    from spinberry import berry, dynamics, nonadiabatic
    sched = tmp_path / "cycle.sched"
    sched.write_text(SCHEDULE_TEXT)
    if argv[0] == "cycle":
        argv = [*argv, "--schedule", str(sched)]
    code, private = run_cli(argv, tmp_path, "private.out")
    assert code == 0
    for module in (berry, dynamics, nonadiabatic):
        monkeypatch.setattr(module, "_simpson",
                            lambda y, ts: float(simpson(y, x=ts)))
    code, reference = run_cli(argv, tmp_path, "scipy.out")
    assert code == 0
    assert private == reference


def test_readme_library_quick_start():
    # the README's "Library quick start" block, run statement by statement:
    # every "# -> value" comment holds to its printed digits ("..." marks a
    # truncated value, and pi is held to 1e-14)
    import ast
    import math
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    lines, namespace, checked = block.splitlines(), {}, []
    for node in ast.parse(block).body:
        source = ast.get_source_segment(block, node)
        comment = lines[node.end_lineno - 1].partition("# -> ")[2].strip()
        if not comment:
            exec(source, namespace)
            continue
        got = np.atleast_1d(eval(source, namespace))
        for value, text in zip(got, comment.split(", "), strict=True):
            if text == "pi":
                assert abs(value - math.pi) < 1e-14
            elif text.endswith("..."):
                assert repr(float(value)).startswith(text[:-3]), (value, text)
            else:
                assert round(float(value), len(text.partition(".")[2])) == float(text)
            checked.append(text)
    assert checked == ["2.0", "1.0", "pi", "0.838213...", "0.999999993"]


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


_LOGGING_CHILD = """\
import logging, sys
if sys.argv[1] == "debug":
    logging.basicConfig(level=logging.DEBUG)
from spinberry.cli import main
sys.exit(main(["entangle", "--lambda0", "-0.97", "--T", "15", "--tune", "auto"]))
"""


def test_cli_output_unchanged_by_tuner_logging():
    # the tuner's DEBUG records stay silent unless logging is configured, and
    # configuring it sends them to stderr only
    plain, debug = (subprocess.run([sys.executable, "-c", _LOGGING_CHILD, mode],
                                   capture_output=True, text=True, env=_child_env())
                    for mode in ("plain", "debug"))
    assert plain.returncode == debug.returncode == 0
    assert plain.stderr == ""
    assert "objective evaluations" in debug.stderr
    assert "DEBUG:spinberry.dynamics:_run_propagator: 1 runs of" in debug.stderr
    assert plain.stdout == debug.stdout
    assert json.loads(plain.stdout)["command"] == "entangle"


@pytest.mark.parametrize("column", ["t", "theta", "phi", "alpha", "lam", "b"])
def test_table_rejects_non_finite_samples(column):
    t = np.linspace(0.0, 10.0, 21)
    table = {"t": t, "theta": np.full_like(t, 0.4), "phi": np.zeros_like(t),
             "alpha": np.pi * t / 10, "lam": np.full_like(t, 0.5),
             "b": np.ones_like(t), "n_alpha": 1}
    from_table(**table).validate()
    table[column] = table[column].copy()
    table[column][7] = np.nan
    name = "lambda" if column == "lam" else column
    with pytest.raises(ScheduleError, match=f"^{name} table has a non-finite sample"):
        from_table(**table)


@pytest.mark.parametrize("field", [0.0, -1.0])
def test_table_rejects_a_field_that_is_not_positive(field):
    # a zero field would run and report a total phase of pi n_alpha
    t = np.linspace(0.0, 10.0, 21)
    b = np.ones_like(t)
    b[3:] = field
    with pytest.raises(ScheduleError, match="^b table must be positive"):
        from_table(t, theta=np.zeros_like(t), phi=np.zeros_like(t),
                   alpha=np.pi * t / 10, lam=np.full_like(t, 0.5), b=b, n_alpha=1)
