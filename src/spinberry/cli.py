"""Command-line interface emitting machine-readable curve and cycle data.

Curve commands write CSV (or JSON with --format json) with a comment
header naming the units; scalar-bundle commands (cycle, entangle) write
JSON.  Exit status is nonzero on validation failures and on adiabaticity
contract violations (excess leakage).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .berry import berry_phase_adiabatic, gauge_field_sphere
from .dynamics import STEPS_PER_UNIT, mirror_phase_difference, ramp_fidelity
from .entangle import entangling_cycle, tune_stage_stretch
from .hamiltonian import _spectra
from .nonadiabatic import (_GAP_WARN, NearDegeneracyError, NoRootError, cxy_coefficient,
                           delta_p, magic_lambda, magic_lambda_fit, p2_coefficient,
                           transverse_second_order)
from .schedules import ScheduleError, from_file
from .spin_algebra import spin_matrices

_HEADER_UNITS = "time in 1/(gamma_S*B0); phases in radians; energies reduced"
_STEPS_HELP = (f"integration steps per run (default: {STEPS_PER_UNIT} per "
              f"unit time; raise it for large spins or couplings)")


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.15g}"


def _parse_spin(text: str) -> int:
    """Spin value like '2', '0.5' or '3/2' -> doubled spin integer."""
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        value = float(num) / float(den)
    else:
        value = float(text)
    two_s = round(2 * value)
    if two_s < 0 or abs(2 * value - two_s) > 1e-9:
        raise argparse.ArgumentTypeError(
            f"spin must be a non-negative integer or half-integer, got {text!r}")
    return int(two_s)


def _open_out(path):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w", encoding="utf-8"), True


def _write_table(args, command, columns, rows, meta=()):
    out, close = _open_out(args.out)
    try:
        if args.format == "json":
            payload = {"tool": f"spinberry {__version__}", "command": command,
                       "units": _HEADER_UNITS}
            payload.update({k: v for k, v in meta})
            payload["columns"] = list(columns)
            payload["rows"] = [[_fmt(v) for v in row] for row in rows]
            json.dump(payload, out, indent=2)
            out.write("\n")
        else:
            out.write(f"# spinberry {__version__} {command}\n")
            out.write(f"# {_HEADER_UNITS}\n")
            for k, v in meta:
                out.write(f"# {k}={v}\n")
            out.write(",".join(columns) + "\n")
            for row in rows:
                out.write(",".join(_fmt(v) for v in row) + "\n")
    finally:
        if close:
            out.close()


def _write_json(args, payload):
    out, close = _open_out(args.out)
    try:
        payload = {"tool": f"spinberry {__version__}",
                   "units": _HEADER_UNITS, **payload}
        json.dump(payload, out, indent=2, default=_fmt)
        out.write("\n")
    finally:
        if close:
            out.close()


def cmd_spectrum(args) -> int:
    rep = spin_matrices(args.spin)
    lams = np.linspace(args.lambda_min, args.lambda_max, args.n_points)
    mlabels = rep.m_values
    columns = (["lambda"] + [f"E_m{_label(m)}" for m in mlabels]
               + [f"p_m{_label(m)}" for m in mlabels])
    energies, vectors = _spectra(rep, lams)
    pols = np.sum(mlabels[:, None] * vectors * vectors, axis=-2)
    rows = [[lam, *e, *p] for lam, e, p in zip(lams, energies, pols)]
    _write_table(args, "spectrum", columns, rows,
                 meta=[("spin", _fmt(rep.s)), ("n_points", args.n_points)])
    return 0


def _label(m: float) -> str:
    text = f"{int(m)}" if float(m).is_integer() else f"{int(round(2 * m))}over2"
    return text.replace("-", "m")


def cmd_gauge_sphere(args) -> int:
    rep = spin_matrices(args.spin)
    thetas = np.linspace(0.0, np.pi, args.n_points + 2)[1:-1]
    rows = [[th, gauge_field_sphere(rep, args.m, th)] for th in thetas]
    _write_table(args, "gauge-sphere", ["theta_tilde", "A_alpha"], rows,
                 meta=[("spin", _fmt(rep.s)), ("m", _fmt(args.m))])
    return 0


def cmd_magic(args) -> int:
    rep = spin_matrices(args.spin)
    if args.spin not in (4, 8):
        raise ValueError("magic fits are tabulated for spin 2 and 4 only")
    etas = np.linspace(args.eta_min, args.eta_max, args.n_points)
    rows = []
    for eta in etas:
        root = magic_lambda(rep, eta)
        fit = magic_lambda_fit(rep.two_s, eta)
        rows.append([eta, root, fit, abs(delta_p(rep, 0.0, fit, eta))])
    _write_table(args, "magic", ["eta", "lambda_star", "fit", "abs_dp_at_fit"],
                 rows, meta=[("spin", _fmt(rep.s))])
    return 0


def cmd_ramp(args) -> int:
    rep = spin_matrices(args.spin)
    rows = []
    for T in args.T:
        res = ramp_fidelity(rep, args.m, args.lambda0, T, shape=args.shape,
                            steps=args.steps)
        rows.append([T, res.sz_final, res.deviation])
    _write_table(args, "ramp", ["gamma_B_T", "sz_final", "deviation"], rows,
                 meta=[("spin", _fmt(rep.s)), ("m", _fmt(args.m)),
                       ("lambda0", _fmt(args.lambda0)), ("shape", args.shape)])
    return 0


def cmd_transverse(args) -> int:
    rep = spin_matrices(args.spin)
    lams = np.linspace(args.lambda_min, args.lambda_max, args.n_points)
    rows = [[lam, p2_coefficient(rep, args.m, lam),
             cxy_coefficient(rep, args.m, lam)] for lam in lams]
    for lam in lams:
        shift = transverse_second_order(rep, args.m, lam)
        if shift.large_correction:
            print(f"warning: opposite-parity gap {shift.min_gap:.2e} below "
                  f"{_GAP_WARN:.0e} at lambda={lam}; outside perturbation theory",
                  file=sys.stderr)
    _write_table(args, "transverse", ["lambda", "p2", "c_xy"], rows,
                 meta=[("spin", _fmt(rep.s)), ("m", _fmt(args.m))])
    return 0


def cmd_cycle(args) -> int:
    rep = spin_matrices(args.spin)
    schedule = from_file(args.schedule)
    schedule.validate()
    quad = berry_phase_adiabatic(rep, args.m, schedule)
    mirror = mirror_phase_difference(rep, args.m, schedule, steps=args.steps)
    payload = {
        "command": "cycle",
        "spin": _fmt(rep.s),
        "m": _fmt(args.m),
        "adiabatic_beta": _fmt(quad.value),
        "adiabatic_beta_mod_2pi": _fmt(quad.mod_2pi),
        "winding_phase": _fmt(quad.winding_phase),
        "mirror_extracted_beta": _fmt(mirror.extracted_phase),
        "dynamical_phase": _fmt(mirror.forward.dynamical_phase),
        "leakage": _fmt(mirror.forward.leakage),
        "norm_drift": _fmt(mirror.forward.norm_drift),
    }
    _write_json(args, payload)
    if mirror.forward.leakage > 0.01 or mirror.mirrored.leakage > 0.01:
        print("adiabaticity contract failed: leakage exceeds 0.01",
              file=sys.stderr)
        return 1
    return 0


def cmd_entangle(args) -> int:
    if args.tune == "auto":
        stretch = tune_stage_stretch(args.lambda0, args.T)
    else:
        stretch = float(args.tune)
    res = entangling_cycle(args.lambda0, stage_duration=args.T,
                           steps=args.steps, tune_factor=stretch)
    amplitudes = [[_fmt(a.real), _fmt(a.imag)]
                  for a in res.final_state.amplitudes]
    payload = {
        "command": "entangle",
        "lambda0": _fmt(res.lambda0),
        "stage_duration": _fmt(res.stage_duration),
        "stage_stretch": _fmt(res.stage_stretch),
        "delta_beta_closed_form": _fmt(res.delta_beta_closed_form),
        "delta_beta_measured": _fmt(res.delta_beta_measured),
        "fidelity": _fmt(res.fidelity),
        "sector_leakage": _fmt(res.sector_leakage),
        "final_amplitudes_re_im": amplitudes,
    }
    _write_json(args, payload)
    if res.sector_leakage > 1e-3:
        print("adiabaticity contract failed: sector leakage exceeds 1e-3",
              file=sys.stderr)
        return 1
    return 0


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinberry",
        description="Adiabatic spin cycles: spectra, geometric phases, "
                    "non-adiabatic corrections and four-spin entanglement.")
    parser.add_argument("--version", action="version",
                        version=f"spinberry {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", default="-", help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("spectrum", help="energies and polarizations vs lambda")
    p.add_argument("--spin", type=_parse_spin, required=True)
    p.add_argument("--lambda-min", type=float, default=0.0)
    p.add_argument("--lambda-max", type=float, default=2.0)
    p.add_argument("--n", dest="n_points", type=int, default=81)
    add_common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("gauge-sphere", help="gauge field on the spherical section")
    p.add_argument("--spin", type=_parse_spin, required=True)
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--n", dest="n_points", type=int, default=181)
    add_common(p)
    p.set_defaults(func=cmd_gauge_sphere)

    p = sub.add_parser("magic", help="magic coupling vs rotation-rate ratio")
    p.add_argument("--spin", type=_parse_spin, required=True)
    p.add_argument("--eta-min", type=float, default=0.0)
    p.add_argument("--eta-max", type=float, default=0.5)
    p.add_argument("--n", dest="n_points", type=int, default=11)
    add_common(p)
    p.set_defaults(func=cmd_magic)

    p = sub.add_parser("ramp", help="coupling-ramp fidelity vs ramp time")
    p.add_argument("--spin", type=_parse_spin, required=True)
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--lambda0", type=float, required=True)
    p.add_argument("--shape", choices=("linear", "blackman"), default="blackman")
    p.add_argument("--T", type=_float_list, required=True,
                   help="comma-separated ramp durations")
    p.add_argument("--steps", type=int, default=None, help=_STEPS_HELP)
    add_common(p)
    p.set_defaults(func=cmd_ramp)

    p = sub.add_parser("transverse", help="second-order transverse coefficients")
    p.add_argument("--spin", type=_parse_spin, required=True)
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--lambda-min", type=float, default=0.7)
    p.add_argument("--lambda-max", type=float, default=1.2)
    p.add_argument("--n", dest="n_points", type=int, default=26)
    add_common(p)
    p.set_defaults(func=cmd_transverse)

    p = sub.add_parser("cycle", help="geometric phase of a schedule file")
    p.add_argument("--schedule", required=True, help="schedule file path")
    p.add_argument("--spin", type=_parse_spin, required=True)
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--steps", type=int, default=None, help=_STEPS_HELP)
    add_common(p)
    p.set_defaults(func=cmd_cycle)

    p = sub.add_parser("entangle", help="four-spin entangling cycle")
    p.add_argument("--lambda0", type=float, required=True)
    p.add_argument("--T", type=float, default=25.0, help="stage duration")
    p.add_argument("--steps", type=int, default=None, help=_STEPS_HELP)
    p.add_argument("--tune", default="1.0",
                   help="ramp-stretch factor, or 'auto' to optimize")
    add_common(p)
    p.set_defaults(func=cmd_entangle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScheduleError, ValueError, OSError, NearDegeneracyError,
            NoRootError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
