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
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from . import __version__
from .berry import berry_phase_adiabatic, gauge_field_sphere
from .dynamics import (_LEAKAGE_BOUND, _MAX_STEPS, STEPS_PER_UNIT, LeakageWarning,
                       _StepBoundError, mirror_phase_difference, ramp_fidelity)
from .entangle import _SECTOR_LEAKAGE_BOUND, entangling_cycle, tune_stage_stretch
from .hamiltonian import _spectra
from .nonadiabatic import (_GAP_WARN, NearDegeneracyError, NoRootError, delta_p,
                           magic_lambda, magic_lambda_fit, transverse_second_order)
from .pulses import SHAPES
from .schedules import ScheduleError, _number, from_file
from .spin_algebra import spin_matrices

_HEADER_UNITS = "time in 1/(gamma_S*B0); phases in radians; energies reduced"
_STEPS_HELP = (f"integration steps per run, of equal width (default: "
              f"{STEPS_PER_UNIT} per unit time of each stage; raise it for "
              f"large spins or couplings)")


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.15g}"


def _parse_spin(text: str) -> int:
    """Spin value like '2', '0.5' or '3/2' -> doubled spin integer."""
    text = text.strip()
    num, slash, den = text.partition("/")
    num, den = float(num), float(den) if slash else 1.0
    value = num / den if den != 0.0 and np.isfinite(den) else np.nan
    two_s = round(2 * value) if np.isfinite(2 * value) else -1
    if two_s < 0 or abs(2 * value - two_s) > 1e-9:
        raise argparse.ArgumentTypeError(
            f"spin must be a non-negative integer or half-integer, got {text!r}")
    return int(two_s)


@contextmanager
def _output(path):
    """The output stream: stdout for None or "-", else the file, closed on exit."""
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as out:
            yield out


@contextmanager
def _no_leakage_warnings():
    """Silence :class:`LeakageWarning` in the block: the command checks the
    leakage itself and reports it on one line."""
    import warnings  # loaded with the package (dynamics): no import-time cost
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LeakageWarning)
        yield


@contextmanager
def _finite(what: str):
    """Raise on overflow and invalid operations in the block, and on a run
    whose step bound is above 2**52, as one ValueError naming ``what``: a
    NaN result is an error, not an output."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except (FloatingPointError, _StepBoundError) as exc:
        raise ValueError(f"{what} overflows the step arithmetic ({exc})") from None


def _write_table(args, command, columns, rows, meta=()):
    with _output(args.out) as out:
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


def _write_json(args, payload):
    with _output(args.out) as out:
        payload = {"tool": f"spinberry {__version__}",
                   "units": _HEADER_UNITS, **payload}
        json.dump(payload, out, indent=2)
        out.write("\n")


def _grid_points(args, name: str) -> np.ndarray:
    """``args.n_points`` points from --<name>-min to --<name>-max, once both
    bounds and their span are finite: numpy's linspace makes NaN points of a
    NaN or infinite one, which would fail later naming no flag."""
    low, high = getattr(args, f"{name}_min"), getattr(args, f"{name}_max")
    if not (np.isfinite(low) and np.isfinite(high) and np.isfinite(high - low)):
        raise ValueError(f"--{name}-min and --{name}-max must span a finite interval, "
                         f"got {low!r} and {high!r}")
    return np.linspace(low, high, args.n_points)


def _couplings(args, rep) -> np.ndarray:
    """The --lambda-min to --lambda-max grid, once |lambda| is small enough
    that sums and differences of two energies stay finite: an energy is at
    most |lambda| times the largest row sum of |Sigma_x^2| (plus S) from 0."""
    lams = _grid_points(args, "lambda")
    rows = float(np.abs(rep.sigma_x @ rep.sigma_x).sum(axis=1).max())
    limit = sys.float_info.max / (2.0 * rows) if rows else np.inf
    low, high = args.lambda_min, args.lambda_max
    if max(abs(low), abs(high)) > limit:
        raise ValueError(f"--lambda-min and --lambda-max must lie within +-{limit:.3g} "
                         f"at spin {_fmt(rep.s)}, got {low!r} and {high!r}")
    return lams


def cmd_spectrum(args) -> int:
    rep = spin_matrices(args.spin)
    lams = _couplings(args, rep)
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
    rows = zip(thetas, gauge_field_sphere(rep, args.m, thetas))
    _write_table(args, "gauge-sphere", ["theta_tilde", "A_alpha"], rows,
                 meta=[("spin", _fmt(rep.s)), ("m", _fmt(args.m))])
    return 0


def cmd_magic(args) -> int:
    rep = spin_matrices(args.spin)
    etas = _grid_points(args, "eta")
    rows = []
    for eta in etas:
        fit = magic_lambda_fit(rep.two_s, eta)
        root = magic_lambda(rep, eta)
        rows.append([eta, root, fit, abs(delta_p(rep, 0.0, fit, eta))])
    _write_table(args, "magic", ["eta", "lambda_star", "fit", "abs_dp_at_fit"],
                 rows, meta=[("spin", _fmt(rep.s))])
    return 0


def cmd_ramp(args) -> int:
    rep = spin_matrices(args.spin)
    rows = []
    with _finite(f"the ramp to lambda0={args.lambda0:g}"):
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
    lams = _couplings(args, rep)
    shifts = [transverse_second_order(rep, args.m, lam) for lam in lams]
    for lam, shift in zip(lams, shifts):
        if shift.large_correction:
            print(f"warning: opposite-parity gap {shift.min_gap:.2e} below "
                  f"{_GAP_WARN:.0e} at lambda={lam}; outside perturbation theory",
                  file=sys.stderr)
    rows = [[lam, shift.p2, shift.c_xy] for lam, shift in zip(lams, shifts)]
    _write_table(args, "transverse", ["lambda", "p2", "c_xy"], rows,
                 meta=[("spin", _fmt(rep.s)), ("m", _fmt(args.m))])
    return 0


def cmd_cycle(args) -> int:
    rep = spin_matrices(args.spin)
    schedule = from_file(args.schedule)  # whose errors name the file
    try:
        with _finite(f"the cycle of {args.schedule}"), _no_leakage_warnings():
            quad = berry_phase_adiabatic(rep, args.m, schedule)
            mirror = mirror_phase_difference(rep, args.m, schedule, steps=args.steps)
    except ScheduleError as exc:  # the cycle's boundary conditions
        raise ScheduleError(f"{args.schedule}: {exc}") from None
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
    leakage = np.max([mirror.forward.leakage, mirror.mirrored.leakage])  # NaN fails
    if not leakage <= _LEAKAGE_BOUND:
        print(f"adiabaticity contract failed: leakage {leakage:.2e} exceeds "
              f"{_LEAKAGE_BOUND}", file=sys.stderr)
        return 1
    return 0


def cmd_entangle(args) -> int:
    with _finite(f"the cycle at lambda0={args.lambda0:g}"), _no_leakage_warnings():
        stretch = (tune_stage_stretch(args.lambda0, args.T) if args.tune == "auto"
                   else _number("--tune", args.tune))
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
    if not res.sector_leakage <= _SECTOR_LEAKAGE_BOUND:
        bound = np.format_float_scientific(_SECTOR_LEAKAGE_BOUND, trim="-", exp_digits=1)
        print(f"adiabaticity contract failed: sector leakage {res.sector_leakage:.2e} "
              f"exceeds {bound}", file=sys.stderr)
        return 1
    return 0


def _float_list(text: str) -> list[float]:
    values = [float(x) for x in text.split(",") if x.strip()]
    if not values:
        raise argparse.ArgumentTypeError(f"expected at least one number, got {text!r}")
    return values


def _count(text: str) -> int:
    """A grid size: 1 to the _MAX_STEPS points that a run may step through."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    if value > _MAX_STEPS:
        raise argparse.ArgumentTypeError(f"must be at most {_MAX_STEPS:,}, got {value}")
    return value


_SPIN = ("--spin", dict(type=_parse_spin, required=True))
_M = ("--m", dict(type=float, required=True))
_STEPS = ("--steps", dict(type=int, default=None, help=_STEPS_HELP))
_COMMON = (("--out", dict(default="-", help="output path (default stdout)")),)
_FORMAT = ("--format", dict(choices=("csv", "json"), default="csv"))
_BUNDLES = ("cycle", "entangle")  # write JSON only, so take no --format

# Each command's help, handler and own arguments (--out follows, then
# --format for every command but the bundles).  A flag takes only the
# keywords that _read_table reads: type, choices, required, default, dest
# and help.
_COMMANDS = {
    "spectrum": ("energies and polarizations vs lambda", cmd_spectrum, (
        _SPIN, ("--lambda-min", dict(type=float, default=0.0)),
        ("--lambda-max", dict(type=float, default=2.0)),
        ("--n", dict(dest="n_points", type=_count, default=81)))),
    "gauge-sphere": ("gauge field on the spherical section", cmd_gauge_sphere, (
        _SPIN, _M, ("--n", dict(dest="n_points", type=_count, default=181)))),
    "magic": ("magic coupling vs rotation-rate ratio", cmd_magic, (
        _SPIN, ("--eta-min", dict(type=float, default=0.0)),
        ("--eta-max", dict(type=float, default=0.5)),
        ("--n", dict(dest="n_points", type=_count, default=11)))),
    "ramp": ("coupling-ramp fidelity vs ramp time", cmd_ramp, (
        _SPIN, _M, ("--lambda0", dict(type=float, required=True)),
        ("--shape", dict(choices=SHAPES, default="blackman")),
        ("--T", dict(type=_float_list, required=True,
                     help="comma-separated ramp durations")), _STEPS)),
    "transverse": ("second-order transverse coefficients", cmd_transverse, (
        _SPIN, _M, ("--lambda-min", dict(type=float, default=0.7)),
        ("--lambda-max", dict(type=float, default=1.2)),
        ("--n", dict(dest="n_points", type=_count, default=26)))),
    "cycle": ("geometric phase of a schedule file", cmd_cycle, (
        ("--schedule", dict(required=True, help="schedule file path")),
        _SPIN, _M, _STEPS)),
    "entangle": ("four-spin entangling cycle", cmd_entangle, (
        ("--lambda0", dict(type=float, required=True)),
        ("--T", dict(type=float, default=25.0, help="stage duration")), _STEPS,
        ("--tune", dict(default="1.0",
                        help="ramp-stretch factor, or 'auto' to optimize")))),
}


def _arguments(name):
    """``name``'s (flag, keywords) pairs: its own, then --out, then --format
    for every command but the bundles."""
    return _COMMANDS[name][2] + _COMMON + (() if name in _BUNDLES else (_FORMAT,))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinberry",
        description="Adiabatic spin cycles: spectra, geometric phases, "
                    "non-adiabatic corrections and four-spin entanglement.")
    parser.add_argument("--version", action="version",
                        version=f"spinberry {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, handler, _) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_)
        for flag, kwargs in _arguments(name):
            command.add_argument(flag, **kwargs)
        command.set_defaults(func=handler, command=name)
    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built once per process (no command mutates its args)."""
    return build_parser()


def _is_value(text: str) -> bool:
    r"""Whether argparse takes ``text`` after a flag as its value: a word not
    led by a dash, "-" itself, or a negative number as argparse spells one
    (^-\d+$|^-\d*\.\d+$, where \d is any decimal digit)."""
    if not text.startswith("-") or text == "-":
        return True
    digits, dot, fraction = text[1:].partition(".")
    if dot:
        return (not digits or digits.isdecimal()) and fraction.isdecimal()
    return digits.isdecimal()


def _read_table(argv):
    """build_parser's reading of ``<command> --flag value ...``, read from the
    command's _COMMANDS entry: exact flags, each value converted by its type
    and in its choices, every required flag given.  None for any argv that
    argparse reads otherwise or must answer (help, errors, abbreviations,
    --flag=value, a value that argparse takes for a flag)."""
    if not argv or argv[0] not in _COMMANDS or len(argv) % 2 == 0:
        return None
    arguments = dict(_arguments(argv[0]))
    given = {}
    for flag, text in zip(argv[1::2], argv[2::2]):
        kwargs = arguments.get(flag)
        if kwargs is None or not _is_value(text):
            return None
        try:
            value = kwargs["type"](text) if "type" in kwargs else text
        except (argparse.ArgumentTypeError, TypeError, ValueError):  # argparse words these
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        given[flag] = value
    if any(kwargs.get("required") and flag not in given
           for flag, kwargs in arguments.items()):
        return None
    return argparse.Namespace(func=_COMMANDS[argv[0]][1], command=argv[0], **{
        kwargs.get("dest", flag[2:].replace("-", "_")): given.get(flag, kwargs.get("default"))
        for flag, kwargs in arguments.items()})


def _parse(argv):
    """The table's reading of a well-formed command line; anything else goes
    to the whole parser, so that help, usage, errors and exit codes are
    argparse's."""
    args = _read_table(argv)
    return _parser().parse_args(argv) if args is None else args


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except (ScheduleError, ValueError, OSError, MemoryError,
            NearDegeneracyError, NoRootError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
