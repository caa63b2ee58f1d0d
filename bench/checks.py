"""Output checks made apart from the program.

Every expected value is computed here from the command's own inputs: the
spin matrices come from the ladder formulas, spectra from
``numpy.linalg.eigh`` with each parity block labelled by rank, and the
dynamics from ``scipy.integrate.solve_ivp``.  Nothing is compared against
a stored copy of an earlier output.  ``check(argv, text, meta)`` returns
the list of failures; an empty list means the output is right.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
from scipy.integrate import solve_ivp


# -- independent spin algebra ---------------------------------------------------

def spin_ops(two_s: int):
    """(Sx, Sy, Sz, m) in the |S, m> basis ordered by descending m."""
    s = two_s / 2.0
    m = s - np.arange(two_s + 1)
    raising = np.zeros((two_s + 1, two_s + 1))
    for i in range(1, two_s + 1):
        raising[i - 1, i] = math.sqrt(s * (s + 1) - m[i] * (m[i] + 1))
    return (raising + raising.T) / 2, (raising - raising.T) / 2j, np.diag(m), m


def labelled_spectrum(two_s: int, lam: float):
    """Energies and eigenvectors of Sz + lam Sx^2, column i labelled m_i.

    Within a parity block (-1)^(S-m) the matrix is an unreduced Jacobi
    matrix for lam != 0, so its levels never cross and keep the order of
    their m at lam = 0: the k-th lowest eigenvalue belongs to the k-th
    lowest m of the block.
    """
    sx, _, sz, m = spin_ops(two_s)
    h = sz + lam * (sx @ sx)
    dim = two_s + 1
    energies = np.empty(dim)
    vectors = np.zeros((dim, dim))
    for parity in (0, 1):
        sel = np.arange(parity, dim, 2)
        w, v = np.linalg.eigh(h[np.ix_(sel, sel)])
        for k, i in enumerate(sel[::-1]):
            energies[i] = w[k]
            vectors[sel, i] = v[:, k]
    return energies, vectors, m


def energy(two_s: int, m: float, lam: float) -> float:
    e, _, ms = labelled_spectrum(two_s, lam)
    return float(e[_index(ms, m)])


def polarizations(two_s: int, lam: float) -> np.ndarray:
    _, v, m = labelled_spectrum(two_s, lam)
    return (m[:, None] * v * v).sum(axis=0)


def polarization(two_s: int, m: float, lam: float) -> float:
    return float(polarizations(two_s, lam)[_index(spin_ops(two_s)[3], m)])


def _index(ms, m) -> int:
    return int(np.flatnonzero(np.abs(ms - m) < 1e-9)[0])


def delta_p(two_s: int, m: float, lam: float, eta: float) -> float:
    plus = (1 + eta) * energy(two_s, m, lam / (1 + eta))
    minus = (1 - eta) * energy(two_s, m, lam / (1 - eta))
    return (plus - minus) / (2 * eta) - polarization(two_s, m, lam)


def transverse_terms(two_s: int, m: float, lam: float):
    """(E_perp2, C_xy) from the sums over opposite-parity levels."""
    sx, sy, _, ms = spin_ops(two_s)
    e, v, _ = labelled_spectrum(two_s, lam)
    i = _index(ms, m)
    sy_real = (sy / 1j).real
    e2, cxy = 0.0, 0.0
    for n in range(two_s + 1):
        if (n - i) % 2 == 0:
            continue
        gap = e[i] - e[n]
        x = v[:, n] @ sx @ v[:, i]
        y = v[:, n] @ sy_real @ v[:, i]
        e2 += 0.5 * (x * x + y * y) / gap
        cxy -= x * y / gap ** 2
    return float(e2), float(cxy)


def blackman_fraction(s):
    return (0.42 * s - 0.5 * np.sin(2 * np.pi * s) / (2 * np.pi)
            + 0.08 * np.sin(4 * np.pi * s) / (4 * np.pi)) / 0.42


def ramp_sz(two_s: int, m: float, lambda0: float, duration: float) -> float:
    """Final <Sz> of the Blackman ramp 0 -> lambda0, by DOP853 (rtol 1e-10)."""
    sx, _, sz, ms = spin_ops(two_s)
    i = _index(ms, m)
    sel = np.arange(i % 2, two_s + 1, 2)  # the ramp keeps the parity block
    z = sz[np.ix_(sel, sel)]
    x2 = (sx @ sx)[np.ix_(sel, sel)]
    psi0 = (sel == i).astype(complex)

    def rhs(t, psi):
        return -1j * ((z + lambda0 * blackman_fraction(t / duration) * x2) @ psi)

    sol = solve_ivp(rhs, (0.0, duration), psi0, method="DOP853",
                    rtol=1e-10, atol=1e-12)
    psi = sol.y[:, -1]
    return float(np.real(np.vdot(psi, z @ psi)))


def delta_beta_closed_form(lambda0: float) -> float:
    """Four-spin sector phase difference of a 3 pi alpha rotation at lambda0."""
    return 3 * np.pi * (2 / math.sqrt(9 * lambda0 ** 2 + 4)
                        - 2 / math.sqrt(lambda0 ** 2 + 4))


# -- output parsing -------------------------------------------------------------

def parse_table(text: str):
    """(columns, rows) of a CSV output; rows as float arrays."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    reader = list(csv.reader(io.StringIO("\n".join(lines))))
    columns = reader[0]
    rows = np.array([[float(x) for x in row] for row in reader[1:]])
    return columns, rows.reshape(len(reader) - 1, len(columns))


def _arg(argv, flag, cast=float):
    return cast(argv[argv.index(flag) + 1])


def _spin(text: str) -> int:
    num, _, den = text.partition("/")
    return round(2 * float(num) / (float(den) if den else 1.0))


def _label(m: float) -> str:
    text = f"{int(m)}" if float(m).is_integer() else f"{int(round(2 * m))}over2"
    return text.replace("-", "m")


def _close(failures, name, got, want, tol):
    got, want = np.asarray(got, float), np.asarray(want, float)
    if got.shape != want.shape:
        failures.append(f"{name}: shape {got.shape} != {want.shape}")
        return
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    if not err <= tol:
        failures.append(f"{name}: max error {err:.3e} > {tol:.0e}")


def _require(failures, ok, message):
    if not ok:
        failures.append(message)


# -- one check per command ------------------------------------------------------

def check_spectrum(argv, text, meta=None):
    failures = []
    two_s = _spin(_arg(argv, "--spin", str))
    lams = np.linspace(_arg(argv, "--lambda-min"), _arg(argv, "--lambda-max"),
                       _arg(argv, "--n", int))
    columns, rows = parse_table(text)
    ms = spin_ops(two_s)[3]
    want_cols = (["lambda"] + [f"E_m{_label(m)}" for m in ms]
                 + [f"p_m{_label(m)}" for m in ms])
    if columns != want_cols:
        return [f"spectrum columns {columns} != {want_cols}"]
    _close(failures, "lambda grid", rows[:, 0], lams, 1e-12)
    dim = two_s + 1
    energies, pols = rows[:, 1:1 + dim], rows[:, 1 + dim:]
    want_e = np.array([labelled_spectrum(two_s, lam)[0] for lam in lams])
    want_p = np.array([polarizations(two_s, lam) for lam in lams])
    _close(failures, "energies", energies, want_e, 1e-9)
    _close(failures, "polarizations", pols, want_p, 1e-9)
    _close(failures, "sum of polarizations", pols.sum(axis=1), 0.0 * lams, 1e-9)
    # reflection E(m, lam) = -E(-m, -lam): column m against column -m
    mirror = np.array([-labelled_spectrum(two_s, -lam)[0][::-1] for lam in lams])
    _close(failures, "reflection E(m,l) = -E(-m,-l)", energies, mirror, 1e-9)
    return failures


def check_gauge_sphere(argv, text, meta=None):
    failures = []
    two_s = _spin(_arg(argv, "--spin", str))
    m = _arg(argv, "--m")
    n = _arg(argv, "--n", int)
    columns, rows = parse_table(text)
    if columns != ["theta_tilde", "A_alpha"]:
        return [f"gauge-sphere columns {columns}"]
    thetas = np.linspace(0.0, np.pi, n + 2)[1:-1]
    _close(failures, "theta grid", rows[:, 0], thetas, 1e-12)
    if two_s not in (2, 4) or abs(m) != 1:
        return failures + [f"no closed form for spin {two_s / 2}, m = {m}"]
    # A_alpha(m = 1) = -1 + 1/sqrt(1 + c cot^2), c = 1 (S = 1) or 9 (S = 2);
    # the reflection p(-m, -lam) = -p(m, lam) gives A_alpha(-1) = -A_alpha(1).
    c = 1.0 if two_s == 2 else 9.0
    want = m * (-1.0 + 1.0 / np.sqrt(1.0 + c / np.tan(thetas) ** 2))
    _close(failures, "A_alpha closed form", rows[:, 1], want, 1e-9)
    return failures


def check_magic(argv, text, meta=None):
    failures = []
    two_s = _spin(_arg(argv, "--spin", str))
    etas = np.linspace(_arg(argv, "--eta-min"), _arg(argv, "--eta-max"),
                       _arg(argv, "--n", int))
    columns, rows = parse_table(text)
    if columns != ["eta", "lambda_star", "fit", "abs_dp_at_fit"]:
        return [f"magic columns {columns}"]
    _close(failures, "eta grid", rows[:, 0], etas, 1e-12)
    for eta, root, fit, dp_fit in rows:
        _require(failures, abs(delta_p(two_s, 0.0, root, eta)) <= 1e-9,
                 f"|Delta_p(0, lambda*={root}, eta={eta})| > 1e-9")
        # Delta_p(0, lambda, eta) is odd in lambda; the magic coupling is
        # the positive root.
        _require(failures, root > 0, f"lambda* = {root} is not positive")
        _close(failures, "abs_dp_at_fit", dp_fit,
               abs(delta_p(two_s, 0.0, fit, eta)), 1e-9)
        _require(failures, dp_fit <= 3e-7, f"abs_dp_at_fit {dp_fit:.2e} > 3e-7")
    return failures


def check_transverse(argv, text, meta=None):
    failures = []
    two_s = _spin(_arg(argv, "--spin", str))
    m = _arg(argv, "--m")
    lams = np.linspace(_arg(argv, "--lambda-min"), _arg(argv, "--lambda-max"),
                       _arg(argv, "--n", int))
    columns, rows = parse_table(text)
    if columns != ["lambda", "p2", "c_xy"]:
        return [f"transverse columns {columns}"]
    _close(failures, "lambda grid", rows[:, 0], lams, 1e-12)
    h = 1e-4
    for lam, p2, cxy in rows:
        e2, want_cxy = transverse_terms(two_s, m, lam)
        slope = (transverse_terms(two_s, m, lam + h)[0]
                 - transverse_terms(two_s, m, lam - h)[0]) / (2 * h)
        _close(failures, f"c_xy at {lam}", cxy, want_cxy, 1e-9)
        _close(failures, f"p2 at {lam}", p2, e2 + lam * slope, 1e-6)
    return failures


def check_ramp(argv, text, meta=None):
    failures = []
    two_s = _spin(_arg(argv, "--spin", str))
    m = _arg(argv, "--m")
    lambda0 = _arg(argv, "--lambda0")
    durations = [float(x) for x in _arg(argv, "--T", str).split(",")]
    columns, rows = parse_table(text)
    if columns != ["gamma_B_T", "sz_final", "deviation"]:
        return [f"ramp columns {columns}"]
    _close(failures, "ramp durations", rows[:, 0], durations, 1e-12)
    p_final = polarization(two_s, m, lambda0)
    for T, sz, dev in rows:
        _close(failures, f"sz_final at T={T} against DOP853", sz,
               ramp_sz(two_s, m, lambda0, T), 1e-6)
        _close(failures, f"sz_final - deviation at T={T}", sz - dev, p_final, 1e-9)
    return failures


def check_entangle(argv, text, meta=None):
    failures = []
    out = json.loads(text)
    lambda0 = float(out["lambda0"])
    _close(failures, "lambda0", lambda0, _arg(argv, "--lambda0"), 1e-13)
    closed = delta_beta_closed_form(lambda0)
    _close(failures, "delta_beta_closed_form", float(out["delta_beta_closed_form"]),
           closed, 1e-12)
    _require(failures, abs(closed + np.pi) < 1e-10,
             f"|delta_beta_closed + pi| = {abs(closed + np.pi):.2e} >= 1e-10")
    amps = np.array([complex(float(re), float(im))
                     for re, im in out["final_amplitudes_re_im"]])
    if amps.shape != (16,):
        return failures + [f"expected 16 amplitudes, got {amps.shape}"]
    one_flip = [1 << (3 - site) for site in range(4)]
    target = np.zeros(16)
    target[one_flip] = -0.5
    target[one_flip[0]] += 1.0
    fidelity = abs(np.vdot(target, amps)) ** 2
    leakage = max(0.0, 1.0 - float(np.sum(np.abs(amps[one_flip]) ** 2)))
    _close(failures, "fidelity from amplitudes", float(out["fidelity"]), fidelity, 1e-9)
    _close(failures, "sector leakage from amplitudes", float(out["sector_leakage"]),
           leakage, 1e-9)
    _require(failures, fidelity >= 0.99 and float(out["fidelity"]) >= 0.99,
             f"fidelity {out['fidelity']} < 0.99")
    _require(failures, leakage < 1e-3 and float(out["sector_leakage"]) < 1e-3,
             f"sector leakage {out['sector_leakage']} >= 1e-3")
    _close(failures, "one-flip amplitude moduli", np.abs(amps[one_flip]),
           np.full(4, 0.5), 1e-2)
    return failures


def check_cycle(argv, text, meta):
    failures = []
    out = json.loads(text)
    lambda0 = meta["lambda0"]
    beta = float(out["adiabatic_beta"])
    _close(failures, "adiabatic_beta closed form", beta,
           -(1 - 2 / math.sqrt(9 * lambda0 ** 2 + 4)) * np.pi, 1e-9)
    _close(failures, "winding_phase", float(out["winding_phase"]), -np.pi, 1e-12)
    leakage, drift = float(out["leakage"]), float(out["norm_drift"])
    _require(failures, leakage < 0.01, f"leakage {leakage:.2e} >= 0.01")
    _require(failures, drift < 1e-12, f"norm drift {drift:.2e} >= 1e-12")
    mirror = float(out["mirror_extracted_beta"])
    _require(failures, abs(mirror - beta) < 0.05,
             f"|mirror_extracted_beta - adiabatic_beta| = {abs(mirror - beta):.3f}"
             f" >= 0.05 rad")
    return failures


CHECKS = {
    "spectrum": check_spectrum,
    "gauge-sphere": check_gauge_sphere,
    "magic": check_magic,
    "transverse": check_transverse,
    "ramp": check_ramp,
    "entangle": check_entangle,
    "cycle": check_cycle,
}


def check(argv, text, meta=None) -> list[str]:
    """Failures of one command's output; a parse error is a failure too."""
    try:
        return CHECKS[argv[0]](argv, text, meta)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{argv[0]}: unreadable output ({type(exc).__name__}: {exc})"]
