"""Tests of the benchmark itself.

    python3 bench/selftest.py

Every output check must reject a deliberately corrupted output, and a
command that exits nonzero must be counted as a failed operation and
never timed as a result.  Good outputs come from the command line at
small sizes, or, for the two slow commands (``entangle``, ``cycle``),
are built from their closed forms.
"""

from __future__ import annotations

import io
import json
import math
import os
import sys
import unittest
from contextlib import redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
from spinberry import cli  # noqa: E402


def cli_output(argv) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


def edit_table(text: str, edit) -> str:
    """Apply ``edit(columns, rows)`` to a CSV output and re-serialize it."""
    head = [ln for ln in text.splitlines() if ln.startswith("#")]
    columns, rows = checks.parse_table(text)
    rows = rows.copy()
    columns = list(columns)
    edit(columns, rows)
    body = [",".join(columns)] + [",".join(repr(float(x)) for x in row) for row in rows]
    return "\n".join(head + body) + "\n"


class CheckTestCase(unittest.TestCase):
    def assertPasses(self, argv, text, meta=None):
        self.assertEqual(checks.check(argv, text, meta), [])

    def assertRejects(self, argv, text, meta=None):
        self.assertNotEqual(checks.check(argv, text, meta), [])


class SpectrumChecks(CheckTestCase):
    ARGV = ["spectrum", "--spin", "5/2", "--lambda-min", "-0.7",
            "--lambda-max", "0.9", "--n", "3"]

    @classmethod
    def setUpClass(cls):
        cls.text = cli_output(cls.ARGV)

    def test_good_output_passes(self):
        self.assertPasses(self.ARGV, self.text)

    def test_energy_off_by_1e_6(self):
        def edit(cols, rows):
            rows[1, cols.index("E_m1over2")] += 1e-6
        self.assertRejects(self.ARGV, edit_table(self.text, edit))

    def test_two_level_labels_swapped(self):
        def edit(cols, rows):
            i, j = cols.index("E_m5over2"), cols.index("E_m1over2")
            cols[i], cols[j] = cols[j], cols[i]
            rows[:, [i, j]] = rows[:, [j, i]]
        self.assertRejects(self.ARGV, edit_table(self.text, edit))

    def test_energies_of_two_levels_swapped(self):
        def edit(cols, rows):
            i, j = cols.index("E_m3over2"), cols.index("E_mm1over2")
            rows[:, [i, j]] = rows[:, [j, i]]
        self.assertRejects(self.ARGV, edit_table(self.text, edit))

    def test_polarization_sign_flipped(self):
        def edit(cols, rows):
            rows[0, cols.index("p_m3over2")] *= -1
        self.assertRejects(self.ARGV, edit_table(self.text, edit))


class GaugeSphereChecks(CheckTestCase):
    CASES = (["gauge-sphere", "--spin", "1", "--m", "1", "--n", "3"],
             ["gauge-sphere", "--spin", "2", "--m", "-1", "--n", "3"])

    @classmethod
    def setUpClass(cls):
        cls.texts = [cli_output(argv) for argv in cls.CASES]

    def test_good_outputs_pass(self):
        for argv, text in zip(self.CASES, self.texts):
            self.assertPasses(argv, text)

    def test_value_off_by_1e_6(self):
        for argv, text in zip(self.CASES, self.texts):
            self.assertRejects(argv, edit_table(
                text, lambda cols, rows: rows.__setitem__((0, 1), rows[0, 1] + 1e-6)))

    def test_sign_flipped(self):
        for argv, text in zip(self.CASES, self.texts):
            self.assertRejects(argv, edit_table(
                text, lambda cols, rows: rows.__setitem__((0, 1), -rows[0, 1])))

    def test_m_label_swapped(self):
        argv = list(self.CASES[0])
        argv[argv.index("--m") + 1] = "-1"
        self.assertRejects(argv, self.texts[0])


class MagicChecks(CheckTestCase):
    ARGV = ["magic", "--spin", "2", "--eta-min", "0.3", "--eta-max", "0.3", "--n", "1"]

    @classmethod
    def setUpClass(cls):
        cls.text = cli_output(cls.ARGV)

    def test_good_output_passes(self):
        self.assertPasses(self.ARGV, self.text)

    def test_root_off_by_1e_6(self):
        self.assertRejects(self.ARGV, edit_table(
            self.text, lambda c, r: r.__setitem__((0, 1), r[0, 1] + 1e-6)))

    def test_root_sign_flipped(self):
        self.assertRejects(self.ARGV, edit_table(
            self.text, lambda c, r: r.__setitem__((0, 1), -r[0, 1])))

    def test_fit_residual_above_bound(self):
        self.assertRejects(self.ARGV, edit_table(
            self.text, lambda c, r: r.__setitem__((0, 3), 4e-7)))


class TransverseChecks(CheckTestCase):
    ARGV = ["transverse", "--spin", "2", "--m", "0", "--lambda-min", "0.8",
            "--lambda-max", "0.9", "--n", "2"]

    @classmethod
    def setUpClass(cls):
        cls.text = cli_output(cls.ARGV)

    def test_good_output_passes(self):
        self.assertPasses(self.ARGV, self.text)

    def test_cxy_off_by_1e_6(self):
        self.assertRejects(self.ARGV, edit_table(
            self.text, lambda c, r: r.__setitem__((1, 2), r[1, 2] + 1e-6)))

    def test_cxy_sign_flipped(self):
        self.assertRejects(self.ARGV, edit_table(
            self.text, lambda c, r: r.__setitem__((0, 2), -r[0, 2])))

    def test_p2_off_by_1e_5(self):
        # p2 is checked against a central difference to 1e-6
        self.assertRejects(self.ARGV, edit_table(
            self.text, lambda c, r: r.__setitem__((0, 1), r[0, 1] + 1e-5)))


class RampChecks(CheckTestCase):
    ARGV = ["ramp", "--spin", "2", "--m", "-1", "--lambda0", "1.0",
            "--shape", "blackman", "--T", "4,6"]

    @classmethod
    def setUpClass(cls):
        cls.text = cli_output(cls.ARGV)

    def test_good_output_passes(self):
        self.assertPasses(self.ARGV, self.text)

    def test_sz_off_by_1e_6(self):
        self.assertRejects(self.ARGV, edit_table(
            self.text, lambda c, r: r.__setitem__((1, 1), r[1, 1] + 1e-6)))

    def test_sz_sign_flipped(self):
        self.assertRejects(self.ARGV, edit_table(
            self.text, lambda c, r: r.__setitem__((0, 1), -r[0, 1])))

    def test_m_label_swapped(self):
        argv = list(self.ARGV)
        argv[argv.index("--m") + 1] = "1"
        self.assertRejects(argv, self.text)


def _fmt(x: float) -> str:
    return f"{float(x):.15g}"


class EntangleChecks(CheckTestCase):
    LAMBDA0 = -0.9699153269000844
    ARGV = ["entangle", "--lambda0", repr(LAMBDA0), "--T", "15.0", "--tune", "auto"]

    def payload(self, amplitudes=None, **overrides):
        if amplitudes is None:
            amplitudes = np.zeros(16, dtype=complex)
            amplitudes[[8, 4, 2, 1]] = np.exp(0.3j) * np.array([0.5, -0.5, -0.5, -0.5])
        target = np.zeros(16)
        target[[8, 4, 2, 1]] = [0.5, -0.5, -0.5, -0.5]
        out = {
            "command": "entangle", "lambda0": _fmt(self.LAMBDA0),
            "stage_duration": "15", "stage_stretch": "1.01",
            "delta_beta_closed_form": _fmt(checks.delta_beta_closed_form(self.LAMBDA0)),
            "delta_beta_measured": _fmt(-math.pi + 0.017),
            "fidelity": _fmt(abs(np.vdot(target, amplitudes)) ** 2),
            "sector_leakage": _fmt(max(0.0, 1 - np.sum(np.abs(amplitudes) ** 2))),
            "final_amplitudes_re_im": [[_fmt(a.real), _fmt(a.imag)] for a in amplitudes],
        }
        out.update(overrides)
        return json.dumps(out)

    def test_good_output_passes(self):
        self.assertPasses(self.ARGV, self.payload())

    def test_fidelity_of_0_98(self):
        self.assertRejects(self.ARGV, self.payload(fidelity="0.98"))

    def test_consistent_low_fidelity(self):
        amps = np.zeros(16, dtype=complex)
        amps[[8, 4, 2, 1]] = [0.5, -0.5, -0.5, -0.5]
        amps[[8, 4]] += [-0.1, 0.1]
        amps /= np.linalg.norm(amps)
        self.assertRejects(self.ARGV, self.payload(amplitudes=amps))

    def test_amplitude_sign_flipped(self):
        amps = np.zeros(16, dtype=complex)
        amps[[8, 4, 2, 1]] = [-0.5, -0.5, -0.5, -0.5]
        self.assertRejects(self.ARGV, self.payload(amplitudes=amps))

    def test_closed_form_off_by_1e_6(self):
        self.assertRejects(self.ARGV, self.payload(delta_beta_closed_form=_fmt(
            checks.delta_beta_closed_form(self.LAMBDA0) + 1e-6)))

    def test_leakage_reported_wrong(self):
        self.assertRejects(self.ARGV, self.payload(sector_leakage="0.002"))


class CycleChecks(CheckTestCase):
    ARGV = ["cycle", "--schedule", "cycle.sched", "--spin", "2", "--m", "1"]
    META = {"lambda0": -0.93}

    def payload(self, **overrides):
        beta = -(1 - 2 / math.sqrt(9 * 0.93 ** 2 + 4)) * math.pi
        out = {"command": "cycle", "spin": "2", "m": "1",
               "adiabatic_beta": _fmt(beta), "adiabatic_beta_mod_2pi": _fmt(beta),
               "winding_phase": _fmt(-math.pi), "mirror_extracted_beta": _fmt(beta - 0.015),
               "dynamical_phase": "-130.1", "leakage": "0.0004", "norm_drift": "2e-13"}
        out.update(overrides)
        return json.dumps(out)

    def test_good_output_passes(self):
        self.assertPasses(self.ARGV, self.payload(), self.META)

    def test_beta_off_by_1e_6(self):
        beta = float(json.loads(self.payload())["adiabatic_beta"])
        self.assertRejects(self.ARGV, self.payload(adiabatic_beta=_fmt(beta + 1e-6)),
                           self.META)

    def test_beta_sign_flipped(self):
        beta = float(json.loads(self.payload())["adiabatic_beta"])
        self.assertRejects(self.ARGV, self.payload(adiabatic_beta=_fmt(-beta)), self.META)

    def test_leakage_and_drift_bounds(self):
        for key, value in (("leakage", "0.02"), ("norm_drift", "1e-11"),
                           ("mirror_extracted_beta", "0"), ("winding_phase", "3.14159")):
            self.assertRejects(self.ARGV, self.payload(**{key: value}), self.META)

    def test_unreadable_output(self):
        self.assertRejects(self.ARGV, "not json", self.META)


class FailedOperations(unittest.TestCase):
    PLAN = [(["magic", "--spin", "3"], None),  # exits 1: no magic fit for spin 3
            (["spectrum", "--spin", "2", "--lambda-min", "0", "--lambda-max", "0.5",
              "--n", "2"], None)]

    def test_nonzero_exit_is_a_failed_operation_not_a_result(self):
        res = run.execute_round(self.PLAN, trace=False)
        codes = [c["code"] for c in res["commands"]]
        self.assertEqual(codes, [1, 0])
        self.assertEqual(res["commands"][0]["failures"], [])
        s = run.summarize([(self.PLAN, res)])
        self.assertEqual((s["attempted"], s["failed"], s["correct"]), (2, 1, True))
        self.assertEqual(s["norm"], [])  # the round gives no round time
        self.assertEqual(s["raw"], [])

    def test_complete_round_is_timed(self):
        plan = self.PLAN[1:]
        res = run.execute_round(plan, trace=False)
        s = run.summarize([(plan, res)])
        self.assertEqual((s["attempted"], s["failed"], s["correct"]), (1, 0, True))
        self.assertEqual(len(s["norm"]), 1)
        self.assertGreater(s["norm"][0], 0.0)

    def test_crashing_command_is_a_failed_operation(self):
        plan = [(["cycle", "--schedule", str(BENCH / "no-such-file.sched"),
                  "--spin", "2", "--m", "0"], None)]
        res = run.execute_round(plan, trace=False)
        self.assertEqual(res["commands"][0]["code"], 1)
        self.assertEqual(run.summarize([(plan, res)])["failed"], 1)

    def test_dead_round_process_fails_its_commands(self):
        res = run.run_forked(os._exit, (3,), timeout=30)
        self.assertIsNone(res)
        s = run.summarize([(self.PLAN, res)])
        self.assertEqual((s["attempted"], s["failed"], s["correct"]), (2, 2, False))

    def test_forked_round_returns_its_result(self):
        res = run.run_forked(run.execute_round, (self.PLAN[1:], False), timeout=60)
        self.assertEqual([c["code"] for c in res["commands"]], [0])
        self.assertEqual(res["commands"][0]["failures"], [])


class ImportTimeParsing(unittest.TestCase):
    REPORT = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | encodings",
        "import time:       300 |        300 |     numpy.core",
        "import time:        50 |         50 |       math2",
        "import time:      1000 |       1350 |   numpy",
        "import time:       200 |        200 |     numpy.fft",
        "import time:      2000 |       2200 |   scipy.integrate",
        "import time:        40 |       3590 | spinberry",
        "import time:        10 |         10 | spinberry.cli",
    ])

    def test_split_into_numpy_scipy_and_spinberry(self):
        parts = run.parse_importtime(self.REPORT)
        self.assertAlmostEqual(parts["numpy"], 1350e-6)
        self.assertAlmostEqual(parts["scipy"], 2200e-6)
        self.assertAlmostEqual(parts["spinberry"], 50e-6)


if __name__ == "__main__":
    unittest.main()
