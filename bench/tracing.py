"""Spans around the program's layers, installed from the benchmark's side.

``install`` wraps the public functions of each ``spinberry`` module on
every module attribute that its callers look it up by (a function that
``nonadiabatic`` imported from ``hamiltonian`` is wrapped in both), and
the numpy and scipy eigensolver entry points.  Each call records a span:
its name, start, end, parent span, a work count (matrices for an
eigensolver, 1 otherwise) and the number of eigensolves made inside it.
Spans stay in memory, in flat arrays, until the run ends.  A layer's self
time is the time its spans cover minus the time their child spans cover.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

EIGH = "linalg.numpy_eigh"
JACOBI = "linalg.jacobi_eigh"

# (module, attribute, span name); a missing attribute is skipped, so a
# function that a later version removes reads 0.
FUNCTIONS = [
    ("hamiltonian", "labeled_spectrum", "hamiltonian.labeled_spectrum"),
    ("hamiltonian", "polarization", "hamiltonian.polarization"),
    ("linalg", "jacobi_eigh", JACOBI),
    ("nonadiabatic", "magic_lambda", "nonadiabatic.magic_lambda"),
    ("nonadiabatic", "delta_p", "nonadiabatic.delta_p"),
    ("nonadiabatic", "q_coefficient", "nonadiabatic.q_coefficient"),
    ("nonadiabatic", "transverse_second_order", "nonadiabatic.transverse_second_order"),
    ("nonadiabatic", "p2_coefficient", "nonadiabatic.p2_coefficient"),
    ("nonadiabatic", "cxy_coefficient", "nonadiabatic.cxy_coefficient"),
    ("berry", "gauge_field_sphere", "berry.gauge_field_sphere"),
    ("berry", "gauge_field", "berry.gauge_field"),
    ("berry", "berry_phase_adiabatic", "berry.berry_phase_adiabatic"),
    ("dynamics", "ramp_fidelity", "dynamics.ramp_fidelity"),
    ("dynamics", "propagate", "dynamics.propagate"),
    ("dynamics", "run_cycle", "dynamics.run_cycle"),
    ("dynamics", "lab_hamiltonian", "dynamics.lab_hamiltonian"),
    ("dynamics", "mirror_phase_difference", "dynamics.mirror_phase_difference"),
    ("entangle", "tune_stage_stretch", "entangle.tune_stage_stretch"),
    ("entangle", "entangling_cycle", "entangle.entangling_cycle"),
    ("spin_algebra", "rotation_unitary", "spin_algebra.rotation_unitary"),
    ("spin_algebra", "spin_matrices", "spin_algebra.spin_matrices"),
]
METHODS = [
    ("hamiltonian", "SpectrumTracker", "advance", "hamiltonian.SpectrumTracker.advance"),
    ("pulses", "PulseShape", "fraction", "pulses.eval"),
    ("pulses", "PulseShape", "rate", "pulses.eval"),
]
SCHEDULE_FIELDS = ("theta", "phi", "alpha", "lam", "theta_dot", "phi_dot",
                   "alpha_dot", "lam_dot", "b")
NUMPY_EIGENSOLVERS = ("eigh", "eigvalsh", "eig", "eigvals")
SCIPY_EIGENSOLVERS = ("eigh", "eigvalsh", "eig", "eigvals", "eigh_tridiagonal",
                      "eigvalsh_tridiagonal", "eig_banded", "eigvals_banded")
CLI_COMMANDS = ("spectrum", "gauge-sphere", "magic", "transverse", "ramp",
                "entangle", "cycle")


def _matrices(args, kwargs) -> int:
    """Number of matrices in a (possibly stacked) eigensolver argument."""
    a = args[0] if args else next(iter(kwargs.values()))
    shape = np.shape(a)
    return int(np.prod(shape[:-2])) if len(shape) > 2 else 1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("q")
        self.eigensolves = array("q")
        self._stack: list[int] = []
        self._eig_total = 0
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int, count: int, eig: bool):
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.count.append(count)
        self.start.append(0.0)
        self.end.append(0.0)
        self.eigensolves.append(0)
        self._stack.append(i)
        if eig:
            self._eig_total += count
        return i, self._eig_total - (count if eig else 0)

    def _close(self, i: int, e0: int, t0: float, t1: float):
        self._stack.pop()
        self.start[i] = t0
        self.end[i] = t1
        self.eigensolves[i] = self._eig_total - e0

    def wrap(self, name: str, fn, eigensolver: bool = False):
        nid = self.name_id(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i, e0 = self._open(nid, _matrices(args, kwargs) if eigensolver else 1,
                               eigensolver)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i, e0, t0, clock())

        return traced

    @contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        i, e0 = self._open(self.name_id(name), 1, False)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(i, e0, t0, time.perf_counter())

    # -- installation ---------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapped, owners):
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is original:
                    self._set(owner, key, wrapped)

    def install(self) -> None:
        import numpy.linalg
        import scipy.linalg

        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "spinberry"
                                         or key.startswith("spinberry."))]
        for modname, attr, span_name in FUNCTIONS:
            module = sys.modules.get(f"spinberry.{modname}")
            original = getattr(module, attr, None)
            if original is not None:
                wrapped = self.wrap(span_name, original,
                                    eigensolver=span_name == JACOBI)
                self._replace_everywhere(original, wrapped, modules)
        for modname, cls_name, attr, span_name in METHODS:
            cls = getattr(sys.modules.get(f"spinberry.{modname}"), cls_name, None)
            if cls is not None and hasattr(cls, attr):
                self._set(cls, attr, self.wrap(span_name, getattr(cls, attr)))
        for owner, names in ((numpy.linalg, NUMPY_EIGENSOLVERS),
                             (scipy.linalg, SCIPY_EIGENSOLVERS)):
            for attr in names:
                original = getattr(owner, attr, None)
                if original is not None:
                    self._replace_everywhere(
                        original, self.wrap(EIGH, original, eigensolver=True),
                        [owner] + modules)
        schedules = sys.modules.get("spinberry.schedules")
        if schedules is not None and hasattr(schedules, "from_file"):
            self._replace_everywhere(schedules.from_file,
                                     self._traced_from_file(schedules.from_file),
                                     modules)

    def _traced_from_file(self, from_file):
        """from_file whose schedule calls into traced callables."""
        load = self.wrap("schedules.from_file", from_file)

        def traced_from_file(*args, **kwargs):
            schedule = load(*args, **kwargs)
            fields = {f: self.wrap("schedules.eval", getattr(schedule, f))
                      for f in SCHEDULE_FIELDS if hasattr(schedule, f)}
            return dataclasses.replace(schedule, **fields)

        return traced_from_file

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy(),
                "count": np.frombuffer(self.count, dtype=np.int64).copy(),
                "eigensolves": np.frombuffer(self.eigensolves, dtype=np.int64).copy()}


LAYERS = ("hamiltonian", "nonadiabatic", "berry", "dynamics", "entangle", "cli")


def layer_metrics(spans: dict[str, np.ndarray], names: list[str],
                  output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one round from its spans."""
    name, parent = spans["name"], spans["parent"]
    dur = spans["end"] - spans["start"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                             minlength=dur.size)
    self_time = dur - child_time
    parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
    ids = {n: i for i, n in enumerate(names)}

    def mask(span_name):
        return name == ids.get(span_name, -2)

    def calls(span_name):
        return int(mask(span_name).sum())

    def seconds(span_name):
        return float(dur[mask(span_name)].sum())

    def ratio(num, den):
        return float(num) / den if den else 0.0

    out: dict[str, float] = {}
    for n in ("hamiltonian.labeled_spectrum", "hamiltonian.SpectrumTracker.advance",
              "linalg.jacobi_eigh", "nonadiabatic.delta_p",
              "nonadiabatic.transverse_second_order", "berry.gauge_field_sphere",
              "dynamics.propagate", "spin_algebra.rotation_unitary",
              "schedules.eval", "pulses.eval"):
        out[f"{n}.calls"] = calls(n)
    for n in ("hamiltonian.labeled_spectrum", "hamiltonian.SpectrumTracker.advance",
              "linalg.jacobi_eigh", "nonadiabatic.magic_lambda",
              "nonadiabatic.p2_coefficient", "nonadiabatic.cxy_coefficient",
              "berry.gauge_field_sphere", "berry.berry_phase_adiabatic",
              "dynamics.ramp_fidelity", "dynamics.propagate", "dynamics.run_cycle",
              "dynamics.mirror_phase_difference", "entangle.tune_stage_stretch",
              "entangle.entangling_cycle", "spin_algebra.rotation_unitary",
              "schedules.eval", "pulses.eval"):
        out[f"{n}.s"] = seconds(n)

    eigh = mask(EIGH)
    out["linalg.numpy_eigh.matrices"] = int(spans["count"][eigh].sum())
    out["linalg.numpy_eigh.s"] = float(dur[eigh].sum())
    out["linalg.eigensolves"] = out["linalg.jacobi_eigh.calls"] + out["linalg.numpy_eigh.matrices"]

    # A requested spectrum is a labeled_spectrum call, or a tracker move
    # made by anything other than labeled_spectrum.
    requested = mask("hamiltonian.labeled_spectrum") | (
        mask("hamiltonian.SpectrumTracker.advance")
        & (parent_name != ids.get("hamiltonian.labeled_spectrum", -2)))
    out["hamiltonian.eigensolves_per_spectrum"] = ratio(
        spans["eigensolves"][requested].sum(), int(requested.sum()))

    objective = (mask("nonadiabatic.delta_p") | mask("nonadiabatic.q_coefficient")) & (
        parent_name == ids.get("nonadiabatic.magic_lambda", -2))
    out["nonadiabatic.magic_lambda.evals"] = ratio(
        int(objective.sum()), calls("nonadiabatic.magic_lambda"))

    steps = calls("dynamics.lab_hamiltonian")
    out["dynamics.run_cycle.steps"] = steps
    out["dynamics.eigensolves_per_step"] = ratio(
        spans["eigensolves"][mask("dynamics.run_cycle")].sum(), steps)
    out["entangle.tune_stage_stretch.eigensolves"] = int(
        spans["eigensolves"][mask("entangle.tune_stage_stretch")].sum())

    for command in CLI_COMMANDS:
        out[f"cli.{command}.s"] = seconds(f"cli.{command}")
    for layer in LAYERS:
        layer_of = np.array([n.startswith(layer + ".") for n in names] or [False])
        out[f"{layer}.self_s"] = float(self_time[layer_of[name]].sum()) if name.size else 0.0
    out["cli.output_bytes"] = output_bytes
    return out
