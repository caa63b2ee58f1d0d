"""Time-parameterized cycles of the Hamiltonian parameters.

A :class:`CycleSchedule` bundles theta(t), phi(t), alpha(t), lambda(t) and
the field magnitude b(t) = B(t)/B0 over [0, T], together with the winding
integers of the two periodic angles.  Closed cycles obey

    theta(T) = theta(0),  lambda(T) = lambda(0),  b(T) = b(0),
    phi(T) = phi(0) + 2 pi n_phi,  alpha(T) = alpha(0) + pi n_alpha.

Time is measured in units of 1/(gamma_S B0) everywhere.

Schedules are built from segment lists (ramp / rotate / hold), or loaded
from a flat key-value text file; see :func:`from_file` for the format.

Every time-dependent field takes a time t or an array of times and returns
a value of the same shape; a scalar t gives a numpy scalar.  Callers
evaluate a whole time grid in one call.  Segment schedules record the
times where their stages meet (``boundaries``), so that a run's default
step grid can end steps there.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field, replace
from itertools import accumulate
from typing import Callable

import numpy as np

from .pulses import PulseShape


# Largest residual of a boundary condition that CycleSchedule.validate accepts.
_BOUNDARY_TOL = 1e-9


class ScheduleError(ValueError):
    """A schedule violates the cycle boundary conditions or is malformed."""


def _const(value):
    v = float(value)
    return lambda t: np.full(np.shape(t), v)[()]


@dataclass(frozen=True)
class CycleSchedule:
    duration: float
    theta: Callable[[float], float]
    phi: Callable[[float], float]
    alpha: Callable[[float], float]
    lam: Callable[[float], float]
    theta_dot: Callable[[float], float]
    phi_dot: Callable[[float], float]
    alpha_dot: Callable[[float], float]
    lam_dot: Callable[[float], float]
    n_phi: int = 0
    n_alpha: int = 0
    b: Callable[[float], float] = field(default_factory=lambda: _const(1.0))
    boundaries: tuple[float, ...] = ()  # interior stage boundaries, ascending

    def validate(self) -> None:
        """Raise :class:`ScheduleError` if the boundary conditions fail."""
        T = self.duration
        if not (np.isfinite(T) and T > 0):
            raise ScheduleError(f"duration must be positive, got {T}")
        ends = np.array([0.0, T])  # one array sample per parameter
        checks = [(name, np.diff(f(ends))[0] - winding) for name, f, winding in (
            ("theta", self.theta, 0.0), ("lambda", self.lam, 0.0),
            ("phi", self.phi, 2 * np.pi * self.n_phi),
            ("alpha", self.alpha, np.pi * self.n_alpha), ("b", self.b, 0.0))]
        for name, residual in checks:
            if abs(residual) > _BOUNDARY_TOL:
                raise ScheduleError(
                    f"boundary condition violated for {name}: residual {residual:.3e}")

    def eta(self, t: float) -> float:
        """Longitudinal rotation-rate ratio (cos(theta) phi_dot + alpha_dot)/b."""
        return (np.cos(self.theta(t)) * self.phi_dot(t) + self.alpha_dot(t)) / self.b(t)

    def mirror(self) -> "CycleSchedule":
        """The image cycle with phi and alpha (and their windings) negated."""
        phi, alpha = self.phi, self.alpha
        phi_dot, alpha_dot = self.phi_dot, self.alpha_dot
        return replace(self,
                       phi=lambda t: -phi(t), alpha=lambda t: -alpha(t),
                       phi_dot=lambda t: -phi_dot(t),
                       alpha_dot=lambda t: -alpha_dot(t),
                       n_phi=-self.n_phi, n_alpha=-self.n_alpha)

    def scaled_field(self, xi: float) -> "CycleSchedule":
        """Same cycle with the field magnitude b(t) multiplied by xi > 0."""
        if xi <= 0:
            raise ScheduleError("field scale must be positive")
        b = self.b
        return replace(self, b=lambda t: xi * b(t))


# Each numeric segment field's type, and the one kind that moves it (None: every kind).
_SEGMENT_FIELDS = {"duration": (float, None), "lambda_to": (float, "ramp"),
                  "phi_turns": (int, "rotate"), "alpha_half_turns": (int, "rotate")}


@dataclass(frozen=True)
class Segment:
    """One stage of a piecewise schedule: a ``duration``, a pulse ``shape``
    and only the fields that its kind moves (any other is an error).

    kind ``ramp``  : lambda moves to ``lambda_to`` (shape-profiled).
    kind ``rotate``: phi advances by 2 pi ``phi_turns`` and alpha by
                     pi ``alpha_half_turns`` (shape-profiled rates; 0 if omitted).
    kind ``hold``  : nothing changes.
    """

    kind: str
    duration: float
    shape: str = "blackman"
    lambda_to: float | None = None
    phi_turns: int | None = None
    alpha_half_turns: int | None = None

    def __post_init__(self):
        if self.kind not in ("ramp", "rotate", "hold"):
            raise ScheduleError(f"unknown segment kind {self.kind!r}")
        if not (np.isfinite(self.duration) and self.duration > 0):
            raise ScheduleError(
                f"segment duration must be finite and positive, got {self.duration}")
        if self.kind == "ramp" and self.lambda_to is None:
            raise ScheduleError("ramp segment needs lambda_to")
        if self.lambda_to is not None and not np.isfinite(self.lambda_to):
            raise ScheduleError(f"lambda_to must be finite, got {self.lambda_to}")
        PulseShape(self.shape)
        for name, (type_, mover) in _SEGMENT_FIELDS.items():
            value = getattr(self, name)
            if mover not in (None, self.kind) and value is not None:
                raise ScheduleError(f"a {self.kind} segment takes no {name} (a {mover} does)")
            if type_ is int and not isinstance(value, (int, np.integer, type(None))):
                raise ScheduleError(f"{name} must be an integer, got {value}")


class _PiecewiseParam:
    """Value/rate of one parameter across a segment list."""

    def __init__(self, starts, durations, base_values, deltas, kinds):
        self.starts = np.asarray(starts, dtype=float)
        self.durations = np.asarray(durations, dtype=float)
        self.base_values = np.asarray(base_values, dtype=float)
        self.deltas = np.asarray(deltas, dtype=float)
        names = list(dict.fromkeys(kinds))
        self.pulses = [PulseShape(name) for name in names]
        self.pulse_index = np.array([names.index(kind) for kind in kinds])
        self.total = starts[-1] + durations[-1]

    def _shaped(self, method, t):
        """Segment index of each time, and the pulse ``method`` of that
        segment at the time's fraction of it (times clamped to [0, T])."""
        t = np.clip(t, 0.0, self.total)
        i = np.clip(np.searchsorted(self.starts, t, side="right") - 1,
                    0, len(self.starts) - 1)
        s = np.clip((t - self.starts[i]) / self.durations[i], 0.0, 1.0)
        if len(self.pulses) == 1:
            return i, getattr(self.pulses[0], method)(s)
        out = np.empty(np.shape(s))
        index = self.pulse_index[i]
        for k, pulse in enumerate(self.pulses):
            sel = index == k
            out[sel] = getattr(pulse, method)(s[sel])
        return i, out

    def value(self, t):
        i, fraction = self._shaped("fraction", t)
        return (self.base_values[i] + self.deltas[i] * fraction)[()]

    def rate(self, t):
        i, rate = self._shaped("rate", t)
        return (self.deltas[i] * rate / self.durations[i])[()]


def from_segments(segments, theta0: float = 0.0, phi0: float = 0.0,
                  alpha0: float = 0.0, lambda0: float = 0.0,
                  b: float = 1.0) -> CycleSchedule:
    """Assemble a schedule from a list of :class:`Segment`."""
    if not segments:
        raise ScheduleError("need at least one segment")
    for name, value in (("theta0", theta0), ("phi0", phi0), ("alpha0", alpha0),
                        ("lambda0", lambda0), ("b", b)):
        if not np.isfinite(value):
            raise ScheduleError(f"{name} must be finite, got {value}")
    if not b > 0:
        raise ScheduleError(f"b must be positive, got {b}")
    if not 0.0 <= theta0 <= np.pi:
        raise ScheduleError(f"theta0 must be in [0, pi], got {theta0}")
    durations = [seg.duration for seg in segments]
    starts = list(accumulate(durations[:-1], initial=0.0))
    t = starts[-1] + durations[-1]

    def build(initial, delta_of):
        """(value, rate) of a parameter, constant if no segment changes it;
        delta_of(seg, value) is the change over a segment from ``value``."""
        bases, deltas = [], []
        value = initial
        for seg in segments:
            d = delta_of(seg, value)
            bases.append(value)
            deltas.append(d)
            value += d
        if not any(deltas):
            return _const(initial), _const(0.0)
        param = _PiecewiseParam(starts, durations, bases, deltas,
                                [seg.shape for seg in segments])
        return param.value, param.rate

    lam, lam_dot = build(lambda0, lambda seg, v: 0.0 if seg.lambda_to is None
                         else float(seg.lambda_to) - v)
    phi, phi_dot = build(phi0, lambda seg, v: 2 * np.pi * (seg.phi_turns or 0))
    alpha, alpha_dot = build(alpha0, lambda seg, v: np.pi * (seg.alpha_half_turns or 0))
    n_phi = sum(seg.phi_turns or 0 for seg in segments)
    n_alpha = sum(seg.alpha_half_turns or 0 for seg in segments)

    return CycleSchedule(
        duration=t,
        theta=_const(theta0), phi=phi, alpha=alpha, lam=lam,
        theta_dot=_const(0.0), phi_dot=phi_dot, alpha_dot=alpha_dot, lam_dot=lam_dot,
        n_phi=n_phi, n_alpha=n_alpha,
        b=_const(b), boundaries=tuple(starts[1:]))


def alpha_rotation_cycle(lambda0: float, n_alpha: int, duration: float,
                         shape: str = "blackman", theta0: float = 0.0) -> CycleSchedule:
    """Cycle in which alpha winds by n_alpha * pi at fixed lambda."""
    seg = Segment(kind="rotate", duration=duration, shape=shape,
                  alpha_half_turns=n_alpha)
    return from_segments([seg], theta0=theta0, lambda0=lambda0)


def phi_rotation_cycle(theta0: float, n_phi: int, duration: float,
                       lambda0: float = 0.0, shape: str = "blackman") -> CycleSchedule:
    """Cycle in which phi winds by 2 pi n_phi at fixed cone angle theta0."""
    seg = Segment(kind="rotate", duration=duration, shape=shape, phi_turns=n_phi)
    return from_segments([seg], theta0=theta0, lambda0=lambda0)


def three_stage_cycle(lambda0: float, stage_duration: float, n_alpha: int = 3,
                      stretch: float = 1.0, shape: str = "blackman") -> CycleSchedule:
    """Ramp to lambda0, rotate alpha by n_alpha * pi over twice the stage
    time, ramp back.  ``stretch`` scales the two ramp durations."""
    if not stretch > 0:
        raise ScheduleError(f"stretch must be positive, got {stretch}")
    segs = [
        Segment(kind="ramp", duration=stage_duration * stretch, shape=shape,
                lambda_to=lambda0),
        Segment(kind="rotate", duration=2 * stage_duration, shape=shape,
                alpha_half_turns=n_alpha),
        Segment(kind="ramp", duration=stage_duration * stretch, shape=shape,
                lambda_to=0.0),
    ]
    return from_segments(segs)


def _number(key: str, raw, kind=float):
    """``kind(raw)``, or a ValueError naming ``key`` if it is no such number."""
    try:
        return kind(raw)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"{key} must be {what}, got {raw!r}") from None


def from_dict(entries: dict) -> CycleSchedule:
    """Build a schedule from flat key-value entries (see :func:`from_file`)."""
    scalars = {"theta0": 0.0, "phi0": 0.0, "alpha0": 0.0, "lambda0": 0.0, "b": 1.0}
    seg_fields: dict[int, dict] = {}
    for key, raw in entries.items():
        if key in scalars:
            scalars[key] = _number(key, raw)
            continue
        if key.startswith("segment"):
            head, _, fieldname = key.partition(".")
            if not fieldname:
                raise ScheduleError(f"malformed segment key {key!r}")
            try:
                index = int(head[len("segment"):])
            except ValueError:
                raise ScheduleError(f"malformed segment key {key!r}") from None
            if fieldname not in Segment.__dataclass_fields__:
                raise ScheduleError(f"unknown schedule key {key!r}")
            seg_fields.setdefault(index, {})[fieldname] = raw
            continue
        raise ScheduleError(f"unknown schedule key {key!r}")
    if not seg_fields:
        raise ScheduleError("schedule declares no segments")
    indices = sorted(seg_fields)
    if indices != list(range(1, len(indices) + 1)):
        raise ScheduleError(f"segments must be numbered 1..N, got {indices}")

    segments = []
    for i in indices:
        f = seg_fields[i]
        kind = f.get("kind")
        if kind is None:
            raise ScheduleError(f"segment{i} is missing its kind")
        numbers = {name: _number(f"segment{i}.{name}", f[name], type_)
                   for name, (type_, _) in _SEGMENT_FIELDS.items() if name in f}
        try:
            segments.append(Segment(kind, numbers.pop("duration", 0.0),
                                    f.get("shape", "blackman"), **numbers))
        except ValueError as exc:  # a ScheduleError or an unknown pulse shape
            raise ScheduleError(f"segment{i}: {exc}") from None
    return from_segments(segments, theta0=scalars["theta0"], phi0=scalars["phi0"],
                         alpha0=scalars["alpha0"], lambda0=scalars["lambda0"],
                         b=scalars["b"])


def from_file(path) -> CycleSchedule:
    """Load a schedule from a flat ``key = value`` UTF-8 text file.

    Every error names the file.  Lines starting with ``#`` (or inline ``#``
    tails) are comments.  Keys: ``theta0 phi0 alpha0 lambda0 b`` (theta0 in
    [0, pi], b > 0) plus numbered segments, each with a ``kind``, a
    ``duration``, an optional ``shape`` and only the fields that its kind
    moves (see :class:`Segment`), e.g.::

        lambda0 = 0.0
        segment1.kind = ramp
        segment1.duration = 25
        segment1.shape = blackman
        segment1.lambda_to = -0.97
        segment2.kind = rotate
        segment2.duration = 50
        segment2.alpha_half_turns = 3
        segment3.kind = ramp
        segment3.duration = 25
        segment3.lambda_to = 0.0
    """
    try:  # decoded whole, so that the error's position counts from the file's start
        with open(path, "rb") as fh:
            lines = io.StringIO(fh.read().decode("utf-8"), newline=None).readlines()
    except UnicodeDecodeError as exc:
        raise ScheduleError(f"{path}: not UTF-8 text ({exc})") from None
    entries = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        key, equals, value = (part.strip() for part in text.partition("="))
        if not (key and equals and value):
            raise ScheduleError(f"{path}:{lineno}: expected 'key = value'")
        if key in entries:
            raise ScheduleError(f"{path}:{lineno}: duplicate key {key!r}")
        entries[key] = value
    try:
        return from_dict(entries)
    except ValueError as exc:  # a ScheduleError, a bad number or an unknown pulse shape
        raise ScheduleError(f"{path}: {exc}") from None
