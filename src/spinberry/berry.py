"""Geometric phase of adiabatic cycles as a loop integral.

For a closed cycle of the field orientation and coupling ratio, the phase
acquired by the level labeled m is beta(m) = int (A_phi phi_dot +
A_alpha alpha_dot) dt, the loop integral of the Abelian gauge field

    A_phi = -m + p cos(theta),   A_alpha = -m + p,

with p(m, lambda) the polarization of the instantaneous eigenstate, read
from level m's parity block alone.  :func:`gauge_field` is the one place
A is written.  beta is invariant under gauge functions periodic in phi
(period 2 pi) and alpha (period pi).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonian import _level
from .schedules import CycleSchedule
from .spin_algebra import SpinRep

# Central-difference step of gauge_invariance_check.
_GAUGE_FD_STEP = 1e-6


@dataclass(frozen=True)
class GaugeField:
    """Components of the loop-integral gauge field at parameter points."""

    a_phi: float | np.ndarray
    a_alpha: float | np.ndarray


@dataclass(frozen=True)
class BerryPhaseResult:
    """Un-wrapped geometric phase plus its mod-2pi companion.

    ``winding_phase`` is the pure winding contribution -m (2 n_phi + n_alpha) pi
    that the phase formula contains independently of the polarization.
    """

    value: float
    mod_2pi: float
    winding_phase: float
    quad_points: int


def _wrap(angle: float) -> float:
    """Wrap to (-pi, pi]."""
    wrapped = np.remainder(angle + np.pi, 2 * np.pi) - np.pi
    return float(2 * np.pi + wrapped if wrapped == -np.pi else wrapped)


def _quad_grid(duration: float, quad_points: int):
    n = int(quad_points)
    if n < 3:
        raise ValueError("quad_points must be at least 3")
    if n % 2 == 0:
        n += 1  # composite Simpson needs an odd node count
    return np.linspace(0.0, duration, n)


def _simpson(y, ts) -> float:
    """Composite Simpson rule h/3 (y0 + 4 sum odd + 2 sum even + yN) on the
    uniform, odd-sized grid ``ts`` of :func:`_quad_grid`."""
    h = (ts[-1] - ts[0]) / (ts.size - 1)
    return float(h / 3.0 * (y[0] + 4.0 * np.sum(y[1:-1:2])
                            + 2.0 * np.sum(y[2:-1:2]) + y[-1]))


def berry_phase_adiabatic(rep: SpinRep, m: float, schedule: CycleSchedule,
                          quad_points: int = 4097) -> BerryPhaseResult:
    """Geometric phase of the cycle for the level labeled m.

    Composite Simpson quadrature of A_phi phi_dot + A_alpha alpha_dot on a
    uniform time grid; the gauge field is solved at every node at once.
    """
    schedule.validate()
    ts = _quad_grid(schedule.duration, quad_points)
    a = gauge_field(rep, m, schedule.lam(ts), schedule.theta(ts))
    value = _simpson(a.a_phi * schedule.phi_dot(ts) + a.a_alpha * schedule.alpha_dot(ts), ts)
    winding = -m * (2 * schedule.n_phi + schedule.n_alpha) * np.pi
    return BerryPhaseResult(value=value, mod_2pi=_wrap(value),
                            winding_phase=winding, quad_points=ts.size)


def gauge_field(rep: SpinRep, m: float, lam, theta) -> GaugeField:
    """Gauge field of level m at the points (lambda, theta), scalars or
    arrays that broadcast, from one stacked solve of m's block."""
    p = _level(rep, m, lam)[3]
    return GaugeField(a_phi=-m + p * np.cos(theta), a_alpha=-m + p)


def gauge_field_sphere(rep: SpinRep, m: float, theta_tilde):
    """A_alpha of :func:`gauge_field` on the spherical section
    lambda = -2 cot(theta_tilde), at every point of ``theta_tilde`` (a
    scalar or an array) from one stacked solve.

    The map sends the open interval 0 < theta_tilde < pi onto the whole
    lambda axis; the poles are excluded because lambda diverges there.
    """
    theta_tilde = np.asarray(theta_tilde, dtype=float)
    if not np.all((0.0 < theta_tilde) & (theta_tilde < np.pi)):
        raise ValueError("theta_tilde must lie strictly inside (0, pi)")
    return gauge_field(rep, m, -2.0 / np.tan(theta_tilde), 0.0).a_alpha


def gauge_invariance_check(rep: SpinRep, m: float, schedule: CycleSchedule,
                           g, quad_points: int = 4097) -> float:
    """|beta_gauged - beta| for a gauge function g(phi, theta, alpha, lambda).

    The gauge transformation shifts A_phi and A_alpha by the respective
    partial derivatives of g (taken by central differences), so only the
    added term needs to be integrated.  For admissible g (periodic in phi
    and alpha with periods 2 pi and pi) the result is quadrature noise.
    g is called on arrays of node values; a scalar result is broadcast.
    """
    schedule.validate()
    ts = _quad_grid(schedule.duration, quad_points)
    phi, theta = schedule.phi(ts), schedule.theta(ts)
    alpha, lam = schedule.alpha(ts), schedule.lam(ts)
    h = _GAUGE_FD_STEP
    dg_dphi = (g(phi + h, theta, alpha, lam) - g(phi - h, theta, alpha, lam)) / (2 * h)
    dg_dalpha = (g(phi, theta, alpha + h, lam) - g(phi, theta, alpha - h, lam)) / (2 * h)
    integrand = dg_dphi * schedule.phi_dot(ts) + dg_dalpha * schedule.alpha_dot(ts)
    return abs(_simpson(np.broadcast_to(integrand, ts.shape), ts))
