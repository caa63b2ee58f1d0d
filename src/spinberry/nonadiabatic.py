"""Non-adiabatic corrections from the rotating-frame analysis.

In the frame co-rotating with the fields, the Coriolis effect adds an
effective magnetic field.  Its longitudinal part enters only through the
ratio eta = (cos(theta) phi_dot + alpha_dot) / (gamma_S B) and produces a
purely dynamical phase whose odd-in-eta content is captured, to all
orders, by the kernel

    Delta_p(m, lambda, eta) = [ (1+eta) E(m, lambda/(1+eta))
                               - (1-eta) E(m, lambda/(1-eta)) ] / (2 eta)
                              - p(m, lambda),

an even function of eta with small-eta limit q(m, lambda) eta^2 where
q = -(lambda^3 E''' + 3 lambda^2 E'') / 6.  For the m = 0 level there is
a "magic" coupling lambda*(S, eta) at which Delta_p vanishes identically,
cancelling every odd-order correction at once.

The transverse part mixes opposite-parity levels and contributes at
second order in mu = sin(theta) phi_dot / (gamma_S B): an energy shift
E_perp2, the second-order shift of the auxiliary problems
H(lambda) - mu Sigma_{x,y}; its phase-relevant combination
p2 = (1 + lambda d/dlambda) E_perp2; and a rotating-frame geometric term
C_xy built from the first-order perturbation vectors.  All three come from
one eigensystem, as the fields of one :class:`TransverseShift`.

Every derivative here is an exact perturbation sum over the eigensystem
at lambda itself, never a finite difference.  Delta_p and the
longitudinal phase read only level m, each from one stacked solve of its
parity block: Delta_p at lambda/(1+eta), lambda/(1-eta) and lambda, the
longitudinal phase on its rescaled and its plain coupling grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .berry import _quad_grid, _simpson
from .hamiltonian import _eigensystem, _energy_derivatives, _label_index, _level
from .schedules import CycleSchedule
from .spin_algebra import SpinRep

# Taylor branch threshold for the eta -> 0 limit of delta_p; below this the
# direct odd difference of O(1) energies is dominated by float cancellation.
_ETA_SERIES_THRESHOLD = 1e-3

# Gap handling for the transverse perturbation sums.
_GAP_ERROR = 1e-6
_GAP_WARN = 1e-2

# Even-power polynomial fits of magic_lambda against eta for |eta| <= 0.5,
# to six significant digits, as printed by scripts/fit_magic_coupling.py.
# Worst |Delta_p| at the fitted coupling over 201 eta points in [0, 0.5]:
# 2.6e-9 (S = 2) and 1.0e-7 (S = 4).
MAGIC_LAMBDA_FIT_COEFFS = {
    2: (0.838213, -0.0837932, -0.0430447, -0.023575, -0.0203137),
    4: (0.509982, -0.0900945, -0.0348556, -0.0447897, 0.0398566),
}

# Root brackets for the magic-coupling search, per spin.
_MAGIC_BRACKETS = {2: (0.3, 1.2), 4: (0.2, 0.8)}
_MAGIC_BRACKET_DEFAULT = (0.05, 2.0)


class NearDegeneracyError(RuntimeError):
    """A perturbation-sum denominator fell below the safe gap threshold."""


class NoRootError(RuntimeError):
    """The magic-coupling objective has one sign at both ends of its bracket (no
    root or an even number lie inside), is numerically zero there, or fails to polish."""


@dataclass(frozen=True)
class CoriolisParams:
    """Rotating-frame field ratios: longitudinal eta and transverse mu."""

    eta: float
    mu: float

    def __post_init__(self):
        if abs(self.eta) >= 1.0:
            raise ValueError(f"|eta| must be < 1, got {self.eta}")

    @property
    def mu_tilde(self) -> float:
        """The rescaled transverse ratio mu / (1 - eta)."""
        return self.mu / (1.0 - self.eta)

    @classmethod
    def from_rates(cls, theta: float, phi_dot: float,
                   alpha_dot: float) -> "CoriolisParams":
        """The ratios for rates in units of gamma_S B."""
        return cls(eta=np.cos(theta) * phi_dot + alpha_dot,
                   mu=np.sin(theta) * phi_dot)


def q_coefficient(rep: SpinRep, m: float, lam: float) -> float:
    """Leading even-order kernel q(m, lambda) = -(lam^3 E''' + 3 lam^2 E'')/6,
    from the exact perturbation sums of ``energy_derivative`` over one
    eigensystem."""
    second, third = _energy_derivatives(rep, m, lam)[2:]
    return -(lam**3 * third + 3 * lam**2 * second) / 6.0


def delta_p(rep: SpinRep, m: float, lam: float, eta: float) -> float:
    """All-orders even-in-eta correction kernel Delta_p(m, lambda, eta).

    |eta| must be below one (the rescaled coupling lambda/(1 -+ eta) would
    diverge otherwise).  For |eta| below the series threshold the value is
    q(m, lambda) eta^2, whose truncation error O(eta^4) is far below the
    float cancellation noise of the direct difference there.
    """
    if abs(eta) >= 1.0:
        raise ValueError(f"|eta| must be < 1, got {eta}")
    if abs(eta) < _ETA_SERIES_THRESHOLD:
        if eta == 0.0:
            return 0.0
        return q_coefficient(rep, m, lam) * eta**2
    _, energies, _, p = _level(rep, m, [lam / (1.0 + eta), lam / (1.0 - eta), lam])
    plus, minus = (1.0 + eta) * energies[0], (1.0 - eta) * energies[1]
    return float((plus - minus) / (2.0 * eta) - p[2])


def magic_lambda_fit(two_s: int, eta: float) -> float:
    """Six-significant-digit fit of magic_lambda in even powers of eta.

    Only S = 2 and S = 4 are tabulated, for |eta| <= 0.5.  The table is
    printed by ``scripts/fit_magic_coupling.py``: c0 is the rounded eta = 0
    root and c1..c4 minimize the worst |Delta_p(0, fit, eta)|, which is
    2.6e-9 (S = 2) and 1.0e-7 (S = 4) over 201 eta points in [0, 0.5].
    """
    coeffs = MAGIC_LAMBDA_FIT_COEFFS.get(two_s / 2)
    if coeffs is None:
        raise ValueError(f"no magic fit for spin {two_s / 2:g}: fits are tabulated for "
                         f"spin {' and '.join(map(str, MAGIC_LAMBDA_FIT_COEFFS))} only")
    if not abs(eta) <= 0.5:  # NaN too
        raise ValueError(f"|eta| <= 0.5 required, got {eta}")
    return float(sum(c * eta ** (2 * k) for k, c in enumerate(coeffs)))


def magic_lambda(rep: SpinRep, eta: float) -> float:
    """Root lambda*(S, eta) of Delta_p(0, lambda, eta) = 0.

    Defined for integer spins with an m = 0 level; at eta = 0 the equation
    degenerates (Delta_p is identically zero), so the root of the limiting
    kernel q(0, lambda) is returned instead.  Valid for |eta| <= 0.5.
    """
    if rep.two_s % 2 != 0:
        raise ValueError("magic coupling needs an m = 0 level (integer spin)")
    if not abs(eta) <= 0.5:  # NaN too
        raise ValueError(f"|eta| <= 0.5 required, got {eta}")

    if abs(eta) < _ETA_SERIES_THRESHOLD:
        def objective(lam):
            return q_coefficient(rep, 0.0, lam)
    else:
        def objective(lam):
            return delta_p(rep, 0.0, lam, eta) / eta**2

    lo, hi = _MAGIC_BRACKETS.get(rep.two_s // 2, _MAGIC_BRACKET_DEFAULT)
    flo, fhi = objective(lo), objective(hi)
    if max(abs(flo), abs(fhi)) < 1e-9:
        raise NoRootError(
            f"correction kernel is numerically zero on [{lo}, {hi}]; "
            f"no isolated magic coupling exists for this spin")
    if flo * fhi > 0.0:
        raise NoRootError(
            f"Delta_p(0, lambda, eta={eta}) has one sign at both ends of [{lo}, {hi}], "
            f"so the bracket holds no root or an even number of roots")
    from scipy.optimize import brentq  # on demand: keeps scipy off start-up
    root = brentq(objective, lo, hi, xtol=1e-13, rtol=8.9e-16)
    residual = abs(delta_p(rep, 0.0, root, eta))
    if residual > 1e-10:
        raise NoRootError(f"root polish failed, |Delta_p| = {residual:.2e}")
    return float(root)


@dataclass(frozen=True)
class TransverseShift:
    """Second-order transverse coefficients at one coupling: the energy
    shift ``value`` (the half-sum of the x and y auxiliary shifts ``ex``
    and ``ey``), the phase coefficient ``p2``, the geometric coefficient
    ``c_xy``, the smallest opposite-parity gap, and whether that gap lies
    in the warning window."""

    value: float
    ex: float
    ey: float
    p2: float
    c_xy: float
    min_gap: float
    large_correction: bool


def transverse_second_order(rep: SpinRep, m: float,
                            lam: float) -> TransverseShift:
    """Second-order transverse coefficients of the level m at ``lam``.

    With gaps D_n = E_m - E_n to the opposite-parity levels n and the real
    elements x_n = <n|Sigma_x|m>, y_n = -i <n|Sigma_y|m>, the auxiliary
    problems H(lambda) - mu Sigma_{x,y} shift by E_x = sum_n x_n^2 / D_n and
    E_y = sum_n y_n^2 / D_n.  Cross terms in Sigma_x Sigma_y cancel by
    symmetry, so E_perp2 is the plain half-sum (the squared rotation
    factors average to 1/2 for slowly varying rotation rates).

    p2 = (1 + lambda d/dlambda) E_perp2 is differentiated exactly: with
    V = Sigma_x**2 in the eigenbasis, D_n moves as V_mm - V_nn and the
    eigenbasis turns as dU/dlambda = U G, G_jk = V_jk / (E_k - E_j) within
    each parity block, so A = U^T Sigma U moves as G^T A + A G.

    C_xy = Im <psi_y^1 | psi_x^1> = -sum_n x_n y_n / D_n^2: the first-order
    perturbation vectors live in the opposite-parity subspace, with real x
    and purely imaginary y elements, so the overlap is purely imaginary.
    """
    energies, vectors, v, same = _eigensystem(rep, lam)
    i = _label_index(rep, m)
    opposite = ~same[i]
    gap = energies[i] - energies[opposite]
    min_gap = float(np.min(np.abs(gap), initial=np.inf))
    if min_gap < _GAP_ERROR:
        raise NearDegeneracyError(
            f"opposite-parity gap {min_gap:.2e} below {_GAP_ERROR:.0e} "
            f"at lambda={lam}")
    g = np.divide(v, energies - energies[:, None], out=np.zeros_like(v),
                  where=same & ~np.eye(rep.dim, dtype=bool))
    dgap = v[i, i] - np.diagonal(v)[opposite]
    # gap**2 overflows only past |gap| ~ 1e154, where its quotients round to 0
    with np.errstate(over="ignore"):
        gap_sq = gap**2
    terms = []  # (elements, shift, d shift / d lambda) for x, then y
    for op in (rep.sigma_x, (rep.sigma_y / 1j).real):  # Sigma_y = i * real
        a = vectors.T @ op @ vectors
        x, dx = a[opposite, i], (g.T @ a + a @ g)[opposite, i]
        terms.append((x, x @ (x / gap), x @ (2 * dx / gap - x * dgap / gap_sq)))
    (x, ex, dex), (y, ey, dey) = terms
    value = 0.5 * (ex + ey)
    return TransverseShift(value=float(value), ex=float(ex), ey=float(ey),
                           p2=float(value + lam * ((dex + dey) / 2)),
                           c_xy=float(np.sum(-x * y / gap_sq)),
                           min_gap=min_gap,
                           large_correction=min_gap < _GAP_WARN)


def longitudinal_phase(rep: SpinRep, m: float, schedule: CycleSchedule,
                       eta_of_t=None, quad_points: int = 4097):
    """Rotating-frame longitudinal dynamical phase and its O(eta) part.

    Returns ``(full, first_order)`` where

        full        = - int b (1 - eta) E(m, lambda/(1 - eta)) dt
        first_order = + int b eta p(m, lambda) dt

    The first-order part equals the geometric phase minus the winding term
    whenever ``eta_of_t`` is the rotation-rate ratio of the schedule itself
    (the default).  Supplying ``eta_of_t`` explicitly allows reversed or
    rescaled rotation rates without rebuilding the schedule.  It is
    called on the array of quadrature nodes; a scalar result is broadcast.
    """
    schedule.validate()
    if eta_of_t is None:
        eta_of_t = schedule.eta
    ts = _quad_grid(schedule.duration, quad_points)
    etas = np.broadcast_to(np.asarray(eta_of_t(ts), dtype=float), ts.shape)
    if np.any(np.abs(etas) >= 1.0):
        raise ValueError("|eta(t)| must stay below 1 on the whole cycle")
    bs = schedule.b(ts)
    lams = schedule.lam(ts)

    _, energies, _, p = _level(rep, m, np.stack([lams / (1.0 - etas), lams]))
    full = _simpson(-bs * (1.0 - etas) * energies[0], ts)
    first_order = _simpson(bs * etas * p[1], ts)
    return full, first_order
