"""Exact time-dependent Schroedinger integration.

Every run's Hamiltonian is sum_k c_k(t) O_k over K <= 4 fixed operators:
Sigma_z and Sigma_x^2 of a parity block, plus Sigma_x and Sigma_y while phi
or theta moves.  Every run is sampled in one place (:func:`_sampled`): its
spin-free coefficients (:func:`_coefficients`) at the Gauss nodes of
fourth-order Magnus steps (:func:`_cf4_propagators`), by default
``STEPS_PER_UNIT`` per unit time of each stage (:func:`_step_grid`), and
each spin's operators (:func:`_stacked_operators`).  Its step matrices take
one of three forms: closed-form SU(2) rotations times a phase on two levels
(:func:`_two_level_steps`), a closed form at the roots of the characteristic
cubic on three (:func:`_three_level_exponentials`), stacked ``eigh`` on
more.  One kernel composes them for every run (:func:`_sweep`, every
product one :func:`_compose`), whose operators may carry run axes, so that
the blocks of several spins step as one run: its up-sweep gives the run
propagator (:func:`_run_propagator`), for the coupling ramps of
:func:`ramp_fidelity` and of the stretch tuner of :mod:`spinberry.entangle`,
and its down-sweep every step-end state (:func:`_magnus_run`), for the runs
tracked in the paper's co-rotating frame (:func:`_tracked_runs`), whose
references solve only the tracked level's parity block: cycles, and mirror
pairs of one or more spins stepped as one run (:func:`_mirror_pairs`).
Time is in units of 1/(gamma_S B0) throughout.  Functions of time (and of
couplings) take scalars or arrays; arrays give their matrices stacked along
the leading axes.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .berry import _quad_grid, _simpson
from .hamiltonian import _block, _block_operators, _level, polarization
from .schedules import CycleSchedule, Segment, from_segments
from .spin_algebra import EulerAngles, SpinRep, rotation_unitary

logger = logging.getLogger(__name__)

# Steps times stacked runs of two-level steps per block of _sweep,
# whose n-level blocks hold as many state entries (2 / n as many steps):
# enough to amortize a block's calls, few enough that a block's steps and
# tree stay small next to the states.
_STEP_RUNS = 4096

# Gauss nodes c-/+ and weights a-/+ of the CF4 step (see _cf4_propagators).
_C_MINUS, _C_PLUS = 0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0
_A_MINUS, _A_PLUS = 0.25 - np.sqrt(3.0) / 6.0, 0.25 + np.sqrt(3.0) / 6.0
_CF4_WEIGHTS = np.array([[_A_PLUS, _A_MINUS], [_A_MINUS, _A_PLUS]])

# The one default step density of every run (steps per unit time).
STEPS_PER_UNIT = 25

# Most steps one run may take, so that an overlong run fails before it allocates.
_MAX_STEPS = 1_000_000

# Leakage above which a mirror extraction is untrusted (``cycle`` exits 1).
_LEAKAGE_BOUND = 0.01


class LeakageWarning(UserWarning):
    """A run left ``leakage`` of its population outside the tracked level
    (or symmetry sectors), more than the ``bound`` its result trusts."""

    def __init__(self, message: str, leakage: float, bound: float):
        super().__init__(message)
        self.leakage = leakage
        self.bound = bound


class _StepBoundError(ValueError):
    """A run's step bound is above 2**52 (:func:`_sweep`): its step
    arithmetic fails as an overflowing one does."""


@dataclass
class CycleResult:
    """Outcome of one integrated run against its adiabatic reference.

    ``total_phase`` is the accumulated (un-wrapped) argument of the overlap
    with the tracked instantaneous eigenstate; ``dynamical_phase`` is
    -int E dt along the same level, and ``geometric_phase`` their
    difference.  ``leakage`` is the final population outside the tracked
    eigenstate.  ``final_state`` and ``sz_expectation`` are in the lab frame.
    """

    final_state: np.ndarray
    total_phase: float
    dynamical_phase: float
    geometric_phase: float
    leakage: float
    norm_drift: float
    sz_expectation: float


class _Grid(NamedTuple):
    """The steps of one run."""

    dts: np.ndarray     # step widths, (steps,)
    nodes: np.ndarray   # each step's two Gauss nodes, (steps, 2)
    halves: np.ndarray  # step ends and midpoints in turn, (2 steps + 1,)


def _grid(edges, counts) -> _Grid:
    """``counts[i]`` equal steps from ``edges[i]`` to ``edges[i + 1]``, at
    least two in all.

    Neighbouring stages of equal step width form one run of steps
    start + k dt, so stages of integer duration at ``STEPS_PER_UNIT`` give
    the uniform grid k dt to the bit.
    """
    count, duration = sum(counts), edges[-1] - edges[0]
    if count < 2:
        raise ValueError(f"steps must be at least 2, got {count}")
    if not count <= _MAX_STEPS:  # before any step array is allocated
        raise ValueError(f"a run of duration {duration:g} at {count / duration:g} steps per "
                         f"unit time takes {count:,.0f} steps, more than {_MAX_STEPS:,}")
    pieces = []  # [start, dt, steps] of each run of equal steps
    for start, end, n in zip(edges[:-1], edges[1:], counts):
        dt = (end - start) / n
        if pieces and pieces[-1][1] == dt:
            pieces[-1][2] += n
        else:
            pieces.append([start, dt, n])
    dts = np.concatenate([np.full(n, dt) for _, dt, n in pieces])
    nodes = np.concatenate([start + np.add.outer(np.arange(n), [_C_MINUS, _C_PLUS]) * dt
                            for start, dt, n in pieces])
    end = [pieces[-1][0] + 0.5 * pieces[-1][1] * (2 * pieces[-1][2])]
    halves = np.concatenate([start + 0.5 * dt * np.arange(2 * n)
                             for start, dt, n in pieces] + [end])
    return _Grid(dts, nodes, halves)


def _step_grid(schedule: CycleSchedule, steps: int | None = None) -> _Grid:
    """The steps of a run over ``schedule``: ``steps`` equal steps (at least
    2), or by default ``STEPS_PER_UNIT`` equal steps per unit time of each
    stage (at least one per stage and two in all), so that step ends land on
    the stage boundaries."""
    if steps is not None:
        return _grid([0.0, schedule.duration], [steps])
    edges = [0.0, *schedule.boundaries, schedule.duration]
    counts = [max(1, round(STEPS_PER_UNIT * (end - start)))
              for start, end in zip(edges[:-1], edges[1:])]
    if len(counts) == 1:
        counts[0] = max(2, counts[0])
    return _grid(edges, counts)


def _exponent_basis(ops):
    """The basis (..., K, n**2) of :func:`_cf4_exponents` for operators
    ``ops`` (..., K, n, n): on two levels their Pauli components (x0, x),
    O = x0 + x . sigma, real where every O is Hermitian; on more, flattened."""
    n = ops.shape[-1]
    if n != 2:
        return ops.reshape(ops.shape[:-2] + (n * n,))
    (o00, o01), (o10, o11) = np.moveaxis(ops, (-2, -1), (0, 1))
    pauli = 0.5 * np.stack([o00 + o11, o01 + o10, 1j * (o01 - o10), o00 - o11], axis=-1)
    return pauli if pauli.imag.any() else pauli.real


def _compose(late, early):
    """Products ``late @ early`` of stacked (..., n, k) and (..., k, m): for
    k, m <= 4 the sum of k broadcast outer products, whose elementwise passes
    cost less than matmul's per-matrix calls on a run's small stacks."""
    k = early.shape[-2]
    if max(k, early.shape[-1]) > 4:
        return np.matmul(late, early)
    product = late[..., :1] * early[..., :1, :]
    for j in range(1, k):
        product += late[..., j:j + 1] * early[..., j:j + 1, :]
    return product


def _cf4_exponents(basis, coeffs):
    """The CF4 step's two exponents (a+ H- + a- H+, a- H- + a+ H+), stacked
    (2, B, ...), the first applied first (see :func:`_cf4_propagators`), from
    the coefficients ``coeffs`` (..., 2, K) of its node Hamiltonians on
    ``basis`` (..., K, B) (:func:`_exponent_basis`), whose leading axes
    broadcast against the runs'.  Weights and basis act as one matrix on
    each run's steps apart: a product's rounding may depend on its size."""
    weights = np.einsum("en,...kb->...ebnk", _CF4_WEIGHTS, basis)
    weights = weights.reshape(weights.shape[:-4] + (2 * basis.shape[-1], -1))
    runs = _compose(weights, np.swapaxes(coeffs.reshape(coeffs.shape[:-2] + (-1,)), -1, -2))
    return np.ascontiguousarray(
        np.moveaxis(runs.reshape(runs.shape[:-2] + (2, -1, runs.shape[-1])), (-3, -2), (0, 1)))


def _cf4_propagators(basis, coeffs, dts):
    """Propagators (steps, ..., n, n), step axis first, of CF4 steps of
    widths ``dts`` (..., steps) of the Hamiltonians sum_k c_k O_k given by
    their coefficients ``coeffs`` (..., steps, 2, K) at the steps' Gauss
    nodes, on the operators' ``basis`` (:func:`_exponent_basis`).

    The scheme is the fourth-order commutator-free Magnus integrator CF4:2
    of Blanes & Moan, Appl. Numer. Math. 56, 1519 (2006) (see also
    Alvermann & Fehske, J. Comput. Phys. 230, 5930 (2011)), whose global
    error falls as dt**4.  A step [t, t + dt] samples the Hamiltonian at
    the Gauss nodes t + c-/+ dt, c-/+ = 1/2 -/+ sqrt(3)/6, giving H- and
    H+, and applies

        exp(-i dt (a- H- + a+ H+)) exp(-i dt (a+ H- + a- H+)),

    a-/+ = 1/4 -/+ sqrt(3)/6: the factor applied first weights the earlier
    node (the other order is only second order).  The exponents are linear
    in H, so they are formed on the coefficients (:func:`_cf4_exponents`),
    and exponentiated in one of three forms (:func:`_step_form`): on two
    levels as SU(2) rotations (:func:`_two_level_steps`, Cayley-Klein), on
    three in closed form from the roots of the characteristic cubic
    (:func:`_three_level_exponentials`), and by one stacked
    ``numpy.linalg.eigh`` on more.  Two-level steps are unitary to
    rounding.  On more, one Newton-Schulz step P (3 - P^dag P) / 2 makes
    each step unitary to second order in its error, which would build up
    as norm drift over thousands of steps: eigh's eigenvectors fall
    slightly but systematically short of orthonormal, and a closed-form
    step is unitary only to about 5e-15 ||H|| dt, since its roots carry
    the rounding of ||H|| dt.  A step of width 0 with H = 0 is the
    identity.
    """
    n = round(basis.shape[-1] ** 0.5)
    if n == 2:  # z [[a, -conj(b)], [b, conj(a)]], z = exp(-i phase)
        phase, a, b = _two_level_steps(*_cf4_exponents(basis, coeffs), dts)
        z = np.exp(-1j * phase)
        steps = np.stack([z * a, -z * b.conj(), z * b, z * a.conj()], axis=-1)
        return np.moveaxis(steps.reshape(steps.shape[:-1] + (2, 2)), -3, 0)
    exponents = np.moveaxis(_cf4_exponents(basis, coeffs), 1, -1)
    exponents = exponents.reshape(exponents.shape[:-1] + (n, n))
    if n == 3:
        applied_first, applied_second = _three_level_exponentials(exponents, dts)
    else:
        w, u = np.linalg.eigh(exponents)
        phase, back = w * dts[..., None], u.conj().swapaxes(-1, -2)  # real for real exponents
        applied_first, applied_second = (_compose(u * np.cos(phase)[..., None, :], back)
                                         - 1j * _compose(u * np.sin(phase)[..., None, :], back))
    return np.moveaxis(_newton_schulz(_compose(applied_second, applied_first)), -3, 0)


def _step_form(n):
    """How :func:`_cf4_propagators` forms the step exponentials on n levels."""
    return {2: "Cayley-Klein", 3: "closed form"}.get(n, "eigh")


def _three_level_exponentials(exponents, dts):
    """exp(-i dt E) (..., 3, 3) of 3x3 Hermitian exponents E (..., 3, 3),
    real or complex, and step widths ``dts`` (...), in closed form.

    With t = tr(E) / 3, the eigenvalues e1 <= e2 <= e3 of E - t are the
    trigonometric roots 2 p cos(phi + 2 pi k / 3) of its characteristic
    cubic e**3 - 3 p**2 e - det(E - t), p**2 = tr((E - t)**2) / 6,
    cos(3 phi) = det(E - t) / (2 p**3).  At the nodes x_k = dt (t + e_k),
    the eigenvalues of X = dt E, Newton's interpolation of f(x) = exp(-i x)
    gives

        exp(-i X) = f[x1] + f[x1, x2] (X - x1) + f[x1, x2, x3] (X - x1) (X - x2)

    exactly, by Cayley-Hamilton, with f[a, b] = -i exp(-i (a + b) / 2)
    sinc((a - b) / 2) and f[x1, x2, x3] = (f[x2, x3] - f[x1, x2]) / (x3 - x1),
    where x3 - x1 >= 3 p dt is the largest gap (J. Kopp, Int. J. Mod. Phys.
    C 19, 523, 2008, for the roots).  Where roots nearly coincide, arccos
    leaves each of them uncertain, but their symmetric functions, and so
    the formula, stay those of E to rounding: no eigenvector and no
    ``eigh`` fallback is needed.  With coinciding nodes the divided
    differences stay finite, and the (X - x1) (X - x2) term shrinks with
    the gaps.  E = c I (and dt = 0) gives exp(-i c dt) I.
    """
    tiny = np.finfo(float).tiny
    a0, a1, a2 = np.moveaxis(exponents.diagonal(0, -2, -1).real, -1, 0)
    t = (a0 + a1 + a2) / 3.0
    a0, a1, a2 = a0 - t, a1 - t, a2 - t
    u, v, w = exponents[..., 0, 1], exponents[..., 0, 2], exponents[..., 1, 2]
    uu, vv, ww = (np.real(z * z.conj()) for z in (u, v, w))
    p = np.sqrt((0.5 * (a0 * a0 + a1 * a1 + a2 * a2) + (uu + vv + ww)) / 3.0)
    det = a0 * (a1 * a2 - ww) - a1 * vv - a2 * uu + 2.0 * np.real(u * w * v.conj())
    phi = np.arccos(np.clip(det / np.maximum(2.0 * p * p * p, tiny), -1.0, 1.0)) / 3.0
    e1, e3 = 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0), 2.0 * p * np.cos(phi)
    e2 = -(e1 + e3)
    x1, half12, half23 = dts * (t + e1), 0.5 * dts * (e2 - e1), 0.5 * dts * (e3 - e2)

    def divided(phase, half):  # f[a, b] = -i exp(-i phase) sinc(half), half >= 0
        half = np.maximum(half, tiny)
        return -1j * np.exp(-1j * phase) * (np.sin(half) / half)

    f12 = divided(x1 + half12, half12)
    f123 = ((divided(x1 + 2.0 * half12 + half23, half23) - f12)
            / np.maximum(dts * (e3 - e1), tiny))
    shifted = exponents.copy(order="K")  # E - t - e1 = (X - x1) / dt, in E's layout
    for k, ak in enumerate((a0, a1, a2)):
        shifted[..., k, k] = ak - e1
    product = _compose(shifted, shifted) - (e2 - e1)[..., None, None] * shifted
    steps = (f12 * dts)[..., None, None] * shifted + (f123 * dts * dts)[..., None, None] * product
    f1 = np.exp(-1j * x1)
    for k in range(3):
        steps[..., k, k] += f1
    return steps


def _newton_schulz(props):
    """One Newton-Schulz step P (3 - P^dag P) / 2 towards the nearest unitary
    of each nearly unitary P (..., n, n): its error falls to second order."""
    return _compose(props, 1.5 * np.eye(props.shape[-1])
                    - 0.5 * _compose(props.conj().swapaxes(-1, -2), props))


def _two_level_steps(first, second, dts):
    """CF4 steps exp(-i dt second) exp(-i dt first) of 2x2 Hermitian
    exponents given by their Pauli components ``first`` and ``second``
    (4, ...) (:func:`_cf4_exponents`), in closed form, as Cayley-Klein
    parameters (phase, a, b) (...) of
    U = exp(-i phase) [[a, -conj(b)], [b, conj(a)]], |a|^2 + |b|^2 = 1.

    Each exponent dt H = x0 + x . sigma gives
    exp(-i dt H) = exp(-i x0) (cos r - i sinc(r) x . sigma), r = |x|, whose
    rotation part is the unit quaternion (cos r, sinc(r) x), where
    sinc(r) = sin(r) / r is taken as 0 at r = 0 (x = 0).  The rotations multiply
    as quaternions, (c2, s2)(c1, s1) = (c2 c1 - s2 . s1, c2 s1 + c1 s2 + s2 x s1),
    and the product (c, s) is a = c - i s_z, b = s_y - i s_x, so each step
    is unitary to rounding without an eigensolve.
    """
    def rotation(h):
        x0, *x = np.real(h) * dts
        r = np.sqrt(x[0] ** 2 + x[1] ** 2 + x[2] ** 2)
        sinc = np.sin(r) / np.where(r > 0.0, r, 1.0)
        return x0, np.cos(r), [sinc * xk for xk in x]

    x0_1, c1, (a1, b1, z1) = rotation(first)
    x0_2, c2, (a2, b2, z2) = rotation(second)
    c = c2 * c1 - (a2 * a1 + b2 * b1 + z2 * z1)
    sx = c2 * a1 + c1 * a2 + (b2 * z1 - z2 * b1)
    sy = c2 * b1 + c1 * b2 + (z2 * a1 - a2 * z1)
    sz = c2 * z1 + c1 * z2 + (a2 * b1 - b2 * a1)
    return x0_1 + x0_2, c - 1j * sz, sy - 1j * sx


def _sweep(ops, coeffs, dts, initial=None):
    """States (..., steps + 1, n) at the step ends of runs from ``initial``
    (..., n), row k after k steps, or without ``initial`` the propagators
    (..., n, n), of CF4 steps of widths ``dts`` (..., steps) of
    sum_k c_k O_k on ``ops`` (..., K, n, n), given by their coefficients
    ``coeffs`` (..., steps, 2, K) at the Gauss nodes (:func:`_cf4_propagators`).
    Operators with run axes broadcast them against those of ``coeffs``, so
    runs on operator sets of one size (the blocks of several spins) share
    one call; sets that do not broadcast raise ValueError.

    The step matrices are formed a block at a time, a power of two near
    ``_STEP_RUNS`` steps of all runs on two levels (as many state entries on
    more).  They enter a work-efficient prefix scan (G. E. Blelloch,
    CMU-CS-90-190, 1990), every product one :func:`_compose`.  Its up-sweep
    multiplies them pairwise (an odd one out passes up as if paired with the
    identity) into the propagator that carries the running (n, 1) vectors,
    for a propagator the identity's columns, over the block; one
    Newton-Schulz step ends a run propagator's drift from unitary.  Its
    down-sweep walks the tree back, a right child starting where its left
    sibling ends: each state is one left child applied to one vector,
    written in place and not renormalized.  The runs stacked with a run set
    the block size, and a block's tree is a subtree of a larger block's, so
    they change a run's results only where its blocks join: not at all, to
    the bit, in at most two blocks; at rounding level in more, where a block
    past the second starts from the previous block's end rather than from a
    larger tree's product.  The bound sum_k |c_k| ||O_k|| dt on max ||H|| dt
    (||O_k|| <= its largest row sum), logged at DEBUG level with the run's
    sizes and step form (:func:`_step_form`), should be <~ 1; above 2**52,
    where a step phase's float spacing reaches 1 rad, the run raises
    ValueError (a NaN bound passes, for the leakage contracts to reject).
    """
    n, states = ops.shape[-1], initial is not None
    runs = int(np.prod(np.broadcast_shapes(ops.shape[:-3], coeffs.shape[:-3])))
    with np.errstate(all="ignore"):  # sum_k |c_k| ||O_k|| at the nodes, times dt
        norms = np.abs(ops).sum(axis=-1).max(axis=-1)[..., None, None, :]
        node = np.einsum("...k,...k->...", np.abs(coeffs), norms)
        bound = np.max(np.maximum(node[..., 0], node[..., 1]) * dts, initial=0.0)
    del node  # not held through the sweep
    if not states:  # the identity's columns, as n vectors of every run
        coeffs, dts, initial = coeffs[..., None, :, :, :], dts[..., None, :], np.eye(n)
        ops = ops[..., None, :, :, :]
    if bound > 2.0 ** 52:
        raise _StepBoundError(f"the step bound sum_k |c_k| ||O_k|| dt = {bound:.3g} is above "
                              f"2**52, where the float spacing of a step phase reaches 1 rad")
    steps = dts.shape[-1]
    block = 1 << (max(1, 2 * _STEP_RUNS // (runs * n)) - 1).bit_length()
    starts = range(0, steps, block)
    logger.debug("%s: %d runs of %d steps in %d blocks of %d steps, K = %d, "
                 "max ||H|| dt <= %.3g, %s (%s%s)",
                 "_magnus_run" if states else "_run_propagator",
                 runs, steps, len(starts), block, ops.shape[-3], bound,
                 "states" if states else "propagators",
                 _step_form(n), " loop" if states else "")
    basis = _exponent_basis(ops)
    psi = np.asarray(initial, dtype=complex)[..., None]
    if states:
        out = np.empty((steps + 1,) + psi.shape, dtype=complex)
        out[0] = psi
    for first in starts:
        levels = [_cf4_propagators(basis, coeffs[..., first:first + block, :, :],
                                   dts[..., first:first + block])]
        while len(levels[-1]) > 1:  # a propagator keeps only the top level
            x = levels[-1] if states else levels.pop()
            pairs = _compose(x[1::2], x[:-1:2])
            levels.append(np.concatenate([pairs, x[-1:]]) if len(x) % 2 else pairs)
        if not states:
            psi = _compose(levels[-1][0], psi)
            continue
        end = first + len(levels[0])
        for level in reversed(range(len(levels[0]).bit_length())):
            stride = 2 ** level
            right = out[first + stride:end + 1:2 * stride]
            right[...] = _compose(levels[level][:2 * len(right):2],
                                  out[first:end + 1 - stride:2 * stride])
    if states:
        return np.moveaxis(out[..., 0], 0, -2)
    return _newton_schulz(psi[..., 0].swapaxes(-1, -2))


def _run_propagator(ops, coeffs, dts):
    """Propagators (..., n, n) of runs of CF4 steps (:func:`_sweep`)."""
    return _sweep(ops, coeffs, dts)


def _magnus_run(ops, coeffs, dts, initial):
    """States (..., steps + 1, n) at the step ends of runs of CF4 steps from
    ``initial`` (..., n) (:func:`_sweep`)."""
    return _sweep(ops, coeffs, dts, initial)


def _norm_drift(states):
    """Largest deviation of the norm from its initial value along each run
    of states (..., steps + 1, n)."""
    norms = np.linalg.norm(states, axis=-1)
    return np.abs(norms - norms[..., :1]).max(axis=-1)


def _frames(rep: SpinRep, schedule: CycleSchedule, t) -> np.ndarray:
    """Rotation unitaries U(R(t)) of the schedule's field axes."""
    return rotation_unitary(rep, EulerAngles(theta=schedule.theta(t),
                                             phi=schedule.phi(t),
                                             alpha=schedule.alpha(t)))


def _coefficients(schedules, nodes):
    """Coefficients (len(schedules), steps, 2, K) at ``nodes`` of the
    co-rotating-frame Hamiltonians sum_k c_k O_k (:func:`_stacked_operators`)
    of runs that share lambda(t) and b(t), less each run's Coriolis term
    alpha_dot D_alpha + phi_dot D_phi + theta_dot D_theta, with
    D_alpha = Sigma_z, D_phi = cos(theta) Sigma_z + sin(theta) (sin(alpha)
    Sigma_y - cos(alpha) Sigma_x) and D_theta = cos(alpha) Sigma_y
    + sin(alpha) Sigma_x.  While phi and theta stand still at every node,
    that is (b - alpha_dot) Sigma_z + b lambda Sigma_x^2 (K = 2), which
    conserves the parity (-1)^(S-m); else phi and theta add Sigma_x and
    Sigma_y (K = 4).  No coefficient depends on the spin."""
    b, lam = schedules[0].b(nodes), schedules[0].lam(nodes)
    rates = [(s.alpha_dot(nodes), s.phi_dot(nodes), s.theta_dot(nodes)) for s in schedules]
    moving = any(np.any(rate[1:]) for rate in rates)
    coeffs = np.empty((len(schedules),) + np.shape(nodes) + (4 if moving else 2,))
    for c, s, (alpha_dot, phi_dot, theta_dot) in zip(coeffs, schedules, rates):
        c[..., 0], c[..., 1] = b - alpha_dot, b * lam
        if moving:
            theta, alpha = s.theta(nodes), s.alpha(nodes)
            c[..., 0] -= phi_dot * np.cos(theta)
            c[..., 2] = phi_dot * np.sin(theta) * np.cos(alpha) - theta_dot * np.sin(alpha)
            c[..., 3] = -phi_dot * np.sin(theta) * np.sin(alpha) - theta_dot * np.cos(alpha)
    return coeffs


def _stacked_operators(reps, m: float, moving: bool = False):
    """Basis indices of each rep's block and the operators O_k of
    :func:`_coefficients` on it, stacked (len(reps), K, n, n): level m's
    parity block, or every index while phi or theta moves (one size, or ValueError)."""
    sels = [np.arange(rep.dim) if moving else _block(rep, m) for rep in reps]
    return sels, np.stack([_block_operators(rep, sel) + ((rep.sigma_x, rep.sigma_y) if moving
                                                         else ()) for rep, sel in zip(reps, sels)])


def _sampled(reps, m: float, schedules, steps: int | None = None):
    """The step grid, each rep's basis indices and operators and the
    coefficients, the same for every rep, of runs from level m over
    ``schedules``, which share lambda(t) and b(t)."""
    grid = _step_grid(schedules[0], steps)
    coeffs = _coefficients(schedules, grid.nodes)
    sels, ops = _stacked_operators(reps, m, moving=coeffs.shape[-1] > 2)
    return grid, sels, ops, coeffs


def _references(reps, m: float, schedule: CycleSchedule, grid: _Grid):
    """Step phases and references of runs tracking level m, one pair per rep
    of ``reps``, which depend on lambda(t) and b(t) only, sampled once for
    every rep: the labeled eigenvector psi_hat(m, lambda) at each step end,
    made sign-continuous, and -int b E(m, lambda) dt over each step by
    Simpson's rule on its ends and midpoint.  Only level m's parity block is
    solved (:func:`spinberry.hamiltonian._level`)."""
    lams, bs = schedule.lam(grid.halves), schedule.b(grid.halves)
    pairs = []
    for rep in reps:
        sel, energies, vectors, _ = _level(rep, m, lams)
        terms = bs * energies
        step_phases = -grid.dts / 6.0 * (terms[:-1:2] + 4.0 * terms[1::2] + terms[2::2])
        refs = np.zeros((len(grid.dts) + 1, rep.dim))
        refs[:, sel] = vectors[::2]
        # the phase needs a continuous reference, and the per-lambda sign
        # convention flips where the parent component passes through zero
        overlaps = np.sum(refs[1:] * refs[:-1], axis=-1)
        refs[1:] *= np.cumprod(np.where(overlaps < 0.0, -1.0, 1.0))[:, None]
        pairs.append((step_phases, refs))
    return pairs


def _tracked_runs(reps, m: float, schedules, steps: int | None = None):
    """Co-rotating-frame runs from level m, a list per rep of ``reps`` of one
    result per schedule of ``schedules``, which share lambda(t) and b(t):
    the runs (:func:`_sampled`) and every rep's :func:`_references` are
    sampled once, and every run steps in one :func:`_magnus_run` on its
    rep's block.  Each step turns a run's overlap with its rep's references
    by its dynamical phase plus a rest taken within pi, so nothing wraps.
    The geometric phase adds the winding -m (2 n_phi + n_alpha) pi of the
    laboratory eigenstate U(R(t)) psi_hat(m, lambda(t)), referring the total
    phase back to the initial eigenstate.  Final states are in the
    laboratory frame; a non-finite run leaks NaN, which no bound accepts.
    The runs are tracked together, but each final norm alone: a stacked norm
    rounds apart."""
    grid, sels, ops, coeffs = _sampled(reps, m, schedules, steps)
    phases, refs = zip(*_references(reps, m, schedules[0], grid))
    refs = np.stack([ref[:, sel] for ref, sel in zip(refs, sels)])[:, None]  # real
    shape = (len(reps), len(schedules), refs.shape[-1])
    runs = _magnus_run(ops[:, None], coeffs, grid.dts, np.broadcast_to(refs[..., 0, :], shape))
    tracked = np.ascontiguousarray(np.sum(refs * runs, axis=-1))  # rows sum as alone
    turns = np.exp(-1j * np.array(phases))[:, None]
    rests = np.sum(np.angle(tracked[..., 1:] / tracked[..., :-1] * turns), axis=-1)
    results = []
    for rep, sel, step_phases, *rows in zip(reps, sels, phases, runs, tracked, rests,
                                            _norm_drift(runs)):
        dynamical = float(np.sum(step_phases))
        results.append([])
        for schedule, states, overlaps, rest, drift in zip(schedules, *rows):
            norm = np.linalg.norm(states[-1])
            leakage = np.maximum(1.0 - abs(overlaps[-1]) ** 2 / norm ** 2, 0.0)
            geometric = float(rest) - m * (2 * schedule.n_phi + schedule.n_alpha) * np.pi
            psi = _frames(rep, schedule, schedule.duration)[:, sel] @ states[-1]
            results[-1].append(CycleResult(
                final_state=psi, total_phase=dynamical + geometric, dynamical_phase=dynamical,
                geometric_phase=geometric, leakage=float(leakage), norm_drift=float(drift),
                sz_expectation=float(np.real(np.vdot(psi, rep.sigma_z @ psi)))))
    return results


def run_cycle(rep: SpinRep, m: float, schedule: CycleSchedule,
              steps: int | None = None) -> CycleResult:
    """Integrate one closed cycle starting from the instantaneous eigenstate m
    (see :func:`_tracked_runs`)."""
    schedule.validate()
    return _tracked_runs([rep], m, [schedule], steps)[0][0]


@dataclass(frozen=True)
class MirrorResult:
    """Geometric phase extracted by subtracting the image cycle."""

    extracted_phase: float
    forward: CycleResult
    mirrored: CycleResult


def _mirror_pairs(reps, m: float, schedule: CycleSchedule,
                  steps: int | None = None) -> list[MirrorResult]:
    """:func:`mirror_phase_difference` without its warnings, one result per
    rep of ``reps``.  The image has the same lambda(t) and b(t), hence the
    same step grid, references and dynamical phase, which the extraction
    leaves out rather than subtracts; every rep's cycle and image are
    stepped as one stacked run (:func:`_tracked_runs`)."""
    schedule.validate()
    runs = _tracked_runs(reps, m, [schedule, schedule.mirror()], steps)
    return [MirrorResult(0.5 * (forward.geometric_phase - mirrored.geometric_phase),
                         forward, mirrored) for forward, mirrored in runs]


def mirror_phase_difference(rep: SpinRep, m: float, schedule: CycleSchedule,
                            steps: int | None = None) -> MirrorResult:
    """Half the difference of the total phases of a cycle and its image.

    The dynamical phase and all even-in-rotation-rate corrections cancel
    in the subtraction; what survives is the geometric phase plus the
    odd-order non-adiabatic corrections.
    """
    result, = _mirror_pairs([rep], m, schedule, steps)
    for name, res in (("forward", result.forward), ("mirrored", result.mirrored)):
        if not res.leakage <= _LEAKAGE_BOUND:  # NaN leakage warns too
            warnings.warn(LeakageWarning(
                f"{name} run leaked {res.leakage:.3f} out of the tracked "
                f"level; extracted phase is untrusted", res.leakage, _LEAKAGE_BOUND),
                stacklevel=2)
    return result


@dataclass(frozen=True)
class RampResult:
    """Final <Sigma_z> of a coupling ramp against the adiabatic prediction."""

    sz_final: float
    sz_adiabatic: float
    deviation: float
    final_state: np.ndarray


def _ramp(lambda0: float, duration: float, shape: str) -> CycleSchedule:
    """The coupling ramp 0 -> lambda0 as a one-segment schedule with fixed
    field axes."""
    return from_segments([Segment("ramp", duration, shape, lambda_to=lambda0)])


def ramp_fidelity(rep: SpinRep, m: float, lambda0: float, duration: float,
                  shape: str = "blackman", steps: int | None = None) -> RampResult:
    """Final <Sigma_z> of a coupling ramp 0 -> lambda0 from level m against
    the adiabatic polarization p(m, lambda0).

    The final state is the propagator (:func:`_run_propagator`) of the
    ramp's run on level m's parity block (:func:`_sampled`), whose
    coefficients are (1, lambda) on every block, applied to level m at
    lambda = 0, with no references and no per-step states."""
    grid, (sel,), ops, coeffs = _sampled([rep], m, [_ramp(lambda0, duration, shape)], steps)
    psi = np.zeros(rep.dim, dtype=complex)
    psi[sel] = _run_propagator(ops, coeffs, grid.dts)[0] @ _level(rep, m, 0.0)[2]
    sz_final = float(np.real(np.vdot(psi, rep.sigma_z @ psi)))
    sz_adiabatic = polarization(rep, m, lambda0)
    return RampResult(sz_final=sz_final, sz_adiabatic=sz_adiabatic,
                      deviation=sz_final - sz_adiabatic, final_state=psi)


def _adiabatic_dynamical_phases(reps, m, lambda0, duration, shape, quad_points):
    """-int E(m, lambda(t)) dt along a coupling ramp, the dynamical phase of
    level m followed adiabatically, of each rep of ``reps`` on one sample of
    the ramp (for the stretch tuner's prediction, of unit duration)."""
    ts = _quad_grid(duration, quad_points)
    lams = _ramp(lambda0, duration, shape).lam(ts)
    return [_simpson(-_level(rep, m, lams)[1], ts) for rep in reps]
