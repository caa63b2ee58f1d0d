import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import rotation_matrix_3d
from spinberry import EulerAngles, m_parity, rotation_unitary, spin_matrices


def ladder_sx(two_s):
    # independent oracle: Sigma_x = (S+ + S-)/2 from sqrt(S(S+1) - m(m+-1))
    s = two_s / 2
    dim = two_s + 1
    m = s - np.arange(dim)
    sx = np.zeros((dim, dim))
    for i in range(dim - 1):
        amp = np.sqrt(s * (s + 1) - m[i + 1] * (m[i + 1] + 1)) / 2
        sx[i, i + 1] = sx[i + 1, i] = amp
    return sx


@pytest.mark.parametrize("two_s", [0, 1, 2, 3, 4, 6, 8])
def test_commutators_and_casimir(two_s):
    rep = spin_matrices(two_s)
    pairs = [(rep.sigma_x, rep.sigma_y, rep.sigma_z),
             (rep.sigma_y, rep.sigma_z, rep.sigma_x),
             (rep.sigma_z, rep.sigma_x, rep.sigma_y)]
    for a, b, c in pairs:
        residual = a @ b - b @ a - 1j * c
        assert np.abs(residual).max() < 1e-12
    casimir = (rep.sigma_x @ rep.sigma_x + rep.sigma_y @ rep.sigma_y
               + rep.sigma_z @ rep.sigma_z)
    s = two_s / 2
    assert np.abs(casimir - s * (s + 1) * np.eye(rep.dim)).max() < 1e-12


@pytest.mark.parametrize("two_s", [1, 2, 5, 8])
def test_reality_structure(two_s):
    rep = spin_matrices(two_s)
    assert np.abs(rep.sigma_x.imag).max() == 0
    assert np.abs(rep.sigma_z.imag).max() == 0
    assert np.abs(rep.sigma_x - rep.sigma_x.T).max() == 0
    assert np.abs(rep.sigma_y.real).max() == 0
    assert np.abs(rep.sigma_y + rep.sigma_y.T).max() < 1e-15


def test_sigma_z_descending_m():
    rep = spin_matrices(8)
    assert rep.dim == 9
    assert np.allclose(np.diag(rep.sigma_z), np.arange(4, -5, -1))


def test_pauli_half():
    rep = spin_matrices(1)
    assert np.allclose(rep.sigma_z, np.diag([0.5, -0.5]))
    assert np.allclose(rep.sigma_x, np.array([[0, 0.5], [0.5, 0]]))


def test_sx_matches_ladder_oracle():
    rep = spin_matrices(2)
    assert np.abs(rep.sigma_x - ladder_sx(2)).max() < 1e-14
    sx2 = rep.sigma_x @ rep.sigma_x
    assert np.allclose(np.diag(sx2), [0.5, 1.0, 0.5])
    assert sx2[0, 2] == pytest.approx(0.5)


def test_rejects_negative_two_s():
    with pytest.raises(ValueError):
        spin_matrices(-1)
    with pytest.raises(ValueError):
        spin_matrices(1.5)


def test_m_parity_values():
    assert m_parity(4, 2) == 1
    assert m_parity(4, 1) == -1
    assert m_parity(3, -0.5) == 1
    with pytest.raises(ValueError):
        m_parity(4, 0.5)
    with pytest.raises(ValueError):
        m_parity(4, 3)


def test_rotation_identity_and_z_pi():
    rep = spin_matrices(4)
    u = rotation_unitary(rep, EulerAngles(0.0, 0.0, 0.0))
    assert np.abs(u - np.eye(5)).max() < 1e-14
    u = rotation_unitary(rep, EulerAngles(0.0, 0.0, np.pi))
    assert np.allclose(np.diag(u), [1, -1, 1, -1, 1])
    assert np.abs(u - np.diag(np.diag(u))).max() < 1e-14


def test_rotation_tilts_polarization():
    rep = spin_matrices(1)
    u = rotation_unitary(rep, EulerAngles(theta=np.pi / 2, phi=0.0, alpha=0.0))
    up = np.array([1.0, 0.0], dtype=complex)
    tilted = u @ up
    sx_avg = np.real(np.vdot(tilted, rep.sigma_x @ tilted))
    sz_avg = np.real(np.vdot(tilted, rep.sigma_z @ tilted))
    assert sx_avg == pytest.approx(0.5, abs=1e-14)
    assert sz_avg == pytest.approx(0.0, abs=1e-14)


@settings(max_examples=40, deadline=None)
@given(theta=st.floats(0.0, np.pi), phi=st.floats(-10, 10),
       alpha=st.floats(-10, 10), two_s=st.sampled_from([1, 2, 4, 5]))
def test_conjugation_law(theta, phi, alpha, two_s):
    # U^dag Sigma_k U = sum_j R_kj Sigma_j for the same Euler angles
    rep = spin_matrices(two_s)
    angles = EulerAngles(theta, phi, alpha)
    u = rotation_unitary(rep, angles)
    r = rotation_matrix_3d(angles)
    sigmas = (rep.sigma_x, rep.sigma_y, rep.sigma_z)
    for k in range(3):
        lhs = u.conj().T @ sigmas[k] @ u
        rhs = sum(r[k, j] * sigmas[j] for j in range(3))
        assert np.abs(lhs - rhs).max() < 1e-10


@settings(max_examples=100, deadline=None)
@given(t1=st.floats(0, np.pi), p1=st.floats(-7, 7), a1=st.floats(-7, 7),
       t2=st.floats(0, np.pi), p2=st.floats(-7, 7), a2=st.floats(-7, 7))
def test_group_law(t1, p1, a1, t2, p2, a2):
    # U(R1) U(R2) must represent the composed rotation R1 R2
    rep = spin_matrices(2)
    e1, e2 = EulerAngles(t1, p1, a1), EulerAngles(t2, p2, a2)
    u_product = rotation_unitary(rep, e1) @ rotation_unitary(rep, e2)
    r_product = rotation_matrix_3d(e1) @ rotation_matrix_3d(e2)
    sigmas = (rep.sigma_x, rep.sigma_y, rep.sigma_z)
    for k in range(3):
        lhs = u_product.conj().T @ sigmas[k] @ u_product
        rhs = sum(r_product[k, j] * sigmas[j] for j in range(3))
        assert np.abs(lhs - rhs).max() < 1e-10


@pytest.mark.parametrize("two_s", [1, 2, 3])
def test_group_law_exact_euler_composition(two_s):
    # appending an extra z-rotation composes exactly, phases included
    rep = spin_matrices(two_s)
    for theta, phi, alpha in [(0.9, 1.7, 2.4), (2.2, -0.4, -5.0)]:
        lhs = (rotation_unitary(rep, EulerAngles(theta, phi, 0.0))
               @ rotation_unitary(rep, EulerAngles(0.0, 0.0, alpha)))
        rhs = rotation_unitary(rep, EulerAngles(theta, phi, alpha))
        assert np.abs(lhs - rhs).max() < 1e-12


@pytest.mark.parametrize("two_s", [1, 3, 4])
def test_rotation_unitarity(two_s):
    rep = spin_matrices(two_s)
    u = rotation_unitary(rep, EulerAngles(1.1, -2.3, 0.7))
    assert np.abs(u @ u.conj().T - np.eye(rep.dim)).max() < 1e-12


def test_theta_range_enforced():
    with pytest.raises(ValueError):
        EulerAngles(theta=-0.1, phi=0.0, alpha=0.0)
    with pytest.raises(ValueError):
        EulerAngles(theta=3.5, phi=0.0, alpha=0.0)
    # an out-of-range entry anywhere in an array of angles is caught too
    thetas = np.array([0.2, np.pi, np.pi + 1e-9, 1.0])
    with pytest.raises(ValueError):
        EulerAngles(theta=thetas, phi=0.0, alpha=0.0)
    with pytest.raises(ValueError):
        EulerAngles(theta=np.array([0.3, np.nan]), phi=0.0, alpha=0.0)


@pytest.mark.parametrize("two_s", [1, 4, 5])
def test_stacked_rotation_unitaries(two_s):
    # array-valued angles give the stack of the one-rotation unitaries
    rep = spin_matrices(two_s)
    rng = np.random.default_rng(two_s)
    theta = rng.uniform(0.0, np.pi, 9)
    phi, alpha = rng.uniform(-7.0, 7.0, (2, 9))
    stack = rotation_unitary(rep, EulerAngles(theta, phi, alpha))
    assert stack.shape == (9, rep.dim, rep.dim)
    for k in range(9):
        one = rotation_unitary(rep, EulerAngles(theta[k], phi[k], alpha[k]))
        assert np.abs(stack[k] - one).max() < 1e-15
    # a scalar theta broadcasts against arrays of phi and alpha
    fixed = rotation_unitary(rep, EulerAngles(0.7, phi, alpha))
    assert np.abs(fixed[3] - rotation_unitary(rep, EulerAngles(0.7, phi[3], alpha[3]))).max() < 1e-15


@pytest.mark.parametrize("two_s", [1, 4, 5])
def test_untilted_rotation_is_exactly_diagonal(two_s):
    # theta = 0 everywhere: no y-factor, so no rounding off the diagonal,
    # and the stack still has the broadcast shape of all three angles
    rep = spin_matrices(two_s)
    alpha = np.array([0.0, 1.3, 3 * np.pi])
    for angles, n in ((EulerAngles(0.0, 0.4, alpha), 3),
                      (EulerAngles(np.zeros(4), 0.4, 1.3), 4)):
        u = rotation_unitary(rep, angles)
        assert u.shape == (n, rep.dim, rep.dim)
        diagonal = np.diagonal(u, axis1=-2, axis2=-1)
        assert not np.any(u - diagonal[..., None] * np.eye(rep.dim))
        phases = np.exp(-1j * np.multiply.outer(angles.phi + angles.alpha, rep.m_values))
        assert np.abs(diagonal - phases).max() < 1e-14
