import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import polarization_hellmann_feynman
from spinberry import (characteristic_polynomial,
                       energy_derivative, labeled_spectrum, parity_blocks,
                       perturbative_polarization_m0, polarization,
                       reduced_hamiltonian, spin_matrices)
from spinberry.hamiltonian import _block
from spinberry.spin_algebra import m_parity

S2 = spin_matrices(4)
S3 = spin_matrices(6)
S4 = spin_matrices(8)
REPS = {1: spin_matrices(2), 2: S2, 3: S3, 4: S4}


# --- reference block matrices --------------------------------------------

def block_s2_odd(lam):
    return np.array([[2.5 * lam + 1, 1.5 * lam],
                     [1.5 * lam, 2.5 * lam - 1]])


def block_s2_even(lam):
    c = np.sqrt(1.5) * lam
    return np.array([[lam + 2, c, 0], [c, 3 * lam, c], [0, c, lam - 2]])


def block_s3_odd(lam):
    a = np.sqrt(15) * lam / 2
    return np.array([[1.5 * lam + 3, a, 0, 0],
                     [a, 5.5 * lam + 1, 3 * lam, 0],
                     [0, 3 * lam, 5.5 * lam - 1, a],
                     [0, 0, a, 1.5 * lam - 3]])


def block_s3_even(lam):
    c = np.sqrt(7.5) * lam
    return np.array([[4 * lam + 2, c, 0], [c, 6 * lam, c], [0, c, 4 * lam - 2]])


def block_s4_even(lam):
    a = np.sqrt(7) * lam
    b = 3 * np.sqrt(2.5) * lam
    return np.array([[2 * lam + 4, a, 0, 0, 0],
                     [a, 8 * lam + 2, b, 0, 0],
                     [0, b, 10 * lam, b, 0],
                     [0, 0, b, 8 * lam - 2, a],
                     [0, 0, 0, a, 2 * lam - 4]])


def block_s4_odd(lam):
    a = 3 * np.sqrt(7) * lam / 2
    return np.array([[5.5 * lam + 3, a, 0, 0],
                     [a, 9.5 * lam + 1, 5 * lam, 0],
                     [0, 5 * lam, 9.5 * lam - 1, a],
                     [0, 0, a, 5.5 * lam - 3]])


# monic characteristic polynomial coefficients as functions of lambda,
# descending powers of x
CHAR_POLYS = {
    ("2", "odd"): lambda u: [1, -5 * u, 4 * u**2 - 1],
    ("2", "even"): lambda u: [1, -5 * u, 4 * u**2 - 4, 12 * u],
    ("3", "odd"): lambda u: [1, -14 * u, 49 * u**2 - 10,
                             -36 * u**3 + 102 * u, -216 * u**2 + 9],
    ("3", "even"): lambda u: [1, -14 * u, 49 * u**2 - 4, -36 * u**3 + 24 * u],
    ("4", "odd"): lambda u: [1, -30 * u, 273 * u**2 - 10,
                             -820 * u**3 + 182 * u,
                             576 * u**4 - 712 * u**2 + 9],
    ("4", "even"): lambda u: [1, -30 * u, 273 * u**2 - 20,
                              -820 * u**3 + 472 * u,
                              576 * u**4 - 3152 * u**2 + 64,
                              5760 * u**3 - 640 * u],
}

BLOCK_BUILDERS = {
    ("2", "odd"): block_s2_odd, ("2", "even"): block_s2_even,
    ("3", "odd"): block_s3_odd, ("3", "even"): block_s3_even,
    ("4", "odd"): block_s4_odd, ("4", "even"): block_s4_even,
}


def closed_form_energy_s2_odd(m, lam):
    return (5 * lam + 2 * m * np.sqrt(9 * lam**2 / 4 + 1)) / 2


# --- structure -------------------------------------------------------------


@pytest.mark.parametrize("spin,name", BLOCK_BUILDERS)
@pytest.mark.parametrize("lam", [0.0, 0.3, 1.0, -0.7])
def test_blocks_match_reference_matrices(spin, name, lam):
    rep = REPS[int(spin)]
    even, odd = parity_blocks(reduced_hamiltonian(rep, lam))
    block = even if name == "even" else odd
    assert np.abs(block.matrix - BLOCK_BUILDERS[(spin, name)](lam)).max() < 1e-13


def test_block_shapes_and_m_values():
    even, odd = parity_blocks(reduced_hamiltonian(S2, 0.5))
    assert list(even.m_values) == [2, 0, -2]
    assert list(odd.m_values) == [1, -1]
    even3, odd3 = parity_blocks(reduced_hamiltonian(S3, 0.5))
    assert odd3.matrix.shape == (4, 4) and even3.matrix.shape == (3, 3)
    assert list(odd3.m_values) == [3, 1, -1, -3]
    h = reduced_hamiltonian(spin_matrices(1), 0.8)
    even_h, odd_h = parity_blocks(h)
    assert even_h.matrix.shape == (1, 1) and list(even_h.m_values) == [0.5]
    assert odd_h.matrix.shape == (1, 1) and list(odd_h.m_values) == [-0.5]


@pytest.mark.parametrize("two_s", range(13))
def test_block_rule_matches_m_parity(two_s):
    # the every-other-index block of level m holds exactly the levels of
    # m's parity (-1)^(S-m); Sigma_z and Sigma_x^2 never couple the two
    # blocks; parity_blocks names them by m (integer S) or S - m (half-integer)
    rep = spin_matrices(two_s)
    parities = [m_parity(two_s, mj) for mj in rep.m_values]
    for m in rep.m_values:
        sel = _block(rep, m)
        want = [j for j, pj in enumerate(parities) if pj == m_parity(two_s, m)]
        assert sel.tolist() == want
        other = np.setdiff1d(np.arange(rep.dim), sel)
        for op in (rep.sigma_z, rep.sigma_x @ rep.sigma_x):
            assert not np.any(op[np.ix_(sel, other)])
    even, odd = parity_blocks(reduced_hamiltonian(rep, 0.7))
    assert even.name == "even" and odd.name == "odd"
    assert len(even.m_values) + len(odd.m_values) == rep.dim
    named_by = (lambda m: m) if two_s % 2 == 0 else (lambda m: rep.s - m)
    assert all(round(named_by(m)) % 2 == 0 for m in even.m_values)
    assert all(round(named_by(m)) % 2 == 1 for m in odd.m_values)


def test_parity_selection_rule_exact_zero():
    h = reduced_hamiltonian(S4, 1.3)
    m = S4.m_values
    for i in range(S4.dim):
        for j in range(S4.dim):
            if (round(m[i] - m[j])) % 2 != 0:
                assert h.matrix[i, j] == 0.0


@pytest.mark.parametrize("spin,name", BLOCK_BUILDERS)
def test_characteristic_polynomials(spin, name):
    rep = REPS[int(spin)]
    for lam in np.linspace(-2, 2, 20):
        even, odd = parity_blocks(reduced_hamiltonian(rep, lam))
        block = even if name == "even" else odd
        got = characteristic_polynomial(block)
        want = np.array(CHAR_POLYS[(spin, name)](lam), dtype=float)
        assert np.abs(got - want).max() < 1e-10 * max(1.0, np.abs(want).max())


def test_characteristic_polynomial_examples():
    even, odd = parity_blocks(reduced_hamiltonian(S2, 1.0))
    assert np.allclose(characteristic_polynomial(odd), [1, -5, 3])
    assert np.allclose(characteristic_polynomial(even), [1, -5, 0, 12])
    _, odd4 = parity_blocks(reduced_hamiltonian(S4, 0.0))
    assert np.allclose(characteristic_polynomial(odd4), [1, 0, -10, 0, 9])


# --- labeled spectrum -------------------------------------------------------


def test_exact_values_s2_lambda_1():
    spec = labeled_spectrum(S2, 1.0)
    assert spec.energy(0.0) == pytest.approx(2.0, abs=1e-12)
    assert spec.polarization(0.0) == pytest.approx(1.0, abs=1e-12)
    root13 = np.sqrt(13.0)
    assert spec.energy(1.0) == pytest.approx((5 + root13) / 2, abs=1e-12)
    assert spec.energy(-1.0) == pytest.approx((5 - root13) / 2, abs=1e-12)


@pytest.mark.parametrize("two_s", [1, 2, 4, 6, 8])
def test_lambda_zero_is_trivial(two_s):
    rep = spin_matrices(two_s)
    spec = labeled_spectrum(rep, 0.0)
    assert np.allclose(spec.energies, rep.m_values)
    assert np.abs(spec.vectors - np.eye(rep.dim)).max() == 0.0


@pytest.mark.parametrize("lam", [0.4, 1.0, -1.3])
@pytest.mark.parametrize("two_s", [4, 6, 8])
def test_spectrum_invariants(two_s, lam):
    rep = spin_matrices(two_s)
    spec = labeled_spectrum(rep, lam)
    h = reduced_hamiltonian(rep, lam).matrix
    # eigen residual, orthonormality, realness, sign convention
    for m in rep.m_values:
        v = spec.vector(m)
        e = spec.energy(m)
        assert np.abs(h @ v - e * v).max() < 1e-12
        assert v.dtype.kind == "f"
        assert v[spec.index_of(m)] > 0.0
    gram = spec.vectors.T @ spec.vectors
    assert np.abs(gram - np.eye(rep.dim)).max() < 1e-12
    # parity support: components vanish off the label's own parity block
    m_basis = rep.m_values
    for m in rep.m_values:
        v = spec.vector(m)
        off_parity = np.array([round(mb - m) % 2 != 0 for mb in m_basis])
        assert np.abs(v[off_parity]).max() == 0.0


def test_large_lambda_pairing():
    spec = labeled_spectrum(S2, 50.0)
    assert spec.energy(2.0) / 50.0 == pytest.approx(4.0, rel=0.02)
    assert spec.energy(1.0) / 50.0 == pytest.approx(4.0, rel=0.02)
    assert abs(spec.energy(-2.0) / 50.0) < 0.1 * 4.0


@settings(max_examples=25, deadline=None)
@given(lam=st.floats(-2, 2), spin=st.sampled_from([1, 2, 3, 4]))
def test_sum_rule_and_reflection(lam, spin):
    rep = REPS[spin]
    spec = labeled_spectrum(rep, lam)
    spec_neg = labeled_spectrum(rep, -lam)
    assert abs(sum(spec.polarization(m) for m in rep.m_values)) < 1e-10
    for m in rep.m_values:
        assert abs(spec.energy(m) + spec_neg.energy(-m)) < 1e-10
        assert abs(spec.polarization(m) + spec_neg.polarization(-m)) < 1e-10


@pytest.mark.parametrize("m,lam", [(2.0, 0.6), (0.0, 1.1), (-1.0, 0.8)])
def test_hellmann_feynman_consistency(m, lam):
    direct = polarization(S2, m, lam)
    via_energy = polarization_hellmann_feynman(S2, m, lam)
    assert abs(direct - via_energy) < 1e-8


def test_alignment_tensor_off_diagonals_vanish():
    for lam in (0.5, 1.0, -1.2):
        spec = labeled_spectrum(S3, lam)
        ops = (S3.sigma_x, S3.sigma_y, S3.sigma_z)
        for m in S3.m_values:
            v = spec.vector(m).astype(complex)
            for i in range(3):
                for j in range(i + 1, 3):
                    anti = (ops[i] @ ops[j] + ops[j] @ ops[i]) / 2
                    assert abs(np.vdot(v, anti @ v)) < 1e-10


def test_closed_form_polarization_s2_odd():
    for lam in np.linspace(0.0, 1.4, 15):
        want = 2.0 / np.sqrt(9 * lam**2 + 4)
        assert polarization(S2, 1.0, lam) == pytest.approx(want, abs=1e-9)
        assert polarization(S2, -1.0, lam) == pytest.approx(-want, abs=1e-9)


# --- derivatives and perturbative formula ----------------------------------


def test_energy_derivative_against_closed_form():
    lam = 0.9
    h = 1e-7
    for m in (1.0, -1.0):
        want1 = (closed_form_energy_s2_odd(m, lam + h)
                 - closed_form_energy_s2_odd(m, lam - h)) / (2 * h)
        got1 = energy_derivative(S2, m, lam, order=1)
        assert got1 == pytest.approx(want1, abs=1e-7)
    want2 = 18 / (9 * lam**2 + 4) ** 1.5  # E'' for the m=+1 branch
    got2 = energy_derivative(S2, 1.0, lam, order=2)
    assert got2 == pytest.approx(want2, abs=1e-5)


def richardson_energy_derivative(rep, m, lam, order):
    """Central differences of the labelled energy with step
    1e-3 * max(1, |lam|) and one Richardson level: an independent
    reference for the exact perturbation sums."""
    h = 1e-3 * max(1.0, abs(lam))

    def e(x):
        return labeled_spectrum(rep, x).energy(m)

    def diff(hh):
        if order == 1:
            return (e(lam + hh) - e(lam - hh)) / (2 * hh)
        if order == 2:
            return (e(lam + hh) - 2 * e(lam) + e(lam - hh)) / hh**2
        return (e(lam + 2 * hh) - 2 * e(lam + hh)
                + 2 * e(lam - hh) - e(lam - 2 * hh)) / (2 * hh**3)

    return (4 * diff(h / 2) - diff(h)) / 3


@pytest.mark.parametrize("two_s", range(1, 13))
def test_energy_derivative_matches_richardson(two_s):
    # bounds sit above the differences' own error over this grid, relative
    # to max(1, |E^(k)|): worst 1.2e-10, 1.3e-7 and 1.1e-4 for k = 1, 2, 3
    bounds = {1: 1e-9, 2: 1e-6, 3: 1e-3}
    rep = spin_matrices(two_s)
    for m in rep.m_values:
        for lam in np.linspace(-3.0, 3.0, 13):
            for order, bound in bounds.items():
                exact = energy_derivative(rep, m, lam, order)
                ref = richardson_energy_derivative(rep, m, lam, order)
                assert abs(exact - ref) <= bound * max(1.0, abs(exact)), \
                    (m, lam, order)


@settings(max_examples=60, deadline=None)
@given(two_s=st.integers(1, 11), lam=st.floats(-1e3, 1e3))
def test_energy_derivative_sum_rules(two_s, lam):
    # sum_m E_m = tr H = lam tr(Sigma_x^2) = lam S(S+1)(2S+1)/3
    rep = spin_matrices(two_s)
    s = rep.s
    for order, want in ((1, s * (s + 1) * (2 * s + 1) / 3), (2, 0.0),
                        (3, 0.0)):
        terms = [energy_derivative(rep, m, lam, order) for m in rep.m_values]
        scale = max(1.0, max(abs(t) for t in terms))
        assert abs(sum(terms) - want) <= 1e-12 * scale, order


def test_perturbative_polarization_m0():
    assert perturbative_polarization_m0(S2, 0.2) == pytest.approx(0.024)
    assert perturbative_polarization_m0(S3, 0.1) == pytest.approx(0.015)
    assert perturbative_polarization_m0(S4, 0.0) == 0.0
    # small-coupling agreement with the exact polarization
    assert perturbative_polarization_m0(S2, 0.1) == pytest.approx(
        polarization(S2, 0.0, 0.1), rel=0.02)
    with pytest.raises(ValueError):
        perturbative_polarization_m0(spin_matrices(3), 0.1)
    with pytest.raises(ValueError):
        perturbative_polarization_m0(spin_matrices(2), 0.1)


# --- characteristic polynomial kernel --------------------------------------


def test_faddeev_leverrier_small_cases():
    assert np.allclose(characteristic_polynomial([[3.0]]), [1, -3])
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert np.allclose(characteristic_polynomial(a), [1, -4, 3])


def continued_spectrum(rep, lam, step=0.01):
    """Reference labels: follow each level from lambda = 0, where it is the
    basis state m, by maximal eigenvector overlap in steps of at most
    ``step`` (energies and vectors in basis order)."""
    energies = rep.m_values.astype(float).copy()
    vectors = np.eye(rep.dim)
    # Sigma_x^2 couples basis index i only to i +- 2
    blocks = [np.ix_(sel, sel) for sel in (np.arange(0, rep.dim, 2),
                                           np.arange(1, rep.dim, 2))]
    for x in np.linspace(0.0, lam, int(np.ceil(abs(lam) / step)) + 1)[1:]:
        h = reduced_hamiltonian(rep, x).matrix
        for block in blocks:
            w, v = np.linalg.eigh(h[block])
            match = np.argmax(np.abs(vectors[block].T @ v), axis=1)
            assert len(set(match)) == match.size, "step too coarse"
            energies[block[0][:, 0]] = w[match]
            vectors[block] = v[:, match]
    return energies, vectors


@settings(max_examples=30, deadline=None)
@given(two_s=st.integers(1, 10), lam=st.floats(-6, 6))
def test_rank_labels_match_continuation(two_s, lam):
    # 2S = 1..10 over [-6, 6]; the same check against the deleted Jacobi
    # continuation gave at most 1.1e-13 in energy and 1.1e-15 in overlap
    rep = spin_matrices(two_s)
    spec = labeled_spectrum(rep, lam)
    energies, vectors = continued_spectrum(rep, lam)
    assert np.abs(spec.energies - energies).max() < 1e-12
    overlaps = np.abs(np.sum(spec.vectors * vectors, axis=0))
    assert np.abs(overlaps - 1.0).max() < 1e-12


def _parent_zeros(rep, i):
    """Couplings in [-10, 10], bisected to rounding, where the parent
    component of the level in column i passes through zero.  There the
    sign convention flips the labeled vector, so neighbouring grid vectors
    overlap negatively."""
    from spinberry.hamiltonian import _spectra
    lams = np.linspace(-10.0, 10.0, 2001)
    vectors = _spectra(rep, lams)[1][..., i]
    zeros = []
    for k in np.flatnonzero(np.sum(vectors[1:] * vectors[:-1], axis=-1) < 0.0):
        lo, hi = lams[k], lams[k + 1]
        for _ in range(60):  # the parent component, signed against lams[k]
            mid = 0.5 * (lo + hi)
            v = _spectra(rep, mid)[1][:, i]
            lo, hi = (mid, hi) if np.sign(v @ vectors[k]) * v[i] > 0.0 else (lo, mid)
        zeros.append(lo)
    return zeros


@pytest.mark.parametrize("two_s", range(13))
def test_level_solve_matches_spectra(two_s):
    # the one-block solve of every per-level read against the labeled
    # spectrum, bit for bit: at 0, +-1e-3, the gauge-sphere poles +-230 and
    # +-300, and where the parent component vanishes and eigh's own sign
    # stands.  The polarization sums over the block, not over the zero-padded
    # column: equal bit for bit while numpy sums a column of 2S + 1 <= 7
    # terms in order, within 1e-15 where it sums 8 or more pairwise
    from spinberry.hamiltonian import _label_index, _level, _spectra
    rep = spin_matrices(two_s)
    for m in rep.m_values:
        i = _label_index(rep, m)
        zeros = _parent_zeros(rep, i)
        lams = np.array([0.0, 1e-3, -1e-3, 0.7, -2.3, 230.0, -230.0, 300.0, -300.0,
                         *np.linspace(-10.0, 10.0, 41)] + zeros)
        energies, vectors = _spectra(rep, lams)
        sel, level_energies, level_vectors, level_p = _level(rep, m, lams)
        np.testing.assert_array_equal(sel, _block(rep, m))
        np.testing.assert_array_equal(level_energies, energies[:, i])
        np.testing.assert_array_equal(level_vectors, vectors[:, sel, i])
        column = vectors[..., i]
        column_p = np.sum(rep.m_values * column * column, axis=-1)
        if two_s <= 6:
            np.testing.assert_array_equal(level_p, column_p)
        else:
            assert np.abs(level_p - column_p).max() <= 1e-15
        assert np.all(vectors[:, np.setdiff1d(np.arange(rep.dim), sel), i] == 0.0)
        if zeros:
            assert np.abs(vectors[len(lams) - len(zeros):, i, i]).max() < 1e-12


def test_labeled_polarization_reads_the_held_vectors(spectra_calls):
    # every level of 2S = 0..12 at 41 couplings: bit for bit polarization(),
    # with no solve beyond the labelled spectrum's own
    for two_s in range(13):
        rep = spin_matrices(two_s)
        for lam in np.linspace(-5.0, 5.0, 41):
            spec = labeled_spectrum(rep, lam)
            solves = len(spectra_calls)
            held = [spec.polarization(m) for m in rep.m_values]
            assert len(spectra_calls) == solves
            assert held == [polarization(rep, m, lam) for m in rep.m_values]


_TWO_STATE_BLOCKS = [(two_s, m) for two_s in range(13) for m in spin_matrices(two_s).m_values
                     if len(_block(spin_matrices(two_s), m)) == 2]


@pytest.mark.parametrize("two_s, m", _TWO_STATE_BLOCKS)
def test_two_state_blocks_match_eigh(two_s, m, monkeypatch):
    # the closed-form two-state block against stacked eigh with the same
    # sign rule, with no eigensolve of its own: energies within 1e-15 of the
    # block's scale, vectors within 1e-15
    from conftest import _eigh_block_spectra
    from spinberry import hamiltonian
    rep = spin_matrices(two_s)
    lams = np.array([0.0, 1e-12, -1e-12, 0.43, -0.43, 1.0, -1.0, 300.0, -300.0])
    want = _eigh_block_spectra(rep, m, lams)

    def no_eigh(*args, **kwargs):
        raise AssertionError("two-state block solved by eigh")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    sel, energies, vectors = hamiltonian._block_spectra(rep, m, lams)
    np.testing.assert_array_equal(sel, want[0])
    scale = np.abs(want[1]).max(axis=-1, keepdims=True)
    assert np.all(np.abs(energies - want[1]) <= 1e-15 * scale)
    assert np.abs(vectors - want[2]).max() <= 1e-15
    assert np.all(np.diff(energies, axis=-1) > 0.0)  # ascending
    assert np.all(np.diagonal(vectors[..., ::-1, :], axis1=-2, axis2=-1) > 0.0)
    # scalar lambdas give one block, as the stacked ones do
    scalar = hamiltonian._block_spectra(rep, m, np.float64(0.43))
    np.testing.assert_array_equal(scalar[1], energies[3])
    np.testing.assert_array_equal(scalar[2], vectors[3])
