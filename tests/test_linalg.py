"""Matrix-core tests: DFT construction and the Hermitian log-determinant.

The log-determinant oracle below expands by cofactors (O(n!)), so it shares
no code path with the Cholesky-based implementation.
"""

import numpy as np
import pytest

from cddmac.linalg import dft_matrix, logdet_hermitian_psd


def cofactor_det(a: np.ndarray) -> complex:
    n = a.shape[0]
    if n == 1:
        return complex(a[0, 0])
    total = 0.0 + 0.0j
    for col in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), col, axis=1)
        total += (-1) ** col * a[0, col] * cofactor_det(minor)
    return total


def random_psd(rng, n: int) -> np.ndarray:
    half = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.eye(n) + half @ half.conj().T


# --- dft_matrix ---------------------------------------------------------


def test_dft_2x2_frozen():
    expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    np.testing.assert_allclose(dft_matrix(2), expected, atol=1e-15)


def test_dft_first_row_and_column_flat():
    mat = dft_matrix(5)
    np.testing.assert_allclose(mat[0], np.full(5, 1 / np.sqrt(5)), atol=1e-15)
    np.testing.assert_allclose(mat[:, 0], np.full(5, 1 / np.sqrt(5)),
                               atol=1e-15)


@pytest.mark.parametrize("n", range(1, 9))
def test_dft_unitary(n):
    mat = dft_matrix(n)
    np.testing.assert_allclose(mat @ mat.conj().T, np.eye(n), atol=1e-12)


def test_dft_symmetric():
    mat = dft_matrix(7)
    np.testing.assert_allclose(mat, mat.T, atol=1e-15)


@pytest.mark.parametrize("bad", [0, -1])
def test_dft_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        dft_matrix(bad)


# --- logdet_hermitian_psd -----------------------------------------------


def test_logdet_identity_is_zero():
    assert logdet_hermitian_psd(np.eye(4)) == pytest.approx(0.0, abs=1e-14)


def test_logdet_diagonal_frozen():
    got = logdet_hermitian_psd(np.diag([1.0, 2.0, 4.0]))
    assert got == pytest.approx(np.log(8.0), rel=1e-14)


def test_logdet_scaled_identity():
    assert logdet_hermitian_psd(3.0 * np.eye(5)) == pytest.approx(
        5 * np.log(3.0), rel=1e-13)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_logdet_matches_cofactor_expansion(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(5):
        mat = random_psd(rng, n)
        reference = cofactor_det(mat)
        assert abs(reference.imag) < 1e-8 * abs(reference)
        assert logdet_hermitian_psd(mat) == pytest.approx(
            np.log(reference.real), rel=1e-9)


def test_logdet_sylvester_identity():
    rng = np.random.default_rng(7)
    for rows, cols in [(2, 5), (4, 3), (1, 6), (3, 3)]:
        h = rng.standard_normal((rows, cols)) \
            + 1j * rng.standard_normal((rows, cols))
        tall = logdet_hermitian_psd(np.eye(rows) + 0.7 * h @ h.conj().T)
        wide = logdet_hermitian_psd(np.eye(cols) + 0.7 * h.conj().T @ h)
        assert tall == pytest.approx(wide, abs=1e-9)


def test_logdet_unitary_invariance():
    rng = np.random.default_rng(8)
    mat = random_psd(rng, 4)
    raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    unitary, _ = np.linalg.qr(raw)
    rotated = unitary @ mat @ unitary.conj().T
    assert logdet_hermitian_psd(rotated) == pytest.approx(
        logdet_hermitian_psd(mat), abs=1e-9)


def test_logdet_rejects_nonsquare():
    with pytest.raises(ValueError):
        logdet_hermitian_psd(np.ones((2, 3)))


def test_logdet_rejects_nonhermitian():
    with pytest.raises(ValueError):
        logdet_hermitian_psd(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_logdet_rejects_negative_definite():
    with pytest.raises(np.linalg.LinAlgError):
        logdet_hermitian_psd(-np.eye(3))
