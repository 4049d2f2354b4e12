"""Matrix-core tests: DFT construction and the Hermitian log-determinant.

The log-determinant oracle below expands by cofactors (O(n!)), so it shares
no code path with the Cholesky-based implementation.
"""

import numpy as np
import pytest

from cddmac.linalg import _seed, dft_matrix, logdet_hermitian_psd


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


# --- _seed --------------------------------------------------------------


def test_seed_is_one_64_bit_word():
    for value in (0, np.uint64(2**64 - 1), 2**64 - 1):
        assert _seed("seed", value) == int(value)
        assert type(_seed("seed", value)) is int
    for value, message in ((-1, "seed must be >= 0"),
                           (2**64, r"seed must be < 2\*\*64"),
                           (1.0, "seed must be an integer")):
        with pytest.raises(ValueError, match=message):
            _seed("seed", value)


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


@pytest.mark.parametrize("bad", [0, -1, 2.5, 2.0])
def test_dft_rejects_nonpositive(bad):
    # 2.5 gave a 3 x 3 matrix scaled by 1/sqrt(2.5), which is not unitary
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
    # the tolerance scales with the entries, so a scaled copy is no excuse
    for scale in (1.0, 1e12):
        with pytest.raises(ValueError):
            logdet_hermitian_psd(scale * np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_logdet_rejects_negative_definite():
    with pytest.raises(np.linalg.LinAlgError):
        logdet_hermitian_psd(-np.eye(3))


def test_logdet_rejects_nonfinite_entries():
    # NaN compares False in the asymmetry test, and Cholesky does not raise
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            logdet_hermitian_psd(np.full((2, 2), bad))
        mat = np.eye(3, dtype=complex)
        mat[1, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            logdet_hermitian_psd(np.stack([np.eye(3), mat]))


def test_logdet_stack_is_one_call_per_matrix():
    rng = np.random.default_rng(9)
    stack = np.stack([random_psd(rng, 4) for _ in range(6)])
    expected = np.array([logdet_hermitian_psd(m) for m in stack])
    for lead in ((6,), (2, 3), (3, 1, 2)):
        got = logdet_hermitian_psd(stack.reshape(*lead, 4, 4))
        assert got.shape == lead
        assert got.tobytes() == expected.reshape(lead).tobytes()
    one = logdet_hermitian_psd(stack[0])
    assert type(one) is float and one == expected[0]


def test_logdet_stack_judges_each_matrix_by_its_own_scale():
    rng = np.random.default_rng(10)
    unit = random_psd(rng, 3)
    big = 1e12 * random_psd(rng, 3)
    big[0, 1] += 0.1      # asymmetry 0.1: rounding at this scale
    assert logdet_hermitian_psd(np.stack([unit, big])).tolist() \
        == [logdet_hermitian_psd(unit), logdet_hermitian_psd(big)]
    # an asymmetry the big neighbour's scale would excuse is still caught
    skewed = unit.copy()
    skewed[0, 1] += 1e-6
    with pytest.raises(ValueError, match="not Hermitian"):
        logdet_hermitian_psd(np.stack([big, skewed, unit]))


def test_logdet_stack_rejects_one_bad_member():
    rng = np.random.default_rng(11)
    stack = np.stack([random_psd(rng, 3) for _ in range(4)])
    skewed = stack.copy()
    skewed[2, 0, 1] += 1.0
    with pytest.raises(ValueError, match="not Hermitian"):
        logdet_hermitian_psd(skewed)
    indefinite = stack.copy()
    indefinite[1] = -np.eye(3)
    with pytest.raises(np.linalg.LinAlgError):
        logdet_hermitian_psd(indefinite)
