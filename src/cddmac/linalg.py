"""Dense complex linear-algebra helpers shared by every other module."""

from __future__ import annotations

import numpy as np

# Max element asymmetry tolerated before a matrix is rejected as non-Hermitian.
HERMITIAN_ATOL = 1e-10


def dft_matrix(n: int) -> np.ndarray:
    """Unitary DFT matrix, D[m, k] = exp(-2j*pi*m*k/n) / sqrt(n).

    This sign/normalization is frozen: the circulant-diagonalization
    identities in the channel module (and their tests) assume it.
    """
    if n < 1:
        raise ValueError("dft_matrix requires n >= 1")
    idx = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n)


def logdet_hermitian_psd(a: np.ndarray) -> float:
    """ln det(a) for a Hermitian positive-definite matrix, via Cholesky.

    Rejects non-square or visibly non-Hermitian input (tolerance
    HERMITIAN_ATOL on the max element asymmetry).  A non-positive-definite
    matrix surfaces as np.linalg.LinAlgError from the factorization.
    Intended callers pass I + (positive semidefinite), which is always in
    range.  Returns natural log; rate code converts to bits once.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    asym = float(np.max(np.abs(a - a.conj().T)))
    if asym > HERMITIAN_ATOL:
        raise ValueError(f"matrix is not Hermitian: max asymmetry {asym:.3e}")
    lower = np.linalg.cholesky(a)
    return 2.0 * float(np.sum(np.log(lower.diagonal().real)))
