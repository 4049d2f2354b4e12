"""Linear-algebra helpers and the argument checks shared by every module."""

from __future__ import annotations

import operator

import numpy as np

# Max element asymmetry tolerated before a matrix is rejected as non-Hermitian,
# relative to the largest entry once that exceeds 1.
HERMITIAN_ATOL = 1e-10
LN2 = float(np.log(2.0))
# Largest linear snr accepted (3000 dB): here every rate and bound stays
# finite, while near 3080 dB the linear snr times a channel gain overflows.
_SNR_MAX = 1e300


def _index(name: str, value, minimum: int | None = None) -> int:
    """value as an int (operator.index), or a ValueError naming it; also
    one if value is below minimum."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def _seed(name: str, value) -> int:
    """_index(name, value, 0) below 2**64: one 64-bit Philox key word."""
    if (value := _index(name, value, 0)) >= 2**64:
        raise ValueError(f"{name} must be < 2**64, got {value}")
    return value


def _snr(snr) -> np.ndarray:
    """A linear snr, scalar or array, as a float array, or a ValueError
    unless every value is finite, >= 0 and at most _SNR_MAX."""
    snr = np.asarray(snr, dtype=float)
    if not np.all((snr >= 0) & (snr <= _SNR_MAX)):  # false for a nan too
        raise ValueError(f"snr must be finite and >= 0, at most "
                         f"{_SNR_MAX:g} (3000 dB)")
    return snr


def _scalar(value):
    """A 0-d result as a float; any other array as it is."""
    return float(value) if np.ndim(value) == 0 else value


def dft_matrix(n: int) -> np.ndarray:
    """Unitary DFT matrix, D[m, k] = exp(-2j*pi*m*k/n) / sqrt(n).

    This sign/normalization is frozen: the circulant-diagonalization
    identities in the channel module (and their tests) assume it.
    """
    n = _index("n", n, 1)
    idx = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n)


def logdet_hermitian_psd(a: np.ndarray):
    """ln det of each Hermitian positive-definite matrix of a (..., n, n)
    stack, via one stacked Cholesky factorization.

    Rejects non-square input, non-finite entries and any visibly
    non-Hermitian matrix: each matrix's max element asymmetry may not exceed
    HERMITIAN_ATOL * max(1, its own max |entry|), so a Gram matrix scaled by
    a large SNR, Hermitian up to rounding, is accepted next to unit-scale
    ones.  A non-positive-definite matrix anywhere in the stack surfaces as
    np.linalg.LinAlgError from the factorization.  Intended callers pass
    I + (positive semidefinite), which is always in range.  Returns natural
    log, shape (...), and a float for one matrix; each value has the bits
    of a call on its matrix alone (tested).  Rate code converts to bits once.
    """
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] == 0:
        raise ValueError(f"expected a (..., n, n) stack of square matrices, "
                         f"got shape {a.shape}")
    mag = np.abs(a).max(axis=(-2, -1))
    if not np.all(np.isfinite(mag)):  # NaN would pass every test below
        raise ValueError("matrix has non-finite entries")
    asym = np.abs(a - np.conj(np.swapaxes(a, -1, -2))).max(axis=(-2, -1))
    bad = asym > HERMITIAN_ATOL * np.maximum(1.0, mag)
    if np.any(bad):
        raise ValueError(f"matrix is not Hermitian: max asymmetry "
                         f"{np.max(asym[bad]):.3e}")
    lower = np.linalg.cholesky(a)
    diag = np.diagonal(lower, axis1=-2, axis2=-1).real
    logdet = 2.0 * np.log(diag).sum(axis=-1)
    return _scalar(logdet)
