r"""Rayleigh MAC channel sampling and the cyclic-delay-diversity structure.

A cyclic delay diversity (CDD) transmitter sends, from each of its n_tx
antennas, a cyclically shifted copy of the same length-T symbol block with
T = n_tx (one extra sample of delay per antenna).  Over one block the link
from user k to receive antenna i then acts as a T x T circulant built from
the channel taps, and the stacked multi-user matrix is diagonalized bin by
bin by the unitary DFT.

Conventions frozen here (tests pin all of them):

* ``dft_matrix(T)`` is D[m, k] = exp(-2j*pi*m*k/T)/sqrt(T); D is symmetric.
* The codeword matrix shifts rows right; it is a standard circulant and is
  diagonalized by the similarity D G D^H = sqrt(T) diag(D^H x).
* Each effective-channel block shifts rows left, which makes it complex
  symmetric; it satisfies the congruence D A D = sqrt(T) diag(D h) (both
  sides D, not a similarity).  This is the identity that makes the per-bin
  reduction below exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import dft_matrix


@dataclass(frozen=True)
class SystemConfig:
    """Scenario parameters for one Monte-Carlo experiment.

    snr is a linear power ratio; dB conversion happens only at the CLI
    boundary.  The CDD block length always equals n_tx.
    """

    users: int
    n_tx: int
    n_rx: int
    snr: float
    trials: int
    seed: int

    def __post_init__(self):
        if min(self.users, self.n_tx, self.n_rx) < 1:
            raise ValueError("users, n_tx and n_rx must all be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not np.isfinite(self.snr) or self.snr < 0:
            raise ValueError("snr must be finite and >= 0 (linear scale)")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")

    @property
    def block_length(self) -> int:
        return self.n_tx


def _philox_start(seed: int, trial: int) -> dict:
    """The .state of a new Philox keyed by (seed, trial): counter 0, empty
    buffer.  Plain ints, because the state setter reads the dict entry by
    entry, which is cheaper from ints than from the uint64 arrays the
    getter returns."""
    return {"bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": [seed, trial]},
            "buffer": [0, 0, 0, 0], "buffer_pos": 4,
            "has_uint32": 0, "uinteger": 0}


def sample_channel_block(cfg: SystemConfig, start: int, stop: int) -> np.ndarray:
    """All user channels of trials [start, stop), shape
    (stop-start, users, n_rx, n_tx), i.i.d. unit-power circularly-symmetric
    complex Gaussian.  Trial t is (z[..., 0] + 1j * z[..., 1]) / sqrt(2) for
    the standard normals z, shape (users, n_rx, n_tx, 2), of a Philox keyed
    by (cfg.seed, t): any worker reproduces any trial, so results never
    depend on scheduling.

    The normals of a trial are read from the start of its stream, so a
    config's block is the C-order flat prefix (block_prefix) of the block
    of any config with the same seed and trial span and at least as many
    entries per trial.
    """
    if not 0 <= start <= stop <= cfg.trials:
        raise ValueError(f"trials [{start}, {stop}) outside [0, {cfg.trials})")
    z = np.empty((stop - start, cfg.users, cfg.n_rx, cfg.n_tx, 2))
    bits = np.random.Philox(key=np.array([cfg.seed, start], np.uint64))
    gen = np.random.Generator(bits)
    # One pair serves the block: before each trial the Philox is reset to
    # the state a new Philox keyed by (seed, t) starts in (counter 0, empty
    # buffer), which costs a fraction of constructing a new pair.  The
    # Generator keeps no state of its own between standard_normal calls.
    fresh = _philox_start(cfg.seed, start)
    key = fresh["state"]["key"]
    for j, trial in enumerate(range(start, stop)):
        key[1] = trial
        bits.state = fresh
        gen.standard_normal(out=z[j])
    # divide as complex numbers: dividing the real buffer instead changes
    # the last bit of about a quarter of the entries
    block = z.view(np.complex128)[..., 0]
    block /= np.sqrt(2.0)
    return block


def block_prefix(block: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """cfg's channels for the trials of a block drawn, with cfg's seed, for
    a config with at least as many entries per trial: the first
    users * n_rx * n_tx entries of each trial in C order, as a contiguous
    (trials, users, n_rx, n_tx) array."""
    trials, *per_trial = block.shape
    flat = block.reshape(trials, int(np.prod(per_trial)))
    size = cfg.users * cfg.n_rx * cfg.n_tx
    if size > flat.shape[1]:
        raise ValueError(f"block has {flat.shape[1]} entries per trial, "
                         f"config needs {size}")
    return np.ascontiguousarray(flat[:, :size]).reshape(
        trials, cfg.users, cfg.n_rx, cfg.n_tx)


def sample_channels(cfg: SystemConfig, trial_index: int) -> np.ndarray:
    """One realization of all user channels, shape (users, n_rx, n_tx):
    row 0 of sample_channel_block(cfg, trial_index, trial_index + 1)."""
    return sample_channel_block(cfg, trial_index, trial_index + 1)[0]


def cdd_codeword(symbols) -> np.ndarray:
    """T x T CDD codeword matrix for one symbol block.

    Row 1 is the symbol vector; each later row is the previous one shifted
    cyclically right by one (antenna r transmits the block delayed by r-1).
    """
    x = np.asarray(symbols)
    if x.ndim != 1 or x.size < 1:
        raise ValueError("symbols must be a nonempty 1-D vector")
    n = x.size
    shift = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    return x[shift]


def _left_circulant(taps: np.ndarray) -> np.ndarray:
    # Row r = (h_r, h_{r+1}, ..., h_{r-1}) along the last axis: complex
    # symmetric, diagonalized by the congruence D A D rather than a similarity.
    n = taps.shape[-1]
    idx = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    return taps[..., idx]


def effective_channel(channels) -> np.ndarray:
    """Stacked block-circulant CDD channel, shape (n_rx*T, T*users).

    Row-block i / column-block k is the left-shift circulant built from the
    taps between user k and receive antenna i, so y_block = H_eff @ x_stack
    reproduces the codeword view cdd_codeword(x_k) @ h for every antenna.
    """
    ch = np.asarray(channels, dtype=np.complex128)
    if ch.ndim != 3:
        raise ValueError("channels must have shape (users, n_rx, n_tx)")
    users, n_rx, n_tx = ch.shape
    blocks = _left_circulant(ch)  # [k, i, r, c] -> row i*T + r, col k*T + c
    return blocks.transpose(1, 2, 0, 3).reshape(n_rx * n_tx, n_tx * users)


def shuffle_permutation(n_tx: int, n_rx: int) -> np.ndarray:
    """Stride permutation regrouping antenna-major rows into bin-major rows.

    Position i*n_tx + t (receive antenna i, DFT bin t, both 0-based) maps to
    t*n_rx + i.  Conjugating the DFT-rotated Gram of the effective channel
    with this matrix leaves exactly one n_rx x n_rx block per bin.
    """
    if n_tx < 1 or n_rx < 1:
        raise ValueError("n_tx and n_rx must be >= 1")
    size = n_tx * n_rx
    # row i*n_tx + t of the identity's rows taken in order t*n_rx + i
    return np.eye(size)[np.arange(size).reshape(n_tx, n_rx).T.ravel()]


def reduce_to_parallel(channels) -> np.ndarray:
    """Per-bin parallel subchannels: (..., users, n_rx, n_tx) channels give
    (..., n_tx, n_rx, users) bins, any leading (trial) axes kept.

    Entry [..., t, i, k] is the t-th unitary-DFT coefficient of the tap
    vector between user k and receive antenna i; the unitary scaling keeps
    entries unit-variance complex Gaussian when the inputs are.  Each stack
    satisfies

        P^T (I kron D) Heff Heff^H (I kron D)^H P
            = blockdiag(n_tx * Hp_t Hp_t^H),

    with P from shuffle_permutation, which is what makes the reduced rate
    path exact.
    """
    ch = np.asarray(channels)
    if ch.ndim < 3:
        raise ValueError("channels must have shape (..., users, n_rx, n_tx)")
    bins = ch @ dft_matrix(ch.shape[-1])  # D is symmetric: rows go through D
    return np.swapaxes(bins, -1, -3)
