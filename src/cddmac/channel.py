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

from .linalg import _buffer, _index, _seed, dft_matrix

# Fixed Monte-Carlo chunk size.  It fixes the summation order of every
# estimate (rates.run_chunks) and keys the channel streams (the chunk index
# is part of every stream's key), so it is part of the contract: changing it
# changes every estimate.
CHUNK = 4096
# Channel entries per stream within a chunk (see sample_channel_block).
GROUP = 8


@dataclass(frozen=True)
class SystemConfig:
    """The channel draw of one Monte-Carlo experiment: system size, trial
    count and seed.  SNR is an argument of the rates, not part of the draw.
    The CDD block length always equals n_tx.
    """

    users: int
    n_tx: int
    n_rx: int
    trials: int
    seed: int

    def __post_init__(self):
        for name in ("users", "n_tx", "n_rx", "trials"):
            object.__setattr__(self, name,
                               _index(name, getattr(self, name), 1))
        object.__setattr__(self, "seed", _seed("seed", self.seed))
        # a chunk's channels, CHUNK trials of complex128 entries, must be an
        # array numpy can index: 2**47 - 1 entries per trial on 64 bits
        size = self.users * self.n_rx * self.n_tx
        if size * 16 * CHUNK > np.iinfo(np.intp).max:
            raise ValueError(f"users * n_rx * n_tx must be at most "
                             f"{np.iinfo(np.intp).max // (16 * CHUNK)}, "
                             f"got {size}")


def sample_channel_block(cfg: SystemConfig, start: int, stop: int) -> np.ndarray:
    """All user channels of trials [start, stop), shape
    (stop-start, users, n_rx, n_tx), i.i.d. unit-power circularly-symmetric
    complex Gaussian.

    Entry e of a trial is its C-order index over (users, n_rx, n_tx).  Trial
    t of chunk c = t // CHUNK holds, as entries 8g ... 8g+7, row t - c*CHUNK
    of stream (c, g), the standard normals of
    Generator(SFC64(SeedSequence(seed, spawn_key=(c, g)))) read as shape
    (trials, 8, 2); each entry is (re + 1j*im) / sqrt(2).  Stream (c, g) is
    thus child g of child c of SeedSequence(seed), as spawn() makes them.
    So

    * the key depends only on the fixed chunk schedule, and any worker
      reproduces any chunk: results never depend on scheduling;
    * a config's block is the C-order flat prefix (block_prefix) of the
      block of any config with the same seed and trial span and at least as
      many entries per trial;
    * trial t's channel depends neither on cfg.trials nor on how a span is
      split: each stream is read from its chunk's first trial up to stop
      and the rows before start are dropped.

    Inside a chunk of rates.run_chunks the block is a view of the chunk
    thread's workspace (linalg._buffer), valid until the thread's next
    draw.
    """
    start, stop = _index("start", start), _index("stop", stop)
    if not 0 <= start <= stop <= cfg.trials:
        raise ValueError(f"trials [{start}, {stop}) outside [0, {cfg.trials})")
    size = cfg.users * cfg.n_rx * cfg.n_tx
    # the draw buffers before any generator: a block too large to allocate
    # fails before it sets up one generator per group
    z = _buffer("z", (stop - start, size, 2))
    # one stream's rows: at most a chunk, fewer when the span ends early
    normals = _buffer("normals",
                      (min(stop - start // CHUNK * CHUNK, CHUNK), GROUP, 2))
    chunks = range(start // CHUNK, -(-stop // CHUNK)) if stop > start else ()
    for chunk in chunks:
        first = chunk * CHUNK
        lo, hi = max(start, first), min(stop, first + CHUNK)
        for group, entry in enumerate(range(0, size, GROUP)):
            # spawn_key, not the seed words [seed, chunk, group]:
            # SeedSequence pads a short entropy with zero words, so [0, 1, 2]
            # and [2**32, 2, 0] would give one stream for two seeds
            gen = np.random.Generator(np.random.SFC64(np.random.SeedSequence(
                cfg.seed, spawn_key=(chunk, group))))
            gen.standard_normal(out=normals[:hi - first])
            # numpy divides a complex by a real c as a multiply by 1.0 / c,
            # so this gives the bits of (re + 1j*im) / sqrt(2) (tested);
            # dividing the normals by sqrt(2) would not
            np.multiply(normals[lo - first:hi - first, :size - entry],
                        1.0 / np.sqrt(2.0),
                        out=z[lo - start:hi - start, entry:entry + GROUP])
    return z.view(np.complex128).reshape(stop - start, cfg.users, cfg.n_rx,
                                         cfg.n_tx)


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
    row 0 of sample_channel_block(cfg, trial_index, trial_index + 1).  Each
    call draws its chunk's streams from the chunk's first trial, so loops
    over many trials should draw one block instead."""
    trial_index = _index("trial_index", trial_index)
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


def _as_stack(x, name: str = "channels",
              axes: str = "users, n_rx, n_tx") -> np.ndarray:
    """x as a complex128 array of shape (..., *axes), any leading (trial)
    axes kept; the one shape check of every batched entry point."""
    arr = np.asarray(x, dtype=np.complex128)
    if arr.ndim < 3 or 0 in arr.shape[-3:]:
        raise ValueError(f"{name} must be a nonempty (..., {axes}) stack, "
                         f"got shape {arr.shape}")
    return arr


def effective_channel(channels) -> np.ndarray:
    """Stacked block-circulant CDD channel: (..., users, n_rx, T) channels
    give (..., n_rx*T, T*users), any leading (trial) axes kept.

    Row-block i / column-block k is the left-shift circulant built from the
    taps between user k and receive antenna i, so y_block = H_eff @ x_stack
    reproduces the codeword view cdd_codeword(x_k) @ h for every antenna.
    """
    ch = _as_stack(channels)
    *lead, users, n_rx, n_tx = ch.shape
    blocks = _left_circulant(ch)  # [..., k, i, r, c]: row i*T+r, col k*T+c
    return np.moveaxis(blocks, -4, -2).reshape(*lead, n_rx * n_tx,
                                               n_tx * users)


def shuffle_permutation(n_tx: int, n_rx: int) -> np.ndarray:
    """Stride permutation regrouping antenna-major rows into bin-major rows.

    Position i*n_tx + t (receive antenna i, DFT bin t, both 0-based) maps to
    t*n_rx + i.  Conjugating the DFT-rotated Gram of the effective channel
    with this matrix leaves exactly one n_rx x n_rx block per bin.
    """
    n_tx, n_rx = _index("n_tx", n_tx, 1), _index("n_rx", n_rx, 1)
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
    path exact.  Inside a chunk of rates.run_chunks the bins are a view of
    the chunk thread's workspace (linalg._buffer), valid until its next
    call.
    """
    ch = _as_stack(channels)
    n_tx = ch.shape[-1]
    # one GEMM over all rows instead of one per (n_rx, n_tx) matrix: the
    # same bits (tested); D is symmetric, so rows go through D
    bins = np.matmul(ch.reshape(-1, n_tx), dft_matrix(n_tx),
                     out=_buffer("bins", (ch.size // n_tx, n_tx), complex))
    return np.swapaxes(bins.reshape(ch.shape), -1, -3)
