"""Channel-model tests: sampling determinism, circulant structure, and the
bin-grouping permutation / parallel-channel reduction.

The block-diagonalization oracle at the bottom rebuilds the conjugated matrix
from explicit Kronecker/matrix products, independent of reduce_to_parallel's
internal shortcut.
"""

import numpy as np
import pytest

from cddmac.channel import (CHUNK, GROUP, SystemConfig, _left_circulant,
                            block_prefix, cdd_codeword, effective_channel,
                            reduce_to_parallel, sample_channel_block,
                            sample_channels, shuffle_permutation)
from cddmac.linalg import dft_matrix

# Bin-grouping permutation for n_tx=4, n_rx=2: row i*4+t carries its 1 in
# column t*2+i (receive-major in, bin-major out).
PERM_4_2 = np.zeros((8, 8))
for _i in range(2):
    for _t in range(4):
        PERM_4_2[_i * 4 + _t, _t * 2 + _i] = 1.0


# --- SystemConfig -------------------------------------------------------


def test_config_accepts_valid():
    SystemConfig(users=2, n_tx=3, n_rx=2, trials=50, seed=1)


@pytest.mark.parametrize("kwargs", [
    dict(users=0), dict(n_tx=0), dict(n_rx=0), dict(trials=0),
    dict(users=-1), dict(n_tx=-1), dict(trials=-1),
    dict(seed=-1), dict(seed=2 ** 64),
    dict(seed=1.5), dict(users=2.0), dict(n_tx=1.5), dict(n_rx="2"),
    dict(trials=10.0),
])
def test_config_rejects_invalid(kwargs):
    # the message names the field; a float seed would otherwise run the
    # draw of its integer part, and float sizes fail inside numpy
    base = dict(users=1, n_tx=1, n_rx=1, trials=10, seed=0)
    base.update(kwargs)
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        SystemConfig(**base)


def test_config_refuses_a_chunk_numpy_cannot_index():
    # a chunk of CHUNK trials of complex128 entries must be an array numpy
    # can index: 2**47 - 1 entries per trial on 64-bit platforms
    most = np.iinfo(np.intp).max // (16 * CHUNK)
    SystemConfig(users=most, n_tx=1, n_rx=1, trials=10, seed=0)
    for users, n_tx, n_rx in ((most + 1, 1, 1), (1, most + 1, 1),
                              (most // 2 + 1, 1, 2), (10**19, 1, 1)):
        with pytest.raises(ValueError, match=r"^users \* n_rx \* n_tx"):
            SystemConfig(users=users, n_tx=n_tx, n_rx=n_rx, trials=10, seed=0)


def test_config_stores_integer_types_as_int():
    # numpy integer fields would multiply in their own width: a uint8
    # users * n_rx * n_tx of 16 * 16 * 2 wraps to 0
    cfg = SystemConfig(users=np.uint8(16), n_tx=np.uint8(16), n_rx=np.uint8(2),
                       trials=np.int32(10), seed=np.uint64(2 ** 63))
    assert cfg == SystemConfig(users=16, n_tx=16, n_rx=2, trials=10,
                               seed=2 ** 63)
    assert all(type(v) is int for v in vars(cfg).values())


# --- sample_channels ----------------------------------------------------


def test_sample_shapes_and_dtype():
    cfg = SystemConfig(users=2, n_tx=3, n_rx=2, trials=10, seed=0)
    ch = sample_channels(cfg, 0)
    assert ch.shape == (2, 2, 3)
    assert ch.dtype == np.complex128


def test_sample_deterministic_per_trial():
    cfg = SystemConfig(users=2, n_tx=2, n_rx=2, trials=10, seed=42)
    first = sample_channels(cfg, 7)
    second = sample_channels(cfg, 7)
    np.testing.assert_array_equal(first, second)
    assert not np.array_equal(first, sample_channels(cfg, 6))
    other_seed = SystemConfig(users=2, n_tx=2, n_rx=2, trials=10, seed=43)
    assert not np.array_equal(first, sample_channels(other_seed, 7))


def test_sample_order_independent():
    cfg = SystemConfig(users=1, n_tx=2, n_rx=1, trials=10, seed=5)
    backwards = [sample_channels(cfg, t) for t in reversed(range(10))]
    forwards = [sample_channels(cfg, t) for t in range(10)]
    for fwd, bwd in zip(forwards, reversed(backwards)):
        np.testing.assert_array_equal(fwd, bwd)


def test_sample_trial_out_of_range():
    cfg = SystemConfig(users=1, n_tx=1, n_rx=1, trials=5, seed=0)
    with pytest.raises(ValueError):
        sample_channels(cfg, 5)
    with pytest.raises(ValueError):
        sample_channels(cfg, -1)
    for start, stop in ((3, 2), (4, 6), (-1, 2)):
        with pytest.raises(ValueError):
            sample_channel_block(cfg, start, stop)


def documented_stream(users, n_tx, n_rx, seed, start, stop):
    """The documented stream, rebuilt trial by trial from public
    constructors: entries 8g ... 8g+7 of trial t are row t - c*CHUNK of
    Generator(SFC64(child g of child c of SeedSequence(seed))).standard_normal
    read as (trials, 8, 2), c = t // CHUNK, real part first, over sqrt(2)."""
    size = users * n_rx * n_tx
    trials = []
    for t in range(start, stop):
        chunk, row = divmod(t, CHUNK)
        entries = []
        for group in range(-(-size // 8)):
            seq = (np.random.SeedSequence(seed).spawn(chunk + 1)[chunk]
                   .spawn(group + 1)[group])
            bits = np.random.SFC64(seq)
            z = np.random.Generator(bits).standard_normal((row + 1, 8, 2))
            entries.append((z[row, :, 0] + 1j * z[row, :, 1]) / np.sqrt(2.0))
        trials.append(np.concatenate(entries)[:size].reshape(users, n_rx,
                                                             n_tx))
    return np.array(trials)


@pytest.mark.parametrize("users,n_tx,n_rx,seed,start,stop", [
    (1, 1, 1, 0, 0, 3),
    (2, 3, 2, 11, 4, 9),                  # two groups, the second partial
    (6, 3, 3, 2 ** 64 - 1, 0, 2),         # seven groups
    (1, 4, 2, 7, CHUNK - 3, CHUNK + 2),   # crosses a chunk boundary
    (3, 2, 2, 2 ** 64 - 1, CHUNK + 5, CHUNK + 8),  # mid-chunk, chunk 1
])
def test_sample_block_documented_stream(users, n_tx, n_rx, seed, start,
                                        stop):
    assert GROUP == 8
    cfg = SystemConfig(users=users, n_tx=n_tx, n_rx=n_rx,
                       trials=stop, seed=seed)
    block = sample_channel_block(cfg, start, stop)
    assert block.dtype == np.complex128 and block.flags.c_contiguous
    expected = documented_stream(users, n_tx, n_rx, seed, start, stop)
    assert block.tobytes() == expected.tobytes()


def test_trial_bytes_independent_of_trials_and_split():
    # trial t's channel depends neither on cfg.trials nor on how [start,
    # stop) is split into calls
    def cfg(trials):
        return SystemConfig(users=3, n_tx=2, n_rx=3, trials=trials, seed=23)

    whole = sample_channel_block(cfg(2 * CHUNK + 10), 0, 2 * CHUNK + 10)
    for trials in (CHUNK + 7, 2 * CHUNK, 2 * CHUNK + 10, 5 * CHUNK):
        assert sample_channel_block(cfg(trials), 0, CHUNK + 7).tobytes() \
            == whole[:CHUNK + 7].tobytes()
    for cuts in ((0, 1, CHUNK, 2 * CHUNK + 10),
                 (0, CHUNK - 1, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK + 10),
                 (0, 17, 17, 2 * CHUNK + 3, 2 * CHUNK + 10)):
        parts = [sample_channel_block(cfg(2 * CHUNK + 10), a, b)
                 for a, b in zip(cuts, cuts[1:])]
        assert np.concatenate(parts).tobytes() == whole.tobytes()
    for t in (0, CHUNK - 1, CHUNK, 2 * CHUNK + 9):
        assert sample_channels(cfg(2 * CHUNK + 10), t).tobytes() \
            == whole[t].tobytes()


def test_streams_of_chunks_and_groups_differ():
    # 24 entries: three groups; trials 0 and CHUNK start chunks 0 and 1
    cfg = SystemConfig(users=3, n_tx=2, n_rx=4, trials=CHUNK + 1, seed=5)
    block = sample_channel_block(cfg, 0, CHUNK + 1)
    rows = [block[t].reshape(3, GROUP) for t in (0, CHUNK)]
    groups = [row[g] for row in rows for g in range(3)]
    for i, a in enumerate(groups):
        for b in groups[i + 1:]:
            assert not np.any(a == b)


def test_streams_of_seeds_whose_seed_words_would_collide_differ():
    # keyed by the seed words [seed, c, g], stream (1, 2) of seed 0 and
    # stream (2, 0) of seed 2**32 would be one stream: SeedSequence pads a
    # short entropy with zero words.  spawn_key keeps them apart
    words = [np.random.SeedSequence(w).generate_state(4)
             for w in ([0, 1, 2], [2**32, 2, 0])]
    assert words[0].tobytes() == words[1].tobytes()
    # 24 entries: three groups; trial c * CHUNK is row 0 of chunk c
    cfg = dict(users=1, n_tx=8, n_rx=3, trials=2 * CHUNK + 1)
    a = sample_channel_block(SystemConfig(**cfg, seed=0), CHUNK, CHUNK + 1)
    b = sample_channel_block(SystemConfig(**cfg, seed=2**32), 2 * CHUNK,
                             2 * CHUNK + 1)
    assert not np.any(a.reshape(3, GROUP)[2] == b.reshape(3, GROUP)[0])


@pytest.mark.parametrize("narrow,wide,seed,start,stop", [
    ((1, 4, 1), (4, 4, 1), 3, 0, 5),
    ((1, 2, 1), (4, 2, 1), 2 ** 64 - 1, CHUNK - 3, CHUNK + 2),
    ((2, 2, 2), (4, 1, 2), 8, 1, 6),      # same size: a reshape
    ((13, 1, 1), (10, 2, 2), 4, CHUNK - 2, CHUNK + 3),  # past a group end
])
def test_block_is_flat_prefix_of_wider_block(narrow, wide, seed, start,
                                             stop):
    def block(shape):
        users, n_tx, n_rx = shape
        cfg = SystemConfig(users=users, n_tx=n_tx, n_rx=n_rx,
                           trials=stop, seed=seed)
        return cfg, sample_channel_block(cfg, start, stop)

    cfg, own = block(narrow)
    _, wider = block(wide)
    size = own[0].size
    assert (wider.reshape(len(wider), -1)[:, :size].tobytes()
            == own.tobytes())
    got = block_prefix(wider, cfg)
    assert got.shape == own.shape and got.flags.c_contiguous
    assert got.tobytes() == own.tobytes()


def test_block_prefix_refuses_narrower_block():
    cfg = SystemConfig(users=2, n_tx=2, n_rx=2, trials=3, seed=0)
    narrow = SystemConfig(users=1, n_tx=2, n_rx=2, trials=3, seed=0)
    with pytest.raises(ValueError):
        block_prefix(sample_channel_block(narrow, 0, 3), cfg)


def test_sample_block_matches_individual_draws():
    cfg = SystemConfig(users=2, n_tx=3, n_rx=2, trials=20, seed=11)
    block = sample_channel_block(cfg, 4, 9)
    for offset, trial in enumerate(range(4, 9)):
        np.testing.assert_array_equal(block[offset],
                                      sample_channels(cfg, trial))


def test_sample_unit_power_and_balanced_parts():
    cfg = SystemConfig(users=2, n_tx=2, n_rx=2, trials=6250, seed=3)
    block = sample_channel_block(cfg, 0, cfg.trials)  # 50000 entries
    power = np.abs(block) ** 2
    assert power.mean() == pytest.approx(1.0, abs=0.02)
    assert block.real.var() == pytest.approx(0.5, abs=0.02)
    assert block.imag.var() == pytest.approx(0.5, abs=0.02)


# --- cdd_codeword -------------------------------------------------------


def test_codeword_right_shift_frozen():
    got = cdd_codeword(np.array([1.0, 2.0, 3.0]))
    np.testing.assert_array_equal(
        got, np.array([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0], [2.0, 3.0, 1.0]]))


def test_codeword_length_one():
    np.testing.assert_array_equal(cdd_codeword(np.array([4.0 + 1j])),
                                  np.array([[4.0 + 1j]]))


def test_codeword_rows_and_columns_are_permutations():
    x = np.arange(1.0, 6.0)
    mat = cdd_codeword(x)
    for row in mat:
        assert sorted(row) == sorted(x)
    for col in mat.T:
        assert sorted(col) == sorted(x)


# --- effective_channel --------------------------------------------------


def test_effective_single_user_left_shift_frozen():
    ch = np.array([1.0, 2.0, 3.0]).reshape(1, 1, 3)
    got = effective_channel(ch)
    np.testing.assert_array_equal(
        got, np.array([[1.0, 2.0, 3.0], [2.0, 3.0, 1.0], [3.0, 1.0, 2.0]]))


def test_effective_delta_gives_index_reversal_permutation():
    # With left-shifted rows the delta tap yields the permutation with ones
    # at (r, -r mod T) — identity up to a row reorder, so rate-equivalent to
    # an identity block (log-det of the Gram is permutation invariant).
    ch = np.zeros((1, 1, 4), dtype=complex)
    ch[0, 0, 0] = 1.0
    got = effective_channel(ch)
    expected = np.zeros((4, 4))
    for row in range(4):
        expected[row, -row % 4] = 1.0
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(got @ got.conj().T, np.eye(4))


def test_effective_shape_multiuser():
    rng = np.random.default_rng(0)
    ch = rng.standard_normal((2, 2, 4)) + 1j * rng.standard_normal((2, 2, 4))
    assert effective_channel(ch).shape == (8, 8)


def test_effective_blocks_are_left_circulant():
    rng = np.random.default_rng(1)
    ch = rng.standard_normal((3, 2, 4)) + 1j * rng.standard_normal((3, 2, 4))
    eff = effective_channel(ch)
    for user in range(3):
        for rx in range(2):
            block = eff[rx * 4:(rx + 1) * 4, user * 4:(user + 1) * 4]
            np.testing.assert_array_equal(block, _left_circulant(ch[user, rx]))


def test_codeword_and_effective_channel_commute():
    # y = G(x) h must equal the effective-channel picture H(h) x
    rng = np.random.default_rng(2)
    taps = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    symbols = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    lhs = cdd_codeword(symbols) @ taps
    rhs = effective_channel(taps.reshape(1, 1, 5)) @ symbols
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


# --- frozen DFT relations -----------------------------------------------


def test_left_circulant_congruence_diagonalization():
    # D A D = sqrt(T) diag(D h) for the left-shift (complex symmetric) block
    rng = np.random.default_rng(3)
    for size in (2, 3, 4, 7):
        taps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        mat = dft_matrix(size)
        got = mat @ _left_circulant(taps) @ mat
        expected = np.sqrt(size) * np.diag(mat @ taps)
        np.testing.assert_allclose(got, expected, atol=1e-10)


def test_codeword_similarity_diagonalization():
    # D G D^H = sqrt(T) diag(D^H x) for the right-shift codeword circulant
    rng = np.random.default_rng(4)
    for size in (2, 3, 4, 7):
        x = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        mat = dft_matrix(size)
        got = mat @ cdd_codeword(x) @ mat.conj().T
        expected = np.sqrt(size) * np.diag(mat.conj().T @ x)
        np.testing.assert_allclose(got, expected, atol=1e-10)


# --- shuffle_permutation ------------------------------------------------


def test_permutation_4_2_frozen():
    np.testing.assert_array_equal(shuffle_permutation(4, 2), PERM_4_2)


def test_permutation_n_tx_one_is_identity():
    np.testing.assert_array_equal(shuffle_permutation(1, 3), np.eye(3))


@pytest.mark.parametrize("n_tx", [1, 2, 3, 6])
@pytest.mark.parametrize("n_rx", [1, 2, 5, 6])
def test_permutation_orthogonal_rows_cols(n_tx, n_rx):
    perm = shuffle_permutation(n_tx, n_rx)
    size = n_tx * n_rx
    np.testing.assert_array_equal(perm @ perm.T, np.eye(size))
    np.testing.assert_array_equal(perm.sum(axis=0), np.ones(size))
    np.testing.assert_array_equal(perm.sum(axis=1), np.ones(size))


# --- reduce_to_parallel -------------------------------------------------


def test_reduce_shape():
    rng = np.random.default_rng(5)
    ch = rng.standard_normal((3, 2, 4)) + 1j * rng.standard_normal((3, 2, 4))
    assert reduce_to_parallel(ch).shape == (4, 2, 3)


def test_reduce_n_tx_one_returns_raw_gains():
    rng = np.random.default_rng(6)
    ch = rng.standard_normal((3, 2, 1)) + 1j * rng.standard_normal((3, 2, 1))
    par = reduce_to_parallel(ch)
    np.testing.assert_allclose(par[0], ch[:, :, 0].T, atol=1e-14)


def test_reduce_delta_row_has_flat_spectrum():
    ch = np.zeros((1, 1, 4), dtype=complex)
    ch[0, 0, 0] = 1.0
    par = reduce_to_parallel(ch)
    np.testing.assert_allclose(par[:, 0, 0], np.full(4, 0.5), atol=1e-14)
    # DFT normalization keeps total power: sum_t |bin|^2 = ||h||^2 = 1
    assert np.sum(np.abs(par) ** 2) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("users,n_tx,n_rx", [(2, 4, 2), (1, 3, 2), (3, 2, 1)])
def test_reduce_block_diagonalization_oracle(users, n_tx, n_rx):
    # P^T (I x D) HH^H (I x D)^H P rebuilt with explicit products must equal
    # blockdiag(n_tx * H'_t H'_t^H) from the reduction.
    rng = np.random.default_rng(10 + users)
    ch = rng.standard_normal((users, n_rx, n_tx)) \
        + 1j * rng.standard_normal((users, n_rx, n_tx))
    eff = effective_channel(ch)
    rot = np.kron(np.eye(n_rx), dft_matrix(n_tx))
    perm = shuffle_permutation(n_tx, n_rx)
    conjugated = perm.T @ rot @ eff @ eff.conj().T @ rot.conj().T @ perm
    par = reduce_to_parallel(ch)
    expected = np.zeros_like(conjugated)
    for t in range(n_tx):
        expected[t * n_rx:(t + 1) * n_rx, t * n_rx:(t + 1) * n_rx] = \
            n_tx * par[t] @ par[t].conj().T
    np.testing.assert_allclose(conjugated, expected, atol=1e-9)


def test_reduce_leading_axes_match_per_trial_calls():
    # the sweep engine reduces whole chunks at once; every trial must get
    # the bits a one-channel call gives it
    cfg = SystemConfig(users=3, n_tx=4, n_rx=2, trials=CHUNK + 50, seed=21)
    block = sample_channel_block(cfg, CHUNK - 50, CHUNK + 50)
    batched = reduce_to_parallel(block)
    assert batched.shape == (100, 4, 2, 3)
    single = np.stack([reduce_to_parallel(ch) for ch in block])
    assert batched.tobytes() == single.tobytes()
    assert reduce_to_parallel(block[None]).tobytes() == single.tobytes()


@pytest.mark.parametrize("n_tx", range(1, 9))
def test_reduce_one_gemm_equals_broadcast_matmul(n_tx):
    # the reduction multiplies all rows by D in one GEMM; every bit must
    # equal the per-matrix broadcast ch @ D it replaces
    cfg = SystemConfig(users=3, n_tx=n_tx, n_rx=2, trials=40, seed=40 + n_tx)
    block = sample_channel_block(cfg, 0, cfg.trials)
    mat = dft_matrix(n_tx)
    for ch in (block[0], block, block.reshape(4, 10, 3, 2, n_tx),
               block[:, :1], block[::3, :, ::-1]):
        expected = np.swapaxes(ch @ mat, -1, -3)
        got = reduce_to_parallel(ch)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


def test_reduce_rejects_matrix():
    with pytest.raises(ValueError):
        reduce_to_parallel(np.ones((2, 4), dtype=complex))


def test_reduce_preserves_unit_power():
    cfg = SystemConfig(users=2, n_tx=4, n_rx=1, trials=7000, seed=12)
    block = sample_channel_block(cfg, 0, cfg.trials)
    pooled = np.stack([reduce_to_parallel(ch) for ch in block])
    assert (np.abs(pooled) ** 2).mean() == pytest.approx(1.0, abs=0.02)
