"""Instantaneous mutual-information rates and Monte-Carlo ergodic estimates.

All rates are bits per channel use.  Determinants are evaluated through the
Gram matrix of the smaller side (same nonzero spectrum), with natural logs
converted to bits once at the end.  There are two independent paths: the
direct rates (rate_cdd on the block-circulant effective channel,
sum_capacity) take one stacked Cholesky log-det per call, over any leading
trial axes, with the bits of one call per realization; the sweep engine
(monte_carlo_sweep) reduces each Gram to a real tridiagonal once and reads
log det(I + sG) at every grid point from the LDL^T pivots of I + sT
(_logdet_sums), and rate_cdd_reduced runs that kernel on its own stack.

Every Monte-Carlo estimate goes through one chunk runner, run_chunks:
trials are processed in fixed-size chunks (channel.CHUNK), and configs that
share a seed and trial count read prefixes of one draw.  With more than one
worker the chunks run on threads of the calling process: numpy releases
the interpreter lock inside the sampling, matmul and ufunc loops that do
most of a chunk's work, so the threads overlap there.  Two summation
rules fix every bit of an estimate.  numpy's pairwise sum adds a chunk's
trials (_chunk_sums).  Every other sum runs in index order: through
_entry_sum over a stack of terms (a matrix's entries, the DFT bins, the
chunks' sums), or as a running total where a loop makes its terms one at
a time (_householder's A v, _logdet_sums' pivots).  With the channel
streams keyed by (seed, chunk), estimates are therefore bit-identical for
any --workers setting.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from functools import cache, partial

import numpy as np

from .channel import (CHUNK, SystemConfig, _as_stack, block_prefix,
                      effective_channel, reduce_to_parallel,
                      sample_channel_block)
from .linalg import LN2, _index, _scalar, _snr, logdet_hermitian_psd


def _gram(x: np.ndarray) -> np.ndarray:
    """x @ x^H or x^H @ x, whichever is smaller (the same nonzero spectrum),
    batched over leading axes."""
    xh = np.conj(np.swapaxes(x, -1, -2))
    return x @ xh if x.shape[-2] <= x.shape[-1] else xh @ x


def _stack_users(channels: np.ndarray) -> np.ndarray:
    """(..., users, n_rx, n_tx) -> (..., n_rx, users * n_tx), the users side
    by side, so that its Gram x @ x^H is sum_k Hk Hk^H."""
    *lead, users, n_rx, n_tx = channels.shape
    return np.swapaxes(channels, -3, -2).reshape(*lead, n_rx, users * n_tx)


def _gram_logdet(mat: np.ndarray, scale: np.ndarray):
    """ln det(I + scale * mat @ mat^H) per matrix of a (..., rows, cols)
    stack, via the Gram of the smaller side; scale broadcasts over the
    leading axes."""
    gram = _gram(mat)
    return logdet_hermitian_psd(np.eye(gram.shape[-1])
                                + scale[..., None, None] * gram)


def rate_cdd(channels, snr):
    """Instantaneous CDD sum rate (1/T) log2 det(I + (snr/T) Heff Heff^H).

    channels is a (..., users, n_rx, n_tx) stack and snr broadcasts over its
    leading axes; one realization gives a float.  Built from the full
    stacked effective channel; the reduced per-bin path in rate_cdd_reduced
    must agree to 1e-9 (tested), which is the whole point of the
    block-diagonal reduction.
    """
    snr = _snr(snr)
    ch = _as_stack(channels)
    n_tx = ch.shape[-1]
    eff = effective_channel(ch)
    return _gram_logdet(eff, snr / n_tx) / LN2 / n_tx


def rate_cdd_reduced(blocks, snr):
    """CDD sum rate from the DFT-bin blocks of reduce_to_parallel.

    (1/T) sum_t log2 det(I + snr * Hp_t Hp_t^H) for each (n_tx, n_rx, users)
    stack of a (..., n_tx, n_rx, users) array, snr broadcast against the
    leading axes; one stack and a scalar snr give a float.  The 1/n_tx
    power split is already absorbed by the reduction, so snr appears
    undivided.  Evaluated by the sweep's own kernel (_logdet_sums), so the
    dual-path check against rate_cdd tests the code behind every Monte-Carlo
    estimate.  Non-finite blocks are refused, as the direct rates refuse
    non-finite channels.
    """
    snr = _snr(snr)
    blk = _as_stack(blocks, "blocks", "n_tx, n_rx, users")
    if not np.all(np.isfinite(blk)):
        raise ValueError("blocks has non-finite entries")
    lead = np.broadcast_shapes(snr.shape, blk.shape[:-3])
    blk = np.broadcast_to(blk, lead + blk.shape[-3:])
    scale = np.broadcast_to(snr, lead).reshape(1, -1)      # one per stack
    sums = _logdet_sums(scale, blk.reshape(-1, *blk.shape[-3:]))[0]
    rate = sums.reshape(lead) / blk.shape[-3]
    return _scalar(rate)


def sum_capacity(channels, snr):
    """No-CSIT equal-power sum capacity
    log2 det(I + (snr/n_tx) sum_k Hk Hk^H) of a (..., users, n_rx, n_tx)
    stack, snr broadcast over its leading axes; one realization gives a
    float."""
    snr = _snr(snr)
    ch = _as_stack(channels)
    return _gram_logdet(_stack_users(ch), snr / ch.shape[-1]) / LN2


def _entry_sum(terms) -> np.ndarray:
    """Index-order sum of a stack's leading axis (an array or a sequence of
    arrays), one whole-array add per term: see the module docstring."""
    total = terms[0].copy()
    for term in terms[1:]:
        total += term
    return total


# Channel entries per sub-block of trials that values() sees at once, to cap
# a chunk's peak memory (wide-sweep, 6 pairs: peak_rss_mb 84.0, 107.3 with
# no sub-blocks, wall_s level); every figure and --verify chunk fits in one.
_SUB_BLOCK_ENTRIES = 1 << 18


def _chunk_sums(values, cfgs, start: int, stop: int):
    widest = max(cfgs, key=lambda cfg: cfg.users * cfg.n_rx * cfg.n_tx)
    block = sample_channel_block(widest, start, stop)
    rows = max(1, _SUB_BLOCK_ENTRIES // block[0].size)
    vals = None
    for lo in range(0, len(block), rows):
        for i, cfg in enumerate(cfgs):
            part = values(block_prefix(block[lo:lo + rows], cfg))
            if vals is None:
                vals = np.empty((len(cfgs),) + part.shape[:-1] + (len(block),))
            vals[i, ..., lo:lo + rows] = part
    # one pass over the whole chunk, so the sums never see the sub-blocks
    total = vals.sum(axis=-1)                  # before vals is squared
    return total, np.square(vals, out=vals).sum(axis=-1)


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the platform
    has one), not all the CPUs of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_chunks(values, cfgs, workers: int = 1) -> list:
    """Monte-Carlo (means, stderrs) of values(block), one pair per config.

    values maps a (trials, users, n_rx, n_tx) block to per-trial values
    with trials on the last axis, one shape for every config; the statistics
    keep the other axes.  The configs must share seed and trial count: per
    chunk the widest config's block is drawn once and each config reads its
    prefix (channel.block_prefix) in sub-blocks of at most
    _SUB_BLOCK_ENTRIES entries, so values must treat trials independently.
    The chunks run on min(workers, chunks, usable CPUs) threads of this
    process, or in the calling thread when that is one; values may be any
    callable that is safe to call from two threads at once.  If a chunk
    raises, or on Ctrl-C, the chunks still queued are cancelled, not run.
    """
    workers = _index("workers", workers, 1)
    cfgs = tuple(cfgs)
    if len({(cfg.seed, cfg.trials) for cfg in cfgs}) != 1:
        raise ValueError("a run's configs need one seed and one trial count")
    n = _index("trials", cfgs[0].trials, 2)  # 2 for a standard error
    spans = [(s, min(s + CHUNK, n)) for s in range(0, n, CHUNK)]
    chunk = partial(_chunk_sums, values, cfgs)
    threads = min(workers, len(spans), _usable_cpus())
    if threads > 1:
        pool = ThreadPoolExecutor(max_workers=threads)
        try:
            parts = list(pool.map(chunk, *zip(*spans)))
        finally:
            pool.shutdown(cancel_futures=True)
    else:
        parts = [chunk(a, b) for a, b in spans]
    total, total_sq = map(_entry_sum, zip(*parts))  # chunk order
    means = total / n
    var = np.maximum(total_sq - n * means * means, 0.0) / (n - 1)
    return list(zip(means, np.sqrt(var / n)))


# ---------------------------------------------------------------------------
# Vectorized sweep engine: one pass over the trials serves every metric and
# every SNR grid point (each Gram is reduced to a real tridiagonal once per
# realization), so cross-metric differences like capacity-minus-CDD are
# tightly coupled.
#
# The two-user region metrics "<scheme>_<part>" (scheme cap or cdd) are the
# pentagon's constraints: each user's single-user rate (other user silent;
# for CDD the mean over all n_tx DFT bins, as rate_cdd of that user alone),
# the sum rate, and the sum rate minus either single-user rate (the corners'
# second coordinates).

REGION_PARTS = ("i1", "i2", "isum", "isum-i1", "isum-i2")
REGION_METRICS = tuple(f"{scheme}_{part}" for scheme in ("cap", "cdd")
                       for part in REGION_PARTS)
SWEEP_METRICS = ("cdd", "cap", "diff") + REGION_METRICS

# Doubles per buffer of the sweep kernel, sized for cache: a block of
# _tridiagonal's Gram products with its batch-last copy, or of _logdet_sums'
# grid points.  wide-sweep's 4 MB sub-block Gram, copied batch-last in one
# piece, misses the cache on every entry: wall_s median 0.591 s, against
# 0.522 s in blocks (10 alternating pairs, shared 2-vCPU x86-64 machine).
_POINT_BUFFER = 1 << 16


def _householder(gram: np.ndarray):
    """(d, e2) of a real tridiagonal unitarily similar to each Hermitian
    matrix of a batch-last (L, L, N) stack, which is overwritten.

    L - 2 Householder reflections, each applied to all N matrices at once
    (Golub & Van Loan, Matrix Computations, 8.3.1), to the lower triangle
    only.  Only the squared off-diagonal e2 is kept: the pivots need no
    phases.  numpy may round a complex product with or without FMA
    depending on the batch's length and strides, so a matrix's bits can
    differ between batches by an ulp.
    """
    size, _, n = gram.shape
    e2 = np.empty((size - 1, n))
    p_buf, tmp = np.empty((2, size - 1, n), complex)
    for k in range(size - 2):
        col = gram[k + 1:, k]                                   # x, (m, N)
        m = len(col)
        power = np.square(col.real) + np.square(col.imag)
        norm2 = e2[k] = _entry_sum(power)
        alpha, lead = np.sqrt(norm2), np.sqrt(power[0])
        # v = x + (x0 / |x0|) |x| e1 is mapped to a multiple of e1 without
        # cancellation; tau = 2 / |v|^2
        v = col.copy()
        v[0] += alpha * np.divide(col[0], lead, out=np.ones(n, complex),
                                  where=lead > 0)
        tau = np.divide(1.0, norm2 + lead * alpha, out=np.zeros(n),
                        where=norm2 > 0)
        vh = np.conj(v)
        sub = gram[k + 1:, k + 1:]
        # p = tau A v, A Hermitian and kept below the diagonal, one column
        # at a time: column j gives rows j.. as A_rj v_j and rows ..j - 1
        # as conj(A_jr) v_j, so every p_r adds its terms in index order
        p = p_buf[:m]
        np.multiply(sub[:, 0], v[0], out=p)
        for j in range(1, m):
            np.multiply(np.conj(sub[j, :j]), v[j], out=tmp[:j])
            np.multiply(sub[j:, j], v[j], out=tmp[j:m])
            p += tmp[:m]
        p *= tau
        # A <- H A H = A - v w^H - w v^H, w = p - tau/2 (v^H p) v
        np.multiply(vh, p, out=tmp[:m])
        vp = _entry_sum(tmp[:m].real)
        w = p - (0.5 * tau * vp) * v
        wh = np.conj(w)
        for j in range(m):
            part = tmp[j:m]
            np.multiply(v[j:], wh[j], out=part)
            sub[j:, j] -= part
            np.multiply(w[j:], vh[j], out=part)
            sub[j:, j] -= part
    last = gram[-1, -2]
    e2[-1] = np.square(last.real) + np.square(last.imag)
    return np.diagonal(gram).real.T, e2


def _tridiagonal(x: np.ndarray):
    """Real tridiagonal of the smaller-side Gram of each matrix of a
    (trials, ..., rows, cols) stack: its diagonal d, (L, T, trials), and
    squared off-diagonal e2, (L - 1, T, trials), T the middle axes
    flattened.

    One or two rows need no Gram product: d holds the row powers and e2 the
    squared inner products of adjacent rows (none for one row).  Larger
    Grams are reduced by _householder.
    """
    trials = x.shape[0]
    rows = x if x.shape[-2] <= x.shape[-1] else np.swapaxes(x, -1, -2)
    size, cols = rows.shape[-2:]
    rows = rows.reshape(trials, -1, size, cols)
    per = rows.shape[1]
    if size <= 2:
        entries = rows.transpose(3, 2, 1, 0)            # (cols, L, T, trials)
        d = _entry_sum(np.square(entries.real) + np.square(entries.imag))
        b = _entry_sum(entries[:, :-1] * np.conj(entries[:, 1:]))
        return d, np.square(b.real) + np.square(b.imag)
    # a block's Gram products and their batch-last copy (two complex arrays)
    # fill one _POINT_BUFFER, so that the transposition runs in cache
    gram = np.empty((size, size, per, trials), complex)
    step = max(1, _POINT_BUFFER // (4 * per * size * size))
    for lo in range(0, trials, step):
        part = _gram(np.ascontiguousarray(rows[lo:lo + step]))
        gram[..., lo:lo + step] = part.transpose(2, 3, 1, 0)
    d, e2 = _householder(gram.reshape(size, size, -1))
    return (np.ascontiguousarray(d).reshape(size, per, trials),
            e2.reshape(size - 1, per, trials))


def _logdet_sums(scale, x: np.ndarray) -> np.ndarray:
    """(S, trials) array: entry [i, b] sums log2 det(I + scale[i] G) over
    the smaller-side Grams G of the matrices of x[b].

    x is a (trials, ..., rows, cols) stack; scale is (S,), or (S, trials)
    for one value per trial.  With d, e2 from _tridiagonal, det(I + sT) is
    the product of the LDL^T pivots 1 + s u_k (Golub & Van Loan, 4.3.6):

        u_0 = d_0,   u_k = d_k - e2_{k-1} / (1/s + u_{k-1}).

    Each pivot adds log1p(s u_k), converted to bits once per sum, so a rate
    far below 1 bit keeps its relative accuracy, s^2 never appears (3000 dB
    stays finite), and s = 0 gives exactly 0.  The u_k are >= 0 in exact
    arithmetic and are clipped there.  Grid points go in blocks of at most
    _POINT_BUFFER doubles (one point if that is larger), which bounds the
    three pivot temporaries whatever the grid's length (the (S, trials)
    result still grows with it), and an entry's bits do not depend on the
    block it is in.
    """
    scale = np.asarray(scale, dtype=float)
    if len(x) == 0:
        return np.zeros((len(scale), 0))
    d, e2 = _tridiagonal(x)
    size, per, trials = d.shape
    scale = scale.reshape(len(scale), 1, -1)                    # (S,1,1|B)
    out = np.empty((len(scale), trials))
    step = max(1, _POINT_BUFFER // d[0].size)
    u, term, acc = np.empty((3, min(step, len(scale)), per, trials))
    for lo in range(0, len(scale), step):
        s = scale[lo:lo + step]
        n = len(s)
        with np.errstate(divide="ignore"):
            inv = 1.0 / s                     # inf at s = 0: e2 / inf = 0
        np.copyto(u[:n], d[0])
        np.multiply(u[:n], s, out=acc[:n])
        np.log1p(acc[:n], out=acc[:n])
        for k in range(1, size):
            np.add(u[:n], inv, out=term[:n])
            np.divide(e2[k - 1], term[:n], out=term[:n])
            np.subtract(d[k], term[:n], out=u[:n])
            np.maximum(u[:n], 0.0, out=u[:n])
            np.multiply(u[:n], s, out=term[:n])
            np.log1p(term[:n], out=term[:n])
            acc[:n] += term[:n]
        out[lo:lo + n] = _entry_sum(np.moveaxis(acc[:n], 1, 0))
    out /= LN2
    return out


def _sweep_values(block: np.ndarray, snr: np.ndarray, metrics) -> np.ndarray:
    """Per-trial metric values, shape (len(metrics), len(snr), trials).

    Every series is one scheme's rate over a set of users, the same rule as
    rate_cdd and sum_capacity: all users for "cdd", "cap" and "isum", user k
    alone for "<scheme>_i<k>".  "isum-i<k>" and "diff" are per-trial
    differences of those series, each series evaluated once.
    """
    n_tx = block.shape[-1]
    bins = reduce_to_parallel(block)                            # (B,T,n_rx,K)

    @cache
    def rate(scheme: str, user: int) -> np.ndarray:             # (S,B)
        users = slice(user - 1, user) if user else slice(None)  # 0: all
        if scheme == "cap":
            return _logdet_sums(snr / n_tx, _stack_users(block[:, users]))
        out = _logdet_sums(snr, bins[..., users])
        out /= n_tx                                             # bins' mean
        return out

    def value(name: str) -> np.ndarray:
        if name == "diff":
            return rate("cap", 0) - rate("cdd", 0)
        scheme, _, part = name.partition("_")
        if part.startswith("isum-"):
            return rate(scheme, 0) - rate(scheme, int(part[-1]))
        return rate(scheme, int(part[1]) if part in ("i1", "i2") else 0)

    return np.stack([value(m) for m in metrics])


def monte_carlo_sweep(cfg: SystemConfig, snr, metrics=("cdd", "cap"),
                      workers: int = 1) -> dict:
    """Ergodic estimates for several metrics over a shared linear-SNR grid.

    Metrics are named in SWEEP_METRICS; the REGION_METRICS need exactly two
    users.  Returns {metric: (means, stderrs)}, two arrays over the grid; a
    scalar snr is a one-point grid.  Results are bit-identical for any
    workers value (fixed chunk schedule).
    """
    if not metrics or not set(metrics) <= set(SWEEP_METRICS):
        raise ValueError(f"metrics: need sweep metrics, got {metrics!r}")
    if cfg.users != 2 and any(m in REGION_METRICS for m in metrics):
        raise ValueError("rate regions are computed for exactly 2 users")
    grid = _snr(snr)
    if grid.ndim > 1 or grid.size == 0:
        raise ValueError(f"snr grid must be a scalar or nonempty 1-D, got "
                         f"shape {grid.shape}")
    values = partial(_sweep_values, snr=np.atleast_1d(grid),
                     metrics=tuple(metrics))
    [(means, stderrs)] = run_chunks(values, [cfg], workers)
    return {name: (means[row], stderrs[row])
            for row, name in enumerate(metrics)}
