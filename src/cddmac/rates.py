"""Instantaneous mutual-information rates and Monte-Carlo ergodic estimates.

All rates are bits per channel use.  Determinants are evaluated through the
Gram matrix of the smaller side (same nonzero spectrum), with natural logs
converted to bits once at the end.  There are two independent paths: the
direct rates (rate_cdd on the block-circulant effective channel,
sum_capacity) take one stacked Cholesky log-det per call, over any leading
trial axes, with the bits of one call per realization; the sweep engine
(monte_carlo_sweep) reduces each Gram to a real tridiagonal T once
(_tridiagonal: the Gram itself for one or two rows, else one Householder
reduction of _grams' batch-last Grams), takes the SNR-free coefficients of
det(I + sT) from it, multiplied over a trial's DFT bins, and reads every
grid point from one Horner sum and one logarithm (_logdet_sums), in one
loop for both sides of s = 1 (_horner_logs), on a grid that all trials
share; rate_cdd_reduced reads its (snr, stack) pairs from one such table.
Where n_rx <= users the capacity's Gram is the sum of the bins' Grams (the
DFT is unitary), reduced in the same call as theirs.

Every Monte-Carlo estimate goes through one chunk runner, run_chunks:
trials are processed in fixed-size chunks (channel.CHUNK), and configs that
share a seed and trial count read prefixes of one draw; every sweep is one
_sweep call, which checks its metrics and grid and names each config's
rows.  With more than one worker the chunks run on threads of the calling
process: numpy releases the interpreter lock inside the sampling, matmul
and ufunc loops that do most of a chunk's work, so the threads overlap
there.  Two summation rules fix every bit of an estimate.  numpy's pairwise
sum adds a chunk's trials (_trial_sums: each row's values, and its squares
scaled by an exact power of two, so they do not underflow).  Every other
sum runs in index order: through _entry_sum over a stack of terms (a
matrix's entries, the DFT bins' Grams, the chunks' sums), or as a running
total where a loop makes its terms one at a time (_householder's A v, the
coefficient recurrence, the bins' polynomial product, the Horner loop's two
totals, the fallback's pivots).
With the channel streams keyed by (seed, chunk), estimates are therefore
bit-identical for any --workers setting.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from functools import cache, partial

import numpy as np

from .channel import (CHUNK, SystemConfig, _as_stack, block_prefix,
                      effective_channel, reduce_to_parallel,
                      sample_channel_block)
from .linalg import (LN2, _buffer, _index, _scalar, _snr, _workspace,
                     logdet_hermitian_psd)


def _gram(x: np.ndarray) -> np.ndarray:
    """x @ x^H or x^H @ x, whichever is smaller (the same nonzero spectrum),
    batched over leading axes."""
    xh = np.conj(np.swapaxes(x, -1, -2))
    a, b = (x, xh) if x.shape[-2] <= x.shape[-1] else (xh, x)
    shape = a.shape[:-1] + b.shape[-1:]
    return np.matmul(a, b, out=_buffer("gram product", shape, complex))


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


# The largest value a rate's kernels may form: a Gram entry squared, or
# times the snr, with room for the few sums taken after it.
_GRAM_MAX = float(np.finfo(float).max) / 16


def _checked_stack(x, snr: np.ndarray, name: str = "channels",
                   axes: str = "users, n_rx, n_tx") -> np.ndarray:
    """_as_stack(x, name, axes), refused with a ValueError naming it if an
    entry is not finite, before any product, which would warn on an inf,
    or if an entry is so large that a Gram could overflow.

    With n the entries of one realization and m their largest |Re| or |Im|,
    g = 2 n m^2 bounds every Gram entry the public rates form, and the
    Frobenius norm of each DFT bin's Gram in rate_cdd_reduced; both g^2
    (_householder squares it) and max(snr) g must stay below _GRAM_MAX.
    The sweep, whose draws are unit-variance, does not check.
    """
    arr = _as_stack(x, name, axes)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has non-finite entries")
    m = max(float(np.max(np.abs(part), initial=0.0))
            for part in (arr.real, arr.imag))
    g = 2.0 * math.prod(arr.shape[-3:]) * m * m   # Python floats: no warning
    if g * g > _GRAM_MAX or float(np.max(snr, initial=0.0)) * g > _GRAM_MAX:
        raise ValueError(f"{name} has entries too large for this snr: a "
                         f"Gram entry, squared or times the snr, would "
                         f"overflow")
    return arr


def rate_cdd(channels, snr):
    """Instantaneous CDD sum rate (1/T) log2 det(I + (snr/T) Heff Heff^H).

    channels is a (..., users, n_rx, n_tx) stack and snr broadcasts over its
    leading axes; one realization gives a float.  Built from the full
    stacked effective channel; the reduced per-bin path in rate_cdd_reduced
    must agree to 1e-9 (tested), which is the whole point of the
    block-diagonal reduction.
    """
    snr = _snr(snr)
    ch = _checked_stack(channels, snr)
    n_tx = ch.shape[-1]
    eff = effective_channel(ch)
    return _gram_logdet(eff, snr / n_tx) / LN2 / n_tx


def rate_cdd_reduced(blocks, snr):
    """CDD sum rate from the DFT-bin blocks of reduce_to_parallel.

    (1/T) sum_t log2 det(I + snr * Hp_t Hp_t^H) for each (n_tx, n_rx, users)
    stack of a (..., n_tx, n_rx, users) array, snr broadcast against the
    leading axes; one stack and a scalar snr give a float.  The 1/n_tx
    power split is already absorbed by the reduction, so snr appears
    undivided.  Evaluated by the sweep's own kernel: _tridiagonal once per
    stack, then _logdet_sums on the distinct snr values as one grid,
    so the dual-path check against rate_cdd tests the code behind every
    Monte-Carlo estimate; the cost is distinct snr values x stacks.  Blocks
    are refused as the direct rates refuse channels (_checked_stack).
    """
    snr = _snr(snr)
    blk = _checked_stack(blocks, snr, "blocks", "n_tx, n_rx, users")
    np.broadcast_shapes(snr.shape, blk.shape[:-3])     # or a ValueError
    stacks = blk.reshape(-1, *blk.shape[-3:])
    grid, point = np.unique(snr, return_inverse=True)
    table = (_logdet_sums(grid, *_tridiagonal(stacks)) if len(stacks)
             else np.zeros((len(grid), 0)))
    stack = np.arange(len(stacks)).reshape(blk.shape[:-3])
    rate = table[point.reshape(snr.shape), stack] / blk.shape[-3]
    return _scalar(rate)


def sum_capacity(channels, snr):
    """No-CSIT equal-power sum capacity
    log2 det(I + (snr/n_tx) sum_k Hk Hk^H) of a (..., users, n_rx, n_tx)
    stack, snr broadcast over its leading axes; one realization gives a
    float."""
    snr = _snr(snr)
    ch = _checked_stack(channels, snr)
    return _gram_logdet(_stack_users(ch), snr / ch.shape[-1]) / LN2


def _entry_sum(terms) -> np.ndarray:
    """Index-order sum of a stack's leading axis (an array or a sequence of
    arrays), one whole-array add per term: see the module docstring."""
    total = terms[0].copy()
    for term in terms[1:]:
        total += term
    return total


def _chunk_sums(values, cfgs, workspaces: dict, start: int, stop: int):
    """_trial_sums of values over trials [start, stop), one per config:
    each config in turn reads its prefix of the widest one's block, and its
    values are reduced before the next config evaluates."""
    widest = max(cfgs, key=lambda cfg: cfg.users * cfg.n_rx * cfg.n_tx)
    with _workspace(workspaces):
        block = sample_channel_block(widest, start, stop)
        return [_trial_sums(values(block_prefix(block, cfg))) for cfg in cfgs]


def _trial_sums(vals: np.ndarray):
    """(total, scaled, exp) over vals' last axis, the trials, each numpy's
    pairwise sum: of vals, and of the squares of each row times 2**-exp,
    exp the binary exponent of its largest |value| (of the smallest normal
    double at least, so that 2**-exp is finite), which neither underflow
    nor overflow.  vals is scaled and squared in place."""
    total = vals.sum(axis=-1)
    peak = np.maximum(vals.max(axis=-1), -vals.min(axis=-1))
    _, exp = np.frexp(np.maximum(peak, np.finfo(float).tiny))
    np.multiply(vals, np.ldexp(1.0, -exp)[..., None], out=vals)
    return total, np.square(vals, out=vals).sum(axis=-1), exp


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the platform
    has one), not all the CPUs of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_chunks(values, cfgs, workers: int = 1) -> list:
    """Monte-Carlo (means, stderrs) of values(block), one pair per config.

    values maps a (trials, users, n_rx, n_tx) block, a whole chunk, to
    per-trial float values with trials on the last axis, one shape for
    every config; the statistics keep the other axes.  The configs must
    share seed and trial count: per chunk the widest config's block is
    drawn once and each config reads its prefix (channel.block_prefix).
    The chunks run on min(workers, chunks, usable CPUs) threads of this
    process, or in the calling thread when that is one; values may be any
    callable that is safe to call from two threads at once.  If a chunk
    raises, or on Ctrl-C, the chunks still queued are cancelled, not run.
    Each chunk thread draws and evaluates in a workspace of its own
    (linalg._buffer), made on its first chunk and dropped when run_chunks
    returns, so a chunk's large temporaries are allocated once per thread,
    not once per chunk.  values may return a workspace buffer: the runner
    reduces it, in place, before its next call.  values must not keep its
    block or any other workspace buffer past its return.
    """
    workers = _index("workers", workers, 1)
    cfgs = tuple(cfgs)
    if len({(cfg.seed, cfg.trials) for cfg in cfgs}) != 1:
        raise ValueError("a run's configs need one seed and one trial count")
    n = _index("trials", cfgs[0].trials, 2)  # 2 for a standard error
    spans = [(s, min(s + CHUNK, n)) for s in range(0, n, CHUNK)]
    # the chunk threads' workspaces, by thread: no buffer outlives the call
    chunk = partial(_chunk_sums, values, cfgs, {})
    threads = min(workers, len(spans), _usable_cpus())
    if threads > 1:
        pool = ThreadPoolExecutor(max_workers=threads)
        try:
            parts = list(pool.map(chunk, *zip(*spans)))
        finally:
            pool.shutdown(cancel_futures=True)
    else:
        parts = [chunk(a, b) for a, b in spans]
    out = []
    for chunks in zip(*parts):          # one config's sums, in chunk order
        totals, scaled, exps = zip(*chunks)
        # the variance in units of 2**exp, exp the chunks' largest: powers
        # of two are exact, so a stderr whose squares do not underflow
        # keeps its bits, and one far below 1e-154 keeps its digits
        exp = np.max(exps, axis=0)
        total_sq = _entry_sum([np.ldexp(sq, 2 * (e - exp))
                               for sq, e in zip(scaled, exps)])
        means = _entry_sum(totals) / n
        unit = np.ldexp(means, -exp)
        var = np.maximum(total_sq - n * unit * unit, 0.0) / (n - 1)
        out.append((means, np.ldexp(np.sqrt(var / n), exp)))
    return out


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

# Channel entries per sub-block of trials that _sweep_values evaluates at
# once, to cap the memory of its temporaries (wide-sweep, 6 pairs:
# peak_rss_mb 84.0, 107.3 with no sub-blocks, wall_s level); every figure
# and --verify chunk fits in one.
_SUB_BLOCK_ENTRIES = 1 << 18

# Doubles per buffer of the sweep kernel, sized for cache: a block of
# _grams' Gram products with its batch-last copy, or the largest temporary
# of a block of _logdet_sums' grid points.  wide-sweep's 4 MB
# sub-block Gram, copied batch-last in one piece, misses the cache on every
# entry: wall_s median 0.591 s, against 0.522 s in blocks (10 alternating
# pairs, shared 2-vCPU x86-64 machine).
_POINT_BUFFER = 1 << 16


def _householder(gram: np.ndarray):
    """(d, e2) of a real tridiagonal unitarily similar to each Hermitian
    matrix of a batch-last (L, L, N) stack, which is overwritten.

    L - 2 Householder reflections, each applied to all N matrices at once
    (Golub & Van Loan, Matrix Computations, 8.3.1), to the lower triangle
    only.  Only the squared off-diagonal e2 is kept: the coefficients need no
    phases.  numpy may round a complex product with or without FMA
    depending on the batch's length and strides, so a matrix's bits can
    differ between batches by an ulp.  The (L - 1, N) temporaries are
    workspace buffers (linalg._buffer), written with out=.
    """
    size, _, n = gram.shape
    e2 = np.empty((size - 1, n))
    p_buf, tmp, v_buf, vh_buf, w_buf, wh_buf = (
        _buffer(name, (size - 1, n), complex)
        for name in ("p", "tmp", "v", "vh", "w", "wh"))
    power_buf = _buffer("power", (2, size - 1, n))
    for k in range(size - 2):
        col = gram[k + 1:, k]                                   # x, (m, N)
        m = len(col)
        power, imag2 = power_buf[:, :m]
        np.square(col.real, out=power)
        power += np.square(col.imag, out=imag2)
        norm2 = e2[k] = _entry_sum(power)
        alpha, lead = np.sqrt(norm2), np.sqrt(power[0])
        # v = x + (x0 / |x0|) |x| e1 is mapped to a multiple of e1 without
        # cancellation; tau = 2 / |v|^2
        v = v_buf[:m]
        np.copyto(v, col)
        v[0] += alpha * np.divide(col[0], lead, out=np.ones(n, complex),
                                  where=lead > 0)
        tau = np.divide(1.0, norm2 + lead * alpha, out=np.zeros(n),
                        where=norm2 > 0)
        vh = np.conj(v, out=vh_buf[:m])
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
        w = np.multiply(0.5 * tau * vp, v, out=w_buf[:m])
        np.subtract(p, w, out=w)
        wh = np.conj(w, out=wh_buf[:m])
        for j in range(m):
            part = tmp[j:m]
            np.multiply(v[j:], wh[j], out=part)
            sub[j:, j] -= part
            np.multiply(w[j:], vh[j], out=part)
            sub[j:, j] -= part
    last = gram[-1, -2]
    e2[-1] = np.square(last.real) + np.square(last.imag)
    return np.diagonal(gram).real.T, e2


def _grams(rows: np.ndarray, total: bool = False) -> np.ndarray:
    """Householder input: the Grams x @ x^H of the (trials, T, L, cols)
    rows, L <= cols, as one batch-last (L, L, T + total, trials) array.
    With total, one more column after the T holds the sum of the T Grams,
    added in index order.
    """
    trials, per, size, _ = rows.shape
    # a block's Gram products and their batch-last copy (two complex arrays)
    # fill one _POINT_BUFFER, so that the transposition and the sum run in
    # cache
    gram = _buffer("gram", (size, size, per + total, trials), complex)
    step = max(1, _POINT_BUFFER // (4 * per * size * size))
    for lo in range(0, trials, step):
        part = gram[..., lo:lo + step]
        block = _buffer("gram rows", part.shape[-1:] + rows.shape[1:], complex)
        np.copyto(block, rows[lo:lo + step])
        part[:, :, :per] = _gram(block).transpose(2, 3, 1, 0)
        if total:
            part[:, :, per] = _entry_sum(np.moveaxis(part[:, :, :per], 2, 0))
    return gram


def _tridiagonal(x: np.ndarray, total: bool = False):
    """Real tridiagonal of the smaller-side Gram of each matrix of a
    (trials, ..., rows, cols) stack, T the middle axes flattened: its
    diagonal d, (L, T', trials), and squared off-diagonal e2, (L - 1, T',
    trials), with T' = T + total.  With total, for matrices no taller than
    wide, the last column is that of the sum of the T Grams.

    The one rule on L: one or two rows need no Gram product, as the
    tridiagonal is the Gram itself, the row powers d and e2 = |b|^2 of the
    inner products b of adjacent rows (none for one row), with the summed
    column of d and b, each added in index order.  Three or more rows, the
    summed Gram among them, go through _grams and one _householder call.
    """
    trials = x.shape[0]
    rows = x if x.shape[-2] <= x.shape[-1] else np.swapaxes(x, -1, -2)
    size, cols = rows.shape[-2:]
    rows = rows.reshape(trials, -1, size, cols)
    if size > 2:
        grams = _grams(rows, total)
        d, e2 = _householder(grams.reshape(size, size, -1))
        return (np.ascontiguousarray(d).reshape(grams.shape[1:]),
                e2.reshape(size - 1, *grams.shape[2:]))
    entries = rows.transpose(3, 2, 1, 0)                # (cols, L, T, trials)
    d = _entry_sum(np.square(entries.real) + np.square(entries.imag))
    b = _entry_sum(entries[:, :-1] * np.conj(entries[:, 1:]))
    if total:
        d, b = (np.concatenate(
            [a, _entry_sum(np.moveaxis(a, 1, 0))[:, None]], axis=1)
            for a in (d, b))
    return d, np.square(b.real) + np.square(b.imag)


def _coefficients(d: np.ndarray, e2: np.ndarray) -> np.ndarray:
    """Coefficients c_0 = 1, ..., c_{T L} of prod_t det(I + s T_t), (T L +
    1, trials), for the (L, T, trials) tridiagonals (d, e2) of _tridiagonal.

    Each T_t's leading minors follow the three-term recurrence (Golub & Van
    Loan, 8.4.1) q_k = (1 + s d_k) q_{k-1} - s^2 e2_{k-1} q_{k-2}, each
    coefficient clipped at 0, where exact arithmetic keeps it.  The T
    polynomials are then multiplied in index order, each coefficient of a
    product a running total of its terms.  A large T L can overflow to inf
    or nan; numpy's warnings are the caller's to handle.
    """
    size, per, trials = d.shape
    older = np.zeros((size + 1, per, trials))                   # q_0 = 1
    older[0] = 1.0
    q = older.copy()                                            # q_1
    q[1] = d[0]
    for k in range(1, size):
        new = q.copy()
        new[1:k + 2] += d[k] * q[:k + 1]
        new[2:k + 2] -= e2[k - 1] * older[:k]
        np.maximum(new, 0.0, out=new)
        older, q = q, new
    coef = q[:, 0]
    for t in range(1, per):
        product = np.zeros((len(coef) + size, trials))
        for i in range(size + 1):
            product[i:i + len(coef)] += q[i, t] * coef
        coef = product
    return coef


def _horner_logs(coef: np.ndarray, s: np.ndarray) -> np.ndarray:
    """ln p(s) for p = sum_k c_k s^k with coefficients coef (K + 1, trials),
    at the (n,) points s that all trials share.  One Horner loop over the
    coefficients advances two running totals, low = sum_{k >= 1} c_k s^k
    from c_K on at the points s <= 1, read as log1p(low), and high =
    sum_{k < K} c_k s^(k - K) from c_0 on at those above, read as
    K ln s + ln(high + c_K), which cannot overflow."""
    rows = s > 1
    above, below = s[rows, None], s[~rows, None]
    deg = len(coef) - 1
    inv = 1.0 / above
    high, low = coef[0] * inv, coef[deg] * below
    for k in range(1, deg):
        high += coef[k]
        high *= inv
        low += coef[deg - k]
        low *= below
    high += coef[deg]
    np.log(high, out=high)
    high += deg * np.log(above)
    np.log1p(low, out=low)
    out = np.empty((len(s), coef.shape[1]))
    out[rows], out[~rows] = high, low
    return out


def _pivot_logs(scale: np.ndarray, d: np.ndarray, e2: np.ndarray):
    """(S, trials) sums over the T columns of ln det(I + s T_t) from the
    LDL^T pivots of I + s T_t (Golub & Van Loan, 4.3.6), at the (S,) points
    scale that all trials share:

        u_0 = d_0,   u_k = d_k - e2_{k-1} / (1/s + u_{k-1}),

    each adding log1p(s u_k), the u_k clipped at 0.  The S points are one
    block of _logdet_sums, evaluated at once.
    """
    s = scale[:, None, None]                                    # (S, 1, 1)
    with np.errstate(divide="ignore"):
        inv = 1.0 / s                     # inf at s = 0: e2 / inf = 0
    u = np.broadcast_to(d[0], (len(s),) + d.shape[1:])
    terms = np.log1p(s * u)
    for k in range(1, len(d)):
        with np.errstate(over="ignore"):  # an inf quotient clips u to 0
            quotient = e2[k - 1] / (inv + u)
        u = np.maximum(d[k] - quotient, 0.0)
        terms += np.log1p(s * u)
    return _entry_sum(np.moveaxis(terms, 1, 0))


def _logdet_sums(scale, d: np.ndarray, e2: np.ndarray) -> np.ndarray:
    """(S, trials) array: entry [i, b] sums log2 det(I + scale[i] T_t) over
    the T tridiagonals (d, e2) of trial b, (L, T, trials), from _tridiagonal;
    scale is an (S,) grid that all trials share.

    det(I + sG) = det(I + sT) needs no eigenvalues: once per trial,
    _coefficients takes the SNR-free coefficients c_k of prod_t det(I +
    s T_t), and each grid point then costs one Horner sum and one logarithm:
    one loop over the coefficients (_horner_logs) advances a running total
    in s for the points with s <= 1, whose log1p keeps a rate far below 1
    bit accurate and gives exactly 0 at s = 0, and one in 1/s for those
    above, so 3000 dB stays finite.  Only elementwise ufuncs touch the
    coefficients, so an entry's bits depend neither on its grid point's
    block nor on the other trials.  A trial whose leading coefficient is
    not positive (a zero or rank-deficient Gram: c_deg = prod det T_t
    rounds to 0 or below and is clipped there) or whose coefficients do not
    sum to a finite number (overflow: the (8, 64, 8) CDD product, of degree
    512) takes the LDL^T pivots of _pivot_logs instead; no Gaussian draw of
    the figure or benchmark shapes does.  One point loop serves both: points
    go in blocks whose largest temporary, the Horner totals' (points, trials)
    or the pivots' (points, T, fallback trials), holds at most
    _POINT_BUFFER doubles (one point if that is larger).
    """
    _, per, trials = d.shape
    with np.errstate(over="ignore", invalid="ignore"):  # they fall back
        coef = _coefficients(d, e2)
        fallback = ~((coef[-1] > 0) & np.isfinite(_entry_sum(coef)))
    fallen = np.count_nonzero(fallback)
    if fallen:
        coef[:, fallback] = 1.0
        d, e2 = d[..., fallback], e2[..., fallback]
    out = np.empty((len(scale), trials))
    step = max(1, _POINT_BUFFER // max(trials, per * fallen))
    for lo in range(0, len(scale), step):
        block = slice(lo, lo + step)
        out[block] = _horner_logs(coef, scale[block])
        if fallen:
            out[block, fallback] = _pivot_logs(scale[block], d, e2)
    out /= LN2
    return out


def _sweep_values(block: np.ndarray, snr: np.ndarray, metrics) -> np.ndarray:
    """Per-trial metric values, shape (len(metrics), len(snr), trials), in
    one array: inside a chunk a workspace buffer (linalg._buffer), which the
    caller must be done with before the next call; elsewhere a new array.

    Every series is one scheme's rate over a set of users, the same rule as
    rate_cdd and sum_capacity: all users for "cdd", "cap" and "isum", user k
    alone for "<scheme>_i<k>".  "isum-i<k>" and "diff" are per-trial
    differences of those series, each series evaluated once per sub-block
    of trials with at most _SUB_BLOCK_ENTRIES of this block's entries.
    """
    out = _buffer("vals", (len(metrics), len(snr), len(block)))
    step = max(1, _SUB_BLOCK_ENTRIES // math.prod(block.shape[1:]))
    for lo in range(0, len(block), step):
        _series(block[lo:lo + step], snr, metrics, out[..., lo:lo + step])
    return out


def _series(block: np.ndarray, snr: np.ndarray, metrics, out: np.ndarray):
    """_sweep_values of one sub-block, written into out."""
    n_tx = block.shape[-1]
    bins = reduce_to_parallel(block)                            # (B,T,n_rx,K)

    def users(user: int) -> slice:
        return slice(user - 1, user) if user else slice(None)   # 0: all

    @cache
    def tridiagonal(user: int):
        # the bins' tridiagonals, and where n_rx <= users that of their
        # Grams' sum after them: sum_t Pt Pt^H = sum_k Hk Hk^H (unitary DFT)
        x = bins[..., users(user)]
        return _tridiagonal(x, total=x.shape[-2] <= x.shape[-1])

    @cache
    def rate(scheme: str, user: int) -> np.ndarray:             # (S,B)
        x = bins[..., users(user)]
        if scheme == "cap" and x.shape[-2] > x.shape[-1]:       # n_rx > users
            d, e2 = _tridiagonal(_stack_users(block[:, users(user)]))
        else:
            d, e2 = tridiagonal(user)
        if scheme == "cap":     # the stacked rows, or the bins' sum after them
            return _logdet_sums(snr / n_tx, d[:, -1:], e2[:, -1:])
        cdd = _logdet_sums(snr, d[:, :n_tx], e2[:, :n_tx])
        cdd /= n_tx                                             # bins' mean
        return cdd

    for row, name in zip(out, metrics):
        scheme, _, part = name.partition("_")
        if name == "diff":
            np.subtract(rate("cap", 0), rate("cdd", 0), out=row)
        elif part.startswith("isum-"):
            np.subtract(rate(scheme, 0), rate(scheme, int(part[-1])), out=row)
        else:
            row[...] = rate(scheme, {"i1": 1, "i2": 2}.get(part, 0))


def _sweep(cfgs, snr, metrics, workers: int = 1) -> list:
    """monte_carlo_sweep over the configs of one draw (run_chunks), one
    result per config; the region metrics need two users in every config."""
    if not metrics or not set(metrics) <= set(SWEEP_METRICS):
        raise ValueError(f"metrics: need sweep metrics, got {metrics!r}")
    if any(c.users != 2 for c in cfgs) and set(metrics) & set(REGION_METRICS):
        raise ValueError("rate regions are computed for exactly 2 users")
    grid = _snr(snr)
    if grid.ndim > 1 or grid.size == 0:
        raise ValueError(f"snr grid must be a scalar or nonempty 1-D, got "
                         f"shape {grid.shape}")
    values = partial(_sweep_values, snr=np.atleast_1d(grid),
                     metrics=tuple(metrics))
    return [{name: (means[row], stderrs[row])
             for row, name in enumerate(metrics)}
            for means, stderrs in run_chunks(values, cfgs, workers)]


def monte_carlo_sweep(cfg: SystemConfig, snr, metrics=("cdd", "cap"),
                      workers: int = 1) -> dict:
    """Ergodic estimates for several metrics over a shared linear-SNR grid.

    Metrics are named in SWEEP_METRICS; the REGION_METRICS need exactly two
    users.  Returns {metric: (means, stderrs)}, two arrays over the grid; a
    scalar snr is a one-point grid.  Results are bit-identical for any
    workers value (fixed chunk schedule).
    """
    return _sweep([cfg], snr, metrics, workers)[0]
