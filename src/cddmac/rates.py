"""Instantaneous mutual-information rates and Monte-Carlo ergodic estimates.

All rates are bits per channel use.  Determinants are evaluated through the
Gram matrix of the smaller side (same nonzero spectrum), with natural logs
converted to bits once at the end.  There are two independent paths: the
direct rates (rate_cdd on the block-circulant effective channel,
sum_capacity) take one stacked Cholesky log-det per call, over any leading
trial axes, with the bits of one call per realization; the sweep engine
(monte_carlo_sweep) takes Gram spectra and log-sums over batches of DFT-bin
blocks, and rate_cdd_reduced runs those kernels on its own stack.

Every Monte-Carlo estimate is a sweep and goes through one chunk runner,
run_chunks: trials are processed in fixed-size chunks (channel.CHUNK) and
the per-chunk (sum, sum-of-squares) pairs are reduced in chunk-index order.
Because the channel streams are keyed by (seed, chunk) and the reduction
schedule never depends on the worker count, estimates are bit-identical for
any --workers setting.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .channel import (CHUNK, SystemConfig, _as_stack, block_prefix,
                      effective_channel, reduce_to_parallel,
                      sample_channel_block)
from .linalg import logdet_hermitian_psd

LN2 = float(np.log(2.0))


@dataclass(frozen=True)
class RateEstimate:
    """Monte-Carlo mean rate with standard error, in bits per channel use."""

    mean: float
    stderr: float
    trials: int


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


def _check_snr(snr) -> np.ndarray:
    snr = np.asarray(snr, dtype=float)
    if not np.all(np.isfinite(snr)) or np.any(snr < 0):
        raise ValueError("snr must be finite and >= 0")
    return snr


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
    snr = _check_snr(snr)
    ch = _as_stack(channels)
    n_tx = ch.shape[-1]
    eff = effective_channel(ch)
    return _gram_logdet(eff, snr / n_tx) / LN2 / n_tx


def rate_cdd_reduced(blocks, snr):
    """CDD sum rate from the DFT-bin blocks of reduce_to_parallel.

    (1/T) sum_t log2 det(I + snr * Hp_t Hp_t^H) for each (n_tx, n_rx, users)
    stack of a (..., n_tx, n_rx, users) array, snr broadcast over the
    leading axes; one stack gives a float.  The 1/n_tx power split is
    already absorbed by the reduction, so snr appears undivided.  Evaluated
    by the sweep's own kernels (_gram_eigvals, _log_sums), so the dual-path
    check against rate_cdd tests the code behind every Monte-Carlo CDD
    estimate.
    """
    snr = _check_snr(snr)
    blk = _as_stack(blocks, "blocks", "n_tx, n_rx, users")
    # snr enters before the log-sum, whose unit scale is exact, so each
    # value has the bits of the sweep at that snr
    x = snr[..., None, None] * _gram_eigvals(blk)             # (..., T, L)
    sums = _log_sums(np.ones(1), x.reshape(-1, *x.shape[-2:]), (1, 2))[0]
    rate = sums.reshape(x.shape[:-2]) / blk.shape[-3]
    return float(rate) if rate.ndim == 0 else rate


def sum_capacity(channels, snr):
    """No-CSIT equal-power sum capacity
    log2 det(I + (snr/n_tx) sum_k Hk Hk^H) of a (..., users, n_rx, n_tx)
    stack, snr broadcast over its leading axes; one realization gives a
    float."""
    snr = _check_snr(snr)
    ch = _as_stack(channels)
    return _gram_logdet(_stack_users(ch), snr / ch.shape[-1]) / LN2


def _chunk_sums(values, cfg: SystemConfig, args, start: int, stop: int):
    vals = values(sample_channel_block(cfg, start, stop), *args)
    return vals.sum(axis=-1), np.square(vals).sum(axis=-1)


def run_chunks(values, cfg: SystemConfig, args, workers: int = 1):
    """Monte-Carlo (means, stderrs) of values(block, *args) over cfg.trials.

    values maps a (trials, users, n_rx, n_tx) channel block to per-trial
    values with trials on the last axis; the statistics keep the other axes.
    At most min(workers, chunks, CPUs) processes run, and one runs serially;
    values and args must be picklable (module-level) when more run.
    """
    if cfg.trials < 2:
        raise ValueError("need trials >= 2 for a standard error")
    spans = [(s, min(s + CHUNK, cfg.trials))
             for s in range(0, cfg.trials, CHUNK)]
    procs = min(workers, len(spans), os.cpu_count() or 1)
    if procs > 1:
        starts, stops = zip(*spans)
        with ProcessPoolExecutor(max_workers=procs) as pool:
            parts = list(pool.map(_chunk_sums, repeat(values), repeat(cfg),
                                  repeat(args), starts, stops))
    else:
        parts = [_chunk_sums(values, cfg, args, a, b) for a, b in spans]
    total = total_sq = 0.0
    for part_sum, part_sq in parts:  # chunk order, never completion order
        total = total + part_sum
        total_sq = total_sq + part_sq
    n = cfg.trials
    means = total / n
    var = np.maximum(total_sq - n * means * means, 0.0) / (n - 1)
    return means, np.sqrt(var / n)


def _prefix_values(block: np.ndarray, values, cfgs, args) -> np.ndarray:
    return np.stack([values(block_prefix(block, cfg), *args) for cfg in cfgs])


def run_shared(values, cfgs, args=()) -> list:
    """run_chunks for several configs on one draw: per-config (means,
    stderrs) of values(block, *args), equal bit for bit to one serial
    run_chunks call per config.

    The configs must share seed and trial count; the block of the config
    with the most entries per trial is drawn once and every config reads
    its prefix (channel.block_prefix).  values must give the same shape for
    every config.
    """
    cfgs = tuple(cfgs)
    if len({(cfg.seed, cfg.trials) for cfg in cfgs}) != 1:
        raise ValueError("shared draws need configs with one seed and one "
                         "trial count")
    widest = max(cfgs, key=lambda cfg: cfg.users * cfg.n_rx * cfg.n_tx)
    means, stderrs = run_chunks(_prefix_values, widest, (values, cfgs, args))
    return list(zip(means, stderrs))


# ---------------------------------------------------------------------------
# Vectorized sweep engine: one pass over the trials serves every metric and
# every SNR grid point (eigenvalues are computed once per realization), so
# cross-metric differences like capacity-minus-CDD are tightly coupled.
#
# The two-user region metrics "<scheme>_<part>" (scheme cap or cdd) are the
# pentagon's constraints: each user's single-user rate (other user silent),
# the sum rate, and the sum rate minus either single-user rate (the corners'
# second coordinates).

REGION_PARTS = ("i1", "i2", "isum", "isum-i1", "isum-i2")
REGION_METRICS = tuple(f"{scheme}_{part}" for scheme in ("cap", "cdd")
                       for part in REGION_PARTS)
SWEEP_METRICS = ("cdd", "cap", "diff") + REGION_METRICS


def _gram_eigvals(x: np.ndarray) -> np.ndarray:
    """Eigenvalues of x @ x^H via the smaller-side Gram, batched, ascending,
    clipped >= 0.

    With one or two rows on the smaller side the spectrum is taken in
    closed form from the row powers a, c and inner product b, with no
    per-matrix LAPACK call: lambda = m -/+ hypot((a - c)/2, |b|),
    m = (a + c)/2.
    """
    rows = x if x.shape[-2] <= x.shape[-1] else np.swapaxes(x, -1, -2)
    if rows.shape[-2] > 2:
        return np.clip(np.linalg.eigvalsh(_gram(x)), 0.0, None)
    power = (np.square(rows.real) + np.square(rows.imag)).sum(axis=-1)
    if rows.shape[-2] == 1:
        return power
    a, c = power[..., 0], power[..., 1]
    b = (rows[..., 0, :] * np.conj(rows[..., 1, :])).sum(axis=-1)
    mid = (a + c) / 2
    rad = np.hypot((a - c) / 2, np.abs(b))
    return np.stack([np.maximum(mid - rad, 0.0), mid + rad], axis=-1)


def _log_sums(scale: np.ndarray, x: np.ndarray, axes=()) -> np.ndarray:
    """(S, B) array whose row i is log2(1 + scale[i] * x) summed over axes.

    x has trials on axis 0.  Each term is log1p(scale[i] * x), converted to
    bits once per sum, so a rate far below 1 bit keeps its relative accuracy
    (1 + tiny would round to 1).  One grid point at a time through one
    x-sized buffer, so memory does not grow with the grid; each entry is
    computed and summed exactly as the whole-grid broadcast would.
    """
    out = np.empty((scale.size, x.shape[0]))
    buf = np.empty_like(x)
    for row, s in zip(out, scale):
        np.multiply(s, x, out=buf)
        np.log1p(buf, out=buf)
        buf.sum(axis=axes, out=row)
    out /= LN2
    return out


def _sweep_values(block: np.ndarray, snr: np.ndarray, metrics) -> np.ndarray:
    """Per-trial metric values, shape (len(metrics), len(snr), trials)."""
    n_tx = block.shape[-1]
    schemes = {m.split("_")[0] for m in metrics}
    if "diff" in schemes:
        schemes |= {"cdd", "cap"}
    region = any(m in REGION_METRICS for m in metrics)
    picks = {}
    if "cdd" in schemes:
        par = reduce_to_parallel(block)                         # (B,T,n_rx,K)
        mu = _gram_eigvals(par)                                 # (B,T,L)
        picks["cdd"] = _log_sums(snr, mu, (1, 2)) / n_tx        # (S,B)
        if region:
            # single-user rate from the first DFT bin, other user absent
            # (rank 1); every bin is identically distributed, which a test
            # checks
            for k in (1, 2):
                gain = (np.abs(par[:, 0, :, k - 1]) ** 2).sum(-1)
                picks[f"cdd_i{k}"] = _log_sums(snr, gain)
    if "cap" in schemes:
        nu = _gram_eigvals(_stack_users(block))                 # (B,Lcap)
        scale = snr / n_tx
        picks["cap"] = _log_sums(scale, nu, 1)
        if region:
            for k in (1, 2):
                alone = _gram_eigvals(block[:, k - 1])
                picks[f"cap_i{k}"] = _log_sums(scale, alone, 1)
    if region:
        for scheme in schemes - {"diff"}:
            tot = picks[f"{scheme}_isum"] = picks[scheme]
            for k in (1, 2):
                picks[f"{scheme}_isum-i{k}"] = tot - picks[f"{scheme}_i{k}"]
    if "diff" in metrics:
        picks["diff"] = picks["cap"] - picks["cdd"]
    return np.stack([picks[m] for m in metrics])


def monte_carlo_sweep(cfg: SystemConfig, snr=None, metrics=("cdd", "cap"),
                      workers: int = 1) -> dict:
    """Ergodic estimates for several metrics over a shared linear-SNR grid.

    Metrics are named in SWEEP_METRICS; the REGION_METRICS need exactly two
    users.  Returns {metric: RateEstimate} for scalar snr input, or
    {metric: (means, stderrs)} arrays matching the grid otherwise.  Results
    are bit-identical for any workers value (fixed chunk schedule).
    """
    if not metrics:
        raise ValueError("metrics: at least one sweep metric is required")
    unknown = [m for m in metrics if m not in SWEEP_METRICS]
    if unknown:
        raise ValueError(f"unknown sweep metrics {unknown}")
    if cfg.users != 2 and any(m in REGION_METRICS for m in metrics):
        raise ValueError("rate regions are computed for exactly 2 users")
    grid = np.atleast_1d(np.asarray(cfg.snr if snr is None else snr,
                                    dtype=float))
    if grid.size == 0 or np.any(grid < 0) or not np.all(np.isfinite(grid)):
        raise ValueError("snr grid must be nonempty, finite and >= 0")
    scalar = np.ndim(cfg.snr if snr is None else snr) == 0

    means, stderrs = run_chunks(_sweep_values, cfg, (grid, tuple(metrics)),
                                workers)
    out = {}
    for row, name in enumerate(metrics):
        if scalar:
            out[name] = RateEstimate(mean=float(means[row, 0]),
                                     stderr=float(stderrs[row, 0]),
                                     trials=cfg.trials)
        else:
            out[name] = (means[row], stderrs[row])
    return out
