"""Instantaneous mutual-information rates and Monte-Carlo ergodic estimates.

All rates are bits per channel use.  Determinants are evaluated through the
Gram matrix of the smaller side (same nonzero spectrum), with natural logs
converted to bits once at the end.

Every Monte-Carlo estimate goes through one chunk runner, run_chunks:
trials are processed in fixed-size chunks and the per-chunk (sum,
sum-of-squares) pairs are reduced in chunk-index order.  Because channel
draws are keyed by (seed, trial) and the reduction schedule never depends
on the worker count, estimates are bit-identical for any --workers setting.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .channel import (SystemConfig, block_prefix, effective_channel,
                      reduce_to_parallel, sample_channel_block)
from .linalg import logdet_hermitian_psd

LN2 = float(np.log(2.0))

# Fixed Monte-Carlo chunk size.  Changing it changes the summation order and
# therefore the last few bits of every estimate; it is part of the contract.
CHUNK = 4096


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


def _gram_logdet(mat: np.ndarray, scale: float) -> float:
    """ln det(I + scale * mat @ mat^H), via the Gram of the smaller side."""
    gram = _gram(mat)
    return logdet_hermitian_psd(np.eye(gram.shape[0]) + scale * gram)


def rate_cdd(channels, snr: float) -> float:
    """Instantaneous CDD sum rate (1/T) log2 det(I + (snr/T) Heff Heff^H).

    Built from the full stacked effective channel; the reduced per-bin path
    in rate_cdd_reduced must agree to 1e-9 (tested), which is the whole
    point of the block-diagonal reduction.
    """
    if snr < 0:
        raise ValueError("snr must be >= 0")
    ch = np.asarray(channels)
    n_tx = ch.shape[-1]
    eff = effective_channel(ch)
    return _gram_logdet(eff, snr / n_tx) / LN2 / n_tx


def rate_cdd_reduced(blocks, snr: float) -> float:
    """CDD sum rate from the DFT-bin blocks of reduce_to_parallel.

    (1/T) sum_t log2 det(I + snr * Hp_t Hp_t^H); the 1/n_tx power split is
    already absorbed by the reduction, so snr appears undivided.
    """
    if snr < 0:
        raise ValueError("snr must be >= 0")
    blk = np.asarray(blocks)
    if blk.ndim != 3 or blk.shape[0] < 1:
        raise ValueError("blocks must be a nonempty (n_tx, n_rx, users) stack")
    n_tx = blk.shape[0]
    total = sum(_gram_logdet(b, snr) for b in blk)
    return total / LN2 / n_tx


def sum_capacity(channels, snr: float) -> float:
    """No-CSIT equal-power sum capacity log2 det(I + (snr/n_tx) sum_k Hk Hk^H)."""
    if snr < 0:
        raise ValueError("snr must be >= 0")
    ch = np.asarray(channels)
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


def _metric_values(block: np.ndarray, metric, snr: float) -> np.ndarray:
    return np.array([metric(ch, snr) for ch in block])


def ergodic(metric, cfg: SystemConfig, workers: int = 1) -> RateEstimate:
    """Monte-Carlo mean/stderr of metric(channels, cfg.snr) over cfg.trials.

    metric must be a picklable (module-level) callable when workers > 1.
    """
    mean, stderr = run_chunks(_metric_values, cfg, (metric, cfg.snr), workers)
    return RateEstimate(mean=float(mean), stderr=float(stderr),
                        trials=cfg.trials)


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
    """Eigenvalues of x @ x^H via the smaller-side Gram, batched, clipped >= 0."""
    gram = _gram(x)
    if gram.shape[-1] == 1:
        return gram[..., 0].real
    return np.clip(np.linalg.eigvalsh(gram), 0.0, None)


def _log_sums(scale: np.ndarray, x: np.ndarray, axes=()) -> np.ndarray:
    """(S, B) array whose row i is log2(1 + scale[i] * x) summed over axes.

    x has trials on axis 0.  One grid point at a time through one x-sized
    buffer, so memory does not grow with the grid; each entry is computed
    and summed exactly as the whole-grid broadcast would.
    """
    out = np.empty((scale.size, x.shape[0]))
    buf = np.empty_like(x)
    for row, s in zip(out, scale):
        np.multiply(s, x, out=buf)
        buf += 1.0
        np.log2(buf, out=buf)
        buf.sum(axis=axes, out=row)
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
