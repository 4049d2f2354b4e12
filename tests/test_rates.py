"""Rate-engine tests.

Independent oracles used here:
  * brute-force log2-det on the full (no-Gram-shortcut) matrices,
  * the closed-form SISO Rayleigh ergodic capacity
    log2(e) * exp(1/snr) * E1(1/snr), evaluated with scipy's exponential
    integral (scipy is a test-only dependency).
"""

import contextlib
import gc
import importlib.util
import io
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
import weakref
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import exp1

from cddmac import linalg, rates
from cddmac.bounds import rc_upper_bound
from cddmac.channel import (SystemConfig, effective_channel,
                            reduce_to_parallel, sample_channel_block)
from cddmac.linalg import logdet_hermitian_psd
from cddmac.rates import (CHUNK, SWEEP_METRICS, _sweep, _sweep_values,
                          monte_carlo_sweep, rate_cdd, rate_cdd_reduced,
                          run_chunks, sum_capacity)
from cddmac.region import region_capacity, region_cdd

# E[log2(1 + snr*X)], X ~ Exp(1), at snr = 10 (i.e. 10 dB).
SISO_10DB_BITS = np.log2(np.e) * np.exp(0.1) * exp1(0.1)
SISO_10DB_FROZEN = 2.906514808414805


def same_bits(got, expected):
    """Two sweep results hold the same metrics with the same bytes."""
    return got.keys() == expected.keys() and all(
        x.tobytes() == y.tobytes()
        for m in got for x, y in zip(got[m], expected[m]))


def test_siso_oracle_matches_frozen_constant():
    assert SISO_10DB_BITS == pytest.approx(SISO_10DB_FROZEN, abs=1e-12)


def random_channels(rng, users, n_rx, n_tx):
    return (rng.standard_normal((users, n_rx, n_tx))
            + 1j * rng.standard_normal((users, n_rx, n_tx))) / np.sqrt(2.0)


def brute_rate_cdd(ch, snr):
    eff = effective_channel(ch)
    n_tx = ch.shape[2]
    gram = np.eye(eff.shape[0]) + (snr / n_tx) * eff @ eff.conj().T
    sign, logdet = np.linalg.slogdet(gram)
    assert sign.real > 0
    return logdet / np.log(2.0) / n_tx


def brute_sum_capacity(ch, snr):
    users, n_rx, n_tx = ch.shape
    total = sum(ch[k] @ ch[k].conj().T for k in range(users))
    sign, logdet = np.linalg.slogdet(np.eye(n_rx) + (snr / n_tx) * total)
    assert sign.real > 0
    return logdet / np.log(2.0)


# --- instantaneous rates ------------------------------------------------


def test_rate_cdd_zero_snr():
    rng = np.random.default_rng(0)
    assert rate_cdd(random_channels(rng, 2, 2, 3), 0.0) == 0.0


def test_rate_cdd_delta_channel_frozen():
    ch = np.array([1.0, 0.0]).reshape(1, 1, 2)
    assert rate_cdd(ch, 2.0) == pytest.approx(1.0, abs=1e-12)


def test_rate_cdd_rejects_negative_snr():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        rate_cdd(random_channels(rng, 1, 1, 2), -0.5)


@pytest.mark.parametrize("users,n_rx,n_tx", [(1, 1, 2), (2, 2, 3), (3, 1, 4)])
def test_rate_cdd_matches_brute_force(users, n_rx, n_tx):
    rng = np.random.default_rng(2)
    for _ in range(10):
        ch = random_channels(rng, users, n_rx, n_tx)
        assert rate_cdd(ch, 5.0) == pytest.approx(brute_rate_cdd(ch, 5.0),
                                                  abs=1e-9)


def test_rate_cdd_reduced_zero_blocks():
    assert rate_cdd_reduced(np.zeros((3, 2, 2), dtype=complex), 7.0) == 0.0


def test_rate_cdd_reduced_rejects_empty():
    with pytest.raises(ValueError):
        rate_cdd_reduced(np.zeros((0, 2, 2), dtype=complex), 1.0)


def test_rate_cdd_reduced_n_tx_one_identity():
    rng = np.random.default_rng(3)
    ch = random_channels(rng, 3, 2, 1)
    reduced = rate_cdd_reduced(reduce_to_parallel(ch), 4.0)
    assert reduced == pytest.approx(rate_cdd(ch, 4.0), abs=1e-12)


def test_rate_cdd_reduced_empty_leading_axis_gives_no_rates():
    # like rate_cdd: a stack of no realizations has no rates
    ch = np.zeros((0, 2, 2, 2), dtype=complex)
    for rate, x in ((rate_cdd, ch),
                    (rate_cdd_reduced, reduce_to_parallel(ch))):
        assert rate(x, 1.0).shape == (0,)


def test_rate_cdd_reduced_broadcasts_snr_against_the_stack():
    # an SNR grid for one realization, and a column of SNRs against a row
    # of realizations, as rate_cdd broadcasts them
    rng = np.random.default_rng(6)
    snr = np.array([0.0, 0.5, 4.0, 30.0])
    one = random_channels(rng, 3, 3, 2)
    np.testing.assert_allclose(
        rate_cdd_reduced(reduce_to_parallel(one), snr), rate_cdd(one, snr),
        rtol=0, atol=1e-9)
    many = np.stack([random_channels(rng, 3, 3, 2) for _ in range(5)])
    got = rate_cdd_reduced(reduce_to_parallel(many), snr[:, None])
    assert got.shape == (4, 5)
    np.testing.assert_allclose(got, rate_cdd(many, snr[:, None]), rtol=0,
                               atol=1e-9)


def test_dual_path_sweep():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(200):
        users, n_rx, n_tx = rng.integers(1, 5, size=3)
        ch = random_channels(rng, users, n_rx, n_tx)
        snr = float(rng.uniform(0.1, 50.0))
        delta = abs(rate_cdd(ch, snr)
                    - rate_cdd_reduced(reduce_to_parallel(ch), snr))
        worst = max(worst, delta)
    assert worst < 1e-9


def test_sum_capacity_zero_snr():
    rng = np.random.default_rng(5)
    assert sum_capacity(random_channels(rng, 2, 2, 2), 0.0) == 0.0


def test_sum_capacity_scalar_frozen():
    ch = np.array([1.0]).reshape(1, 1, 1)
    assert sum_capacity(ch, 3.0) == pytest.approx(2.0, abs=1e-12)


def test_sum_capacity_single_rx_rank_one_identity():
    rng = np.random.default_rng(6)
    ch = random_channels(rng, 3, 1, 2)
    expected = np.log2(1.0 + (5.0 / 2) * np.sum(np.abs(ch) ** 2))
    assert sum_capacity(ch, 5.0) == pytest.approx(expected, abs=1e-12)


def test_sum_capacity_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(10):
        ch = random_channels(rng, 3, 2, 2)
        assert sum_capacity(ch, 8.0) == pytest.approx(
            brute_sum_capacity(ch, 8.0), abs=1e-9)


def test_capacity_dominates_cdd_per_realization():
    rng = np.random.default_rng(8)
    for _ in range(100):
        users, n_rx, n_tx = rng.integers(1, 4, size=3)
        ch = random_channels(rng, users, n_rx, n_tx)
        snr = float(rng.uniform(0.1, 100.0))
        assert sum_capacity(ch, snr) >= rate_cdd(ch, snr) - 1e-9


def test_rates_strictly_increase_in_snr():
    rng = np.random.default_rng(9)
    ch = random_channels(rng, 2, 2, 2)
    grid = [0.5, 1.0, 5.0, 20.0, 100.0]
    cdd = [rate_cdd(ch, s) for s in grid]
    cap = [sum_capacity(ch, s) for s in grid]
    assert np.all(np.diff(cdd) > 0)
    assert np.all(np.diff(cap) > 0)


@pytest.mark.parametrize("rate", [rate_cdd, sum_capacity, rate_cdd_reduced])
@pytest.mark.parametrize("snr", [np.nan, np.inf, -np.inf, -0.5,
                                 np.array([1.0, np.nan]),
                                 np.array([1.0, np.inf]), 1e301])
def test_direct_rates_refuse_negative_or_nonfinite_snr(rate, snr):
    rng = np.random.default_rng(14)
    ch = np.stack([random_channels(rng, 2, 2, 2) for _ in range(2)])
    x = reduce_to_parallel(ch) if rate is rate_cdd_reduced else ch
    with pytest.raises(ValueError, match="snr must be finite and >= 0"):
        rate(x, snr)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rate_cdd_reduced_refuses_nonfinite_blocks(bad):
    # it returned nan, where the direct rates raise on the same channels
    rng = np.random.default_rng(15)
    blocks = reduce_to_parallel(random_channels(rng, 2, 2, 2))
    blocks[1, 0, 1] = bad
    with pytest.raises(ValueError, match="blocks has non-finite entries"):
        rate_cdd_reduced(blocks, 1.0)


@pytest.mark.parametrize("rate", [rate_cdd, sum_capacity])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, complex(1.0, np.inf)])
def test_direct_rates_refuse_an_inf_channel_before_any_product(rate, bad):
    # an inf entry made the Gram product warn "invalid value encountered in
    # matmul" before the Cholesky refused the matrix; with warnings as
    # errors that warning was the failure
    rng = np.random.default_rng(17)
    ch = np.stack([random_channels(rng, 2, 2, 2) for _ in range(2)])
    ch[1, 0, 1, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError,
                           match="channels has non-finite entries"):
            rate(ch, 1.0)


@pytest.mark.parametrize("rate", [rate_cdd, sum_capacity, rate_cdd_reduced])
def test_direct_rates_refuse_finite_entries_whose_gram_overflows(rate):
    # x 1e100 at 3000 dB overflowed snr times the Gram, and x 1e154 the Gram
    # itself: rate_cdd and sum_capacity raised only after a numpy overflow
    # warning, and rate_cdd_reduced returned inf or nan.  The same draw at
    # x 1 and 3000 dB, or x 1e60 and 0 dB, stays in range
    ch = random_channels(np.random.default_rng(0), 2, 2, 2)
    x = reduce_to_parallel(ch) if rate is rate_cdd_reduced else ch
    name = "blocks" if rate is rate_cdd_reduced else "channels"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale, snr in ((1e100, 1e300), (1e154, 1.0)):
            with pytest.raises(ValueError, match=f"{name} has entries too "
                                                 f"large for this snr"):
                rate(x * scale, snr)
        for scale, snr in ((1.0, 1e300), (1e60, 1.0)):
            assert np.isfinite(rate(x * scale, snr))


@pytest.mark.parametrize("rate", [rate_cdd, sum_capacity, rate_cdd_reduced])
def test_direct_rates_refuse_a_nan_channel(rate):
    rng = np.random.default_rng(16)
    ch = random_channels(rng, 2, 2, 2)
    ch[0, 1, 0] = np.nan
    x = reduce_to_parallel(ch) if rate is rate_cdd_reduced else ch
    with pytest.raises(ValueError, match="non-finite entries"):
        rate(x, 1.0)


@pytest.mark.parametrize("entry", [rate_cdd, sum_capacity, rate_cdd_reduced,
                                   effective_channel, reduce_to_parallel])
@pytest.mark.parametrize("shape", [(2, 2), (4,), (), (0, 2, 2), (2, 0, 2)])
def test_batched_entry_points_share_one_shape_error(entry, shape):
    args = (np.ones(shape),) + ((1.0,) if entry in (
        rate_cdd, sum_capacity, rate_cdd_reduced) else ())
    with pytest.raises(ValueError, match=r"must be a nonempty \(\.\.\., "
                                         r"\w+, n_rx, \w+\) stack, got shape"):
        entry(*args)


@pytest.mark.parametrize("db", [0.0, 10.0, 50.0, 300.0, 3000.0])
@pytest.mark.parametrize("users,n_tx,n_rx", [
    (1, 4, 1), (2, 2, 2), (6, 3, 3), (8, 4, 8)])
def test_batched_direct_path_is_per_realization_path(users, n_tx, n_rx, db):
    # a stack with 0, 1 or 2 leading axes gives, bit for bit, one call per
    # realization; snr is a scalar or one value per realization
    cfg = SystemConfig(users=users, n_tx=n_tx, n_rx=n_rx, trials=6, seed=23)
    block = sample_channel_block(cfg, 0, cfg.trials)
    snr = 10.0 ** (db / 10)
    # at most snr itself: 3000 dB is the snr ceiling
    per_trial = snr * np.linspace(0.5, 1.0, cfg.trials)
    cases = (((), block[0], per_trial[0]), ((6,), block, per_trial),
             ((2, 3), block.reshape(2, 3, users, n_rx, n_tx),
              per_trial.reshape(2, 3)))
    for lead, ch, snrs in cases:
        flat = ch.reshape(-1, users, n_rx, n_tx)
        par = reduce_to_parallel(ch)
        gram = rates._gram(rates._stack_users(ch))
        mats = np.eye(gram.shape[-1]) + (snr / n_tx) * gram
        pairs = [
            (effective_channel(ch),
             np.stack([effective_channel(c) for c in flat])),
            (logdet_hermitian_psd(mats),
             [logdet_hermitian_psd(m)
              for m in mats.reshape(-1, *mats.shape[-2:])]),
        ]
        for rate, x in ((rate_cdd, ch), (sum_capacity, ch),
                        (rate_cdd_reduced, par)):
            items = x.reshape(-1, *x.shape[-3:])
            for s in (snr, snrs):
                got = rate(x, s)
                if lead == ():
                    assert type(got) is float
                each = np.broadcast_to(s, lead).flat
                pairs.append((got, [rate(i, v) for i, v in zip(items, each)]))
        for got, expected in pairs:
            got = np.asarray(got)
            assert got.shape[:len(lead)] == lead
            assert got.tobytes() == np.asarray(expected).tobytes()


# --- ergodic estimates (monte_carlo_sweep at one SNR) --------------------


def test_ergodic_zero_snr_degenerate():
    cfg = SystemConfig(users=2, n_tx=2, n_rx=1, trials=50, seed=0)
    means, errs = monte_carlo_sweep(cfg, 0.0, metrics=("cdd",))["cdd"]
    assert means.tolist() == [0.0] and errs.tolist() == [0.0]


def test_ergodic_rejects_single_trial():
    cfg = SystemConfig(users=1, n_tx=1, n_rx=1, trials=1, seed=0)
    with pytest.raises(ValueError):
        monte_carlo_sweep(cfg, 1.0, metrics=("cdd",))


def test_ergodic_siso_matches_quadrature_oracle():
    cfg = SystemConfig(users=1, n_tx=1, n_rx=1, trials=40000, seed=2024)
    (mean,), (err,) = monte_carlo_sweep(cfg, 10.0, metrics=("cap",))["cap"]
    assert abs(mean - SISO_10DB_BITS) < 3 * err


def test_ergodic_cdd_two_tx_same_siso_mean():
    # each DFT bin of a 2-tap i.i.d. channel is unit-mean exponential, so the
    # CDD rate has the same expectation as the SISO capacity
    cfg = SystemConfig(users=1, n_tx=2, n_rx=1, trials=40000, seed=2025)
    (mean,), (err,) = monte_carlo_sweep(cfg, 10.0, metrics=("cdd",))["cdd"]
    assert abs(mean - SISO_10DB_BITS) < 3.5 * err


def test_ergodic_stderr_quarter_trials_scaling():
    # stderr scales as 1/sqrt(trials): 4x the trials halves it (within 20%)
    base = SystemConfig(users=1, n_tx=2, n_rx=1, trials=5000, seed=77)
    big = SystemConfig(users=1, n_tx=2, n_rx=1, trials=20000, seed=77)
    ratio = (monte_carlo_sweep(base, 10.0, metrics=("cdd",))["cdd"][1][0]
             / monte_carlo_sweep(big, 10.0, metrics=("cdd",))["cdd"][1][0])
    assert ratio == pytest.approx(2.0, rel=0.2)


def test_run_chunks_clamps_workers(monkeypatch):
    # a stand-in pool records its size and maps in this thread, so no
    # real pool is started however large workers is
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def map(self, fn, *iterables):
            return map(fn, *iterables)

        def shutdown(self, cancel_futures):
            pass

    monkeypatch.setattr(rates, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(rates, "_usable_cpus", lambda: 64)
    cfg = SystemConfig(users=2, n_tx=2, n_rx=2, trials=5000,
                       seed=12)  # two chunks
    serial = monte_carlo_sweep(cfg, 10.0, metrics=("cdd", "cap"))
    assert sizes == []
    assert same_bits(monte_carlo_sweep(cfg, 10.0, metrics=("cdd", "cap"),
                                       workers=64), serial)
    assert sizes == [2]  # capped at the chunk count
    small = SystemConfig(users=1, n_tx=2, n_rx=1, trials=100,
                         seed=12)  # one chunk
    assert same_bits(monte_carlo_sweep(small, 10.0, metrics=("cdd",),
                                       workers=64),
                     monte_carlo_sweep(small, 10.0, metrics=("cdd",)))
    monkeypatch.setattr(rates, "_usable_cpus", lambda: 1)
    assert same_bits(monte_carlo_sweep(cfg, 10.0, metrics=("cdd", "cap"),
                                       workers=64), serial)
    assert sizes == [2]  # one chunk or one CPU runs serially


def test_run_chunks_threads_take_a_closure_in_this_process(monkeypatch):
    # a closure, which no process pool could pickle, runs on two threads of
    # this process and gives the serial bits
    monkeypatch.setattr(rates, "_usable_cpus", lambda: 2)
    sweep = partial(_sweep_values, snr=np.array([1.0, 100.0]),
                    metrics=("cdd", "cap"))
    calls = []

    def values(block):
        calls.append((os.getpid(), threading.get_ident()))
        return sweep(block)

    cfg = SystemConfig(users=2, n_tx=2, n_rx=2, trials=3 * CHUNK, seed=31)
    [serial] = run_chunks(sweep, [cfg])
    [threaded] = run_chunks(values, [cfg], workers=2)
    for a, b in zip(serial, threaded):
        assert a.tobytes() == b.tobytes()
    assert len(calls) == 3
    assert {pid for pid, _ in calls} == {os.getpid()}
    assert threading.get_ident() not in {ident for _, ident in calls}
    assert multiprocessing.active_children() == []


def test_run_chunks_threads_keep_the_bits_under_fast_switching(monkeypatch):
    # more threads than CPUs, switching every microsecond, through both the
    # two-row and the Householder Gram paths: the serial bits
    monkeypatch.setattr(rates, "_usable_cpus", lambda: 8)
    cfg = SystemConfig(users=2, n_tx=2, n_rx=3, trials=8 * CHUNK, seed=33)
    grid = np.array([0.1, 10.0, 1000.0])
    serial = monte_carlo_sweep(cfg, grid, metrics=("cdd", "cap", "diff"))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = monte_carlo_sweep(cfg, grid, metrics=("cdd", "cap", "diff"),
                                     workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert same_bits(threaded, serial)


def test_run_chunks_error_cancels_queued_chunks(monkeypatch):
    # chunk 0 raises at once while the others take a while: the error
    # reaches the caller and the chunks still queued never run
    monkeypatch.setattr(rates, "_usable_cpus", lambda: 2)
    cfg = SystemConfig(users=1, n_tx=1, n_rx=1, trials=16 * CHUNK, seed=32)
    first = sample_channel_block(cfg, 0, CHUNK)
    ran = []

    def values(block):
        ran.append(len(block))
        if np.array_equal(block, first):
            raise RuntimeError("chunk 0 failed")
        time.sleep(0.05)
        return np.zeros((1, len(block)))

    with pytest.raises(RuntimeError, match="chunk 0 failed"):
        run_chunks(values, [cfg], workers=2)
    assert 1 <= len(ran) < 16


def test_consecutive_sweeps_in_one_thread_give_the_same_bytes():
    # each run_chunks call draws in a workspace of its own: a sweep of
    # another shape in between leaves no trace
    cfg = SystemConfig(users=8, n_tx=4, n_rx=8, trials=CHUNK + 1100, seed=46)
    other = SystemConfig(users=2, n_tx=2, n_rx=3, trials=300, seed=46)
    grid = np.array([1.0, 100.0])
    first = monte_carlo_sweep(cfg, grid)
    monte_carlo_sweep(other, grid, metrics=("cdd", "cap", "diff"))
    assert same_bits(monte_carlo_sweep(cfg, grid), first)
    assert same_bits(monte_carlo_sweep(cfg, grid), first)


def test_sweep_after_one_that_raised_mid_chunk_gives_fresh_bytes(monkeypatch):
    # the failed run dies in its second sub-block, between the draw and the
    # coefficients, and leaves no buffer behind; the
    # capacity takes the stacked Householder path (n_rx > users)
    monkeypatch.setattr(rates, "_SUB_BLOCK_ENTRIES", 24 * 512)
    cfg = SystemConfig(users=3, n_tx=2, n_rx=4, trials=CHUNK + 300, seed=47)
    grid = np.array([0.5, 50.0])
    fresh = monte_carlo_sweep(cfg, grid)
    true_coefficients = rates._coefficients
    calls = []

    def failing(d, e2):
        calls.append(d.shape)
        if len(calls) == 3:
            raise RuntimeError("mid-chunk")
        return true_coefficients(d, e2)

    with monkeypatch.context() as patched:
        patched.setattr(rates, "_coefficients", failing)
        with pytest.raises(RuntimeError, match="mid-chunk"):
            monte_carlo_sweep(cfg, grid)
    assert same_bits(monte_carlo_sweep(cfg, grid), fresh)


@pytest.mark.parametrize("workers", [1, 2])
def test_no_workspace_outlives_run_chunks(monkeypatch, workers):
    # one workspace per chunk thread, kept across its chunks and dropped
    # when run_chunks returns or raises
    monkeypatch.setattr(rates, "_usable_cpus", lambda: 2)
    cfg = SystemConfig(users=2, n_tx=2, n_rx=3, trials=4 * CHUNK, seed=48)
    sweep = partial(_sweep_values, snr=np.array([10.0]), metrics=("cdd",))
    seen = {}

    def values(block):
        workspace = linalg._current_workspace()
        seen.setdefault(threading.get_ident(), set()).add(id(workspace))
        refs.append(weakref.ref(workspace))
        if len(refs) == 4 and fail:
            raise RuntimeError("last chunk")
        return sweep(block)

    for fail in (False, True):
        refs = []
        seen.clear()
        try:
            run_chunks(values, [cfg], workers)
        except RuntimeError:
            assert fail
        gc.collect()
        assert len(refs) == 4 and all(ref() is None for ref in refs)
        assert 1 <= len(seen) <= workers
        assert all(len(ids) == 1 for ids in seen.values())
        assert linalg._current_workspace() is None


def test_usable_cpus_follow_the_affinity_mask(monkeypatch):
    # a process pinned to one CPU of a 64-CPU machine may use one; without
    # an affinity call the CPU count is all there is to go by
    monkeypatch.setattr(rates.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(rates.os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    assert rates._usable_cpus() == 1
    monkeypatch.delattr(rates.os, "sched_getaffinity")
    assert rates._usable_cpus() == 64
    monkeypatch.setattr(rates.os, "cpu_count", lambda: None)
    assert rates._usable_cpus() == 1


def test_run_chunks_shared_draw_equals_one_run_per_config(monkeypatch):
    # configs on one draw, serially and on two threads, give the bits of
    # one run per config, each in sub-blocks sized from its own entries:
    # the 8-user 4x8 config takes four in its first chunk, the others one,
    # counted as reduce_to_parallel calls by (users, n_tx, n_rx)
    monkeypatch.setattr(rates, "_usable_cpus", lambda: 2)
    values = partial(_sweep_values, snr=np.array([1.0, 100.0]),
                     metrics=("cdd", "cap", "diff"))
    true_bins = rates.reduce_to_parallel
    calls = []

    def bins(block):
        users, n_rx, n_tx = block.shape[1:]
        calls.append((users, n_tx, n_rx))
        return true_bins(block)

    monkeypatch.setattr(rates, "reduce_to_parallel", bins)
    for shapes, trials in ((((1, 2, 1), (3, 2, 2), (2, 2, 1)), CHUNK + 300),
                           (((8, 4, 8), (4, 4, 4), (6, 3, 3)), CHUNK + 904)):
        cfgs = [SystemConfig(*shape, trials=trials, seed=21)
                for shape in shapes]
        sub_blocks = {shape: 4 + 1 if shape == (8, 4, 8) else 1 + 1
                      for shape in shapes}
        runs = []
        for workers in (1, 2):
            calls.clear()
            runs.append(run_chunks(values, cfgs, workers))
            assert {shape: calls.count(shape) for shape in set(calls)} == \
                sub_blocks, workers
        shared, pooled = runs
        assert len(shared) == len(pooled) == len(cfgs)
        for cfg, got, in_pool in zip(cfgs, shared, pooled):
            [alone] = run_chunks(values, [cfg])
            for a, b, c in zip(got, in_pool, alone):
                assert a.shape == (3, 2)
                assert a.tobytes() == b.tobytes() == c.tobytes()


def stderr_ratios(snr):
    """stderr / mean at a linear snr over two chunks of a (2, 2, 2) draw:
    monte_carlo_sweep's cdd and cap, and run_chunks over a plain values,
    snr |h|^2 of each trial's first entry."""
    cfg = SystemConfig(users=2, n_tx=2, n_rx=2, trials=CHUNK + 1000, seed=5)
    sweep = monte_carlo_sweep(cfg, snr, metrics=("cdd", "cap"))
    [plain] = run_chunks(lambda block: snr * np.abs(block[:, 0, 0, 0]) ** 2,
                         [cfg])
    return np.array([float(np.ravel(err / mean)[0])
                     for mean, err in (*sweep.values(), plain)])


def assert_stderr_keeps_its_digits():
    # where every value is linear in s (s <= 1e-100), stderr / mean does not
    # depend on s, down to the snr floor, where the squared values underflow
    low, floor = stderr_ratios(1e-100), stderr_ratios(1e-300)
    assert np.all(floor > 0)
    np.testing.assert_allclose(floor, low, rtol=1e-12)


def test_stderr_keeps_its_digits_at_the_snr_floor():
    assert_stderr_keeps_its_digits()


def test_stderr_at_the_snr_floor_negative_control(monkeypatch):
    # the squares taken unscaled, as before: at 1e-300 they are all 0
    def unscaled(vals):
        total = vals.sum(axis=-1)
        return total, np.square(vals).sum(axis=-1), np.zeros(total.shape, int)

    monkeypatch.setattr(rates, "_trial_sums", unscaled)
    with pytest.raises(AssertionError):
        assert_stderr_keeps_its_digits()


@pytest.mark.parametrize("other", [dict(seed=22), dict(trials=CHUNK)])
def test_run_chunks_refuses_mixed_seeds_and_trials(other):
    base = dict(users=1, n_tx=2, n_rx=1, trials=100, seed=21)
    cfgs = [SystemConfig(**base), SystemConfig(**{**base, **other})]
    values = partial(_sweep_values, snr=np.array([1.0]), metrics=("cdd",))
    with pytest.raises(ValueError, match="one seed and one trial count"):
        run_chunks(values, cfgs)


# --- monte_carlo_sweep --------------------------------------------------


def test_sweep_grid_shapes_and_monotonicity():
    cfg = SystemConfig(users=1, n_tx=4, n_rx=2, trials=2000, seed=10)
    grid = np.array([1.0, 10.0, 100.0])
    got = monte_carlo_sweep(cfg, snr=grid, metrics=("cdd", "cap", "diff"))
    for metric in ("cdd", "cap", "diff"):
        means, errs = got[metric]
        assert means.shape == errs.shape == (3,)
    assert np.all(np.diff(got["cdd"][0]) > 0)
    assert np.all(np.diff(got["cap"][0]) > 0)


def test_sweep_diff_is_coupled_per_trial():
    cfg = SystemConfig(users=2, n_tx=2, n_rx=1, trials=4000, seed=11)
    got = monte_carlo_sweep(cfg, 10.0, metrics=("cdd", "cap", "diff"))
    (diff,), (diff_err,) = got["diff"]
    (cdd,), (cdd_err,) = got["cdd"]
    (cap,), (cap_err,) = got["cap"]
    assert diff == pytest.approx(cap - cdd, abs=1e-10)
    # shared trials make the difference tighter than independent estimates
    assert diff_err < cdd_err + cap_err


def test_sweep_workers_bit_identical_on_grid():
    cfg = SystemConfig(users=2, n_tx=2, n_rx=2, trials=CHUNK + 100, seed=12)
    grid = np.array([1.0, 31.6, 1000.0])
    serial = monte_carlo_sweep(cfg, snr=grid, metrics=("cdd", "cap"))
    parallel = monte_carlo_sweep(cfg, snr=grid, metrics=("cdd", "cap"),
                                 workers=4)
    for metric in ("cdd", "cap"):
        np.testing.assert_array_equal(serial[metric][0], parallel[metric][0])
        np.testing.assert_array_equal(serial[metric][1], parallel[metric][1])


def test_sweep_rejects_unknown_metric():
    cfg = SystemConfig(users=1, n_tx=1, n_rx=1, trials=10, seed=0)
    with pytest.raises(ValueError):
        monte_carlo_sweep(cfg, 1.0, metrics=("cdd", "outage"))
    # _sweep_values would read "foo" as cdd and "cap_foo" as cap
    two = [cfg, SystemConfig(users=2, n_tx=2, n_rx=2, trials=10, seed=0)]
    for name in ("outage", "foo", "cap_foo"):
        with pytest.raises(ValueError, match="metrics"):
            _sweep(two, 1.0, ("cdd", name))


def test_sweep_refuses_region_metrics_unless_every_config_has_two_users():
    cfgs = [SystemConfig(users=users, n_tx=2, n_rx=2, trials=10, seed=0)
            for users in (2, 3)]
    for metrics in (("cdd_i1",), ("cap", "cdd_isum-i2")):
        for order in (cfgs, cfgs[::-1]):
            with pytest.raises(ValueError, match="2 users"):
                _sweep(order, 1.0, metrics)
    assert _sweep(cfgs[:1], 1.0, ("cdd_i1",))[0].keys() == {"cdd_i1"}


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_of_one_draw_equals_monte_carlo_sweep_per_config(monkeypatch,
                                                             workers):
    # three configs of one draw give each config's own sweep, bit for bit,
    # on one thread and on two
    monkeypatch.setattr(rates, "_usable_cpus", lambda: 2)
    cfgs = [SystemConfig(*shape, trials=CHUNK + 300, seed=23)
            for shape in ((2, 2, 1), (2, 3, 2), (2, 2, 3))]
    grid = np.array([0.5, 10.0, 1e4])
    metrics = ("cap", "diff") + rates.REGION_METRICS
    got = _sweep(cfgs, grid, metrics, workers)
    assert len(got) == len(cfgs)
    for cfg, estimates in zip(cfgs, got):
        assert same_bits(estimates, monte_carlo_sweep(cfg, grid, metrics))


def test_sweep_rejects_empty_metrics():
    cfg = SystemConfig(users=1, n_tx=1, n_rx=1, trials=10, seed=0)
    with pytest.raises(ValueError, match="metrics"):
        monte_carlo_sweep(cfg, 1.0, metrics=(), workers=2)


def test_sweep_rejects_bad_grid():
    cfg = SystemConfig(users=1, n_tx=1, n_rx=1, trials=10, seed=0)
    # a grid is a scalar or 1-D: (2, 1) was flattened and (1, 2) failed
    # inside the log-det kernel
    for snr in (np.array([1.0, -2.0]), np.array([]), float("nan"),
                float("inf"), -0.5, 1e301, np.ones((2, 1)), np.ones((1, 2)),
                np.ones((1, 1, 1))):
        with pytest.raises(ValueError, match="snr"):
            monte_carlo_sweep(cfg, snr, metrics=("cdd",))
        with pytest.raises(ValueError, match="snr"):
            _sweep([cfg, SystemConfig(users=2, n_tx=1, n_rx=1, trials=10,
                                      seed=0)], snr, ("cdd",))
    two_users = SystemConfig(users=2, n_tx=2, n_rx=2, trials=10, seed=0)
    for region in (region_capacity, region_cdd):
        for snr in (-0.5, [1.0, 2.0]):  # a region is one point
            with pytest.raises(ValueError, match="snr"):
                region(two_users, snr)


def test_sweep_scalar_snr_is_a_one_point_grid():
    cfg = SystemConfig(users=2, n_tx=2, n_rx=2, trials=CHUNK + 100, seed=14)
    for snr in (0.0, 3.5, 1e4):
        scalar = monte_carlo_sweep(cfg, snr, metrics=SWEEP_METRICS)
        assert same_bits(scalar, monte_carlo_sweep(cfg, [snr],
                                                   metrics=SWEEP_METRICS))
        assert all(a.shape == (1,) for pair in scalar.values() for a in pair)


def test_sweep_matches_per_trial_rates():
    # the vectorized engine's mean and stderr must agree with the sample
    # statistics of the scalar per-realization path
    for cfg, snr, atol in (
            (SystemConfig(users=2, n_tx=3, n_rx=2, trials=64, seed=13),
             7.0, 1e-10),
            (SystemConfig(users=2, n_tx=2, n_rx=2, trials=3000, seed=9),
             10.0, 1e-9)):
        got = monte_carlo_sweep(cfg, snr, metrics=("cdd", "cap"))
        block = sample_channel_block(cfg, 0, cfg.trials)
        for metric, rate in (("cdd", rate_cdd), ("cap", sum_capacity)):
            vals = [rate(ch, snr) for ch in block]
            stderr = np.std(vals, ddof=1) / np.sqrt(cfg.trials)
            (mean,), (err,) = got[metric]
            assert mean == pytest.approx(np.mean(vals), abs=atol)
            assert err == pytest.approx(stderr, rel=1e-9)


# A Gram larger than any figure, benchmark or --verify config forms.
LARGE_ROWS = 21


@pytest.mark.parametrize("users,n_tx,n_rx", [
    (1, 4, 1), (1, 4, 2), (2, 2, 2), (2, 3, 2), (2, 4, 1), (2, 2, 3),
    (6, 3, 3), (8, 4, 8), (LARGE_ROWS, 2, LARGE_ROWS)])
def test_sweep_agrees_with_scalar_rates_trial_by_trial(users, n_tx, n_rx):
    # every branch of the tridiagonal kernel (one row either way round, two
    # rows, Householder) against the scalar Cholesky path, trial by trial
    cfg = SystemConfig(users=users, n_tx=n_tx, n_rx=n_rx, trials=40, seed=17)
    block = sample_channel_block(cfg, 0, cfg.trials)
    snr = 10.0 ** (np.array([-10.0, 0.0, 20.0, 40.0, 50.0, 100.0, 300.0])
                   / 10)
    # at two users also each user alone: its CDD rate averages every DFT bin
    metrics = ("cdd", "cap") + (("cdd_i1", "cdd_i2", "cap_i1", "cap_i2")
                                if users == 2 else ())
    got = _sweep_values(block, snr, metrics)
    for point, s in enumerate(snr):
        expected = [[rate_cdd(ch, s) for ch in block],
                    [sum_capacity(ch, s) for ch in block]]
        if users == 2:
            expected += [[rate(ch[k:k + 1], s) for ch in block]
                         for rate in (rate_cdd, sum_capacity) for k in (0, 1)]
        np.testing.assert_allclose(got[:, point], expected, rtol=0,
                                   atol=1e-10)


@pytest.mark.parametrize("users,n_tx,n_rx", [
    (1, 4, 1), (1, 4, 2), (2, 2, 2), (6, 3, 3), (8, 4, 8)])
def test_sweep_values_first_order_at_low_snr(users, n_tx, n_rx):
    # at snr 1e-16 both sum rates are s * tr(sum_k Hk Hk^H) / (n_tx ln 2) up
    # to a relative 1e-16; log2(1 + x) would round most terms to 0
    cfg = SystemConfig(users=users, n_tx=n_tx, n_rx=n_rx, trials=200, seed=31)
    block = sample_channel_block(cfg, 0, cfg.trials)
    snr = 1e-16
    trace = (np.abs(block) ** 2).sum(axis=(1, 2, 3))
    first_order = snr * trace / (n_tx * np.log(2.0))
    got = _sweep_values(block, np.array([snr]), ("cdd", "cap"))
    for row in got[:, 0]:
        np.testing.assert_allclose(row, first_order, rtol=1e-9, atol=0)


def tridiagonal_spectrum(x):
    """Eigenvalues of the real tridiagonals rates._tridiagonal builds for a
    (trials, ..., rows, cols) stack, (trials, ..., L) ascending."""
    d, e2 = (a.T for a in rates._tridiagonal(x))        # (trials, T, L)
    size = d.shape[-1]
    t = np.zeros(d.shape + (size,))
    i = np.arange(size)
    t[..., i, i] = d
    t[..., i[1:], i[:-1]] = t[..., i[:-1], i[1:]] = np.sqrt(e2)
    return np.linalg.eigvalsh(t).reshape(*x.shape[:-2], size)


def assert_spectrum_matches(x):
    d, e2 = rates._tridiagonal(x)
    assert np.all(e2 >= 0)
    if min(x.shape[-2:]) <= 2:        # row powers: no rounding below zero
        assert np.all(d >= 0)
    got = tridiagonal_spectrum(x)
    expected = np.clip(np.linalg.eigvalsh(rates._gram(x)), 0.0, None)
    assert got.shape == expected.shape
    tol = 1e-13 * expected.max(axis=-1, keepdims=True)
    assert np.all(np.abs(got - expected) <= tol)


@pytest.mark.parametrize("short", [1, 2])
@pytest.mark.parametrize("long", range(2, 7))
def test_tridiagonal_closed_form_matches_eigvalsh(short, long):
    # one or two rows: the tridiagonal is the Gram itself, built from the
    # row powers and the inner product without a Gram product
    # (the kernel's stacks always carry a trials axis, so one matrix is a
    # stack of one)
    rng = np.random.default_rng(100 * short + long)
    for shape in ((short, long), (long, short)):
        x = rng.standard_normal((500, 3, *shape)) \
            + 1j * rng.standard_normal((500, 3, *shape))
        assert_spectrum_matches(x)
        assert_spectrum_matches(x[0, 0][None])
        d, e2 = rates._tridiagonal(x)
        gram = rates._gram(x)
        diagonal = np.diagonal(gram, axis1=-2, axis2=-1).real
        np.testing.assert_allclose(d.T, diagonal, rtol=1e-15)
        if short == 2:
            # |g01|^2 to rounding of the row powers' product, which bounds it
            err = np.abs(e2[0].T - np.abs(gram[..., 0, 1]) ** 2)
            assert np.all(err <= 1e-14 * diagonal[..., 0] * diagonal[..., 1])


def test_tridiagonal_closed_form_edge_cases():
    rng = np.random.default_rng(9)
    for size in (2, 4):
        row = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        assert_spectrum_matches(np.stack([row, row])[None])  # rank one
        assert_spectrum_matches(np.stack([row, 1j * row]).T[None])
    for shape in ((1, 3), (2, 2), (2, 5), (5, 2), (3, 3), (8, 9), (22, 22)):
        d, e2 = rates._tridiagonal(np.zeros((1, *shape), dtype=complex))
        assert not d.any() and not e2.any()
    x = rng.standard_normal((200, 2, 3)) + 1j * rng.standard_normal((200, 2, 3))
    x[:, 0] *= 1e6                                   # powers differ by 1e12
    assert_spectrum_matches(x)
    assert_spectrum_matches(np.swapaxes(x, -1, -2))


def index_order_sum(terms):
    """Sum over the last axis from left to right (add.accumulate is
    sequential by definition)."""
    return np.add.accumulate(terms, axis=-1)[..., -1]


@pytest.mark.parametrize("cols", [2, 3, 4, 8, 9])
def test_tridiagonal_closed_form_sums_in_index_order(cols):
    # bit for bit at every row length: numpy's sum(axis=-1) goes pairwise
    # from 8 real or 4 complex entries up, sequentially below that
    rng = np.random.default_rng(cols)
    shape = (4096, 3, 2, cols)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    power = index_order_sum(np.square(x.real) + np.square(x.imag))
    inner = index_order_sum(x[..., 0, :] * np.conj(x[..., 1, :]))
    expected_e2 = (np.square(inner.real) + np.square(inner.imag)).T
    # as rows, or as the columns of a tall matrix (a square one is rows)
    for rows in [x] if cols == 2 else [x, np.swapaxes(x, -1, -2)]:
        d, e2 = rates._tridiagonal(rows)
        assert d.tobytes() == power.transpose(2, 1, 0).tobytes()
        assert e2.tobytes() == expected_e2.tobytes()
    d, e2 = rates._tridiagonal(x[..., :1, :])               # one row alone
    assert d.tobytes() == power[..., :1].transpose(2, 1, 0).tobytes()
    assert e2.shape == (0, 3, 4096)


@pytest.mark.parametrize("users, n_tx, n_rx", [(1, 4, 1), (1, 4, 2),
                                               (2, 2, 1), (2, 2, 2),
                                               (2, 1, 4), (3, 2, 2)])
def test_one_and_two_row_grams_take_no_gram_product(monkeypatch, users,
                                                    n_tx, n_rx):
    # every Gram of these shapes has one or two rows, so the sweep and
    # rate_cdd_reduced read it from _tridiagonal's closed form, never from a
    # per-matrix Gram product (about 1 us per Gram): the bins of all users
    # and of one user, with and without their summed column, and the
    # capacity's stacked rows where n_rx > users
    cfg = SystemConfig(users=users, n_tx=n_tx, n_rx=n_rx, trials=64, seed=3)
    block = sample_channel_block(cfg, 0, cfg.trials)
    bins = reduce_to_parallel(block)
    snr = np.array([0.1, 10.0, 1000.0])
    metrics = SWEEP_METRICS if users == 2 else ("cdd", "cap", "diff")
    values = _sweep_values(block, snr, metrics)
    reduced = rate_cdd_reduced(bins, snr[:, None])

    def refused(x):
        raise AssertionError("a per-matrix Gram product")

    monkeypatch.setattr(rates, "_gram", refused)
    stacks = [(bins, n_rx <= users), (bins[..., :1], n_rx <= 1)]
    if n_rx > users:
        stacks.append((rates._stack_users(block), False))
    for x, wide in stacks:
        for total in {False, wide}:
            d, e2 = rates._tridiagonal(x, total)
            size, per = min(x.shape[-2:]), math.prod(x.shape[1:-2]) + total
            assert d.shape == (size, per, cfg.trials)
            assert e2.shape == (size - 1, per, cfg.trials)
    assert _sweep_values(block, snr, metrics).tobytes() == values.tobytes()
    assert rate_cdd_reduced(bins, snr[:, None]).tobytes() == reduced.tobytes()


@pytest.mark.parametrize("rows", [3, 4, 5, 8, 13, 20, LARGE_ROWS])
def test_tridiagonal_keeps_the_gram_spectrum(rows):
    # the Householder reduction in both orientations; a matrix reduced alone
    # agrees with its reduction in a batch to rounding
    rng = np.random.default_rng(rows)
    for shape in ((rows, rows + 3), (rows + 1, rows)):
        x = rng.standard_normal((40, 2, *shape)) \
            + 1j * rng.standard_normal((40, 2, *shape))
        assert_spectrum_matches(x.reshape(80, *shape))
        d, e2 = rates._tridiagonal(x)
        assert d.shape == (rows, 2, 40) and e2.shape == (rows - 1, 2, 40)
        one_d, one_e2 = rates._tridiagonal(x[7:8])
        top = d.max()
        np.testing.assert_allclose(one_d, d[:, :, 7:8], rtol=1e-13,
                                   atol=1e-13 * top)
        np.testing.assert_allclose(one_e2, e2[:, :, 7:8], rtol=1e-12,
                                   atol=1e-13 * top ** 2)


def two_pass_householder(gram):
    """rates._householder with p = tau A v formed in two passes: the columns
    of the lower triangle, then the rows above the diagonal."""
    size, _, n = gram.shape
    e2 = np.empty((size - 1, n))
    p_buf, tmp = np.empty((2, size - 1, n), complex)
    for k in range(size - 2):
        col = gram[k + 1:, k]
        m = len(col)
        power = np.square(col.real) + np.square(col.imag)
        norm2 = e2[k] = rates._entry_sum(power)
        alpha, lead = np.sqrt(norm2), np.sqrt(power[0])
        v = col.copy()
        v[0] += alpha * np.divide(col[0], lead, out=np.ones(n, complex),
                                  where=lead > 0)
        tau = np.divide(1.0, norm2 + lead * alpha, out=np.zeros(n),
                        where=norm2 > 0)
        vh = np.conj(v)
        sub = gram[k + 1:, k + 1:]
        p = p_buf[:m]
        np.multiply(sub[:, 0], v[0], out=p)
        for j in range(1, m):
            np.multiply(sub[j:, j], v[j], out=tmp[j:m])
            p[j:] += tmp[j:m]
        for i in range(1, m):
            np.multiply(np.conj(sub[i, :i]), v[i], out=tmp[:i])
            p[:i] += tmp[:i]
        p *= tau
        np.multiply(vh, p, out=tmp[:m])
        vp = rates._entry_sum(tmp[:m].real)
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


@pytest.mark.parametrize("rows,cols,count", [(3, 6, 4096), (4, 16, 4096),
                                             (8, 8, 4096), (21, 30, 50)])
def test_householder_keeps_the_two_pass_bits(rows, cols, count):
    # one pass over the columns of A gives every entry of tau A v the same
    # terms in the same order as the column pass and row pass did
    rng = np.random.default_rng(rows)
    x = rng.standard_normal((count, rows, cols)) \
        + 1j * rng.standard_normal((count, rows, cols))
    gram = np.ascontiguousarray(rates._gram(x).transpose(1, 2, 0))
    d, e2 = rates._householder(gram.copy())
    ref_d, ref_e2 = two_pass_householder(gram.copy())
    assert d.tobytes() == ref_d.tobytes()
    assert e2.tobytes() == ref_e2.tobytes()


# SNR points of the accuracy test: -200 to 3000 dB
ACCURACY_DB = np.array([-200.0, -60.0, 0.0, 20.0, 60.0, 300.0, 1000.0,
                        3000.0])


def mpmath_log2det(x, scales):
    """log2 det(I + s x x^H) at 60 digits from the exact entries of x."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        rows = mpmath.matrix([[mpmath.mpc(z.real, z.imag) for z in row]
                              for row in x.tolist()])
        gram = rows * rows.H
        eye = mpmath.eye(gram.rows)
        return np.array([float(mpmath.log(mpmath.re(mpmath.det(
            eye + mpmath.mpf(float(s)) * gram)), 2)) for s in scales])


def relative_errors(got, exact):
    return np.abs(got - exact) / exact


def test_logdet_sums_accuracy_against_mpmath():
    # random draws, near-singular draws (one singular value times 1e-6),
    # rank-one rows and the zero matrix, L = 1 ... 8 and LARGE_ROWS, from
    # -200 to 3000 dB.  At seed 2718 the worst relative errors are 6.6e-16
    # (random) and 4.2e-5 against eigvalsh's 3.5e-5 (near-singular); seeds
    # 0 ... 9 give ratios 0.19 ... 2.1
    rng = np.random.default_rng(2718)
    scale = 10.0 ** (ACCURACY_DB / 10)
    with_zero = np.concatenate([[0.0], scale])
    worst = {"random": 0.0, "near": 0.0, "near_eigvalsh": 0.0}
    for rows, draws in [(size, 2) for size in range(1, 9)] + [(LARGE_ROWS, 1)]:
        shape = (draws, rows, rows + 1)
        x = (rng.standard_normal(shape)
             + 1j * rng.standard_normal(shape)) / np.sqrt(2)
        u, sv, vh = np.linalg.svd(x, full_matrices=False)
        sv[:, -1] *= 1e-6
        near = (u * sv[:, None, :]) @ vh
        rank_one = x[:, :, :1] * x[:, :1, :]
        zero = np.zeros_like(x)
        for kind, stack in (("random", x), ("near", near),
                            ("rank_one", rank_one), ("zero", zero)):
            got = rates._logdet_sums(with_zero, *rates._tridiagonal(stack))
            assert np.all(np.isfinite(got)), (rows, kind)
            assert not got[0].any(), (rows, kind)           # s = 0 exactly
            if kind == "zero":
                assert not got.any()
            if kind not in worst:
                continue
            exact = np.stack([mpmath_log2det(m, scale) for m in stack], 1)
            worst[kind] = max(worst[kind],
                              relative_errors(got[1:], exact).max())
            if kind == "near":
                lam = np.clip(np.linalg.eigvalsh(rates._gram(stack)), 0.0,
                              None)
                eig = np.log1p(scale[:, None, None] * lam).sum(-1) / rates.LN2
                worst["near_eigvalsh"] = max(worst["near_eigvalsh"],
                                             relative_errors(eig, exact).max())
    assert worst["random"] <= 1e-13, worst
    assert worst["near"] <= 4 * worst["near_eigvalsh"], worst


def test_rate_cdd_reduced_gives_the_shared_grid_bits():
    # the dual-path check's shapes: rate_cdd_reduced at a scalar snr gives
    # the bits of a one-point grid that all trials share, the form every
    # estimate takes
    for users, n_tx, n_rx in ((1, 2, 1), (2, 4, 2), (3, 3, 2), (2, 2, 3)):
        cfg = SystemConfig(users=users, n_tx=n_tx, n_rx=n_rx, trials=50,
                           seed=5)
        bins = reduce_to_parallel(sample_channel_block(cfg, 0, cfg.trials))
        d, e2 = rates._tridiagonal(bins)
        for s in (8.0, 1e-250, 1.0, 1e250):
            shared = rates._logdet_sums(np.array([s]), d, e2)[0] / n_tx
            assert rate_cdd_reduced(bins, s).tobytes() == shared.tobytes()



def test_rate_cdd_reduced_reduces_each_stack_once(monkeypatch):
    # a 5-point grid against 7 stacks: _tridiagonal sees the 7 stacks once,
    # not 35 broadcast copies
    rng = np.random.default_rng(9)
    bins = reduce_to_parallel(np.stack([random_channels(rng, 2, 3, 2)
                                        for _ in range(7)]))
    seen = []
    true_tridiagonal = rates._tridiagonal

    def counted(x, total=False):
        seen.append(len(x))
        return true_tridiagonal(x, total)

    monkeypatch.setattr(rates, "_tridiagonal", counted)
    got = rate_cdd_reduced(bins, np.array([0.0, 0.5, 1.0, 4.0, 30.0])[:, None])
    assert got.shape == (5, 7) and seen == [7]


@pytest.mark.parametrize("users,n_tx,n_rx", [(1, 2, 1), (2, 2, 2), (3, 3, 4),
                                             (2, 2, 3)])
def test_rate_cdd_reduced_on_a_grid_reads_the_sweep_kernel(users, n_tx, n_rx):
    # a column of snr values against a row of stacks: every entry the bits
    # of the grid's own _logdet_sums, and within 1e-9 of rate_cdd
    cfg = SystemConfig(users=users, n_tx=n_tx, n_rx=n_rx, trials=50, seed=8)
    block = sample_channel_block(cfg, 0, cfg.trials)
    bins = reduce_to_parallel(block)
    grid = np.concatenate([[0.0], 10.0 ** (np.arange(-30.0, 61.0, 10) / 10)])
    got = rate_cdd_reduced(bins, grid[:, None])
    kernel = rates._logdet_sums(grid, *rates._tridiagonal(bins)) / n_tx
    assert got.tobytes() == kernel.tobytes()
    np.testing.assert_allclose(got, rate_cdd(block, grid[:, None]), rtol=0,
                               atol=1e-9)


def test_rate_cdd_reduced_refuses_snr_that_does_not_broadcast():
    rng = np.random.default_rng(10)
    bins = reduce_to_parallel(np.stack([random_channels(rng, 2, 2, 2)
                                        for _ in range(3)]))
    with pytest.raises(ValueError):
        rate_cdd_reduced(bins, np.array([1.0, 2.0]))

def coefficient_reference(d, e2):
    """rates._coefficients one coefficient at a time: the three-term
    recurrence per DFT bin, then the bins' product in index order, each
    coefficient a running total from 0.0; a list of (trials,) arrays."""
    size, per, _ = d.shape
    bins = []
    for t in range(per):
        older, q = [1.0], [1.0, d[0, t]]
        for k in range(1, size):
            new = [1.0]
            for j in range(1, k + 2):
                value = (q[j] if j <= k else 0.0) + d[k, t] * q[j - 1]
                if j >= 2:
                    value = value - e2[k - 1, t] * older[j - 2]
                new.append(np.maximum(value, 0.0))
            older, q = q, new
        bins.append([np.broadcast_to(c, d.shape[-1:]) for c in q])
    coef = bins[0]
    for q in bins[1:]:
        product = []
        for j in range(len(coef) + size):
            total = 0.0
            for i in range(size + 1):
                if 0 <= j - i < len(coef):
                    total = total + q[i] * coef[j - i]
            product.append(total)
        coef = product
    return coef


def horner_reference(coef, x):
    h = 0.0
    for c in coef:
        h = h * x + c
    return h


def coefficient_form(d, e2, scale):
    """(S, B) log2 det sums of rates._logdet_sums, every grid point at
    once: log1p of the Horner sum in s for s <= 1, deg ln s plus ln of the
    Horner sum in 1/s above, both everywhere with s clipped to 1."""
    coef = coefficient_reference(d, e2)
    assert np.all(coef[-1] > 0) and np.all(np.isfinite(sum(coef)))
    s = scale[:, None]
    top = np.maximum(s, 1.0)
    up = np.log(horner_reference(coef, 1.0 / top)) + (len(coef) - 1) * np.log(
        top)
    down = np.log1p(horner_reference(coef[:0:-1] + [0.0],
                                     np.minimum(s, 1.0)))
    return np.where(s > 1, up, down) / rates.LN2


def broadcast_sweep(block, snr, name):
    """Reference for rates._sweep_values: metric name's per-trial values,
    shape (S, B), from the tridiagonals of rates._tridiagonal (the bins'
    and, where n_rx <= users, their Grams' sum for the capacity) and the
    whole-grid coefficient form."""
    n_tx = block.shape[-1]
    scheme, _, part = name.partition("_")
    if scheme == "diff":
        return (broadcast_sweep(block, snr, "cap")
                - broadcast_sweep(block, snr, "cdd"))
    if part.startswith("isum-"):
        return (broadcast_sweep(block, snr, scheme)
                - broadcast_sweep(block, snr, f"{scheme}_{part[5:]}"))
    user = int(part[1]) - 1 if part in ("i1", "i2") else None
    par = reduce_to_parallel(block)
    x = par if user is None else par[..., user:user + 1]
    wide = x.shape[-2] <= x.shape[-1]
    d, e2 = rates._tridiagonal(x, total=wide)
    if scheme == "cdd":
        return coefficient_form(d[:, :n_tx], e2[:, :n_tx], snr) / n_tx
    if not wide:
        d, e2 = rates._tridiagonal(rates._stack_users(block) if user is None
                                   else block[:, user])
    return coefficient_form(d[:, -1:], e2[:, -1:], snr / n_tx)


@pytest.mark.parametrize("users,n_tx,n_rx", [(2, 2, 2), (8, 4, 8), (2, 9, 2)])
def test_sweep_values_equal_whole_grid_broadcast(users, n_tx, n_rx):
    # the whole block and its first trial alone: on one trial the 9 DFT
    # bins lie along a contiguous axis, where numpy's own sum(axis=...)
    # would add them pairwise instead of in index order
    cfg = SystemConfig(users=users, n_tx=n_tx, n_rx=n_rx, trials=300, seed=21)
    whole = sample_channel_block(cfg, 0, cfg.trials)
    snr = np.concatenate([[0.0], 10.0 ** (np.arange(-30.0, 41.0, 3.5) / 10),
                          [1e300]])
    names = [m for m in SWEEP_METRICS
             if users == 2 or m not in rates.REGION_METRICS]
    for block in (whole, whole[:1]):
        expected = {m: broadcast_sweep(block, snr, m) for m in names}
        for metrics in [tuple(names)] + [(m,) for m in names]:
            got = rates._sweep_values(block, snr, metrics)
            assert got.shape == (len(metrics), snr.size, len(block))
            for row, name in zip(got, metrics):
                assert row.tobytes() == expected[name].tobytes(), name


def pivot_reference(d, e2, scale):
    """(S, B) log2 det sums over the T columns of (d, e2) from the LDL^T
    pivots, every grid point at once in one (S, T, B) broadcast: the bits
    of rates._pivot_logs."""
    s = scale[:, None, None]
    with np.errstate(divide="ignore"):
        inv = 1.0 / s
    u = np.broadcast_to(d[0], (len(s),) + d.shape[1:])
    terms = np.log1p(s * u)
    for k in range(1, len(d)):
        u = np.maximum(d[k] - e2[k - 1] / (inv + u), 0.0)
        terms += np.log1p(s * u)
    out = np.zeros((len(s), d.shape[-1]))
    for t in range(terms.shape[1]):
        out += terms[:, t]
    return out / rates.LN2


@pytest.fixture
def fallen(monkeypatch):
    """The trial count of every call to rates._pivot_logs, the fallback."""
    counts = []
    true_pivots = rates._pivot_logs

    def counted(scale, d, e2):
        counts.append(d.shape[-1])
        return true_pivots(scale, d, e2)

    monkeypatch.setattr(rates, "_pivot_logs", counted)
    return counts


def complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


FALLBACK_SNR = np.array([0.0, 1e-20, 0.5, 1.0, 1e3, 1e16, 1e300])


def test_degenerate_trials_take_the_pivot_recurrence(fallen):
    # zero blocks, rank-one blocks and the CDD bins of 4 users sharing one
    # 3 x 2 channel (every bin Gram of rank one) have no positive leading
    # coefficient, so every trial takes the LDL^T pivots, with their bits.
    # (That channel's capacity Gram has rank 2 of 3, and its leading
    # coefficient may round to a positive value: item 15's domain)
    rng = np.random.default_rng(12)
    rank_one = (complex_normal(rng, (30, 4, 5, 1))
                * complex_normal(rng, (30, 4, 1, 6)))
    for x in (np.zeros((30, 4, 5, 6), complex), rank_one):
        fallen.clear()
        d, e2 = rates._tridiagonal(x)
        got = rates._logdet_sums(FALLBACK_SNR, d, e2)
        assert fallen == [30]
        expected = pivot_reference(d, e2, FALLBACK_SNR)
        assert got.tobytes() == expected.tobytes()
    block = np.repeat(complex_normal(rng, (30, 1, 3, 2)), 4, axis=1)
    fallen.clear()
    [cdd] = rates._sweep_values(block, FALLBACK_SNR, ("cdd",))
    assert fallen == [30]
    d, e2 = rates._tridiagonal(reduce_to_parallel(block), total=True)
    expected = pivot_reference(d[:, :2], e2[:, :2], FALLBACK_SNR) / 2
    assert cdd.tobytes() == expected.tobytes()


def test_point_blocks_serve_the_horner_sums_and_the_fallback(
        fallen, monkeypatch):
    # one point loop for both forms: at a 64-double budget 8 fallback
    # trials of 3 bins allow 2 points per block, so the 40 points take 20
    # blocks, some wholly below s = 1, some wholly above and one across it.
    # Every block gives the bits of the default budget's single block, and
    # each trial those of its own form over the whole grid
    rng = np.random.default_rng(31)
    kinds = np.arange(12) % 3                   # Gaussian, zero, rank one
    x = complex_normal(rng, (12, 3, 5, 6))
    x[kinds == 1] = 0.0
    x[kinds == 2] = (complex_normal(rng, (4, 3, 5, 1))
                     * complex_normal(rng, (4, 3, 1, 6)))
    snr_db = np.concatenate([np.linspace(-200.0, -10.0, 12), [0.0],
                             np.linspace(10.0, 3000.0, 27)])
    grid = 10.0 ** (snr_db / 10)
    step = 64 // max(12, 3 * 8)                 # trials, T * fallback trials
    sides = [set(grid[lo:lo + step] > 1) for lo in range(0, 40, step)]
    assert (step, sides.count({False}), sides.count({True})) == (2, 6, 13)
    d, e2 = rates._tridiagonal(x)
    one_block = rates._logdet_sums(grid, d, e2)
    with monkeypatch.context() as small:
        small.setattr(rates, "_POINT_BUFFER", 64)
        fallen.clear()
        got = rates._logdet_sums(grid, d, e2)
    assert fallen == [8] * len(sides)
    assert got.tobytes() == one_block.tobytes()
    for b, kind in enumerate(kinds):
        form = pivot_reference if kind else coefficient_form
        expected = form(d[..., b:b + 1], e2[..., b:b + 1], grid)[:, 0]
        assert got[:, b].tobytes() == expected.tobytes(), b


def test_each_side_of_s_equal_1_takes_its_own_form():
    # s <= 1 takes log1p of the total in s and s > 1 the total in 1/s: the
    # last double below 1 and 1 itself take the first form, the first
    # double above 1 the second.  At each of the three points the two forms
    # round apart on some of the 256 trials, so a point on the wrong side
    # shows.  One trial and the batch, bit for bit against coefficient_form
    rng = np.random.default_rng(32)
    d, e2 = rates._tridiagonal(complex_normal(rng, (256, 3, 3, 4)))
    grid = np.array([np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)])
    coef, s = coefficient_reference(d, e2), grid[:, None]
    below = np.log1p(horner_reference(coef[:0:-1] + [0.0], s))
    above = (np.log(horner_reference(coef, 1.0 / s))
             + (len(coef) - 1) * np.log(s))
    assert np.all(np.any(below != above, axis=1))
    expected = coefficient_form(d, e2, grid)
    assert expected.tobytes() == (np.where(s > 1, above, below)
                                  / rates.LN2).tobytes()
    for trials in (1, 256):
        want = expected[:, :trials]
        got = rates._logdet_sums(grid, d[..., :trials], e2[..., :trials])
        assert got.tobytes() == want.tobytes(), trials


def test_coefficient_overflow_falls_back_without_warnings(fallen):
    # the (8, 64, 8) CDD product has degree 512 and its coefficients
    # overflow: those trials take the pivots, finite up to 3000 dB, with no
    # numpy warning; the capacity's degree-8 polynomial stays finite
    cfg = SystemConfig(users=8, n_tx=64, n_rx=8, trials=3, seed=64)
    block = sample_channel_block(cfg, 0, cfg.trials)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = rates._sweep_values(block, FALLBACK_SNR, ("cdd", "cap"))
    assert fallen == [3]
    assert np.all(np.isfinite(got)) and not got[:, 0].any()
    d, e2 = rates._tridiagonal(reduce_to_parallel(block), total=True)
    expected = pivot_reference(d[:, :64], e2[:, :64], FALLBACK_SNR) / 64
    assert got[0].tobytes() == expected.tobytes()


def test_pivot_overflow_clips_without_warnings(fallen):
    # 4 users sharing one 3 x 2 channel, bins x 1e60: at 1e100 and 1e150 a
    # pivot rounds to 0 while its e2 does not, so e2 / (1/s + u) overflows
    # to inf and clips the next pivot to 0, with no numpy warning, the same
    # bits as with warnings ignored.  Its one stack is reduced once per call,
    # whatever the number of snr values
    h = complex_normal(np.random.default_rng(12), (3, 2))
    blocks = reduce_to_parallel(np.broadcast_to(h, (4, 3, 2))) * 1e60
    snr = np.array([1e100, 1e150, 1e10, 1.0, 0.0])
    got = rate_cdd_reduced(blocks, snr)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        quiet = rate_cdd_reduced(blocks, snr)
    assert fallen == [1, 1]
    assert np.all(np.isfinite(got)) and got.tobytes() == quiet.tobytes()


@pytest.mark.parametrize("users,n_tx,n_rx", [
    (1, 4, 1), (1, 4, 2), (2, 2, 2), (6, 3, 3), (8, 4, 8)])
def test_gaussian_draws_never_take_the_fallback(fallen, users, n_tx, n_rx):
    # the figure 2-4 and wide-sweep shapes: every trial of a chunk, every
    # series, has a positive leading coefficient and a finite sum
    cfg = SystemConfig(users=users, n_tx=n_tx, n_rx=n_rx, trials=CHUNK,
                       seed=14)
    block = sample_channel_block(cfg, 0, cfg.trials)
    metrics = SWEEP_METRICS if users == 2 else ("cdd", "cap")
    rates._sweep_values(block, np.array([1.0, 1e4]), metrics)
    assert fallen == []


@pytest.mark.parametrize("users,n_tx,n_rx", [
    (1, 4, 1), (2, 2, 1), (2, 2, 2), (3, 2, 3), (6, 3, 3), (8, 4, 8),
    (1, 4, 2), (2, 2, 3), (3, 2, 5)])
def test_capacity_gram_is_the_sum_of_the_bin_grams(users, n_tx, n_rx):
    # n_rx <= users: the DFT is unitary, so sum_t Pt Pt^H = sum_k Hk Hk^H,
    # and the sweep's capacity is read off the bins' Gram sum.  It agrees
    # with the stacked rows' to 16 ulp, relative (8.8 ulp at most over 2000
    # trials of 9 shapes: the bins' DFT rounds every entry).  n_rx > users:
    # the bin Grams are users x users, and the stacked rows' own Gram serves
    cfg = SystemConfig(users=users, n_tx=n_tx, n_rx=n_rx, trials=500, seed=10)
    block = sample_channel_block(cfg, 0, cfg.trials)
    snr = np.concatenate([[1e-20], 10.0 ** (np.arange(-30.0, 61.0, 7.5) / 10),
                          [1e300]])
    got = rates._sweep_values(block, snr, ("cap",))[0]
    stacked = rates._logdet_sums(snr / n_tx, *rates._tridiagonal(
        rates._stack_users(block)))
    if n_rx > users:
        assert got.tobytes() == stacked.tobytes()
        return
    d, e2 = rates._tridiagonal(reduce_to_parallel(block), total=True)
    shared = rates._logdet_sums(snr / n_tx, d[:, n_tx:], e2[:, n_tx:])
    assert got.tobytes() == shared.tobytes()
    assert np.all(np.abs(got - stacked) <= 16 * np.finfo(float).eps * stacked)


def coefficient_means(block):
    """Per trial, the coefficients c_1 ... c_L of det(I + sG), (2, L,
    trials): averaged over the CDD bins, and of the capacity's Gram."""
    n_tx = block.shape[-1]
    d, e2 = rates._tridiagonal(reduce_to_parallel(block), total=True)
    cdd = rates._entry_sum([rates._coefficients(d[:, t:t + 1], e2[:, t:t + 1])
                            for t in range(n_tx)]) / n_tx
    cap = rates._coefficients(d[:, n_tx:], e2[:, n_tx:])
    return np.stack([cdd[1:], cap[1:]])


def moment_terms(n_rx, m):
    """C(L, k) M! / (M - k)!, k = 1 ... L, L = min(n_rx, m), M = max(n_rx,
    m): the terms of rc_upper_bound's moment E det(I + snr W)."""
    lo, hi = min(n_rx, m), max(n_rx, m)
    return np.array([math.comb(lo, k) * math.perm(hi, k)
                     for k in range(1, lo + 1)], dtype=float)


def worst_coefficient_deviation():
    """Largest |mean - E c_k| in standard errors over the coefficients of
    the CDD bins and the capacity, 20000 draws of (6,3,3) and of (8,4,8)."""
    worst = 0.0
    for users, n_tx, n_rx in ((6, 3, 3), (8, 4, 8)):
        cfg = SystemConfig(users=users, n_tx=n_tx, n_rx=n_rx, trials=20000,
                           seed=1414)
        [(means, errs)] = run_chunks(coefficient_means, [cfg])
        cdd, cap = moment_terms(n_rx, users), moment_terms(n_rx, n_tx * users)
        # the paper's upper bound is log2 of the CDD terms' polynomial
        assert math.log2(1 + cdd.sum()) == pytest.approx(
            rc_upper_bound(users, n_rx, 1.0), rel=1e-14)
        expected = np.stack([cdd, cap])
        worst = max(worst, float(np.max(np.abs(means - expected) / errs)))
    return worst


def test_coefficient_means_are_the_moment_bound_terms():
    # E c_k = C(L,k) M!/(M-k)!, k = 1 ... L, for each CDD bin (M, L from
    # n_rx and users) and for the capacity (n_tx * users for users): 22
    # two-sided tests at 5 standard errors, family-wise false-failure rate
    # 1.3e-5 under the normal approximation (README "Power")
    assert worst_coefficient_deviation() <= 5


def test_coefficient_means_control(monkeypatch):
    # the trace c_1 1 % high: 10 standard errors or more at every config
    true_coefficients = rates._coefficients

    def high(d, e2):
        coef = true_coefficients(d, e2)
        coef[1] *= 1.01
        return coef

    monkeypatch.setattr(rates, "_coefficients", high)
    assert worst_coefficient_deviation() > 5


def sweep_stages_script(monkeypatch):
    """scripts/sweep_stages.py as a module, on three small shapes, two runs
    each: one whose three-row Grams take _grams and _householder, one whose
    two-row Grams take the closed form, and one with n_rx > users, whose
    capacity comes from the stacked rows.  Each shape's fresh interpreter
    is the script's own run on that shape's name, here in this process, so
    that it sees these settings."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    monkeypatch.setattr(sys, "path", list(sys.path))
    path = Path(__file__).resolve().parents[1] / "scripts" / "sweep_stages.py"
    spec = importlib.util.spec_from_file_location("sweep_stages", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "BUDGET", 0.0)
    monkeypatch.setattr(script, "MIN_RUNS", 2)
    grid = np.array([0.0, 10.0])
    monkeypatch.setattr(script, "SHAPES", (
        ("small", (3, 2, 3), grid), ("closed", (2, 2, 2), grid),
        ("stacked", (1, 4, 2), grid)))

    def child(command, stdout, text):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = script.main(command[2:])
        return subprocess.CompletedProcess(command, code, out.getvalue())

    monkeypatch.setattr(script, "subprocess",
                        SimpleNamespace(run=child, PIPE=subprocess.PIPE))
    return script


def test_sweep_stages_script_times_every_stage(monkeypatch, capsys):
    # the script wraps the kernel's stages by name inside a real chunk; its
    # stage lines and "rest" add up to the wrapped chunk, and every rates
    # name is the original again afterwards
    script = sweep_stages_script(monkeypatch)
    originals = {name: getattr(rates, name) for name in script.STAGES}
    assert script.main() == 0
    assert all(getattr(rates, name) is f for name, f in originals.items())
    shapes = {}
    for line in capsys.readouterr().out.splitlines():
        if not line.startswith("  "):                   # a shape's header
            read = shapes[line.split()[0]] = {}
            continue
        *words, ms, ms_unit, faults, faults_unit = line.split()
        assert (ms_unit, faults_unit) == ("ms", "faults")
        read[" ".join(words)] = np.array([float(ms), float(faults)])
    # the bins' tridiagonal by matrix shape, then the capacity's stacked rows
    # where n_rx > users; the polynomials by degree, T L for CDD, L for the
    # capacity
    stages = {"small": ["_tridiagonal 3x3", "_grams", "_householder",
                        "_coefficients, degree 6", "_horner_logs, degree 6",
                        "_coefficients, degree 3", "_horner_logs, degree 3"],
              "closed": ["_tridiagonal 2x2",
                         "_coefficients, degree 4", "_horner_logs, degree 4",
                         "_coefficients, degree 2", "_horner_logs, degree 2"],
              "stacked": ["_tridiagonal 2x1", "_tridiagonal 2x4",
                          "_coefficients, degree 4", "_horner_logs, degree 4",
                          "_coefficients, degree 2", "_horner_logs, degree 2"]}
    assert list(shapes) == list(stages)
    chunk = ["rest of the chunk", "chunk, wrapped, mean",
             "chunk, wrapped, median", "chunk, unwrapped, median"]
    for shape, read in shapes.items():
        summed = ["sample_channel_block", "reduce_to_parallel",
                  *stages[shape], "_trial_sums", "rest of the chunk"]
        assert sorted(read) == sorted(summed + chunk[1:]), shape
        assert all(ms >= 0 for ms, _ in read.values()), shape
        # each line printed to 0.01 ms and 0.1 fault
        parts = sum(read[name] for name in summed)
        assert np.all(np.abs(parts - read["chunk, wrapped, mean"])
                      <= 0.005 * len(summed) * np.array([1, 10])), shape


def test_sweep_stages_script_times_each_shape_alone(monkeypatch, capsys):
    # each shape is the script run on that shape's name, in an interpreter
    # of its own; a name times that shape alone, and two names or an
    # unknown one are a usage error
    script = sweep_stages_script(monkeypatch)
    commands = []
    child = script.subprocess.run
    monkeypatch.setattr(script.subprocess, "run", lambda command, **kwargs: (
        commands.append(command) or child(command, **kwargs)))
    assert script.main() == 0
    assert commands == [[sys.executable, script.__file__, name]
                        for name, *_ in script.SHAPES]
    capsys.readouterr()
    assert script.main(["closed"]) == 0
    assert [line for line in capsys.readouterr().out.splitlines()
            if not line.startswith("  ")] == [
        "closed (2, 2, 2), 2 points: 2 runs of a 4096-trial chunk "
        "(ms; minor faults)"]
    for names in (["small", "closed"], ["large"]):
        assert script.main(names) == 2
        assert capsys.readouterr().err.startswith("usage: sweep_stages.py")


@pytest.mark.parametrize("stage,error", [
    ("_no_such_stage", "not in rates: _no_such_stage"),
    ("_pivot_logs", "ran on no shape: _pivot_logs")])
def test_sweep_stages_script_fails_on_a_stage_it_cannot_time(
        monkeypatch, capsys, stage, error):
    # a stage renamed away from rates fails before any timing; one that no
    # shape runs (as if inlined: no Gaussian draw takes the pivots) fails
    # after it; either way every rates name is the original again
    script = sweep_stages_script(monkeypatch)
    monkeypatch.setattr(script, "STAGES", script.STAGES + (stage,))
    originals = {name: getattr(rates, name) for name in script.STAGES
                 if hasattr(rates, name)}
    assert script.main() == 1
    out, err = capsys.readouterr()
    assert err.strip() == error
    assert (out == "") == (stage == "_no_such_stage")
    assert all(getattr(rates, name) is f for name, f in originals.items())


@pytest.mark.parametrize("users,n_tx,n_rx", [(2, 2, 2), (6, 3, 3), (8, 4, 8)])
def test_sweep_values_do_not_depend_on_the_trial_split(monkeypatch, users,
                                                      n_tx, n_rx):
    # a trial's values agree whether it is evaluated alone, in blocks of 7
    # or 512 trials, in _sweep_values' own sub-blocks or in none, to 8 ulp
    # of its capacity at that point, which bounds every metric.  Bits are
    # not compared: numpy may round a complex product of _householder with
    # or without FMA depending on the batch's length and strides (a lone
    # (6, 3, 3) or (8, 4, 8) trial moves by up to 1.3 ulp of its capacity)
    cfg = SystemConfig(users=users, n_tx=n_tx, n_rx=n_rx, trials=1100, seed=44)
    block = sample_channel_block(cfg, 0, cfg.trials)
    snr = np.array([0.0, 1e-20, 1.0, 1e4, 1e300])
    metrics = ("cdd", "cap", "diff") + (rates.REGION_METRICS
                                        if users == 2 else ())
    budget = rates._SUB_BLOCK_ENTRIES // block[0].size
    with monkeypatch.context() as one_sub_block:
        one_sub_block.setattr(rates, "_SUB_BLOCK_ENTRIES", 1 << 40)
        whole = _sweep_values(block, snr, metrics)
    for rows, trials in ((1, 40), (7, 300), (512, 1100), (budget, 1100)):
        parts = [_sweep_values(block[lo:min(lo + rows, trials)], snr, metrics)
                 for lo in range(0, trials, rows)]
        split = np.concatenate(parts, axis=-1)
        tol = 8 * np.finfo(float).eps * whole[1, :, :trials]
        assert np.all(np.abs(split - whole[..., :trials]) <= tol), rows


def test_chunk_statistics_do_not_depend_on_sub_blocks(monkeypatch):
    # statistics keep the bits of one sub-block per chunk for any sub-block
    # and any _POINT_BUFFER: at 2**6 every Gram product block is one trial
    # and every point block one point.  The 8-user 4x8 config takes
    # 1024-trial sub-blocks, counted as reduce_to_parallel calls, and its
    # default Gram blocks are 64 trials of 4 CDD bins, whose sum is the
    # capacity's Gram; the others take whole chunks
    values = partial(_sweep_values, snr=np.array([1.0, 100.0]),
                     metrics=("cdd", "cap"))
    true_gram, true_bins = rates._gram, rates.reduce_to_parallel
    default = rates._POINT_BUFFER
    calls, grams = [], []

    def bins(block):                            # one call per sub-block
        calls.append(len(block))
        return true_bins(block)

    def gram(x):
        grams.append(x.shape[:2])               # (trials, bins) per product
        return true_gram(x)

    monkeypatch.setattr(rates, "_gram", gram)
    monkeypatch.setattr(rates, "reduce_to_parallel", bins)
    for users, n_tx, n_rx in ((2, 2, 2), (6, 3, 3), (8, 4, 8)):
        cfg = SystemConfig(users=users, n_tx=n_tx, n_rx=n_rx,
                           trials=CHUNK + 1500, seed=45)
        with monkeypatch.context() as whole_chunk:
            whole_chunk.setattr(rates, "_SUB_BLOCK_ENTRIES", 1 << 40)
            whole_chunk.setattr(rates, "_POINT_BUFFER", default)
            [whole] = run_chunks(values, [cfg])
        for budget in (1 << 6, default, 1 << 30):
            monkeypatch.setattr(rates, "_POINT_BUFFER", budget)
            calls.clear()
            grams.clear()
            [got] = run_chunks(values, [cfg])
            assert calls == ([1024] * 4 + [1024, 476] if users == 8
                             else [CHUNK, 1500])
            if budget == 1 << 6:
                assert {trials for trials, _ in grams} <= {1}
            if budget == default and users == 8:  # the last sub-block: 476
                assert set(grams) == {(64, 4), (28, 4)}
            for a, b in zip(got, whole):
                assert a.tobytes() == b.tobytes(), (users, budget)


@pytest.mark.parametrize("metric", ["cdd", "cap"])
def test_sweep_values_memory_stays_near_result_size(metric):
    # The (S, B) result itself is 82 MB; besides it the engine may hold one
    # (S, B) array per metric and buffers the size of one grid point.  A
    # whole-grid (S, B, T, L) broadcast needs 4 result sizes for cdd and 2
    # for cap here, per temporary.
    cfg = SystemConfig(users=2, n_tx=2, n_rx=2, trials=512, seed=22)
    block = sample_channel_block(cfg, 0, cfg.trials)
    snr = np.geomspace(1e-2, 1e4, 20000)
    result_bytes = snr.size * cfg.trials * 8
    tracemalloc.start()
    try:
        rates._sweep_values(block, snr, (metric,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * result_bytes + 16e6       # 180 MB
