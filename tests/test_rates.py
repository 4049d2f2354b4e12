"""Rate-engine tests.

Independent oracles used here:
  * brute-force log2-det on the full (no-Gram-shortcut) matrices,
  * the closed-form SISO Rayleigh ergodic capacity
    log2(e) * exp(1/snr) * E1(1/snr), evaluated with scipy's exponential
    integral (scipy is a test-only dependency).
"""

import multiprocessing
import os
import sys
import threading
import time
import tracemalloc
from functools import partial

import numpy as np
import pytest
from scipy.special import exp1

from cddmac import rates
from cddmac.channel import (SystemConfig, effective_channel,
                            reduce_to_parallel, sample_channel_block)
from cddmac.linalg import logdet_hermitian_psd
from cddmac.rates import (CHUNK, SWEEP_METRICS, _sweep_values,
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


def test_run_chunks_shared_draw_equals_one_run_per_config():
    # configs on one draw, serially and on two threads, give the bits of
    # one run per config
    values = partial(_sweep_values, snr=np.array([1.0, 100.0]),
                     metrics=("cdd", "cap", "diff"))
    cfgs = [SystemConfig(users=users, n_tx=n_tx, n_rx=n_rx,
                         trials=CHUNK + 300, seed=21)
            for users, n_tx, n_rx in ((1, 2, 1), (3, 2, 2), (2, 2, 1))]
    shared = run_chunks(values, cfgs)
    pooled = run_chunks(values, cfgs, workers=2)
    assert len(shared) == len(pooled) == len(cfgs)
    for cfg, got, in_pool in zip(cfgs, shared, pooled):
        [alone] = run_chunks(values, [cfg])
        for a, b, c in zip(got, in_pool, alone):
            assert a.shape == (3, 2)
            assert a.tobytes() == b.tobytes() == c.tobytes()


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
    (1, 4, 1), (1, 4, 2), (2, 2, 2), (2, 3, 2), (6, 3, 3), (8, 4, 8),
    (LARGE_ROWS, 2, LARGE_ROWS)])
def test_sweep_agrees_with_scalar_rates_trial_by_trial(users, n_tx, n_rx):
    # every branch of the tridiagonal kernel (one row either way round, two
    # rows, Householder) against the scalar Cholesky path, trial by trial
    cfg = SystemConfig(users=users, n_tx=n_tx, n_rx=n_rx, trials=40, seed=17)
    block = sample_channel_block(cfg, 0, cfg.trials)
    snr = 10.0 ** (np.array([-10.0, 0.0, 20.0, 40.0, 50.0, 100.0, 300.0])
                   / 10)
    metrics = ("cdd", "cap") + (("cap_i1", "cap_i2") if users == 2 else ())
    got = _sweep_values(block, snr, metrics)
    for point, s in enumerate(snr):
        expected = [[rate_cdd(ch, s) for ch in block],
                    [sum_capacity(ch, s) for ch in block]]
        if users == 2:
            expected += [[sum_capacity(ch[k:k + 1], s) for ch in block]
                         for k in (0, 1)]
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
    # -200 to 3000 dB.  At seed 2718 the worst relative errors are 5.8e-16
    # (random) and 3.5e-5 against eigvalsh's 3.5e-5 (near-singular); seeds
    # 0 ... 9 give ratios 0.15 ... 2.1
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
            got = rates._logdet_sums(with_zero, stack)
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


def test_logdet_sums_per_trial_scale_is_one_scale_per_trial():
    # rate_cdd_reduced's (1, trials) scale gives each trial the bits of its
    # own scalar grid point
    rng = np.random.default_rng(5)
    x = rng.standard_normal((6, 3, 4, 5)) + 1j * rng.standard_normal(
        (6, 3, 4, 5))
    per_trial = np.array([0.0, 1e-20, 0.3, 10.0, 1e8, 1e300])
    got = rates._logdet_sums(per_trial[None], x)[0]
    alone = [rates._logdet_sums(np.array([s]), x)[0, b]
             for b, s in enumerate(per_trial)]
    assert got.tobytes() == np.array(alone).tobytes()


def broadcast_sweep(block, snr, name):
    """Reference for rates._sweep_values: metric name's per-trial values from
    the tridiagonals of rates._tridiagonal, every grid point at once in one
    whole-grid (S, T, B) broadcast of the pivot recurrence, shape (S, B)."""
    n_tx = block.shape[-1]
    scheme, _, part = name.partition("_")
    if scheme == "diff":
        return (broadcast_sweep(block, snr, "cap")
                - broadcast_sweep(block, snr, "cdd"))
    if part.startswith("isum-"):
        return (broadcast_sweep(block, snr, scheme)
                - broadcast_sweep(block, snr, f"{scheme}_{part[5:]}"))
    user = int(part[1]) - 1 if part in ("i1", "i2") else None
    if scheme == "cdd":
        par = reduce_to_parallel(block)
        x = par if user is None else par[:, 0, :, user:user + 1]
        scale = snr
    else:
        x = rates._stack_users(block) if user is None else block[:, user]
        scale = snr / n_tx
    d, e2 = rates._tridiagonal(x)
    s = scale[:, None, None]
    with np.errstate(divide="ignore"):
        inv = 1.0 / s
    u = np.broadcast_to(d[0], (len(s),) + d.shape[1:])
    terms = np.log1p(s * u)
    for k in range(1, len(d)):
        u = np.maximum(d[k] - e2[k - 1] / (inv + u), 0.0)
        terms += np.log1p(s * u)
    out = np.zeros((len(s), block.shape[0]))
    for t in range(terms.shape[1]):
        out += terms[:, t]
    out /= rates.LN2
    return out / n_tx if scheme == "cdd" and user is None else out


@pytest.mark.parametrize("users,n_tx,n_rx", [(2, 2, 2), (8, 4, 8)])
def test_sweep_values_equal_whole_grid_broadcast(users, n_tx, n_rx):
    cfg = SystemConfig(users=users, n_tx=n_tx, n_rx=n_rx, trials=300, seed=21)
    block = sample_channel_block(cfg, 0, cfg.trials)
    snr = np.concatenate([[0.0], 10.0 ** (np.arange(-30.0, 41.0, 3.5) / 10),
                          [1e300]])
    names = [m for m in SWEEP_METRICS
             if users == 2 or m not in rates.REGION_METRICS]
    expected = {m: broadcast_sweep(block, snr, m) for m in names}
    for metrics in [tuple(names)] + [(m,) for m in names]:
        got = rates._sweep_values(block, snr, metrics)
        assert got.shape == (len(metrics), snr.size, cfg.trials)
        for row, name in zip(got, metrics):
            assert row.tobytes() == expected[name].tobytes(), name


@pytest.mark.parametrize("users,n_tx,n_rx", [(2, 2, 2), (6, 3, 3), (8, 4, 8)])
def test_sweep_values_do_not_depend_on_the_trial_split(users, n_tx, n_rx):
    # a trial's values agree whether it is evaluated alone, in blocks of 7
    # or 512 trials, or in _chunk_sums' sub-blocks, to 8 ulp of its capacity
    # at that point, which bounds every metric.  Bits are not compared:
    # numpy may round a complex product of _householder with or without FMA
    # depending on the batch's length and strides (a lone (6, 3, 3) or
    # (8, 4, 8) trial moves by up to 1.3 ulp of its capacity)
    cfg = SystemConfig(users=users, n_tx=n_tx, n_rx=n_rx, trials=1100, seed=44)
    block = sample_channel_block(cfg, 0, cfg.trials)
    snr = np.array([0.0, 1e-20, 1.0, 1e4, 1e300])
    metrics = ("cdd", "cap", "diff") + (rates.REGION_METRICS
                                        if users == 2 else ())
    whole = _sweep_values(block, snr, metrics)
    budget = rates._SUB_BLOCK_ENTRIES // block[0].size
    for rows, trials in ((1, 40), (7, 300), (512, 1100), (budget, 1100)):
        parts = [_sweep_values(block[lo:min(lo + rows, trials)], snr, metrics)
                 for lo in range(0, trials, rows)]
        split = np.concatenate(parts, axis=-1)
        tol = 8 * np.finfo(float).eps * whole[1, :, :trials]
        assert np.all(np.abs(split - whole[..., :trials]) <= tol), rows


def test_chunk_statistics_do_not_depend_on_sub_blocks(monkeypatch):
    # the 8-user 4x8 config takes 1024-trial sub-blocks; its statistics keep
    # the bits of one values() call on the whole chunk
    cfg = SystemConfig(users=8, n_tx=4, n_rx=8, trials=CHUNK + 1500, seed=45)
    values = partial(_sweep_values, snr=np.array([1.0, 100.0]),
                     metrics=("cdd", "cap"))
    assert rates._SUB_BLOCK_ENTRIES // (8 * 4 * 8) == 1024
    calls = []

    def counted(block):
        calls.append(len(block))
        return values(block)

    [got] = run_chunks(counted, [cfg])
    assert calls == [1024] * 4 + [1024, 476]
    monkeypatch.setattr(rates, "_SUB_BLOCK_ENTRIES", 1 << 40)
    [whole] = run_chunks(values, [cfg])
    for a, b in zip(got, whole):
        assert a.tobytes() == b.tobytes()


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
