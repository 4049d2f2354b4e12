"""Rate-engine tests.

Independent oracles used here:
  * brute-force log2-det on the full (no-Gram-shortcut) matrices,
  * the closed-form SISO Rayleigh ergodic capacity
    log2(e) * exp(1/snr) * E1(1/snr), evaluated with scipy's exponential
    integral (scipy is a test-only dependency).
"""

import tracemalloc

import numpy as np
import pytest
from scipy.special import exp1

from cddmac import rates
from cddmac.channel import (SystemConfig, effective_channel,
                            reduce_to_parallel, sample_channel_block,
                            sample_channels)
from cddmac.rates import (CHUNK, SWEEP_METRICS, RateEstimate, _sweep_values,
                          ergodic, monte_carlo_sweep, rate_cdd,
                          rate_cdd_reduced, run_chunks, run_shared,
                          sum_capacity)

# E[log2(1 + snr*X)], X ~ Exp(1), at snr = 10 (i.e. 10 dB).
SISO_10DB_BITS = np.log2(np.e) * np.exp(0.1) * exp1(0.1)
SISO_10DB_FROZEN = 2.906514808414805


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


# --- ergodic ------------------------------------------------------------


def test_ergodic_zero_snr_degenerate():
    cfg = SystemConfig(users=2, n_tx=2, n_rx=1, snr=0.0, trials=50, seed=0)
    est = ergodic(rate_cdd, cfg)
    assert est == RateEstimate(mean=0.0, stderr=0.0, trials=50)


def test_ergodic_rejects_single_trial():
    cfg = SystemConfig(users=1, n_tx=1, n_rx=1, snr=1.0, trials=1, seed=0)
    with pytest.raises(ValueError):
        ergodic(rate_cdd, cfg)


def test_ergodic_siso_matches_quadrature_oracle():
    cfg = SystemConfig(users=1, n_tx=1, n_rx=1, snr=10.0, trials=40000,
                       seed=2024)
    est = ergodic(sum_capacity, cfg)
    assert abs(est.mean - SISO_10DB_BITS) < 3 * est.stderr


def test_ergodic_cdd_two_tx_same_siso_mean():
    # each DFT bin of a 2-tap i.i.d. channel is unit-mean exponential, so the
    # CDD rate has the same expectation as the SISO capacity
    cfg = SystemConfig(users=1, n_tx=2, n_rx=1, snr=10.0, trials=40000,
                       seed=2025)
    est = ergodic(rate_cdd, cfg)
    assert abs(est.mean - SISO_10DB_BITS) < 3.5 * est.stderr


def test_ergodic_stderr_quarter_trials_scaling():
    # stderr scales as 1/sqrt(trials): 4x the trials halves it (within 20%)
    base = SystemConfig(users=1, n_tx=2, n_rx=1, snr=10.0, trials=5000,
                        seed=77)
    big = SystemConfig(users=1, n_tx=2, n_rx=1, snr=10.0, trials=20000,
                       seed=77)
    ratio = ergodic(rate_cdd, base).stderr / ergodic(rate_cdd, big).stderr
    assert ratio == pytest.approx(2.0, rel=0.2)


def test_ergodic_workers_bit_identical():
    cfg = SystemConfig(users=1, n_tx=2, n_rx=1, snr=10.0,
                       trials=CHUNK + 500, seed=5)
    serial = ergodic(rate_cdd, cfg, workers=1)
    parallel = ergodic(rate_cdd, cfg, workers=3)
    assert serial == parallel


def test_run_chunks_clamps_workers(monkeypatch):
    # a stand-in pool records its size and maps in this process, so no
    # real pool is started however large workers is
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(rates, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(rates.os, "cpu_count", lambda: 64)
    cfg = SystemConfig(users=2, n_tx=2, n_rx=2, snr=10.0, trials=5000,
                       seed=12)  # two chunks
    serial = monte_carlo_sweep(cfg, metrics=("cdd", "cap"))
    assert sizes == []
    assert monte_carlo_sweep(cfg, metrics=("cdd", "cap"), workers=64) \
        == serial
    assert sizes == [2]  # capped at the chunk count
    small = SystemConfig(users=1, n_tx=2, n_rx=1, snr=10.0, trials=100,
                         seed=12)  # one chunk
    assert ergodic(rate_cdd, small, workers=64) == ergodic(rate_cdd, small)
    monkeypatch.setattr(rates.os, "cpu_count", lambda: 1)
    assert monte_carlo_sweep(cfg, metrics=("cdd", "cap"), workers=64) \
        == serial
    assert sizes == [2]  # one chunk or one CPU runs serially


def test_run_shared_equals_one_run_per_config():
    args = (np.array([1.0, 100.0]), ("cdd", "cap", "diff"))
    cfgs = [SystemConfig(users=users, n_tx=n_tx, n_rx=n_rx, snr=0.0,
                         trials=CHUNK + 300, seed=21)
            for users, n_tx, n_rx in ((1, 2, 1), (3, 2, 2), (2, 2, 1))]
    for cfg, (means, errs) in zip(cfgs, run_shared(_sweep_values, cfgs,
                                                   args)):
        alone_means, alone_errs = run_chunks(_sweep_values, cfg, args)
        assert means.tobytes() == alone_means.tobytes()
        assert errs.tobytes() == alone_errs.tobytes()


@pytest.mark.parametrize("other", [dict(seed=22), dict(trials=CHUNK)])
def test_run_shared_refuses_mixed_seeds_and_trials(other):
    base = dict(users=1, n_tx=2, n_rx=1, snr=0.0, trials=100, seed=21)
    cfgs = [SystemConfig(**base), SystemConfig(**{**base, **other})]
    with pytest.raises(ValueError, match="one seed and one trial count"):
        run_shared(_sweep_values, cfgs, (np.array([1.0]), ("cdd",)))


# --- monte_carlo_sweep --------------------------------------------------


def test_sweep_scalar_agrees_with_ergodic():
    cfg = SystemConfig(users=2, n_tx=2, n_rx=2, snr=10.0, trials=3000, seed=9)
    got = monte_carlo_sweep(cfg, metrics=("cdd", "cap"))
    cdd_ref = ergodic(rate_cdd, cfg)
    cap_ref = ergodic(sum_capacity, cfg)
    assert got["cdd"].mean == pytest.approx(cdd_ref.mean, abs=1e-9)
    assert got["cdd"].stderr == pytest.approx(cdd_ref.stderr, rel=1e-9)
    assert got["cap"].mean == pytest.approx(cap_ref.mean, abs=1e-9)


def test_sweep_grid_shapes_and_monotonicity():
    cfg = SystemConfig(users=1, n_tx=4, n_rx=2, snr=0.0, trials=2000, seed=10)
    grid = np.array([1.0, 10.0, 100.0])
    got = monte_carlo_sweep(cfg, snr=grid, metrics=("cdd", "cap", "diff"))
    for metric in ("cdd", "cap", "diff"):
        means, errs = got[metric]
        assert means.shape == errs.shape == (3,)
    assert np.all(np.diff(got["cdd"][0]) > 0)
    assert np.all(np.diff(got["cap"][0]) > 0)


def test_sweep_diff_is_coupled_per_trial():
    cfg = SystemConfig(users=2, n_tx=2, n_rx=1, snr=10.0, trials=4000, seed=11)
    got = monte_carlo_sweep(cfg, metrics=("cdd", "cap", "diff"))
    assert got["diff"].mean == pytest.approx(
        got["cap"].mean - got["cdd"].mean, abs=1e-10)
    # shared trials make the difference tighter than independent estimates
    assert got["diff"].stderr < got["cdd"].stderr + got["cap"].stderr


def test_sweep_workers_bit_identical_on_grid():
    cfg = SystemConfig(users=2, n_tx=2, n_rx=2, snr=0.0,
                       trials=CHUNK + 100, seed=12)
    grid = np.array([1.0, 31.6, 1000.0])
    serial = monte_carlo_sweep(cfg, snr=grid, metrics=("cdd", "cap"))
    parallel = monte_carlo_sweep(cfg, snr=grid, metrics=("cdd", "cap"),
                                 workers=4)
    for metric in ("cdd", "cap"):
        np.testing.assert_array_equal(serial[metric][0], parallel[metric][0])
        np.testing.assert_array_equal(serial[metric][1], parallel[metric][1])


def test_sweep_rejects_unknown_metric():
    cfg = SystemConfig(users=1, n_tx=1, n_rx=1, snr=1.0, trials=10, seed=0)
    with pytest.raises(ValueError):
        monte_carlo_sweep(cfg, metrics=("cdd", "outage"))


def test_sweep_rejects_empty_metrics():
    cfg = SystemConfig(users=1, n_tx=1, n_rx=1, snr=1.0, trials=10, seed=0)
    with pytest.raises(ValueError, match="metrics"):
        monte_carlo_sweep(cfg, metrics=(), workers=2)


def test_sweep_rejects_bad_grid():
    cfg = SystemConfig(users=1, n_tx=1, n_rx=1, snr=1.0, trials=10, seed=0)
    with pytest.raises(ValueError):
        monte_carlo_sweep(cfg, snr=np.array([1.0, -2.0]), metrics=("cdd",))


def test_sweep_matches_per_trial_rates():
    # the vectorized engine must agree with the scalar per-realization path
    cfg = SystemConfig(users=2, n_tx=3, n_rx=2, snr=7.0, trials=64, seed=13)
    got = monte_carlo_sweep(cfg, metrics=("cdd", "cap"))
    cdd_vals = [rate_cdd(sample_channels(cfg, t), 7.0)
                for t in range(cfg.trials)]
    cap_vals = [sum_capacity(sample_channels(cfg, t), 7.0)
                for t in range(cfg.trials)]
    assert got["cdd"].mean == pytest.approx(np.mean(cdd_vals), abs=1e-10)
    assert got["cap"].mean == pytest.approx(np.mean(cap_vals), abs=1e-10)


def broadcast_sweep(block, snr, name):
    """Reference for rates._sweep_values: metric name's per-trial values as
    one whole-grid broadcast with (S, B, ...) temporaries, shape (S, B)."""
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
        if user is not None:
            gain = (np.abs(par[:, 0, :, user]) ** 2).sum(-1)
            return np.log2(1.0 + snr[:, None] * gain)
        mu = rates._gram_eigvals(par)
        cdd = np.log2(1.0 + snr[:, None, None, None] * mu).sum(axis=(2, 3))
        return cdd / n_tx
    scale = snr[:, None, None] / n_tx
    if user is not None:
        nu = rates._gram_eigvals(block[:, user])
    else:
        nu = rates._gram_eigvals(rates._stack_users(block))
    return np.log2(1.0 + scale * nu).sum(axis=2)


@pytest.mark.parametrize("users,n_tx,n_rx", [(2, 2, 2), (8, 4, 8)])
def test_sweep_values_equal_whole_grid_broadcast(users, n_tx, n_rx):
    cfg = SystemConfig(users=users, n_tx=n_tx, n_rx=n_rx, snr=1.0,
                       trials=300, seed=21)
    block = sample_channel_block(cfg, 0, cfg.trials)
    snr = np.concatenate([[0.0], 10.0 ** (np.arange(-30.0, 41.0, 3.5) / 10)])
    names = [m for m in SWEEP_METRICS
             if users == 2 or m not in rates.REGION_METRICS]
    expected = {m: broadcast_sweep(block, snr, m) for m in names}
    for metrics in [tuple(names)] + [(m,) for m in names]:
        got = rates._sweep_values(block, snr, metrics)
        assert got.shape == (len(metrics), snr.size, cfg.trials)
        for row, name in zip(got, metrics):
            assert row.tobytes() == expected[name].tobytes(), name


@pytest.mark.parametrize("metric", ["cdd", "cap"])
def test_sweep_values_memory_stays_near_result_size(metric):
    # The (S, B) result itself is 82 MB; besides it the engine may hold one
    # (S, B) array per metric and buffers the size of one grid point.  A
    # whole-grid (S, B, T, L) broadcast needs 4 result sizes for cdd and 2
    # for cap here, per temporary.
    cfg = SystemConfig(users=2, n_tx=2, n_rx=2, snr=1.0, trials=512, seed=22)
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
