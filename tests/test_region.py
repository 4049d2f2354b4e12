"""Two-user rate-region tests (pentagon constraints and corner points)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cddmac import region
from cddmac.channel import SystemConfig, sample_channel_block
from cddmac.linalg import dft_matrix
from cddmac.rates import REGION_METRICS, monte_carlo_sweep
from cddmac.region import (REGION_ROWS, RegionEstimate, pareto_segment,
                           region_capacity, region_cdd)

SNR = 100.0  # linear, 20 dB


def make_cfg(trials=4000, n_tx=2, n_rx=2, seed=17):
    return SystemConfig(users=2, n_tx=n_tx, n_rx=n_rx, trials=trials,
                        seed=seed)


def test_rejects_other_user_counts():
    bad = SystemConfig(users=3, n_tx=2, n_rx=2, trials=10, seed=0)
    with pytest.raises(ValueError):
        region_capacity(bad, SNR)
    with pytest.raises(ValueError):
        region_cdd(bad, SNR)


def test_rejects_single_trial():
    bad = SystemConfig(users=2, n_tx=2, n_rx=2, trials=1, seed=0)
    with pytest.raises(ValueError):
        region_capacity(bad, SNR)


def test_zero_snr_degenerate_region():
    cfg = make_cfg(trials=100)
    for estimate in (region_capacity(cfg, 0.0), region_cdd(cfg, 0.0)):
        assert estimate.i1 == estimate.i2 == estimate.i_sum == 0.0
        assert estimate.corner_a == (0.0, 0.0)
        assert estimate.corner_b == (0.0, 0.0)


@pytest.mark.parametrize("build", [region_capacity, region_cdd])
def test_user_symmetry(build):
    estimate = build(make_cfg(trials=6000), SNR)
    combined = 3 * (estimate.i1_stderr + estimate.i2_stderr)
    assert abs(estimate.i1 - estimate.i2) < combined


@pytest.mark.parametrize("build", [region_capacity, region_cdd])
def test_corner_geometry(build):
    r = build(make_cfg(), SNR)
    assert r.corner_a[0] == pytest.approx(r.i1, abs=1e-12)
    assert r.corner_a[1] == pytest.approx(r.i_sum - r.i1, abs=1e-12)
    assert r.corner_b[0] == pytest.approx(r.i_sum - r.i2, abs=1e-12)
    assert r.corner_b[1] == pytest.approx(r.i2, abs=1e-12)
    assert 0.0 <= r.i_sum <= r.i1 + r.i2
    for coord in (*r.corner_a, *r.corner_b):
        assert coord >= 0.0
    for err in (*r.corner_a_stderr, *r.corner_b_stderr,
                r.i1_stderr, r.i2_stderr, r.i_sum_stderr):
        assert err > 0.0


def test_capacity_sum_matches_sweep_estimate():
    cfg = make_cfg(trials=5000)
    r = region_capacity(cfg, SNR)
    (mean,), (err,) = monte_carlo_sweep(cfg, SNR, metrics=("cap",))["cap"]
    # same seed, same trials, same reduction order
    assert r.i_sum == pytest.approx(mean, abs=1e-9)
    assert abs(r.i_sum - mean) < 3 * (r.i_sum_stderr + err)


@pytest.mark.parametrize("snr", [0.0, 1.0, SNR])
def test_region_fields_are_the_sweep_series(snr):
    # every field of both regions is, bit for bit, its REGION_ROWS series
    # of one sweep over all region metrics at the one grid point
    cfg = make_cfg(trials=5000)
    got = monte_carlo_sweep(cfg, [snr], REGION_METRICS)
    for scheme, build in (("cap", region_capacity), ("cdd", region_cdd)):
        r = build(cfg, snr)
        row = {label: got[f"{scheme}_{part}"] for label, part in REGION_ROWS}
        fields = {
            "i1": (r.i1, r.i1_stderr), "i2": (r.i2, r.i2_stderr),
            "isum": (r.i_sum, r.i_sum_stderr),
            "corner_a_r1": (r.corner_a[0], r.corner_a_stderr[0]),
            "corner_a_r2": (r.corner_a[1], r.corner_a_stderr[1]),
            "corner_b_r1": (r.corner_b[0], r.corner_b_stderr[0]),
            "corner_b_r2": (r.corner_b[1], r.corner_b_stderr[1])}
        assert fields.keys() == row.keys()
        for label, field in fields.items():
            assert np.array(field).tobytes() \
                == np.array([a[0] for a in row[label]]).tobytes()
        assert r.trials == cfg.trials


def test_cdd_region_inside_capacity_region_in_sum():
    cfg = make_cfg(trials=6000)
    cap = region_capacity(cfg, SNR)
    cdd = region_cdd(cfg, SNR)
    assert cdd.i_sum <= cap.i_sum + 3 * (cdd.i_sum_stderr + cap.i_sum_stderr)


def test_n_tx_one_schemes_coincide():
    cfg = make_cfg(n_tx=1, trials=2000)
    cap = region_capacity(cfg, SNR)
    cdd = region_cdd(cfg, SNR)
    assert cdd.i1 == pytest.approx(cap.i1, abs=1e-10)
    assert cdd.i2 == pytest.approx(cap.i2, abs=1e-10)
    assert cdd.i_sum == pytest.approx(cap.i_sum, abs=1e-10)


def test_region_grows_with_snr():
    low = region_capacity(make_cfg(), 1.0)
    high = region_capacity(make_cfg(), 100.0)
    assert high.i1 > low.i1
    assert high.i2 > low.i2
    assert high.i_sum > low.i_sum
    low_cdd = region_cdd(make_cfg(), 1.0)
    high_cdd = region_cdd(make_cfg(), 100.0)
    assert high_cdd.i_sum > low_cdd.i_sum


def test_workers_bit_identical():
    cfg = make_cfg(trials=5000)
    assert region_capacity(cfg, SNR) == region_capacity(cfg, SNR, workers=3)
    assert region_cdd(cfg, SNR) == region_cdd(cfg, SNR, workers=3)


def test_single_user_cdd_bins_equidistributed():
    # the single-user CDD rate uses DFT bin 0; any other bin must have the
    # same distribution (checked on means, not assumed)
    cfg = make_cfg(trials=8000)
    block = sample_channel_block(cfg, 0, cfg.trials)
    bins = (block @ dft_matrix(cfg.n_tx)).transpose(0, 3, 2, 1)  # B,T,nR,K
    per_bin = np.log2(1.0 + 10.0
                      * (np.abs(bins[:, :, :, 0]) ** 2).sum(axis=-1))
    means = per_bin.mean(axis=0)
    spread = np.ptp(means)
    scale = per_bin.std(axis=0).max() / np.sqrt(cfg.trials)
    assert spread < 6 * scale


# --- pareto_segment -----------------------------------------------------


def test_pareto_two_samples_are_corners():
    r = region_capacity(make_cfg(trials=500), SNR)
    points = pareto_segment(r, 2)
    assert len(points) == 2
    assert points[0] == pytest.approx(r.corner_a, abs=1e-12)
    assert points[1] == pytest.approx(r.corner_b, abs=1e-12)


def test_pareto_points_sit_on_sum_face():
    r = region_cdd(make_cfg(trials=500), SNR)
    for r1, r2 in pareto_segment(r, 9):
        assert r1 + r2 == pytest.approx(r.i_sum, abs=1e-12)


def test_pareto_midpoint():
    r = region_capacity(make_cfg(trials=500), SNR)
    points = pareto_segment(r, 3)
    mid = ((r.corner_a[0] + r.corner_b[0]) / 2,
           (r.corner_a[1] + r.corner_b[1]) / 2)
    assert points[1] == pytest.approx(mid, abs=1e-12)


def test_pareto_rejects_single_sample():
    r = region_capacity(make_cfg(trials=500), SNR)
    with pytest.raises(ValueError):
        pareto_segment(r, 1)


def test_region_estimate_is_frozen():
    r = region_capacity(make_cfg(trials=500), SNR)
    assert isinstance(r, RegionEstimate)
    with pytest.raises(AttributeError):
        r.i1 = 0.0


def test_import_loads_no_process_pool_machinery():
    # nothing in the package starts a process, so a fresh import pays for no
    # multiprocessing; the name bench/layers.py subclasses still resolves
    script = (
        "import sys\n"
        "import cddmac\n"
        "unwanted = {'multiprocessing', 'concurrent.futures.process'}\n"
        "assert not unwanted & set(sys.modules), unwanted & set(sys.modules)\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "assert cddmac.region.ProcessPoolExecutor is ProcessPoolExecutor\n")
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert not hasattr(region, "no_such_name")
