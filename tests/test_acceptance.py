"""End-to-end acceptance suite.

One test per release criterion, each printing a single pass/fail line; the
full-scale Monte-Carlo settings make this file the slow part of the suite
(a few minutes on one core).  Every tolerance is stated inline.  Criteria
1-4 and 8 share their property kernels with ``cddmac --verify`` (cli.py),
which runs them at reduced scale.  Every criterion has a negative control
at the end of the file.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import exp1

from cddmac import channel, cli, linalg, rates, region
from cddmac.bounds import (cap_lower_bound, gap_high_snr, rc_lower_bound,
                           rc_upper_bound)
from cddmac.channel import (SystemConfig, sample_channel_block,
                            shuffle_permutation)
from cddmac.cli import (_digamma_error, _dual_path_residuals, _psi_residual,
                        _sandwich_excess)
from cddmac.rates import _sweep, _usable_cpus, monte_carlo_sweep
from cddmac.region import region_capacity, region_cdd
from test_cli import (_euler_gamma_mistyped, _psi_residual_rising,
                      _reversed_permutation, _upper_bound_lowered)

# Bin-grouping permutation, n_tx=4 / n_rx=2: row 4i+t has its one in
# column 2t+i.
EXPECTED_PERMUTATION_4_2 = np.zeros((8, 8))
for _i in range(2):
    for _t in range(4):
        EXPECTED_PERMUTATION_4_2[_i * 4 + _t, _t * 2 + _i] = 1.0


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_dual_path_equivalence():
    rng = np.random.default_rng(101)
    count = 0
    worst = 0.0
    for users in range(1, 5):
        for n_tx in range(1, 5):
            for n_rx in range(1, 5):
                cfg = SystemConfig(users=users, n_tx=n_tx, n_rx=n_rx,
                                   trials=16, seed=101)
                # one SNR per realization, each raised as a Python float
                snr = np.array([10 ** u for u in
                                rng.uniform(-1, 3, cfg.trials).tolist()])
                delta, _ = _dual_path_residuals(
                    sample_channel_block(cfg, 0, cfg.trials), snr,
                    shuffle_permutation(n_tx, n_rx))
                worst = max(worst, float(delta.max()))
                count += delta.size
    report(1, worst < 1e-9,
           f"|direct - reduced| max {worst:.2e} over {count} realizations "
           f"spanning (users, n_tx, n_rx) in {{1..4}}^3 (tol 1e-9)")


def test_criterion_02_bin_grouping_permutation():
    perm = shuffle_permutation(4, 2)
    exact = np.array_equal(perm, EXPECTED_PERMUTATION_4_2)
    cfg = SystemConfig(users=2, n_tx=4, n_rx=2, trials=100, seed=202)
    block = sample_channel_block(cfg, 0, cfg.trials)
    worst = float(_dual_path_residuals(block, 1.0, perm)[1].max())
    report(2, exact and worst < 1e-9,
           f"8x8 matrix {'exact' if exact else 'WRONG'}; conjugation "
           f"identity max residual {worst:.2e} over 100 channels (tol 1e-9)")


def test_criterion_03_digamma_identity():
    counts = (1, 2, 4, 6)
    errs = dict(zip(counts, _digamma_error(counts, 250000, 303)))
    report(3, max(errs.values()) < 0.01,
           "E[ln lambda] vs harmonic(K-1)-gamma over 1e6 samples: "
           + ", ".join(f"K={k}: {err:.4f}" for k, err in errs.items())
           + " (tol 0.01)")


# criterion 4's estimates by (configs, grid, the package code the draw runs)
_SANDWICH_DRAWS = {}


def _sandwich_estimates_once(cfgs, grid):
    """The Monte-Carlo cdd and cap of the bound-sandwich kernel
    (_sandwich_excess), drawn once per session, so that criterion 4 and
    its negative control, which lowers a bound, compare one draw.  The key
    holds the identity of every name in the modules the draw runs, so a
    test that patches any of them draws anew."""
    code = tuple(id(value) for module in (channel, cli, linalg, rates)
                 for value in vars(module).values())
    key = (tuple(cfgs), grid.tobytes(), code)
    if key not in _SANDWICH_DRAWS:
        _SANDWICH_DRAWS[key] = _sweep(cfgs, grid, ("cdd", "cap"),
                                      _usable_cpus())
    return _SANDWICH_DRAWS[key]


def test_criterion_04_bound_sandwich():
    grid = np.array([0.1, 1.0, 10.0, 100.0, 1000.0])
    cfgs = [SystemConfig(users=users, n_tx=n_tx, n_rx=n_rx,
                         trials=100000, seed=404)
            for users in range(1, 5)
            for n_tx in range(1, 5)
            for n_rx in range(1, 5)]
    configs = len(cfgs)
    estimates = _sandwich_estimates_once(cfgs, grid)
    worst_low, worst_high, worst_cap = np.max(
        _sandwich_excess(cfgs, grid, estimates), axis=0)
    ok = worst_low <= 0 and worst_high <= 0 and worst_cap <= 0
    report(4, ok,
           f"{configs} configs x 5 SNRs x 1e5 trials: worst "
           f"(rc_lb-3s)-cdd {worst_low:.2e}, cdd-(rc_ub+3s) "
           f"{worst_high:.2e}, (cap_lb-3s)-cap {worst_cap:.2e} (all <= 0)")


def test_criterion_05_figure2_gap_and_slopes():
    grid_db = np.array([30.0, 35.0, 40.0])
    grid = 10 ** (grid_db / 10)
    one_rx = SystemConfig(users=1, n_tx=4, n_rx=1, trials=100000, seed=505)
    diff_mean, diff_err = monte_carlo_sweep(one_rx, snr=grid,
                                            metrics=("diff",))["diff"]
    gap30 = float(diff_mean[0])
    gap_ok = abs(gap30 - 0.645) <= 0.1

    two_rx = SystemConfig(users=1, n_tx=4, n_rx=2, trials=100000, seed=505)
    got = monte_carlo_sweep(two_rx, snr=grid, metrics=("cdd", "cap"))
    cap_slope = float(got["cap"][0][2] - got["cap"][0][0]) * 3.0 / 10.0
    cdd_slope = float(got["cdd"][0][2] - got["cdd"][0][0]) * 3.0 / 10.0
    slope_ok = abs(cap_slope - 2.0) <= 0.1 and abs(cdd_slope - 1.0) <= 0.1
    report(5, gap_ok and slope_ok,
           f"n_rx=1 gap at 30 dB {gap30:.4f} bits (0.645 +/- 0.1); n_rx=2 "
           f"slopes per 3 dB over 30->40: capacity {cap_slope:.3f} "
           f"(2.0 +/- 0.1), cdd {cdd_slope:.3f} (1.0 +/- 0.1)")


def test_criterion_06_figure3_corner_placement():
    cfg = SystemConfig(users=2, n_tx=2, n_rx=2, trials=100000, seed=606)
    cap = region_capacity(cfg, 100.0)
    cdd = region_cdd(cfg, 100.0)

    def left_or_below(cap_pt, cap_err, cdd_pt, cdd_err):
        left = cap_pt[0] <= cdd_pt[0] + 3 * (cap_err[0] + cdd_err[0])
        below = cap_pt[1] <= cdd_pt[1] + 3 * (cap_err[1] + cdd_err[1])
        return left or below

    a_ok = left_or_below(cap.corner_a, cap.corner_a_stderr,
                         cdd.corner_a, cdd.corner_a_stderr)
    b_ok = left_or_below(cap.corner_b, cap.corner_b_stderr,
                         cdd.corner_b, cdd.corner_b_stderr)
    single_gap = cap.i1 - cdd.i1
    gap_ok = single_gap > 1.0
    report(6, a_ok and b_ok and gap_ok,
           f"20 dB corners: capacity A ({cap.corner_a[0]:.2f},"
           f"{cap.corner_a[1]:.2f}) vs cdd A ({cdd.corner_a[0]:.2f},"
           f"{cdd.corner_a[1]:.2f}) left-or-below={a_ok}; B left-or-below="
           f"{b_ok}; single-user gap {single_gap:.2f} bits (> 1)")


def test_criterion_07_figure4_gap_bound_and_ordering():
    grid_db = np.arange(0.0, 41.0, 5.0)
    grid = 10 ** (grid_db / 10)
    cfg = SystemConfig(users=6, n_tx=3, n_rx=3, trials=100000, seed=707)
    got = monte_carlo_sweep(cfg, snr=grid, metrics=("cdd", "cap", "diff"))
    cdd_mean, cdd_err = got["cdd"]
    cap_mean, cap_err = got["cap"]
    diff_mean, diff_err = got["diff"]
    _, gap_upper = gap_high_snr(6, 3, 3)
    gap40 = float(diff_mean[-1])
    gap_ok = gap40 <= gap_upper + 3 * float(diff_err[-1])

    low = rc_lower_bound(6, 3, 3, grid)
    high = rc_upper_bound(6, 3, grid)
    cap_low = cap_lower_bound(6, 3, 3, grid)
    ordering = (np.all(cap_mean + 3 * cap_err >= cap_low)
                and np.all(cap_mean >= cdd_mean)
                and np.all(high + 3 * cdd_err >= cdd_mean)
                and np.all(cdd_mean + 3 * cdd_err >= low))
    report(7, gap_ok and bool(ordering),
           f"40 dB capacity-cdd gap {gap40:.3f} <= {gap_upper:.3f} "
           f"(+3 stderr); curve ordering cap>=cap_lb, cap>=cdd, "
           f"rc_ub>=cdd>=rc_lb at all {len(grid)} points: {bool(ordering)}")


def test_criterion_08_psi_limit_residuals():
    worst, rise = _psi_residual((2, 3, 4), 10000)
    monotone = rise <= 1e-15
    report(8, worst < 1e-4 and monotone,
           f"residual |H_(nT*K-1) - H_K - ln nT| at K=1e4: worst "
           f"{worst:.2e} (< 1e-4), monotone in K: {monotone}")


def test_criterion_09_cli_determinism_across_workers(tmp_path):
    outs = []
    for name, workers in (("w1.csv", "1"), ("w8.csv", "8")):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "cddmac", "--scenario", "figure2",
             "--workers", workers, "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    same = outs[0] == outs[1]
    report(9, same,
           f"figure2 recipe, workers 1 vs 8: byte-identical CSVs "
           f"({len(outs[0])} bytes) = {same}")


def test_criterion_10_siso_quadrature_oracle():
    oracle = float(np.log2(np.e) * np.exp(0.1) * exp1(0.1))
    cfg = SystemConfig(users=1, n_tx=1, n_rx=1, trials=1000000, seed=1010)
    (mean,), (err,) = monte_carlo_sweep(cfg, 10.0, metrics=("cap",))["cap"]
    delta = abs(mean - oracle)
    ok = delta < 3 * err
    report(10, ok,
           f"SISO 10 dB over 1e6 trials: {mean:.6f} vs exponential-"
           f"integral oracle {oracle:.6f}, |delta| {delta:.2e} < 3 stderr "
           f"{3 * err:.2e}")


def _bins_unnormalized(monkeypatch):
    # the reduced path's bins from an unnormalized DFT: n_tx times the gain.
    # The sweep's CDD rates, and its capacities read off the bins' Grams
    # (n_rx <= users), gain about log2(n_tx) bits per stream at high SNR:
    # the direct rate no longer matches, and figure 4's curves leave their
    # bounds
    true_dft = channel.dft_matrix
    monkeypatch.setattr(channel, "dft_matrix",
                        lambda n: true_dft(n) * np.sqrt(n))


def _capacity_gram_mean(monkeypatch):
    # the capacity's tridiagonal, the summed column, read off the mean of
    # the DFT bins' Grams, not their sum (d / T, e2 / T^2): n_tx times too
    # small, so figure 2's one-antenna capacity loses
    # log2(n_tx) = 2 bits at high SNR and its 30 dB gap goes below zero
    true_tridiagonal = rates._tridiagonal

    def mean(x, total=False):
        d, e2 = true_tridiagonal(x, total)
        if total:
            per = d.shape[1] - 1
            d[:, -1] /= per
            e2[:, -1] /= per * per
        return d, e2

    monkeypatch.setattr(rates, "_tridiagonal", mean)


def _bin_grouping_reversed(monkeypatch):
    monkeypatch.setitem(globals(), "shuffle_permutation",
                        _reversed_permutation)


def _row_power_high(monkeypatch):
    # the sweep's row powers 1 % high: about 0.013 bits on the SISO rate,
    # against 3 stderr of about 0.004 bits
    true_tridiagonal = rates._tridiagonal

    def scaled(x, total=False):
        d, e2 = true_tridiagonal(x, total)
        return d * 1.01, e2

    monkeypatch.setattr(rates, "_tridiagonal", scaled)


def _corner_off_the_sum_face(monkeypatch):
    # corner A's second coordinate read from the sum rate, not from the sum
    # minus user 1's rate: both corners leave the face r1 + r2 = i_sum, and
    # the capacity's is no longer left of or below the CDD's
    rows = tuple((label, "isum" if part == "isum-i1" else part)
                 for label, part in region.REGION_ROWS)
    monkeypatch.setattr(region, "REGION_ROWS", rows)


# criterion -> (a patch that breaks the code the criterion calls, never the
# criterion itself; the criterion), with the run time of the controls for
# 4-7 on a 2-vCPU machine.  Criterion 9's control follows the table: its
# CLI subprocesses load their patch from a directory of the test's own.
NEGATIVE_CONTROLS = {
    1: (_bins_unnormalized, test_criterion_01_dual_path_equivalence),
    2: (_bin_grouping_reversed, test_criterion_02_bin_grouping_permutation),
    3: (_euler_gamma_mistyped, test_criterion_03_digamma_identity),
    4: (_upper_bound_lowered,                   # reuses criterion 4's draw
        test_criterion_04_bound_sandwich),
    5: (_capacity_gram_mean,                                    # 0.2 s
        test_criterion_05_figure2_gap_and_slopes),
    6: (_corner_off_the_sum_face,                               # 0.2 s
        test_criterion_06_figure3_corner_placement),
    7: (_bins_unnormalized,                                     # 1.2 s
        test_criterion_07_figure4_gap_bound_and_ordering),
    8: (_psi_residual_rising, test_criterion_08_psi_limit_residuals),
    10: (_row_power_high, test_criterion_10_siso_quadrature_oracle),
}


@pytest.mark.parametrize("num", NEGATIVE_CONTROLS)
def test_criterion_negative_control(monkeypatch, capsys, num):
    patch, criterion = NEGATIVE_CONTROLS[num]
    patch(monkeypatch)
    with pytest.raises(AssertionError):
        criterion()
    assert capsys.readouterr().out.startswith(f"criterion {num:2d}: FAIL - ")


def test_criterion_04_draw_is_not_reused_under_a_patch(monkeypatch):
    # the draw is reused for the same code only: a patch on a name the draw
    # runs draws anew, so no control of that code sees cached estimates
    grid = np.array([10.0])
    cfgs = [SystemConfig(users=1, n_tx=2, n_rx=1, trials=100, seed=404)]
    first = _sandwich_estimates_once(cfgs, grid)
    assert _sandwich_estimates_once(cfgs, grid) is first
    _row_power_high(monkeypatch)
    patched = _sandwich_estimates_once(cfgs, grid)
    assert patched is not first
    for metric in ("cdd", "cap"):                       # both means higher
        assert np.all(patched[0][metric][0] > first[0][metric][0])


# Loaded at start-up by a Python that finds it first on its path: scales
# every Monte-Carlo mean by 1 + 1e-9 when a run is given more than one
# worker, which moves the CSV's 10th significant digit
_THREADED_MEANS_HIGH = """\
from cddmac import rates

_run_chunks = rates.run_chunks


def run_chunks(values, cfgs, workers=1):
    got = _run_chunks(values, cfgs, workers)
    if workers > 1:
        got = [(means * (1 + 1e-9), errs) for means, errs in got]
    return got


rates.run_chunks = run_chunks
"""


def test_criterion_09_negative_control(monkeypatch, capsys, tmp_path):
    # about 1 s on a 2-vCPU machine
    site = tmp_path / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text(_THREADED_MEANS_HIGH)
    path = os.environ.get("PYTHONPATH")
    monkeypatch.setenv("PYTHONPATH",
                       os.pathsep.join([str(site)] + ([path] if path else [])))
    with pytest.raises(AssertionError):
        test_criterion_09_cli_determinism_across_workers(tmp_path)
    assert capsys.readouterr().out.startswith("criterion  9: FAIL - ")
