"""Experiment runner: SNR sweeps, rate-region tables, and a self-check mode.

Scenarios (``--scenario``) are canned recipes; everything they set can be
overridden by a key=value config file (``--config``) and then by command-line
flags.  Results go to a CSV with columns

    snr_db, metric, value_bits, stderr_bits, trials, seed

one row per (snr_db, metric).  For each receive-antenna count, Monte-Carlo
rows come first (always ``cdd_mc`` before ``cap_mc``), then closed-form rows
in the order ``metrics`` lists them, then region rows.  Units are always dB
and bits per channel use; linear SNR never appears in output.  With the
same spec and seed the CSV is byte-identical for any ``--workers`` value:
the channel streams are keyed by (seed, chunk) and reduced in fixed chunk
order.

Exit codes: 0 ok, 1 runtime/property failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import bounds as bnd
from .channel import (CHUNK, SystemConfig, effective_channel,
                      reduce_to_parallel, sample_channel_block,
                      sample_channels, shuffle_permutation)
from .linalg import _SNR_MAX, _index, _seed, dft_matrix
from .rates import (REGION_METRICS, _sweep_values, _tridiagonal,
                    _usable_cpus, monte_carlo_sweep, rate_cdd,
                    rate_cdd_reduced, run_chunks, sum_capacity)
from .region import REGION_ROWS
# bound only for bench/layers.py, which wraps them by name
from .region import region_capacity, region_cdd

SCENARIOS = {
    # single-user CDD vs capacity, 1 and 2 receive antennas
    "figure2": dict(users="1", n_tx="4", n_rx="1,2", snr_db="0:40:5",
                    metrics="cap_mc,cdd_mc,rc_lb", trials="100000"),
    # two-user rate regions at three SNR points
    "figure3": dict(users="2", n_tx="2", n_rx="2", snr_db="0,20,40",
                    metrics="region", trials="100000"),
    # six-user sum rates with all bounds
    "figure4": dict(users="6", n_tx="3", n_rx="3", snr_db="0:40:5",
                    metrics="cap_mc,cap_lb,rc_ub,cdd_mc,rc_lb",
                    trials="100000"),
}

# Highest accepted grid point, the rates' and bounds' snr ceiling in dB.
_SNR_DB_MAX = 10.0 * np.log10(_SNR_MAX)
# Most grid points accepted, counted before a start:stop:step grid is built.
_GRID_POINTS_MAX = 100_000

DEFAULTS = dict(users="1", n_tx="1", n_rx="1", snr_db="0:40:5",
                metrics="cap_mc,cdd_mc", trials="10000", seed="0",
                workers="1", out="")


class UsageError(Exception):
    """Bad configuration; message names the offending field."""


@dataclass(frozen=True)
class ExperimentSpec:
    scenario: str
    cfgs: tuple                     # one SystemConfig per n_rx, in order
    snr_db: tuple
    metrics: tuple
    out: str
    workers: int


def parse_config_file(path: str) -> dict:
    """Flat key=value lines; '#' starts a comment; blank lines ignored."""
    found = {}
    first_line = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"config: cannot read {path}: {exc}") from exc
    for num, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config: {path}:{num}: expected key=value")
        key, val = line.split("=", 1)
        key = key.strip()
        if key not in DEFAULTS and key != "scenario":
            raise UsageError(f"config: unknown key {key!r} at {path}:{num}")
        if key in found:  # the last value would win silently
            raise UsageError(f"config: key {key!r} is given twice, at "
                             f"{path}:{first_line[key]} and {path}:{num}")
        found[key] = val.strip()
        first_line[key] = num
    return found


def _parse_int(field: str, text: str, rule, *args) -> int:
    """text as an int, checked by rule (linalg's _index or _seed)."""
    try:
        val = int(text)
    except ValueError:
        raise UsageError(f"{field}: expected an integer, got {text!r}")
    try:
        return rule(field, val, *args)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _parse_grid(text: str) -> tuple:
    """SNR grid in dB: either 'start:stop:step' (inclusive) or 'a,b,c'."""
    try:
        if ":" in text:
            start, stop, step = (float(p) for p in text.split(":"))
            if step <= 0:
                raise UsageError("snr_db: step must be > 0")
            if stop < start:
                raise UsageError("snr_db: stop must be >= start")
            # np.arange would make ceil(count) points: count before it runs
            count = (stop + step / 2 - start) / step
        else:
            listed = [float(p) for p in text.split(",") if p.strip()]
            count = len(listed)
        if not count <= _GRID_POINTS_MAX:  # also true for a nan or inf count
            raise UsageError(f"snr_db: grid must be finite with at most "
                             f"{_GRID_POINTS_MAX} points, got "
                             f"{np.ceil(count):.6g}")
        grid = (np.arange(start, stop + step / 2, step) if ":" in text
                else np.array(listed))
    except ValueError:
        raise UsageError(f"snr_db: cannot parse grid {text!r}")
    if grid.size == 0:
        raise UsageError("snr_db: grid is empty")
    if not np.all(np.isfinite(grid)) or np.max(grid) > _SNR_DB_MAX:
        raise UsageError(f"snr_db: points must be finite and at most "
                         f"{_SNR_DB_MAX:g} dB, got {text!r}")
    return tuple(float(g) for g in grid)


def _refuse_repeats(field: str, labels) -> None:
    """A key given twice would write its rows twice under one label."""
    seen = set()
    for label in labels:
        if label in seen:
            raise UsageError(f"{field}: {label} is given twice")
        seen.add(label)


def build_spec(settings: dict) -> ExperimentSpec:
    """Validate merged settings (all strings) into an ExperimentSpec."""
    metrics = tuple(m for m in settings["metrics"].split(",") if m)
    if not metrics:
        raise UsageError("metrics: at least one metric is required")
    for m in metrics:
        if m not in METRICS:
            raise UsageError(f"metrics: unknown metric {m!r} "
                             f"(choose from {', '.join(METRICS)})")
    _refuse_repeats("metrics", metrics)
    users = _parse_int("users", settings["users"], _index, 1)
    n_rx = tuple(_parse_int("n_rx", p, _index, 1)
                 for p in settings["n_rx"].split(",") if p)
    if not n_rx:
        raise UsageError("n_rx: at least one receive-antenna count required")
    _refuse_repeats("n_rx", n_rx)
    snr_db = _parse_grid(settings["snr_db"])
    _refuse_repeats("snr_db", map(_fmt, snr_db))  # as the CSV labels them
    if "region" in metrics and users != 2:
        raise UsageError(f"users: region metric needs users=2, got {users}")
    scenario = settings.get("scenario", "")
    out = settings["out"] or (f"{scenario or 'results'}.csv")
    if "\0" in out:  # only a config value can carry one; os.path raises
        raise UsageError("out: path contains a NUL byte")
    trials = _parse_int("trials", settings["trials"], _index, 2)
    seed = _parse_int("seed", settings["seed"], _seed)
    n_tx = _parse_int("n_tx", settings["n_tx"], _index, 1)
    workers = _parse_int("workers", settings["workers"], _index, 1)
    try:
        cfgs = tuple(SystemConfig(users=users, n_tx=n_tx, n_rx=r,
                                  trials=trials, seed=seed) for r in n_rx)
    except ValueError as exc:  # a chunk of channels numpy cannot index
        raise UsageError(str(exc)) from None
    return ExperimentSpec(scenario=scenario, cfgs=cfgs, snr_db=snr_db,
                          metrics=metrics, out=out, workers=workers)


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


_MC_SERIES = {"cdd_mc": "cdd", "cap_mc": "cap"}


def _sweep_rows(spec, cfg, tag, linear):
    """Monte-Carlo rows and region rows for one receive-antenna count: one
    pass over the trials serves every SNR point and every requested metric."""
    wanted = [m for m in _MC_SERIES if m in spec.metrics]
    series = [_MC_SERIES[m] for m in wanted]
    if "region" in spec.metrics:
        series += REGION_METRICS
    if not series:
        return [], []
    got = monte_carlo_sweep(cfg, snr=linear, metrics=tuple(series),
                            workers=spec.workers)
    mc = [(point, metric + tag, mean, err, cfg.trials, cfg.seed)
          for metric in wanted
          for point, mean, err in zip(spec.snr_db, *got[_MC_SERIES[metric]])]
    region = []
    if "region" in spec.metrics:
        for i, point in enumerate(spec.snr_db):
            for scheme in ("cap", "cdd"):
                for label, part in REGION_ROWS:
                    means, errs = got[f"{scheme}_{part}"]
                    region.append((point, f"region_{scheme}_{label}{tag}",
                                   means[i], errs[i], cfg.trials, cfg.seed))
    return mc, region


# (cfg, snr) -> one value per snr point; bnd.<name> is read per call, so a
# wrapper set on it after import is used
_BOUNDS = {
    "rc_lb": lambda c, x: bnd.rc_lower_bound(c.users, c.n_tx, c.n_rx, x),
    "rc_lb_jensen": lambda c, x: bnd.jensen_collapsed_bounds(
        c.users, c.n_tx, c.n_rx, x)[0],
    "rc_ub": lambda c, x: bnd.rc_upper_bound(c.users, c.n_rx, x),
    "cap_lb": lambda c, x: bnd.cap_lower_bound(c.users, c.n_tx, c.n_rx, x),
    "cap_lb_jensen": lambda c, x: bnd.jensen_collapsed_bounds(
        c.users, c.n_tx, c.n_rx, x)[1],
}

METRICS = (*_MC_SERIES, *_BOUNDS, "gap", "region")


def _bound_rows(spec, cfg, tag, linear):
    table = {m: _BOUNDS[m](cfg, linear) for m in spec.metrics if m in _BOUNDS}
    if "gap" in spec.metrics:
        try:
            gap, _ = bnd.gap_high_snr(cfg.users, cfg.n_tx, cfg.n_rx)
            table["gap"] = np.full(len(linear), gap)
        except ValueError as exc:
            print(f"note: gap skipped for n_rx={cfg.n_rx}: {exc}",
                  file=sys.stderr)
    return [(point, metric + tag, val, 0.0, 0, cfg.seed)
            for metric in spec.metrics if metric in table  # user's order
            for point, val in zip(spec.snr_db, table[metric])]


def run(spec: ExperimentSpec, plot_script: str = "") -> int:
    """Execute the experiment and write the CSV; returns a process exit code."""
    rows = []
    linear = 10.0 ** (np.asarray(spec.snr_db) / 10.0)
    for cfg in spec.cfgs:
        tag = f"_nrx{cfg.n_rx}" if len(spec.cfgs) > 1 else ""
        mc, region = _sweep_rows(spec, cfg, tag, linear)
        rows += mc + _bound_rows(spec, cfg, tag, linear) + region

    lines = ["snr_db,metric,value_bits,stderr_bits,trials,seed"]
    for snr_db, metric, value, stderr, trials, seed in rows:
        lines.append(f"{_fmt(snr_db)},{metric},{_fmt(value)},{_fmt(stderr)},"
                     f"{trials},{seed}")
    text = "\n".join(lines) + "\n"
    try:
        with open(spec.out, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"I/O error: cannot write {spec.out}: {exc}", file=sys.stderr)
        return 1

    print(f"wrote {len(rows)} rows to {spec.out}")
    top = max(spec.snr_db)
    for snr_db, metric, value, stderr, *_ in rows:
        if snr_db == top:
            print(f"  {metric} @ {_fmt(top)} dB: {_fmt(round(value, 4))}"
                  + (f" +/- {_fmt(round(stderr, 4))}" if stderr else "")
                  + " bits")
    if plot_script:
        try:
            _write_plot_script(plot_script, spec)
        except OSError as exc:
            print(f"I/O error: cannot write {plot_script}: {exc}",
                  file=sys.stderr)
            return 1
        print(f"wrote plot script to {plot_script}")
    return 0


def _write_plot_script(path: str, spec: ExperimentSpec) -> None:
    body = f"""#!/usr/bin/env python3
# Companion plot for {spec.out} (scenario {spec.scenario or 'custom'!r}).
# CSV columns: snr_db (x-axis), metric (one curve per distinct value),
#              value_bits (y-axis), stderr_bits, trials, seed.
# Only the standard library is needed to parse; plotting uses matplotlib.
import csv
from collections import defaultdict

import matplotlib.pyplot as plt

curves = defaultdict(list)
with open({spec.out!r}) as fh:
    for row in csv.DictReader(fh):
        curves[row["metric"]].append((float(row["snr_db"]),
                                      float(row["value_bits"])))
for name in sorted(curves):
    pts = sorted(curves[name])
    plt.plot([p[0] for p in pts], [p[1] for p in pts], marker="o", label=name)
plt.xlabel("SNR (dB)")
plt.ylabel("rate (bits per channel use)")
plt.legend()
plt.grid(True)
plt.show()
"""
    with open(path, "w") as fh:
        fh.write(body)


# ---------------------------------------------------------------------------
# verify: reduced-scale invariant suite.  The property kernels below are
# shared with the full-scale acceptance tests; each caller picks its own
# configurations, seeds, trial counts and tolerances.  The Monte-Carlo
# kernels run their chunks on one thread per usable CPU (rates.run_chunks
# caps that at the chunk count); the reduction is in chunk order, so every
# result, and every line verify prints, is the same for any CPU count.


def _dual_path_residuals(block, snr, perm):
    """Per trial of a (trials, users, n_rx, n_tx) channel block, the
    |direct - reduced| rate and the block-diagonalization leak, as two
    (trials,) arrays; snr is a scalar or one value per trial.  The leak is
    the largest entry of perm^T R Heff Heff^H R^H perm (R is I (x) D) minus
    the blocks n_tx * Hp_t Hp_t^H; a wrong perm shows there."""
    n_rx, n_tx = block.shape[-2:]
    par = reduce_to_parallel(block)                   # (B, T, n_rx, K)
    rate = np.abs(rate_cdd(block, snr) - rate_cdd_reduced(par, snr))
    rot = np.kron(np.eye(n_rx), dft_matrix(n_tx))
    eff = effective_channel(block)
    eff_h = np.conj(np.swapaxes(eff, -1, -2))
    lhs = perm.T @ (rot @ eff @ eff_h @ rot.conj().T) @ perm
    rhs = np.zeros_like(lhs)
    for t in range(n_tx):
        rows = slice(t * n_rx, (t + 1) * n_rx)
        bins = par[..., t, :, :]
        rhs[..., rows, rows] = n_tx * (bins
                                       @ np.conj(np.swapaxes(bins, -1, -2)))
    return rate, np.abs(lhs - rhs).max(axis=(-2, -1))


def _sandwich_excess(cfgs, grid):
    """Per config, the worst (rc_lb - 3s - cdd), (cdd - 3s - rc_ub) and
    (cap_lb - 3s - cap) over a linear-SNR grid, s the Monte-Carlo standard
    error; all <= 0 when the closed-form bounds sandwich the config's
    estimates.  The configs share one seed and trial count and one draw,
    whose chunks run on one thread per usable CPU."""
    got = run_chunks(partial(_sweep_values, snr=grid, metrics=("cdd", "cap")),
                     cfgs, _usable_cpus())
    out = []
    for cfg, ((cdd_mean, cap_mean), (cdd_err, cap_err)) in zip(cfgs, got):
        low, high, cap_low = (_BOUNDS[m](cfg, grid)
                              for m in ("rc_lb", "rc_ub", "cap_lb"))
        out.append((float(np.max(low - 3 * cdd_err - cdd_mean)),
                    float(np.max(cdd_mean - 3 * cdd_err - high)),
                    float(np.max(cap_low - 3 * cap_err - cap_mean))))
    return out


def _log_bin_gains(block):
    """Per-trial mean of ln(gain) over the DFT bins at receive antenna 0,
    each gain the bin's one-row d from _tridiagonal."""
    bins = reduce_to_parallel(block)                  # (B, T, n_rx, K)
    lam = _tridiagonal(bins[:, :, :1])[0][0]          # (T, B)
    return np.log(lam).mean(axis=0)


def _digamma_error(user_counts, trials, seed):
    """|E[ln lambda] - psi(K)|, psi(K) = H_{K-1} - gamma, at n_tx=4, n_rx=1,
    one per user count K, all from one draw on one thread per usable CPU."""
    cfgs = [SystemConfig(users=users, n_tx=4, n_rx=1, trials=trials,
                         seed=seed) for users in user_counts]
    errors = []
    got = run_chunks(_log_bin_gains, cfgs, _usable_cpus())
    for users, (mean, _) in zip(user_counts, got):
        psi = bnd.harmonic(users - 1) - bnd.EULER_GAMMA
        errors.append(abs(float(mean) - psi))
    return tuple(errors)


def _psi_residual(n_tx_values, k_max):
    """(worst residual at K=k_max, largest rise from one K to the next) of
    bounds.psi_limit_check over the transmit-antenna counts."""
    res = [bnd.psi_limit_check(n_tx, k_max) for n_tx in n_tx_values]
    return (max(float(r[-1]) for r in res),
            max(float(np.max(np.diff(r))) for r in res))


def _check_dft_unitarity(rng):
    worst = 0.0
    for size in range(1, 17):
        mat = dft_matrix(size)
        worst = max(worst, float(np.max(np.abs(mat @ mat.conj().T
                                               - np.eye(size)))))
    return worst < 1e-12, f"max |D D^H - I| = {worst:.3e} over T=1..16"


def _check_circulant_diag(rng):
    from .channel import _left_circulant, cdd_codeword
    worst = 0.0
    for size in (2, 3, 4, 8):
        mat = dft_matrix(size)
        taps = (rng.standard_normal(size) + 1j * rng.standard_normal(size))
        eff = mat @ _left_circulant(taps) @ mat          # congruence, both D
        code = mat @ cdd_codeword(taps) @ mat.conj().T   # similarity
        for rotated in (eff, code):
            off = rotated - np.diag(rotated.diagonal())
            worst = max(worst, float(np.max(np.abs(off))))
    return worst < 1e-9, f"max off-diagonal leak = {worst:.3e}"


def _check_dual_path(rng):
    worst_rate = 0.0
    worst_block = 0.0
    for users, n_tx, n_rx in ((1, 2, 1), (2, 4, 2), (3, 3, 2), (2, 2, 3)):
        cfg = SystemConfig(users=users, n_tx=n_tx, n_rx=n_rx, trials=50,
                           seed=int(rng.integers(2**32)))
        rate, leak = _dual_path_residuals(
            sample_channel_block(cfg, 0, cfg.trials), 8.0,
            shuffle_permutation(n_tx, n_rx))
        worst_rate = max(worst_rate, float(rate.max()))
        worst_block = max(worst_block, float(leak.max()))
    ok = worst_rate < 1e-9 and worst_block < 1e-9
    return ok, (f"max |direct - reduced| = {worst_rate:.3e}, "
                f"max block-diagonalization leak = {worst_block:.3e}")


def _check_dominance(rng):
    worst = -np.inf
    for users, n_tx, n_rx in ((1, 3, 2), (2, 2, 2), (4, 2, 1)):
        cfg = SystemConfig(users=users, n_tx=n_tx, n_rx=n_rx, trials=100,
                           seed=int(rng.integers(2**32)))
        block = sample_channel_block(cfg, 0, cfg.trials)
        worst = max(worst, float(np.max(rate_cdd(block, 25.0)
                                        - sum_capacity(block, 25.0))))
    return worst < 1e-9, f"max (cdd - capacity) = {worst:.3e}"


def _check_sandwich(rng):
    configs = ((1, 2, 1), (2, 2, 2), (4, 2, 1))
    grid = np.array([1.0, 10.0, 100.0])
    cfgs = [SystemConfig(users=users, n_tx=n_tx, n_rx=n_rx, trials=20000,
                         seed=2026)
            for users, n_tx, n_rx in configs]
    worst = max(max(excess) for excess in _sandwich_excess(cfgs, grid))
    return worst <= 0, "rc_lb <= MC cdd <= rc_ub and cap_lb <= MC cap on " + \
        " ".join(f"({users},{n_tx},{n_rx})" for users, n_tx, n_rx in configs)


def _check_digamma(rng):
    worst = max(_digamma_error((1, 2, 4), 50000, 99))
    return worst < 0.02, f"max |E[ln lambda] - psi(K)| = {worst:.4f}"


def _check_gap_convergence(rng):
    pairs = ((1, 2), (2, 2))
    cfgs = [SystemConfig(users=users, n_tx=n_tx, n_rx=1, trials=30000,
                         seed=7) for users, n_tx in pairs]
    got = run_chunks(partial(_sweep_values, snr=np.array([1e4]),
                             metrics=("diff",)), cfgs, _usable_cpus())
    worst = -np.inf
    for (users, n_tx), ((mean,), (err,)) in zip(pairs, got):  # one metric
        gap, _ = bnd.gap_high_snr(users, n_tx, 1)
        excess = abs(float(mean[0]) - gap) - max(0.05, 5 * float(err[0]))
        worst = max(worst, excess)
    return worst < 0, f"worst tolerance excess = {worst:.4f} bits at 40 dB"


def _check_psi_limit(rng):
    last, rise = _psi_residual((2, 4), 2000)
    return last < 1e-3 and rise <= 1e-15, \
        f"residual at K=2000: {last:.2e}, nonincreasing"


def _check_determinism(rng):
    # one worker, then one thread per usable CPU: on one CPU a repeated
    # run, on more the serial path against the threaded one
    cfg = SystemConfig(users=2, n_tx=2, n_rx=2, trials=6000, seed=31337)
    first = monte_carlo_sweep(cfg, 10.0, metrics=("cdd", "cap"))
    second = monte_carlo_sweep(cfg, 10.0, metrics=("cdd", "cap"),
                               workers=_usable_cpus())
    same = all(x.tobytes() == y.tobytes() for m in ("cdd", "cap")
               for x, y in zip(first[m], second[m]))
    # a single trial, drawn alone, is the same row of the whole block
    block = sample_channel_block(cfg, 0, cfg.trials)
    redraw = all(np.array_equal(sample_channels(cfg, t), block[t])
                 for t in (0, CHUNK - 1, CHUNK, cfg.trials - 1))
    return same and redraw, ("repeated runs and single-trial redraws "
                             "bit-identical")


CHECKS = (
    ("dft-unitarity", _check_dft_unitarity),
    ("circulant-diagonalization", _check_circulant_diag),
    ("dual-path", _check_dual_path),
    ("capacity-dominance", _check_dominance),
    ("bound-sandwich", _check_sandwich),
    ("digamma-identity", _check_digamma),
    ("gap-convergence", _check_gap_convergence),
    ("psi-limit-residuals", _check_psi_limit),
    ("determinism", _check_determinism),
)


def verify(seed: int = 0) -> int:
    """Run the invariant suite at reduced scale; 0 if every property holds.

    seed re-draws only the circulant-diagonalization taps and the
    dual-path and capacity-dominance configs; the statistical checks and
    the determinism check keep their fixed seeds (README "Power").  The
    Monte-Carlo checks run their chunks on one thread per usable CPU,
    and what they print is the same for any CPU count."""
    rng = np.random.default_rng(seed)
    failures = 0
    for name, check in CHECKS:
        ok, detail = check(rng)
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failures += 0 if ok else 1
    print(f"{len(CHECKS) - failures}/{len(CHECKS)} properties hold")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cddmac",
        description="Monte-Carlo and closed-form sum-rate experiments for "
                    "cyclic delay diversity in multi-user MIMO MAC systems.")
    parser.add_argument("--scenario", choices=sorted(SCENARIOS),
                        help="canned experiment recipe")
    parser.add_argument("--config", metavar="FILE",
                        help="key=value config file (# comments); flags "
                             "override it")
    parser.add_argument("--snr-db", dest="snr_db", metavar="GRID",
                        help="dB grid: 'start:stop:step' or 'a,b,c'; attach "
                             "a negative one: --snr-db=-10:40:2.5")
    parser.add_argument("--trials", help="Monte-Carlo trials")
    parser.add_argument("--seed", help="master seed; --verify re-draws only "
                        "its circulant-diagonalization, dual-path and "
                        "capacity-dominance inputs with it, and its "
                        "statistical checks keep their fixed seeds")
    parser.add_argument("--metrics", help="comma list from: "
                                          + ",".join(METRICS))
    parser.add_argument("--out", metavar="FILE", help="output CSV path")
    parser.add_argument("--workers", help="parallel workers, at most one per "
                        "chunk and CPU (results identical for any value)")
    parser.add_argument("--verify", action="store_true",
                        help="run the invariant self-check suite and exit; "
                             "it uses one chunk thread per usable CPU, and "
                             "its output is identical for any CPU count")
    parser.add_argument("--plot-script", dest="plot_script", metavar="FILE",
                        help="also write a plain-text companion plotting "
                             "script")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if not (args.verify or args.scenario or args.config):
        print("usage error: one of --scenario or --config is required "
              "(or --verify)", file=sys.stderr)
        return 2
    try:
        if args.verify:
            seed = _parse_int("seed", "0" if args.seed is None else args.seed,
                              _seed)
            # every option but --seed is read only by a run
            for dest, value in vars(args).items():
                if dest not in ("verify", "seed") and value is not None:
                    flag = "--" + dest.replace("_", "-")
                    raise UsageError(f"{flag}: --verify runs the self-check "
                                     f"only and takes no run flag but --seed")
            return verify(seed=seed)
        file_settings = parse_config_file(args.config) if args.config else {}
        # the flag wins, but the file's scenario must still be a real one
        file_scenario = file_settings.pop("scenario", "")
        if file_scenario and file_scenario not in SCENARIOS:
            raise UsageError(f"scenario: unknown scenario {file_scenario!r} "
                             f"(choose from {', '.join(sorted(SCENARIOS))})")
        scenario = args.scenario or file_scenario
        settings = dict(DEFAULTS)
        if scenario:
            settings["scenario"] = scenario
            settings.update(SCENARIOS[scenario])
        settings.update(file_settings)
        # a flag that is given, even as "", is checked like the file's key
        settings.update((key, val) for key, val in vars(args).items()
                        if key in DEFAULTS and val is not None)
        spec = build_spec(settings)
        # a run must not write over its config or its other output
        files = {}
        for flag, path in (("--config", args.config), ("--out", spec.out),
                           ("--plot-script", args.plot_script)):
            if path:
                # an existing file is keyed by (device, inode): hard links too
                st = os.stat(path) if os.path.exists(path) else None
                key = (st.st_dev, st.st_ino) if st else os.path.realpath(path)
                first = files.setdefault(key, flag)
                if first != flag:
                    raise UsageError(f"{flag}: {path} is the same file as "
                                     f"{first}")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(spec, plot_script=args.plot_script or "")
    except MemoryError as exc:
        print(f"runtime error: out of memory ({exc})", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
