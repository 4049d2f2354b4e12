"""Print the median time of each stage of the sweep kernel, in ms, and
its minor page faults per run.

    python3 scripts/sweep_stages.py

Four shapes, each with its --scenario or benchmark grid: one 1024-trial
sub-block of the wide-sweep benchmark configuration (8 users, 4 transmit
and 8 receive antennas, 41 points from 0 to 40 dB), and one 4096-trial
chunk each of --scenario figure4 (6 users, 3 and 3 antennas, 9 points),
figure3 (2 users, 2 and 2 antennas, 3 points) and figure2's two-antenna
curve (1 user, 4 transmit and 2 receive antennas, 9 points).  The stages
are the channel draw, the DFT bins, the Grams (the bins' and, where n_rx
<= users, their sum, the capacity's), the Householder reduction of those
Grams, the determinant coefficients of the CDD bins and of the capacity,
their evaluation on the whole grid (rates._horner_logs; each grid is one
point block of rates._logdet_sums) and the chunk's reduction to sums
(rates._trial_sums over a chunk's values).  Grams of one or two rows (all
of figure3's and figure2's) need no Gram product or Householder
reduction: rates._tridiagonal takes them, with their squared
off-diagonal, from its closed form, timed as one stage.  Where n_rx >
users (figure2), the capacity comes from the users' stacked rows
(rates._tridiagonal of rates._stack_users), timed as its own stage.
figure3's single-user series, one-row Grams, are not timed here.  Next
come rates._sweep_values(("cdd", "cap")) as a whole and the sum of the
stages it runs, bins to evaluation: a gap between the two is time that
the stages, timed one by one, miss or add.  The channel draw and the
reduction run once per chunk, and are timed per sub-block: the chunk's
time and faults divided by its sub-block count.  The Householder
reduction and the reduction to sums overwrite their input, which an
untimed copy restores before each run.  Each stage runs REPEATS times on
the same input, with one BLAS thread, in one chunk workspace
(linalg._buffer) as in rates.run_chunks, against the package source in
this checkout's src/.  The faults are the process's ru_minflt over the
REPEATS runs, divided by REPEATS, so a stage that reuses its workspace
buffers shows about 0.  The stages are the package's private functions,
called from outside; nothing in the package records a time.
"""

from __future__ import annotations

import os
import resource
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from cddmac import rates  # noqa: E402
from cddmac.channel import (CHUNK, SystemConfig,  # noqa: E402
                            reduce_to_parallel, sample_channel_block)
from cddmac.linalg import _workspace  # noqa: E402

REPEATS = 9
# (name, (users, n_tx, n_rx), trials, SNR grid in dB).  Where n_rx <= users
# the capacity's Gram is the sum of the bins'; figure2's n_rx = 2 > users = 1
# reads it from the users' stacked rows.
SHAPES = (("wide-sweep", (8, 4, 8), 1024, np.arange(0.0, 41.0, 1.0)),
          ("figure4", (6, 3, 3), 4096, np.arange(0.0, 41.0, 5.0)),
          ("figure3", (2, 2, 2), 4096, np.array([0.0, 20.0, 40.0])),
          ("figure2", (1, 4, 2), 4096, np.arange(0.0, 41.0, 5.0)))


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def measure(stage, per: int = 1, restore=None):
    """(median ms, minor page faults) of one run of stage, each divided by
    per; restore, if given, runs untimed before each run."""
    times = []
    faults = minor_faults()
    for _ in range(REPEATS):
        if restore:
            restore()
        start = time.perf_counter()
        stage()
        times.append(time.perf_counter() - start)
    faults = minor_faults() - faults
    return 1e3 * float(np.median(times)) / per, faults / REPEATS / per


def stages(shape, trials, snr):
    """(stage, callable, runs per call, run by rates._sweep_values, untimed
    restore or None) over one sub-block of the shape, each on the previous
    stage's output."""
    users, n_tx, n_rx = shape
    cfg = SystemConfig(users=users, n_tx=n_tx, n_rx=n_rx, trials=CHUNK,
                       seed=0)
    rows = max(1, rates._SUB_BLOCK_ENTRIES // (users * n_tx * n_rx))
    chunk = sample_channel_block(cfg, 0, CHUNK)
    block = chunk[:trials]
    bins = reduce_to_parallel(block)
    wide = n_rx <= users            # the capacity's Gram is the bins' sum
    d, e2 = rates._tridiagonal(bins, total=wide)
    cdd = (d[:, :n_tx], e2[:, :n_tx])

    def stacked():
        return rates._tridiagonal(rates._stack_users(block))

    if wide:
        cap, capacity = (d[:, n_tx:], e2[:, n_tx:]), ()
    else:
        cap = stacked()
        capacity = (("capacity, stacked rows", stacked, 1, True, None),)
    coef_cdd, coef_cap = rates._coefficients(*cdd), rates._coefficients(*cap)
    grid, draws = snr[:, None], -(-CHUNK // rows)
    # one config's values over the whole chunk, as _chunk_sums holds them
    vals = rates._sweep_values(chunk, snr, ("cdd", "cap"))[None]
    sums = vals.copy()
    if min(n_rx, users) <= 2:                   # one or two rows
        tridiagonal = (("Gram and e2, closed form",
                        lambda: rates._tridiagonal(bins, total=wide), 1, True,
                        None),)
    else:
        gram = rates._grams(bins, total=wide)
        flat = gram.reshape(*gram.shape[:2], -1)
        work = flat.copy()
        tridiagonal = (
            ("Gram", lambda: rates._grams(bins, total=wide), 1, True, None),
            ("Householder", lambda: rates._householder(work), 1, True,
             lambda: np.copyto(work, flat)))

    return (
        (f"sampling, per sub-block of {min(rows, CHUNK)}",
         lambda: sample_channel_block(cfg, 0, CHUNK), draws, False, None),
        ("bins", lambda: reduce_to_parallel(block), 1, True, None),
        *tridiagonal,
        *capacity,
        ("coefficients, CDD", lambda: rates._coefficients(*cdd), 1, True,
         None),
        ("coefficients, capacity", lambda: rates._coefficients(*cap), 1, True,
         None),
        ("evaluation, CDD", lambda: rates._horner_logs(coef_cdd, grid), 1,
         True, None),
        ("evaluation, capacity",
         lambda: rates._horner_logs(coef_cap, grid / n_tx), 1, True, None),
        ("chunk sums, per sub-block", lambda: rates._trial_sums(sums), draws,
         False, lambda: np.copyto(sums, vals)),
        ("_sweep_values(cdd, cap)",
         lambda: rates._sweep_values(block, snr, ("cdd", "cap")), 1, False,
         None),
    )


def main() -> int:
    for name, shape, trials, snr_db in SHAPES:
        snr = 10.0 ** (snr_db / 10)
        print(f"{name} {shape}, {trials} trials, {len(snr)} points "
              f"(median ms of {REPEATS} runs; minor page faults per run)")
        runs = stages(shape, trials, snr)     # inputs outside the workspace
        parts = []
        with _workspace({}):
            for stage, run, per, summed, restore in runs:
                ms, faults = measure(run, per, restore)
                print(f"  {stage:<32}{ms:8.2f} ms {faults:8.0f} faults")
                if summed:
                    parts.append((ms, faults))
        ms, faults = np.sum(parts, axis=0)
        print(f"  {'_sweep_values stages, summed':<32}{ms:8.2f} ms "
              f"{faults:8.0f} faults")
    return 0


if __name__ == "__main__":
    sys.exit(main())
