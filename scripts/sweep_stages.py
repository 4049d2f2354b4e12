"""Print each sweep stage's mean ms and minor page faults in a real chunk.

    python3 scripts/sweep_stages.py [SHAPE]

Each shape runs a 4096-trial chunk of the "cdd" and "cap" series through
rates._chunk_sums, which draws the chunk and reduces the one buffer of
values that rates._sweep_values fills: wide-sweep (8, 4, 8) in four
1024-trial sub-blocks, figure4 (6, 3, 3), figure3 (2, 2, 2) and figure2's
(1, 4, 2) in one.  Each rates name in STAGES is wrapped to add up its
self time and faults (ru_minflt); a stage on two inputs gets a line
each: _tridiagonal by matrix shape (the DFT bins', or figure2's stacked
rows), _coefficients and _horner_logs by degree (T L for CDD, L for
capacity).  "rest of the chunk" is the own lines of _chunk_sums,
_sweep_values, _series and _logdet_sums and the wrappers, so the lines,
means, add up to the wrapped chunk.
After an untimed chunk, wrapped and unwrapped chunks alternate in one
workspace, for BUDGET seconds and at least MIN_RUNS times each, with one
BLAS thread, on this checkout's src/; their medians show the wrappers'
overhead.  Each shape runs in a fresh interpreter of its own (this
script with the shape's name, which times that shape alone), so that its
faults are its own: in one process they would depend on the allocator
state the shapes before it leave (after wide-sweep's large frees, glibc's
dynamic mmap threshold spared figure4 almost every fault).  Exits 1 if a
stage is not in rates (before timing) or ran on no shape (renamed or
inlined).
"""

import os
import subprocess
import sys
import time
from functools import partial
from pathlib import Path
from resource import RUSAGE_SELF, getrusage

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from cddmac import rates  # noqa: E402
from cddmac.channel import CHUNK, SystemConfig  # noqa: E402

BUDGET, MIN_RUNS = 2.0, 9               # seconds and runs per shape
STAGES = ("sample_channel_block", "reduce_to_parallel", "_tridiagonal",
          "_grams", "_householder", "_coefficients", "_horner_logs",
          "_trial_sums")
LABELS = {"_tridiagonal": lambda x, **_: f" {x.shape[-2]}x{x.shape[-1]}",
          "_coefficients": lambda d, e2: f", degree {len(d) * d.shape[1]}",
          "_horner_logs": lambda coef, s: f", degree {len(coef) - 1}"}
# (name, (users, n_tx, n_rx), SNR grid in dB)
SHAPES = (("wide-sweep", (8, 4, 8), np.arange(0.0, 41.0, 1.0)),
          ("figure4", (6, 3, 3), np.arange(0.0, 41.0, 5.0)),
          ("figure3", (2, 2, 2), np.array([0.0, 20.0, 40.0])),
          ("figure2", (1, 4, 2), np.arange(0.0, 41.0, 5.0)))


def usage() -> np.ndarray:
    """(seconds, minor page faults) of the process so far."""
    return np.array([time.perf_counter(), getrusage(RUSAGE_SELF).ru_minflt])


def wrapped(name, stage, totals: dict, stack: list):
    """stage, adding its self (seconds, faults) to totals[name, label]."""
    def timed(*args, **kwargs):
        label = LABELS[name](*args, **kwargs) if name in LABELS else ""
        line = totals.setdefault((name, label), np.zeros(2))
        stack.append(np.zeros(2))
        start = usage()
        try:
            return stage(*args, **kwargs)
        finally:
            spent = usage() - start
            line += spent - stack.pop()
            if stack:
                stack[-1] += spent
    return timed


def time_shape(shape, originals: dict) -> None:
    """Print one shape's lines, timed in this process."""
    name, system, snr_db = shape
    values = partial(rates._sweep_values, snr=10.0 ** (snr_db / 10),
                     metrics=("cdd", "cap"))
    chunk = partial(rates._chunk_sums, values,
                    (SystemConfig(*system, CHUNK, 0),), {}, 0, CHUNK)
    totals, stack, runs = {}, [], {True: [], False: []}
    timed = {stage: wrapped(stage, f, totals, stack)
             for stage, f in originals.items()}
    try:
        chunk()                                         # untimed warm-up
        end = time.perf_counter() + BUDGET
        while len(runs[True]) < MIN_RUNS or time.perf_counter() < end:
            for wrap in (True, False):
                for stage, f in (timed if wrap else originals).items():
                    setattr(rates, stage, f)
                start = usage()
                chunk()
                runs[wrap].append(usage() - start)
    finally:
        for stage, f in originals.items():
            setattr(rates, stage, f)
    n, whole = len(runs[True]), np.mean(runs[True], axis=0)
    print(f"{name} {system}, {len(snr_db)} points: {n} runs of a "
          f"{CHUNK}-trial chunk (ms; minor faults)")
    for line, (ms, faults) in (
            *((stage + label, total / n)
              for (stage, label), total in totals.items()),
            ("rest of the chunk", whole - sum(totals.values()) / n),
            ("chunk, wrapped, mean", whole),
            ("chunk, wrapped, median", np.median(runs[True], 0)),
            ("chunk, unwrapped, median", np.median(runs[False], 0))):
        print(f"  {line:<30}{1e3 * ms:8.2f} ms {faults:8.1f} faults")


def main(names=()) -> int:
    """With no name, time every shape, each in a fresh interpreter; with a
    shape's name, that shape alone, in this one."""
    originals = {name: getattr(rates, name, None) for name in STAGES}
    if missing := [name for name, f in originals.items() if not callable(f)]:
        print(f"not in rates: {', '.join(missing)}", file=sys.stderr)
        return 1
    if names:
        shapes = {shape[0]: shape for shape in SHAPES}
        if len(names) > 1 or names[0] not in shapes:
            print(f"usage: {Path(__file__).name} [SHAPE], a shape of "
                  f"{', '.join(shapes)}", file=sys.stderr)
            return 2
        time_shape(shapes[names[0]], originals)
        return 0
    ran = set()
    for name, *_ in SHAPES:
        proc = subprocess.run([sys.executable, __file__, name],
                              stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        if proc.returncode:
            return 1
        # the stages it timed: the first word of each stage line
        ran.update(line.split()[0].rstrip(",")
                   for line in proc.stdout.splitlines()
                   if line.startswith("  "))
    if idle := [stage for stage in STAGES if stage not in ran]:
        print(f"ran on no shape: {', '.join(idle)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
