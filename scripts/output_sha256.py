"""Print the sha256 of the recorded CLI outputs.

    python3 scripts/output_sha256.py

A change that keeps every printed hash keeps the program's output bytes.
The outputs are the CSVs of --scenario figure2, figure3 and figure4 at
--trials 20000 and of the wide-sweep config below, each at seeds 0 and 7,
and the stdout of --verify at seeds 0 and 7.  Every CSV is written once at
--workers 1 and once at --workers 2.  --verify, which runs one chunk
thread per usable CPU, runs once as it is and once pinned to one CPU,
where the platform has os.sched_setaffinity.  The script exits 1 if a
CSV differs between the two worker counts or the --verify stdout between
the two CPU counts.  The calls run one at a time, with one BLAS thread,
against the package source in this checkout's src/, and write into a
temporary directory that is removed afterwards.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SEEDS = (0, 7)
WORKERS = (1, 2)
# Eight users with four transmit and eight receive antennas on a 1 dB grid.
WIDE_CONFIG = """users = 8
n_tx = 4
n_rx = 8
snr_db = 0:40:1
metrics = cap_mc,cdd_mc,rc_lb,rc_ub,cap_lb
trials = 8192
"""


def cddmac(args, env, preexec_fn=None) -> bytes:
    """stdout of one CLI call; stops the script if the call fails."""
    proc = subprocess.run([sys.executable, "-m", "cddmac", *args], env=env,
                          capture_output=True, preexec_fn=preexec_fn)
    if proc.returncode != 0:
        sys.exit(f"cddmac {' '.join(args)}: exit {proc.returncode}\n"
                 f"{proc.stderr.decode()}")
    return proc.stdout


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        wide = Path(tmp, "wide-sweep.cfg")
        wide.write_text(WIDE_CONFIG)
        outputs = {f"figure{n}": ["--scenario", f"figure{n}",
                                  "--trials", "20000"] for n in (2, 3, 4)}
        outputs["wide-sweep"] = ["--config", str(wide)]
        for name, args in outputs.items():
            for seed in SEEDS:
                digests = []
                for workers in WORKERS:
                    out = Path(tmp, f"{name}-s{seed}-w{workers}.csv")
                    cddmac(args + ["--seed", str(seed), "--workers",
                                   str(workers), "--out", str(out)], env)
                    digests.append(hashlib.sha256(out.read_bytes())
                                   .hexdigest())
                print(f"{name:<12} seed {seed}  {digests[0]}")
                if len(set(digests)) > 1:
                    differ += 1
                    print("  differs by --workers: " + ", ".join(
                        f"{w}: {d}" for w, d in zip(WORKERS, digests)))
    pinned = None
    if hasattr(os, "sched_setaffinity"):
        one_cpu = {min(os.sched_getaffinity(0))}
        pinned = partial(os.sched_setaffinity, 0, one_cpu)
    verify_differ = 0
    for seed in SEEDS:
        args = ["--verify", "--seed", str(seed)]
        stdout = cddmac(args, env)
        print(f"{'--verify':<12} seed {seed}  "
              f"{hashlib.sha256(stdout).hexdigest()}")
        if pinned and cddmac(args, env, pinned) != stdout:
            verify_differ += 1
            print("  differs when pinned to one CPU")
    if differ:
        print(f"{differ} CSV(s) differ between --workers values",
              file=sys.stderr)
    if verify_differ:
        print(f"{verify_differ} --verify stdout(s) differ between CPU "
              f"counts", file=sys.stderr)
    return 1 if differ or verify_differ else 0


if __name__ == "__main__":
    sys.exit(main())
