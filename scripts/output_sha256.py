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
temporary directory that is removed afterwards.  They run with
PYTHONWARNINGS=error::RuntimeWarning, so a numpy overflow, invalid value
or division by zero in any of them fails the script.

Each printed hash is followed by "recorded" if it matches the RECORDED
table below and by "not recorded" if it does not.  A mismatch does not
change the exit status: another CPU's vectorized exp or log1p may round
differently.  A change that moves output bits on purpose updates the
table, so the moved outputs show in its diff.
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
# The sha256 of each output, one "name seed digest" line per output, as
# printed on an x86-64 machine with numpy 2.4.6.  The sweep's move to
# determinant coefficients and one Gram for both schemes changed figure3 at
# seed 0, figure4 and wide-sweep: the last printed digit of 31 standard
# errors (at most 4.7e-12 relative), and no printed mean.
RECORDED = set("""\
figure2 0 6e02337343717cd419f3baa01b1bbb9d4a9d750104d713a41071ed3cc5d6457e
figure2 7 3a29400d25ff1cb40be3b6927ff20931b7115dd9d3bca5afab2a89bb4f5c0ea5
figure3 0 da0b30c2c7ae42dadc1ef725236d86f17e46960b6d6e13bcf845826680ef3c92
figure3 7 e6aae969ba7313b44f4caa9e0ba2f0b9895a62b0a0b4f39189238aa877d6ab11
figure4 0 e1a772ac1db59d31d0f92ecd45018b070d03d02dc89e87a4bcb3981ee19fe6b8
figure4 7 b965188fb922e2970f56f8774fa83b6fb7a7ae37e80021268b85a73e86e64bcc
wide-sweep 0 8ff03a723d7f8a2bbfc2ae376f29c3b8dd4df8e4c69de1768c8a1b56b0a13b41
wide-sweep 7 87bce19d55911574e85e74b0d4d2a903f34b1418ce4c47bdbd2771cc8f0d46df
--verify 0 fb8e2c91e94a851912b66344b1d0af335f6e53c1215c815e4a48daae41608337
--verify 7 019aebbf27ecfecc565c24996b48de577c6e080072f28e23742e1a469ae355a6
""".splitlines())


def cddmac(args, env, preexec_fn=None) -> bytes:
    """stdout of one CLI call; stops the script if the call fails."""
    proc = subprocess.run([sys.executable, "-m", "cddmac", *args], env=env,
                          capture_output=True, preexec_fn=preexec_fn)
    if proc.returncode != 0:
        sys.exit(f"cddmac {' '.join(args)}: exit {proc.returncode}\n"
                 f"{proc.stderr.decode()}")
    return proc.stdout


def report(name: str, seed: int, digest: str) -> None:
    """One output's hash, and whether RECORDED holds it."""
    known = ("recorded" if f"{name} {seed} {digest}" in RECORDED
             else "not recorded")
    print(f"{name:<12} seed {seed}  {digest}  {known}")


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONWARNINGS="error::RuntimeWarning")
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
                report(name, seed, digests[0])
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
        report("--verify", seed, hashlib.sha256(stdout).hexdigest())
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
