"""Print the sha256 of the recorded CLI outputs.

    python3 scripts/output_sha256.py

A change that keeps every printed hash keeps the program's output bytes.
The twelve outputs are the CSVs of --scenario figure2, figure3 and figure4
at --trials 20000 and of the wide-sweep and wide-n_rx configs below, each
at seeds 0 and 7, and the stdout of --verify at seeds 0 and 7.  Every CSV
is written once at --workers 1 and once at --workers 2.  --verify, which
runs one chunk thread per usable CPU, runs once as it is and once pinned
to one CPU, where the platform has os.sched_setaffinity.  The script
exits 1 if a CSV differs between the two worker counts or the --verify
stdout between the two CPU counts.  The calls run one at a time, with one
BLAS thread, against the package source in this checkout's src/, and
write into a temporary directory that is removed afterwards.  They run
with PYTHONWARNINGS=error::RuntimeWarning, so a numpy overflow, invalid
value or division by zero in any of them fails the script.

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
# The same draw at n_rx = 4 and 8: the only output whose widest config
# takes several sub-blocks while a narrower one reads a prefix of its draw.
WIDE_NRX_CONFIG = """users = 8
n_tx = 4
n_rx = 4,8
snr_db = 0:40:1
metrics = cap_mc,cdd_mc
trials = 8192
"""
# The sha256 of each output, one "name seed digest" line per output, as
# printed on an x86-64 machine with numpy 2.4.6.  The move of the channel
# streams to SFC64 (channel.sample_channel_block) changed every Monte-Carlo
# value, so all ten outputs recorded then; wide-n_rx was recorded later,
# from the same code.
RECORDED = set("""\
figure2 0 97066f1ea3ba940cd5e665924ea90e08eef95183b8cb85a48091d81c12365d9a
figure2 7 89c5e33ac29f7da0bbcf524f0709411a88be438adca612b401c6ac8a5b82ea35
figure3 0 f348c238f792d6d4b50bd4da14b5b39556d0f447d21ebe266f5416d43d5b942e
figure3 7 9741427d02e2cad8b1b45ec49697c8787e388aa8d814792fb548d46a49858b81
figure4 0 c06974333f175311844ea466a24be5abd336f85db58474991dc8866c46ddf449
figure4 7 9e4fc70c44ae9f9f9206bc3d280da7b0f20f0880ac22c4230baa00ba26aed0b4
wide-sweep 0 5247a9604cd5736b29ba232766baced0da0b33ea3d9434b5081f84831a4fc4d1
wide-sweep 7 cbf8a80cc082b238ce1ea9daab97c55b2b3f407d562c25e92b2866212e2f1e1a
wide-n_rx 0 9a460661bd8f424b7e89a3922ff21c7e29b4374b1a7c6d6c392b0d2a8662637a
wide-n_rx 7 078aceef6519f9ac0efdb80be63a35d9b3cb413fef6147adaa8b31597f2d0811
--verify 0 b89a8879186b06da049f1ef0f85e86c0c278a7eaf60757452ca36cc281cd3791
--verify 7 03675a2c3d787dc048241ebe8188d3ba4921f923dc2f64d7a6f30bc5037516ed
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
        outputs = {f"figure{n}": ["--scenario", f"figure{n}",
                                  "--trials", "20000"] for n in (2, 3, 4)}
        for name, text in (("wide-sweep", WIDE_CONFIG),
                           ("wide-n_rx", WIDE_NRX_CONFIG)):
            config = Path(tmp, f"{name}.cfg")
            config.write_text(text)
            outputs[name] = ["--config", str(config)]
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
