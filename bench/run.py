"""Benchmark of the cddmac CLI: time, memory and set-up per workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One operation is one CLI call in a fresh
interpreter (bench/invoke.py), with one BLAS thread.  Operations repeat
until S seconds have passed, each with program seed 1000 * N + round, and
every output is checked against reference.py and checks.py.  Set-up
samples (a fresh interpreter importing numpy and cddmac) are taken between
operations, one per SETUP_EVERY_S seconds.  The last stdout line is a JSON
object with keys correct, attempted, failed and metrics.  With --trace 0
the metrics are the end-to-end medians (setup_s, wall_s, peak_rss_mb);
with --trace 1 they are the per-layer medians of traced calls, and a layer
split goes to stderr.  Workloads and the layer metrics are described in
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from checks import check_region, check_sweep, check_verify, \
    region_expectations, sweep_expectations, linear

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# One set-up sample per this many seconds of run time, taken between
# operations so that the samples span the run like the operations do.
SETUP_EVERY_S = 2.0
# Upper limit for one CLI call; a run must end within 180 s.
CALL_TIMEOUT_S = 150

# figure3 is the paper's two-user region at 0/20/40 dB (n_tx = n_rx = 2).
FIG3_TRIALS = 20000
FIG3_GRID = (0.0, 20.0, 40.0)
# Eight users with four transmit and eight receive antennas on a 1 dB grid.
WIDE = dict(users=8, n_tx=4, n_rx=8, trials=8192, grid=tuple(
    float(g) for g in range(41)))
WIDE_CONFIG = f"""users = {WIDE['users']}
n_tx = {WIDE['n_tx']}
n_rx = {WIDE['n_rx']}
snr_db = 0:40:1
metrics = cap_mc,cdd_mc,rc_lb,rc_ub,cap_lb
trials = {WIDE['trials']}
workers = 1
"""


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def pool_workers() -> int:
    """Two workers, or fewer where fewer cores are available."""
    return min(2, len(os.sched_getaffinity(0)))


def setup_seconds(env) -> float:
    start = perf_counter()
    # Pipes, not a bare timeout: Popen.wait(timeout) polls in steps of up to
    # 50 ms, which would quantise the measurement.
    subprocess.run([sys.executable, "-c", "import numpy, cddmac"], env=env,
                   check=True, capture_output=True, timeout=CALL_TIMEOUT_S)
    return perf_counter() - start


def invoke(args, name, env, trace):
    """One CLI call in a fresh interpreter; its result dict, or None."""
    result_path = OUT / f"{name}.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "invoke.py"), str(result_path)]
    cmd += ["--trace"] if trace else []
    # A session of its own, so that a call that times out is killed
    # together with its pool workers.
    with subprocess.Popen(cmd + ["--", *args], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            _, err = proc.communicate(timeout=CALL_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            print(f"{name}: timed out", file=sys.stderr)
            return None
    if proc.returncode != 0 or not result_path.is_file():
        print(f"{name}: exit {proc.returncode}\n{err}", file=sys.stderr)
        return None
    result = json.loads(result_path.read_text())
    if Path(result["package"]).resolve().parent.parent != SRC:
        raise SystemExit(f"imported cddmac from {result['package']}, "
                         f"not from {SRC}")
    return result


def csv_call(args, name, env, trace, check):
    """A CSV-writing call: result plus problems, or None if it failed."""
    out = OUT / f"{name}.csv"
    out.unlink(missing_ok=True)
    result = invoke(args + ["--out", str(out)], name, env, trace)
    if result is None or result["code"] != 0 or not out.is_file():
        return None
    result["csv"] = out.read_bytes()
    return result, check(result["csv"].decode())


def figure3_region(seed, env, trace):
    def call(workers, name):
        args = ["--scenario", "figure3", "--trials", str(FIG3_TRIALS),
                "--workers", str(workers), "--seed", str(seed)]
        return csv_call(args, name, env, trace, lambda text: check_region(
            text, FIG3_GRID, 2, 2, FIG3_TRIALS, seed))

    if not trace:
        return call(pool_workers(), "figure3-region")
    # Layer times need every span in this process, so the traced call runs
    # one worker; a second call at the timed run's worker count counts the
    # pools and must write the same bytes.
    one = call(1, "figure3-region-w1")
    many = call(pool_workers(), "figure3-region-pools")
    if one is None or many is None:
        return None
    (result, problems), (pooled, _) = one, many
    if result["csv"] != pooled["csv"]:
        problems.append("one-worker CSV differs from the pooled CSV")
    result["per_layer"]["region.pools_started"] = \
        pooled["per_layer"]["region.pools_started"]
    return result, problems


def wide_sweep(seed, env, trace):
    config = OUT / "wide-sweep.cfg"
    config.write_text(WIDE_CONFIG)
    return csv_call(["--config", str(config), "--seed", str(seed)],
                    "wide-sweep", env, trace, lambda text: check_sweep(
                        text, WIDE["grid"], WIDE["users"], WIDE["n_tx"],
                        WIDE["n_rx"], WIDE["trials"], seed))


def verify(seed, env, trace):
    result = invoke(["--verify", "--seed", str(seed)], "verify", env, trace)
    if result is None:
        return None
    return result, check_verify(result["stdout"], result["code"])


def figure3_references():
    for g in FIG3_GRID:
        region_expectations(2, 2, 2, linear(g))


def wide_references():
    for g in WIDE["grid"]:
        sweep_expectations(WIDE["users"], WIDE["n_tx"], WIDE["n_rx"],
                           linear(g))


# name -> (one round, evaluation of the reference integrals it checks with)
WORKLOADS = {"figure3-region": (figure3_region, figure3_references),
             "wide-sweep": (wide_sweep, wide_references),
             "verify": (verify, lambda: None)}


def layer_summary(results, workload):
    traced = statistics.median(r["wall_s"] for r in results)
    split = {name: statistics.median(r["layer_self_s"][name]
                                     for r in results)
             for name in results[0]["layer_self_s"]}
    total = sum(split.values()) or 1.0
    parts = ", ".join(f"{name} {sec:.3f} s ({100 * sec / total:.1f} %)"
                      for name, sec in split.items())
    print(f"{workload}: traced wall_s {traced:.3f} s over {len(results)} "
          f"calls; self time by layer: {parts}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "cddmac" / "__init__.py").is_file():
        print(f"no cddmac package under {SRC}: run from the repository root "
              f"of a full checkout", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    env = program_env()
    run, references = WORKLOADS[args.workload]
    references()
    setup_seconds(env)  # untimed: fills the file cache
    setups, done, problems, attempted = [], [], [], 0
    start = perf_counter()
    while attempted == 0 or perf_counter() < start + args.seconds:
        while len(setups) <= (perf_counter() - start) / SETUP_EVERY_S:
            setups.append(setup_seconds(env))
        outcome = run(1000 * args.seed + attempted, env, bool(args.trace))
        attempted += 1
        if outcome is not None:
            done.append(outcome[0])
            problems += outcome[1]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if not done:
        print("no call completed", file=sys.stderr)
        return 1

    if args.trace:
        layer_summary(done, args.workload)
        metrics = {name: {"value": statistics.median(
                              r["per_layer"][name][0] for r in done),
                          "unit": unit}
                   for name, (_, unit) in done[0]["per_layer"].items()}
    else:
        walls = " ".join(f"{r['wall_s']:.3f}" for r in done)
        print(f"{args.workload}: wall_s per call: {walls}", file=sys.stderr)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(r["wall_s"] for r in done),
                       "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                r["peak_rss_mb"] for r in done), "unit": "MB"},
        }
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": attempted - len(done), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
