"""Output checkers for the benchmark workloads.

Each checker takes what one program call left behind (CSV text, or the
--verify transcript and exit code) and returns a list of problems; an empty
list means the output is right.  Expected Monte-Carlo values come from
Telatar's integral (reference.py), never from the package under test, and
the remaining checks are properties that hold for any seed: exact corner
identities, capacity dominance, bound sandwiches and monotonicity in SNR.
"""

from __future__ import annotations

import csv
import io
import math

from reference import expected_logdet_bits

# Monte-Carlo means must lie within Z_TOL standard errors of the integral.
# Normal tail beyond 6 sigma: 1.97e-9 two-sided, 9.9e-10 one-sided.  By the
# union bound a correct wide-sweep call (82 two-sided comparisons, 123
# one-sided sandwich comparisons) fails with probability at most 2.8e-7, and
# a figure3-region call (18 two-sided) at most 3.6e-8.
Z_TOL = 6.0
# Slack for identities that hold exactly in real arithmetic but pass
# through 12-significant-digit CSV formatting and float summation.
ABS_TOL = 1e-8

HEADER = ["snr_db", "metric", "value_bits", "stderr_bits", "trials", "seed"]

VERIFY_CHECKS = ("dft-unitarity", "circulant-diagonalization", "dual-path",
                 "capacity-dominance", "bound-sandwich", "digamma-identity",
                 "gap-convergence", "psi-limit-residuals", "determinism")

REGION_FIELDS = ("i1", "i2", "isum", "corner_a_r1", "corner_a_r2",
                 "corner_b_r1", "corner_b_r2")


def linear(snr_db: float) -> float:
    return 10.0 ** (snr_db / 10.0)


def parse_rows(text: str):
    """{(snr_db, metric): (value, stderr, trials, seed)} plus problems."""
    problems = []
    rows = {}
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != HEADER:
        return rows, [f"bad CSV header {header!r}"]
    for line in reader:
        try:
            snr, metric, value, err, trials, seed = line
            key = (float(snr), metric)
            parsed = (float(value), float(err), int(trials), int(seed))
        except ValueError:
            problems.append(f"malformed CSV row {line!r}")
            continue
        if key in rows:
            problems.append(f"duplicate row {key}")
        if not all(math.isfinite(x) for x in parsed[:2]):
            problems.append(f"non-finite value in row {line!r}")
        rows[key] = parsed
    return rows, problems


def _row_set(rows, expected_keys, trials_of, seed):
    """Problems with the row set and the trials/seed columns."""
    problems = []
    missing = sorted(set(expected_keys) - set(rows))
    extra = sorted(set(rows) - set(expected_keys))
    if missing:
        problems.append(f"missing rows {missing[:4]} ({len(missing)} total)")
    if extra:
        problems.append(f"unexpected rows {extra[:4]} ({len(extra)} total)")
    for key in set(rows) & set(expected_keys):
        _, _, trials, got_seed = rows[key]
        if trials != trials_of(key[1]) or got_seed != seed:
            problems.append(f"row {key}: trials/seed {trials}/{got_seed}")
    return problems


def _z_check(rows, key, expected):
    value, err = rows[key][:2]
    if not err > 0.0:
        return [f"row {key}: stderr {err} is not positive"]
    if abs(value - expected) > Z_TOL * err:
        return [f"row {key}: {value:.6f} is {(value - expected) / err:+.1f} "
                f"standard errors from Telatar's integral {expected:.6f}"]
    return []


def region_expectations(users: int, n_tx: int, n_rx: int, snr: float):
    """Expected (i1, i2, isum) per scheme for a two-user region."""
    if users != 2:
        raise ValueError("regions are two-user")
    single_cap = expected_logdet_bits(n_rx, n_tx, snr / n_tx)
    single_cdd = expected_logdet_bits(n_rx, 1, snr)
    return {
        "cap": (single_cap, single_cap,
                expected_logdet_bits(n_rx, users * n_tx, snr / n_tx)),
        "cdd": (single_cdd, single_cdd,
                expected_logdet_bits(n_rx, users, snr)),
    }


def check_region(text, grid_db, n_tx, n_rx, trials, seed):
    """figure3-style CSV: regions of both schemes at every grid point."""
    rows, problems = parse_rows(text)
    keys = [(g, f"region_{scheme}_{field}") for g in grid_db
            for scheme in ("cap", "cdd") for field in REGION_FIELDS]
    problems += _row_set(rows, keys, lambda metric: trials, seed)
    if problems:
        return problems
    for g in grid_db:
        expected = region_expectations(2, n_tx, n_rx, linear(g))
        val = {}
        for scheme in ("cap", "cdd"):
            base = f"region_{scheme}_"
            for field, want in zip(("i1", "i2", "isum"), expected[scheme]):
                problems += _z_check(rows, (g, base + field), want)
            val[scheme] = {f: rows[(g, base + f)][0] for f in REGION_FIELDS}
            v = val[scheme]
            if v["corner_a_r1"] != v["i1"] or v["corner_b_r2"] != v["i2"]:
                problems.append(f"{g} dB {scheme}: corner rate differs from "
                                f"the single-user constraint")
            for corner in ("a", "b"):
                gap = v[f"corner_{corner}_r1"] + v[f"corner_{corner}_r2"] \
                    - v["isum"]
                if abs(gap) > ABS_TOL * max(1.0, v["isum"]):
                    problems.append(f"{g} dB {scheme}: corner {corner} is "
                                    f"off the sum-rate face by {gap:.3e}")
        if val["cdd"]["isum"] > val["cap"]["isum"] + ABS_TOL:
            problems.append(f"{g} dB: CDD sum rate exceeds capacity")
    return problems


def sweep_expectations(users: int, n_tx: int, n_rx: int, snr: float):
    """Expected (cap_mc, cdd_mc) for the sum rates at one linear SNR."""
    return (expected_logdet_bits(n_rx, users * n_tx, snr / n_tx),
            expected_logdet_bits(n_rx, users, snr))


def check_sweep(text, grid_db, users, n_tx, n_rx, trials, seed):
    """CSV with metrics cap_mc, cdd_mc, rc_lb, rc_ub, cap_lb on one grid."""
    rows, problems = parse_rows(text)
    names = ("cap_mc", "cdd_mc", "rc_lb", "rc_ub", "cap_lb")
    keys = [(g, m) for g in grid_db for m in names]
    problems += _row_set(rows, keys,
                         lambda m: trials if m.endswith("_mc") else 0, seed)
    if problems:
        return problems
    for g in grid_db:
        cap, cdd = sweep_expectations(users, n_tx, n_rx, linear(g))
        problems += _z_check(rows, (g, "cap_mc"), cap)
        problems += _z_check(rows, (g, "cdd_mc"), cdd)
        v = {m: rows[(g, m)][0] for m in names}
        z = {m: Z_TOL * rows[(g, m)][1] for m in ("cap_mc", "cdd_mc")}
        # the closed forms bound the exact expectations, and (up to noise)
        # the Monte-Carlo estimates of them
        if not v["rc_lb"] - ABS_TOL <= cdd <= v["rc_ub"] + ABS_TOL:
            problems.append(f"{g} dB: rc bounds miss Telatar's CDD rate")
        if not v["cap_lb"] <= cap + ABS_TOL:
            problems.append(f"{g} dB: cap_lb exceeds Telatar's capacity")
        if not (v["rc_lb"] - z["cdd_mc"] <= v["cdd_mc"]
                <= v["rc_ub"] + z["cdd_mc"]):
            problems.append(f"{g} dB: cdd_mc outside [rc_lb, rc_ub]")
        if not v["cap_lb"] - z["cap_mc"] <= v["cap_mc"]:
            problems.append(f"{g} dB: cap_mc below cap_lb")
    for m in ("cap_mc", "cdd_mc"):
        series = [rows[(g, m)][0] for g in sorted(grid_db)]
        if any(b < a for a, b in zip(series, series[1:])):
            problems.append(f"{m} decreases with SNR")
    return problems


def check_verify(transcript: str, code: int):
    """--verify must exit 0 and report each of the nine properties holding."""
    problems = [] if code == 0 else [f"--verify exited {code}"]
    lines = transcript.splitlines()
    passed = [ln.split(":", 1)[0][len("PASS "):] for ln in lines
              if ln.startswith("PASS ")]
    failed = [ln for ln in lines if ln.startswith("FAIL ")]
    if failed:
        problems.append(f"failing properties: {failed}")
    if sorted(passed) != sorted(VERIFY_CHECKS):
        problems.append(f"passing properties {passed} are not the nine "
                        f"expected")
    summary = f"{len(VERIFY_CHECKS)}/{len(VERIFY_CHECKS)} properties hold"
    if summary not in lines:
        problems.append(f"summary line {summary!r} missing")
    return problems
