"""Each checker accepts a consistent output and rejects a corrupted one.

Outputs are synthesised from Telatar's integral in the program's CSV format;
the program itself is never run here.
"""

import pytest

from checks import (HEADER, REGION_FIELDS, VERIFY_CHECKS, check_region,
                    check_sweep, check_verify, linear, region_expectations,
                    sweep_expectations)

SEED, TRIALS, ERR = 7, 20000, 0.01
GRID = (0.0, 20.0, 40.0)
WIDE_GRID = tuple(float(g) for g in range(0, 41, 10))


def fmt(value):
    return format(float(value), ".12g")


def to_csv(rows):
    lines = [",".join(HEADER)]
    for snr, metric, value, err, trials in rows:
        lines.append(f"{fmt(snr)},{metric},{fmt(value)},{fmt(err)},{trials},"
                     f"{SEED}")
    return "\n".join(lines) + "\n"


def region_rows(shift=None):
    rows = []
    for g in GRID:
        expected = region_expectations(2, 2, 2, linear(g))
        for scheme in ("cap", "cdd"):
            i1, i2, isum = expected[scheme]
            if shift == (g, scheme):
                # moves the sum rate and both corners together, so only the
                # comparison with the integral can notice
                isum += 10 * ERR
            values = dict(i1=i1, i2=i2, isum=isum, corner_a_r1=i1,
                          corner_a_r2=isum - i1, corner_b_r1=isum - i2,
                          corner_b_r2=i2)
            rows += [(g, f"region_{scheme}_{f}", values[f], ERR, TRIALS)
                     for f in REGION_FIELDS]
    return rows


def sweep_rows(shift_at=None):
    rows = []
    for g in WIDE_GRID:
        cap, cdd = sweep_expectations(8, 4, 8, linear(g))
        if g == shift_at:
            cdd += 10 * ERR
        rows += [(g, "cap_mc", cap, ERR, TRIALS),
                 (g, "cdd_mc", cdd, ERR, TRIALS),
                 (g, "rc_lb", cdd - 0.5, 0, 0), (g, "rc_ub", cdd + 0.5, 0, 0),
                 (g, "cap_lb", cap - 0.5, 0, 0)]
    return rows


def region(rows):
    return check_region(to_csv(rows), GRID, 2, 2, TRIALS, SEED)


def sweep(rows):
    return check_sweep(to_csv(rows), WIDE_GRID, 8, 4, 8, TRIALS, SEED)


def test_consistent_outputs_pass():
    assert region(region_rows()) == []
    assert sweep(sweep_rows()) == []


@pytest.mark.parametrize("scheme", ["cap", "cdd"])
def test_region_rejects_shifted_value(scheme):
    problems = region(region_rows(shift=(20.0, scheme)))
    assert len(problems) == 1 and "standard errors" in problems[0]


def test_region_rejects_missing_row():
    problems = region(region_rows()[:-1])
    assert problems and "missing rows" in problems[0]


def test_region_rejects_corner_off_single_user_rate():
    rows = region_rows()
    at = next(i for i, r in enumerate(rows)
              if r[:2] == (40.0, "region_cdd_corner_a_r1"))
    snr, metric, value, err, trials = rows[at]
    rows[at] = (snr, metric, value + 1e-6, err, trials)
    assert any("corner rate differs" in p for p in region(rows))


def test_region_rejects_wrong_seed_column():
    text = to_csv(region_rows())
    assert check_region(text, GRID, 2, 2, TRIALS, SEED + 1)


def test_sweep_rejects_shifted_value():
    problems = sweep(sweep_rows(shift_at=20.0))
    assert any("standard errors" in p for p in problems)


def test_sweep_rejects_missing_row():
    problems = sweep(sweep_rows()[1:])
    assert problems and "missing rows" in problems[0]


def test_sweep_rejects_bound_below_the_rate():
    rows = [(g, m, v - 1.0 if m == "rc_ub" and g == 30.0 else v, e, t)
            for g, m, v, e, t in sweep_rows()]
    assert any("rc bounds" in p for p in sweep(rows))


def transcript(fail=None):
    lines = [f"{'FAIL' if name == fail else 'PASS'} {name}: detail"
             for name in VERIFY_CHECKS]
    held = len(VERIFY_CHECKS) - (fail is not None)
    return "\n".join(lines + [f"{held}/{len(VERIFY_CHECKS)} properties hold"])


def test_verify_accepts_nine_passes():
    assert check_verify(transcript(), 0) == []


def test_verify_rejects_one_fail_line():
    assert check_verify(transcript(fail="dual-path"), 0)
    assert check_verify(transcript(fail="dual-path"), 1)
