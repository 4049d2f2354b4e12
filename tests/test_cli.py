"""Command-line interface tests: config handling, CSV schema, exit codes,
verify mode, and schedule-independent output."""

import csv
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cddmac import channel, cli, rates, region
from cddmac.channel import SystemConfig
from cddmac.cli import main
from test_rates import index_order_sum

ROOT = Path(__file__).resolve().parent.parent
HEADER = ["snr_db", "metric", "value_bits", "stderr_bits", "trials", "seed"]


def run_cli(*argv, cwd=None):
    return subprocess.run([sys.executable, "-m", "cddmac", *argv],
                          capture_output=True, text=True, cwd=cwd)


def read_rows(path):
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    assert header == HEADER
    return rows


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# two-point sweep, every closed-form metric\n"
        "users = 1\n"
        "n_tx = 2\n"
        "n_rx = 1\n"
        "snr_db = 0,10\n"
        "trials = 200   # comment after value\n"
        "seed = 3\n"
        "metrics = cdd_mc,cap_mc,rc_lb,rc_lb_jensen,rc_ub,cap_lb,"
        "cap_lb_jensen,gap\n"
    )
    return path


def test_config_run_schema_and_values(config_file, tmp_path):
    out = tmp_path / "res.csv"
    assert main(["--config", str(config_file), "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 16  # 2 SNR points x 8 metrics
    metrics = {row[1] for row in rows}
    assert metrics == {"cdd_mc", "cap_mc", "rc_lb", "rc_lb_jensen", "rc_ub",
                       "cap_lb", "cap_lb_jensen", "gap"}
    by_metric = {}
    for snr_db, metric, value, stderr, trials, seed in rows:
        assert float(snr_db) in (0.0, 10.0)
        float(value)  # parses
        assert seed == "3"
        by_metric.setdefault(metric, []).append(
            (float(snr_db), float(value), float(stderr), int(trials)))
    for metric in ("rc_lb", "rc_ub", "cap_lb", "gap"):
        for _, _, stderr, trials in by_metric[metric]:
            assert stderr == 0.0 and trials == 0
    for metric in ("cdd_mc", "cap_mc"):
        for _, _, stderr, trials in by_metric[metric]:
            assert stderr > 0.0 and trials == 200
    # the gap rows carry the SNR-independent high-SNR constant
    gap_vals = {value for _, value, _, _ in by_metric["gap"]}
    assert len(gap_vals) == 1
    # sanity: MC cdd at 10 dB sits inside the closed-form sandwich
    cdd10 = dict((s, v) for s, v, _, _ in by_metric["cdd_mc"])[10.0]
    rc_lb10 = dict((s, v) for s, v, _, _ in by_metric["rc_lb"])[10.0]
    rc_ub10 = dict((s, v) for s, v, _, _ in by_metric["rc_ub"])[10.0]
    assert rc_lb10 - 0.2 <= cdd10 <= rc_ub10 + 0.2


def test_flags_override_config(config_file, tmp_path):
    out = tmp_path / "res.csv"
    assert main(["--config", str(config_file), "--out", str(out),
                 "--trials", "300", "--metrics", "cdd_mc"]) == 0
    rows = read_rows(out)
    assert all(row[1] == "cdd_mc" and row[4] == "300" for row in rows)


def test_scenario_figure2_reduced(tmp_path):
    out = tmp_path / "f2.csv"
    assert main(["--scenario", "figure2", "--trials", "250",
                 "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 54  # 9 SNR x 3 metrics x 2 antenna configs
    metrics = {row[1] for row in rows}
    assert metrics == {"cap_mc_nrx1", "cdd_mc_nrx1", "rc_lb_nrx1",
                       "cap_mc_nrx2", "cdd_mc_nrx2", "rc_lb_nrx2"}
    assert {row[0] for row in rows} == {"0", "5", "10", "15", "20", "25",
                                        "30", "35", "40"}


def test_scenario_figure3_region_rows(tmp_path):
    out = tmp_path / "f3.csv"
    assert main(["--scenario", "figure3", "--trials", "120",
                 "--out", str(out)]) == 0
    rows = read_rows(out)
    names = {row[1] for row in rows}
    for scheme in ("cap", "cdd"):
        for part in ("i1", "i2", "isum", "corner_a_r1", "corner_a_r2",
                     "corner_b_r1", "corner_b_r2"):
            assert f"region_{scheme}_{part}" in names
    assert len(rows) == 3 * 14  # 3 SNR points x (7 rows x 2 schemes)
    # corner coordinates are consistent with the constraint rows
    table = {(row[0], row[1]): float(row[2]) for row in rows}
    for snr_db in ("0", "20", "40"):
        i1 = table[(snr_db, "region_cap_i1")]
        isum = table[(snr_db, "region_cap_isum")]
        a1 = table[(snr_db, "region_cap_corner_a_r1")]
        a2 = table[(snr_db, "region_cap_corner_a_r2")]
        assert a1 == pytest.approx(i1, abs=1e-9)
        assert a1 + a2 == pytest.approx(isum, abs=1e-9)


def test_scenario_figure3_draws_each_trial_once(tmp_path, monkeypatch):
    # every SNR point, both schemes, the sum-rate metrics and every
    # receive-antenna count share one pass over the trials
    drawn = []
    real = rates.sample_channel_block

    def counting(cfg, start, stop):
        drawn.append(stop - start)
        return real(cfg, start, stop)

    for module in (cli, rates, region):
        monkeypatch.setattr(module, "sample_channel_block", counting)
    out = tmp_path / "f3.csv"
    two_rx = tmp_path / "two_rx.cfg"
    two_rx.write_text("n_rx = 1,2\n")
    for flags, n_rows in (((), 3 * 14),
                          (("--metrics", "region,cdd_mc,cap_mc"),
                           3 * 14 + 3 * 2),
                          (("--config", str(two_rx)), 2 * 3 * 14),
                          (("--config", str(two_rx), "--metrics",
                            "region,cdd_mc,cap_mc"), 2 * (3 * 14 + 3 * 2))):
        drawn.clear()
        assert main(["--scenario", "figure3", "--trials", "5000",
                     "--out", str(out), *flags]) == 0
        assert sum(drawn) == 5000   # once, however many n_rx
        assert len(read_rows(out)) == n_rows


def test_receive_antenna_counts_hold_one_config_at_a_time(tmp_path):
    # a chunk evaluates its configs one at a time, each reduced before the
    # next, so four n_rx on a 401-point grid peak within 10 % of the widest
    # alone, in one chunk and in two (where the widest alone evaluates its
    # second chunk next to the first one's workspace)
    def peak(n_rx, trials):
        spec = cli.build_spec({
            **cli.DEFAULTS, "users": "2", "n_tx": "2", "n_rx": n_rx,
            "snr_db": "0:40:0.1", "trials": str(trials),
            "out": str(tmp_path / "peak.csv")})
        assert len(spec.snr_db) == 401
        tracemalloc.start()
        try:
            assert cli.run(spec) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for trials in (channel.CHUNK, 2 * channel.CHUNK):
        alone = peak("4", trials)
        assert peak("1,2,3,4", trials) <= 1.1 * alone, trials


def test_scenario_figure4_metrics(tmp_path):
    out = tmp_path / "f4.csv"
    assert main(["--scenario", "figure4", "--trials", "100",
                 "--snr-db", "0,20", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert {row[1] for row in rows} == {"cap_mc", "cap_lb", "rc_ub",
                                        "cdd_mc", "rc_lb"}
    assert len(rows) == 10


def test_negative_grid_attached_to_flag(tmp_path):
    # a grid starting with '-' must be attached with '=', or argparse takes
    # it for an option
    out = tmp_path / "neg.csv"
    assert main(["--scenario", "figure2", "--metrics", "rc_lb",
                 "--snr-db=-10:0:5", "--out", str(out)]) == 0
    assert sorted({float(row[0]) for row in read_rows(out)}) == \
        [-10.0, -5.0, 0.0]


def test_same_seed_same_bytes_any_workers(config_file, tmp_path):
    outs = []
    for name, workers in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "2")):
        out = tmp_path / name
        assert main(["--config", str(config_file), "--out", str(out),
                     "--workers", workers]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_different_seed_different_bytes(config_file, tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    main(["--config", str(config_file), "--out", str(out_a)])
    main(["--config", str(config_file), "--out", str(out_b), "--seed", "4"])
    assert out_a.read_bytes() != out_b.read_bytes()


def test_plot_script_emitted(config_file, tmp_path):
    out = tmp_path / "res.csv"
    script = tmp_path / "plot.py"
    assert main(["--config", str(config_file), "--out", str(out),
                 "--plot-script", str(script)]) == 0
    text = script.read_text()
    assert text.startswith("#!/usr/bin/env python3")
    for column in HEADER:
        assert column in text
    assert str(out) in text


def test_plot_script_on_the_output_csv_is_usage_error(tmp_path, monkeypatch,
                                                      capsys):
    # the script used to replace the CSV it was written for, with exit 0
    monkeypatch.chdir(tmp_path)
    assert main(["--scenario", "figure3", "--trials", "200", "--out",
                 "x.csv", "--plot-script", str(tmp_path / "x.csv")]) == 2
    assert "--plot-script" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--out", "--plot-script"])
def test_output_on_the_config_file_is_usage_error(tmp_path, monkeypatch,
                                                  capsys, flag):
    # either output used to overwrite the config it was read from, exit 0
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "own.cfg"
    cfg.write_text("n_rx = 2\nsnr_db = 0,10\ntrials = 50\n")
    before = cfg.read_bytes()
    argv = ["--config", "own.cfg", flag, str(cfg)]
    if flag == "--plot-script":
        argv += ["--out", "x.csv"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert flag in err and "--config" in err
    assert cfg.read_bytes() == before
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("flag", ["--out", "--plot-script"])
def test_output_hard_linked_to_the_config_is_usage_error(tmp_path, monkeypatch,
                                                         capsys, flag):
    # another name of the config's file: its resolved path differs, and a
    # run used to replace the config with its output, exit 0
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "own.cfg"
    cfg.write_text("n_rx = 2\nsnr_db = 0,10\ntrials = 50\n")
    before = cfg.read_bytes()
    try:
        os.link(cfg, tmp_path / "link.csv")
    except OSError as exc:
        pytest.skip(f"no hard links here: {exc}")
    argv = ["--config", "own.cfg", flag, "link.csv"]
    if flag == "--plot-script":
        argv += ["--out", "x.csv"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and flag in err
    assert cfg.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv",
                                                          "own.cfg"]


def test_nul_byte_in_config_out_is_usage_error(tmp_path, monkeypatch,
                                               capsys):
    # os.path.realpath raised "embedded null byte", a traceback with exit 1
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "nul.cfg"
    cfg.write_bytes(b"out = a\0b.csv\nmetrics = rc_lb\nsnr_db = 0,10\n")
    assert main(["--config", "nul.cfg"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: out: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [cfg]


# --- usage errors (exit 2) ----------------------------------------------


def test_requires_scenario_or_config(capsys):
    assert main([]) == 2
    assert "scenario" in capsys.readouterr().err


@pytest.mark.parametrize("flags,needle", [
    (("--metrics", "bogus"), "metrics"),
    (("--trials", "1"), "trials"),
    (("--snr-db", "10:0:5"), "snr_db"),
    (("--snr-db", "0:10:0"), "snr_db"),
    (("--snr-db", "abc"), "snr_db"),
    (("--workers", "0"), "workers"),
    (("--seed", "-1"), "seed"),
    (("--snr-db", "nan"), "snr_db"),
    (("--snr-db", "inf"), "snr_db"),
    (("--snr-db", "0,4000"), "snr_db"),
    (("--snr-db", "3080"), "snr_db"),
    (("--seed", "18446744073709551616"), "seed"),
    (("--verify", "--seed", "-1"), "seed"),
    (("--verify", "--seed", "18446744073709551616"), "seed"),
    (("--snr-db=0:40:1e-12",), "snr_db"),
    (("--snr-db", "0:100:0.001"), "snr_db"),  # 100001 points
    (("--metrics=",), "metrics"),  # an empty flag is checked, not dropped
    (("--snr-db=",), "snr_db"),
    (("--trials", "abc"), "trials"),
    (("--verify", "--seed="), "seed"),
    (("--snr-db=-3000.5",), "snr_db"),
])
def test_usage_errors_name_offending_field(tmp_path, capsys, flags, needle):
    out = tmp_path / "x.csv"
    code = main(["--scenario", "figure2", "--out", str(out), *flags])
    assert code == 2
    assert needle in capsys.readouterr().err
    assert not out.exists()


def test_grid_point_limit():
    assert len(cli._parse_grid("0:99.999:0.001")) == 100000
    listed = [str(i / 1000) for i in range(100001)]
    assert len(cli._parse_grid(",".join(listed[:-1]))) == 100000
    with pytest.raises(cli.UsageError, match="snr_db"):
        cli._parse_grid(",".join(listed))


@pytest.mark.parametrize("line,field", [
    ("n_rx = 2,2", "n_rx"),
    ("metrics = rc_lb,rc_lb", "metrics"),
    ("snr_db = 0,0", "snr_db"),
    ("snr_db = 1,1.0000000000001", "snr_db"),  # both print as 1
])
def test_repeated_key_is_usage_error(tmp_path, capsys, line, field):
    # each would write its rows twice under one label
    cfg = tmp_path / "dup.cfg"
    cfg.write_text(f"metrics = rc_lb\n{line}\n")
    out = tmp_path / "dup.csv"
    assert main(["--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert field in err and "twice" in err
    assert not out.exists()


def test_config_key_given_twice_is_usage_error(tmp_path, capsys):
    # the later line used to win silently: this ran 3 users
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("users = 2\n# note\nusers = 3\nmetrics = rc_lb\n")
    out = tmp_path / "twice.csv"
    assert main(["--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "'users'" in err and "twice" in err
    assert f"{cfg}:1" in err and f"{cfg}:3" in err
    assert not out.exists()


def test_region_requires_two_users(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("users = 3\nmetrics = region\n")
    assert main(["--config", str(cfg)]) == 2
    assert "users" in capsys.readouterr().err


def test_gap_note_goes_to_stderr(tmp_path, capsys):
    # the high-SNR gap needs n_rx <= users, so this config skips it
    cfg = tmp_path / "gap.cfg"
    cfg.write_text("users = 1\nn_tx = 2\nn_rx = 2\nsnr_db = 0,10\n"
                   "metrics = gap\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "g.csv")]) \
        == 0
    captured = capsys.readouterr()
    assert "note: gap skipped for n_rx=2" in captured.err
    assert "note: gap skipped" not in captured.out


def test_csv_row_order(tmp_path):
    # per n_rx: Monte-Carlo rows (cdd_mc before cap_mc), then closed-form
    # rows in the order metrics lists them, then region rows
    cfg = tmp_path / "order.cfg"
    cfg.write_text("users = 2\nn_tx = 2\nn_rx = 1,2\nsnr_db = 0,10\n"
                   "trials = 50\nmetrics = rc_ub,region,cap_mc,cap_lb_jensen,"
                   "cdd_mc,rc_lb\n")
    out = tmp_path / "order.csv"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    expected = []
    for tag in ("_nrx1", "_nrx2"):
        for metric in ("cdd_mc", "cap_mc", "rc_ub", "cap_lb_jensen", "rc_lb"):
            expected += [metric + tag] * 2
        expected += [f"region_{scheme}_{label}{tag}" for point in (0, 10)
                     for scheme in ("cap", "cdd")
                     for label, _ in region.REGION_ROWS]
    assert [row[1] for row in read_rows(out)] == expected


def test_bound_rows_call_the_bounds_module_per_row(tmp_path, monkeypatch):
    # a wrapper set on cli.bnd after import must see every closed-form row
    names = ("rc_lower_bound", "cap_lower_bound", "jensen_collapsed_bounds",
             "rc_upper_bound")
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    for name in names:
        monkeypatch.setattr(cli.bnd, name,
                            counted(name, getattr(cli.bnd, name)))
    cfg = tmp_path / "bounds.cfg"
    cfg.write_text("n_rx = 2\nsnr_db = 0,10\nmetrics = rc_lb,rc_lb_jensen,"
                   "rc_ub,cap_lb,cap_lb_jensen\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "b.csv")]) \
        == 0
    assert sorted(set(calls)) == sorted(names)


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("wibble = 3\n")
    assert main(["--config", str(cfg)]) == 2
    assert "wibble" in capsys.readouterr().err


def test_config_bad_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("users 3\n")
    assert main(["--config", str(cfg)]) == 2
    assert "key=value" in capsys.readouterr().err


def test_unknown_metric_lists_every_metric_in_order(capsys):
    assert main(["--scenario", "figure2", "--metrics", "foo"]) == 2
    assert capsys.readouterr().err == (
        "usage error: metrics: unknown metric 'foo' (choose from cdd_mc, "
        "cap_mc, rc_lb, rc_lb_jensen, rc_ub, cap_lb, cap_lb_jensen, gap, "
        "region)\n")


def test_config_missing_file(tmp_path):
    assert main(["--config", str(tmp_path / "nope.cfg")]) == 2


def test_config_that_is_not_text_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "utf16.cfg"
    cfg.write_bytes(b"\xff\xfe")                # a UTF-16 byte-order mark
    assert main(["--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: config: cannot read {cfg}: ")
    assert err.count("\n") == 1


def test_unknown_scenario_in_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("scenario = figure9\n")
    assert main(["--config", str(cfg)]) == 2
    assert "figure9" in capsys.readouterr().err


def test_scenario_flag_wins_over_config_scenario(tmp_path, monkeypatch,
                                                 capsys):
    cfg = tmp_path / "f.cfg"
    cfg.write_text("scenario = bogus\ntrials = 50\nsnr_db = 0,10\n")
    monkeypatch.chdir(tmp_path)
    assert main(["--scenario", "figure2", "--config", str(cfg)]) == 2
    assert "bogus" in capsys.readouterr().err
    assert not (tmp_path / "bogus.csv").exists()
    cfg.write_text("scenario = figure4\ntrials = 50\nsnr_db = 0,10\n")
    plot = tmp_path / "plot.py"
    assert main(["--scenario", "figure2", "--config", str(cfg),
                 "--plot-script", str(plot)]) == 0
    assert not (tmp_path / "figure4.csv").exists()
    metrics = {row[1] for row in read_rows(tmp_path / "figure2.csv")}
    assert {"cdd_mc_nrx1", "cdd_mc_nrx2"} <= metrics  # figure2's recipe
    assert "(scenario 'figure2')" in plot.read_text()


def test_unknown_scenario_flag_rejected():
    proc = run_cli("--scenario", "figure9")
    assert proc.returncode == 2


# --- I/O errors (exit 1) ------------------------------------------------


def test_unwritable_output_path(config_file, capsys):
    assert main(["--config", str(config_file),
                 "--out", "/nonexistent-dir/res.csv"]) == 1
    assert "I/O error" in capsys.readouterr().err


def test_out_of_memory_is_one_runtime_error_line(config_file, tmp_path,
                                                 monkeypatch, capsys):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 61.0 GiB for an array")

    monkeypatch.setattr(cli, "run_chunks", no_memory)
    out = tmp_path / "res.csv"
    assert main(["--config", str(config_file), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["runtime error: out of memory (Unable to "
                                "allocate 61.0 GiB for an array)"]
    assert not out.exists()


# (field, value, accepted) at each integer rule's boundary
INTEGER_BOUNDARIES = [
    ("users", 0, False), ("users", 1, True),
    ("n_tx", 0, False), ("n_tx", 1, True),
    ("n_rx", 0, False), ("n_rx", 1, True),
    ("trials", 1, False), ("trials", 2, True),
    ("workers", 0, False), ("workers", 1, True),
    ("seed", -1, False), ("seed", 0, True),
    ("seed", 2**64 - 1, True), ("seed", 2**64, False),
]


@pytest.mark.parametrize("verify,field,value,accepted", [
    *((False, *case) for case in INTEGER_BOUNDARIES),
    *((True, *case) for case in INTEGER_BOUNDARIES if case[0] == "seed"),
])
def test_integer_boundaries(tmp_path, capsys, verify, field, value,
                            accepted):
    # which values a run and --verify accept: a refusal is exit 2 naming
    # the field and writes nothing
    out = tmp_path / "edge.csv"
    if verify:
        code = main(["--verify", f"--seed={value}"])
    else:
        settings = dict(users=1, n_tx=1, n_rx=1, snr_db=0, metrics="cdd_mc",
                        trials=2, seed=0, workers=1)
        settings[field] = value
        cfg = tmp_path / "edge.cfg"
        cfg.write_text("".join(f"{key} = {val}\n"
                               for key, val in settings.items()))
        code = main(["--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    if accepted:
        assert code == 0, err
    else:
        assert code == 2 and field in err
        assert not out.exists()


# the most channel entries per trial for which a chunk of channels is an
# array numpy can index (2**47 - 1 on 64-bit platforms)
MOST_ENTRIES = np.iinfo(np.intp).max // (16 * channel.CHUNK)


@pytest.mark.parametrize("users,metric", [
    (10**18, "cdd_mc"), (10**19, "rc_lb"), (10**19, "cap_lb"),
    (10**19, "gap"), (MOST_ENTRIES + 1, "cdd_mc"), (MOST_ENTRIES + 1, "gap"),
])
def test_count_numpy_cannot_index_is_usage_error(tmp_path, capsys, users,
                                                 metric):
    # these were a ValueError traceback from the sampler's np.empty or
    # harmonic's np.arange, and for gap "wrote 0 rows" with exit 0
    cfg = tmp_path / "big.cfg"
    cfg.write_text(f"users = {users}\nmetrics = {metric}\nsnr_db = 0,20\n")
    out = tmp_path / "big.csv"
    assert main(["--config", str(cfg), "--out", str(out)]) == 2
    assert "users" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.skipif(MOST_ENTRIES < 2**40, reason="64-bit address space")
def test_largest_indexable_count_is_one_runtime_error_line(tmp_path, capsys):
    # at the limit a chunk is an array numpy can index, but its 8 EiB
    # cannot be allocated
    cfg = tmp_path / "big.cfg"
    cfg.write_text(f"users = {MOST_ENTRIES}\nmetrics = cdd_mc\n")
    out = tmp_path / "big.csv"
    assert main(["--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("runtime error: out of memory")
    assert not out.exists()


def test_lower_bounds_at_a_billion_users_and_3000_db_are_finite(tmp_path):
    # snr * e^(H - gamma) passed the double range here: the lower bounds
    # were inf, with exit 0
    cfg = tmp_path / "billion.cfg"
    cfg.write_text("users = 1000000000\nn_rx = 1\nsnr_db = 0,3000\n"
                   "metrics = rc_lb,rc_lb_jensen,rc_ub,cap_lb,cap_lb_jensen\n")
    out = tmp_path / "billion.csv"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 10
    assert all(math.isfinite(float(row[2])) for row in rows)


def test_grid_floor_is_minus_3000_db(tmp_path):
    # -3000 dB is snr 1e-300 exactly; there every Monte-Carlo row keeps a
    # positive stderr, where its squared values would underflow
    assert cli._parse_grid("-3000") == (-3000.0,)
    out = tmp_path / "floor.csv"
    assert main(["--scenario", "figure2", "--trials", "200", "--snr-db=-3000",
                 "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 6
    assert all(0 < float(row[2]) < 1e-298 for row in rows)
    assert all(float(row[3]) > 0 for row in rows if "_mc" in row[1])


# --- verify mode --------------------------------------------------------


def test_verify_passes_and_is_deterministic():
    first = run_cli("--verify")
    second = run_cli("--verify")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    lines = [l for l in first.stdout.splitlines() if l.startswith("PASS")]
    assert len(lines) == 9
    assert "FAIL" not in first.stdout


def test_sandwich_kernel_shared_draw_equals_per_config():
    grid = np.array([1.0, 100.0])
    cfgs = [SystemConfig(users=users, n_tx=n_tx, n_rx=n_rx,
                         trials=rates.CHUNK + 100, seed=2026)
            for users, n_tx, n_rx in ((1, 2, 1), (2, 2, 2), (4, 2, 1))]

    def excess(cfgs):
        return cli._sandwich_excess(cfgs, grid,
                                    cli._sandwich_estimates(cfgs, grid))

    assert excess(cfgs) == [excess([cfg])[0] for cfg in cfgs]


def test_digamma_kernel_shared_draw_equals_per_count():
    counts = (1, 2, 4)
    assert cli._digamma_error(counts, 5000, 99) \
        == tuple(cli._digamma_error((k,), 5000, 99)[0] for k in counts)


@pytest.mark.parametrize("n_tx", [4, 9])
def test_log_bin_gains_are_the_bin_mean_of_ln_d(n_tx):
    # the digamma kernel's gains are the sweep's row powers of the
    # antenna-0 bins, in index order, and their logs are averaged in bin
    # order
    cfg = SystemConfig(users=5, n_tx=n_tx, n_rx=2, trials=3000, seed=8)
    block = channel.sample_channel_block(cfg, 0, cfg.trials)
    bins = channel.reduce_to_parallel(block)[:, :, 0]        # (B, T, K)
    d = index_order_sum(np.square(bins.real) + np.square(bins.imag))
    expected = index_order_sum(np.log(d)) / n_tx
    assert cli._log_bin_gains(block).tobytes() == expected.tobytes()


@pytest.mark.parametrize("flag,value", [
    ("--scenario", "figure2"), ("--config", "exp.cfg"), ("--snr-db", "0,10"),
    ("--trials", "5"), ("--metrics", "cdd_mc"), ("--out", "x.csv"),
    ("--workers", "8"), ("--plot-script", "plot.py"),
])
def test_verify_refuses_run_flags(tmp_path, monkeypatch, capsys, flag,
                                  value):
    # these used to be ignored: the self-check ran and nothing was written
    monkeypatch.chdir(tmp_path)
    (tmp_path / "exp.cfg").write_text("users = 1\n")
    assert main(["--verify", "--seed", "3", flag, value]) == 2
    captured = capsys.readouterr()
    assert flag in captured.err
    assert "PASS" not in captured.out
    assert list(tmp_path.iterdir()) == [tmp_path / "exp.cfg"]


def _reversed_permutation(n_tx, n_rx):
    """A wrong bin grouping: the true permutation's columns reversed."""
    perm = channel.shuffle_permutation(n_tx, n_rx)
    return perm[:, ::-1] if perm.shape[0] >= 2 else perm


def test_verify_corrupt_permutation_negative_control(monkeypatch, capsys):
    # a wrong bin grouping must show as a block-diagonalization leak
    monkeypatch.setattr(cli, "shuffle_permutation", _reversed_permutation)
    assert cli.verify(seed=0) == 1
    out = capsys.readouterr().out
    assert "FAIL dual-path" in out
    assert "8/9 properties hold" in out


def test_verify_determinism_negative_control(monkeypatch, capsys):
    # a repeated sweep whose cdd means move by one ulp must fail the
    # bit-for-bit comparison
    true_sweep = cli.monte_carlo_sweep
    calls = []

    def drifting_sweep(*args, **kwargs):
        got = true_sweep(*args, **kwargs)
        calls.append(None)
        if len(calls) == 2:
            means, errs = got["cdd"]
            got["cdd"] = (np.nextafter(means, np.inf), errs)
        return got

    monkeypatch.setattr(cli, "monte_carlo_sweep", drifting_sweep)
    assert cli.verify(seed=0) == 1
    out = capsys.readouterr().out
    assert "FAIL determinism" in out
    assert "8/9 properties hold" in out
    assert len(calls) == 2


def test_verify_same_bytes_at_any_thread_count(monkeypatch, capsys):
    # one usable CPU or two, the same stdout; on two, the sandwich, digamma,
    # gap and second determinism sweeps each ran on a two-thread pool
    pools = {}
    running = []

    class RecordingPool(rates.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.setdefault(running[-1], []).append(max_workers)
            super().__init__(max_workers=max_workers)

    def named(name, check):
        def run(rng):
            running.append(name)
            return check(rng)
        return run

    monkeypatch.setattr(rates, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli, "CHECKS", tuple((name, named(name, check))
                                             for name, check in cli.CHECKS))
    # run_chunks' own CPU cap, so that two threads run on any machine
    monkeypatch.setattr(rates, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    assert cli.verify(seed=0) == 0
    serial = capsys.readouterr().out
    assert pools == {}
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    assert cli.verify(seed=0) == 0
    assert capsys.readouterr().out == serial
    assert pools == {"bound-sandwich": [2], "digamma-identity": [2],
                     "gap-convergence": [2], "determinism": [2]}


def test_verify_determinism_negative_control_on_threads(monkeypatch, capsys):
    # a pool that moves the first chunk's sums up by the fewest ulps that
    # reach a mean: only the determinism check, which compares the serial
    # bits with the threaded ones, fails.  One ulp can be rounded away when
    # the second chunk's sums are added and the total divided by the trial
    # count.  A reversed reduction would not serve: at its two chunks
    # a + b == b + a
    steps = 0

    class DriftingPool:
        def __init__(self, max_workers):
            pass

        def map(self, fn, *iterables):
            parts = list(map(fn, *iterables))
            first = []
            for sums, squares, exps in parts[0]:            # by config
                for _ in range(steps):
                    sums = np.nextafter(sums, np.inf)
                first.append((sums, squares, exps))
            parts[0] = first
            return parts

        def shutdown(self, cancel_futures):
            pass

    true_sweep = cli.monte_carlo_sweep
    sweeps = []

    def recording_sweep(*args, **kwargs):
        sweeps.append(true_sweep(*args, **kwargs))
        return sweeps[-1]

    monkeypatch.setattr(rates, "ThreadPoolExecutor", DriftingPool)
    monkeypatch.setattr(rates, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(cli, "monte_carlo_sweep", recording_sweep)
    for steps in range(1, 5):
        if not cli._check_determinism(None)[0]:
            break
    else:
        pytest.fail("four ulps on the first chunk's sums reach no mean")
    serial, threaded = sweeps[-2:]
    ulps = [np.abs(threaded[m][0] - serial[m][0]) / np.spacing(serial[m][0])
            for m in ("cdd", "cap")]
    assert 0 < np.max(ulps) <= 4
    assert cli.verify(seed=0) == 1
    out = capsys.readouterr().out
    assert [line.split(":")[0] for line in out.splitlines()
            if line.startswith("FAIL")] == ["FAIL determinism"]
    assert "8/9 properties hold" in out


def _capacity_below_cdd(monkeypatch):
    true_capacity = cli.sum_capacity
    monkeypatch.setattr(cli, "sum_capacity", lambda block, snr: np.minimum(
        true_capacity(block, snr), cli.rate_cdd(block, snr) - 1e-6))


def _upper_bound_lowered(monkeypatch):
    # 0.25 bits; at the check's seed and sizes about 0.13 bits already fail
    true_bound = cli._BOUNDS["rc_ub"]
    monkeypatch.setitem(cli._BOUNDS, "rc_ub",
                        lambda *args: true_bound(*args) - 0.25)


def _gap_shifted(monkeypatch):
    # 0.1 bits; at the check's seed and sizes about 0.05 bits already fail
    true_gap = cli.bnd.gap_high_snr
    monkeypatch.setattr(cli.bnd, "gap_high_snr", lambda *args: tuple(
        value + 0.1 for value in true_gap(*args)))


def _psi_residual_rising(monkeypatch):
    true_check = cli.bnd.psi_limit_check

    def rising(n_tx, k_max):
        res = true_check(n_tx, k_max)
        res[-1] = res[-2] + 1e-12           # still small, but no longer falls
        return res

    monkeypatch.setattr(cli.bnd, "psi_limit_check", rising)


def _dft_unnormalized(monkeypatch):
    # the dual-path check rotates the effective channel with the same
    # cli.dft_matrix, so its block-diagonalization leak fails too
    true_dft = cli.dft_matrix
    monkeypatch.setattr(cli, "dft_matrix",
                        lambda n: true_dft(n) * np.sqrt(n))


def _codeword_shifted_left(monkeypatch):
    # a left-shift codeword is complex symmetric, diagonalized by the
    # congruence D G D, not by the similarity D G D^H
    def shifted_left(symbols):
        x = np.asarray(symbols)
        n = x.size
        return x[(np.arange(n)[None, :] + np.arange(n)[:, None]) % n]

    monkeypatch.setattr(channel, "cdd_codeword", shifted_left)


def _euler_gamma_mistyped(monkeypatch):
    # one digit off, 0.577... -> 0.677...: psi(K) is 0.1 low.  The lower
    # bounds use gamma too, but a larger gamma only lowers them, so the
    # sandwich still holds
    monkeypatch.setattr(cli.bnd, "EULER_GAMMA", 0.677215664901532861)


# check name -> (a patch that breaks the code under that check, never the
# check itself; the other checks that the patch fails too)
NEGATIVE_CONTROLS = {
    "dft-unitarity": (_dft_unnormalized, {"dual-path"}),
    "circulant-diagonalization": (_codeword_shifted_left, set()),
    "capacity-dominance": (_capacity_below_cdd, set()),
    "bound-sandwich": (_upper_bound_lowered, set()),
    "digamma-identity": (_euler_gamma_mistyped, set()),
    "gap-convergence": (_gap_shifted, set()),
    "psi-limit-residuals": (_psi_residual_rising, set()),
}


@pytest.mark.parametrize("name", NEGATIVE_CONTROLS)
def test_verify_check_negative_control(monkeypatch, capsys, name):
    patch, also_failing = NEGATIVE_CONTROLS[name]
    patch(monkeypatch)
    assert cli.verify(seed=0) == 1
    out = capsys.readouterr().out
    failed = {line.split(":")[0][len("FAIL "):]
              for line in out.splitlines() if line.startswith("FAIL ")}
    assert failed == {name} | also_failing
    assert f"{9 - len(failed)}/9 properties hold" in out


def test_benchmark_tracer_installs(tmp_path):
    # bench/layers.py wraps package names by module global; a refactor that
    # unbinds one must fail here, not only in a traced benchmark run
    script = (
        "import sys\n"
        "import layers\n"
        "from cddmac import cli\n"
        "tracer = layers.install()\n"
        "assert cli.main(['--scenario', 'figure2', '--trials', '50',\n"
        "                 '--snr-db', '0,10', '--out', sys.argv[1]]) == 0\n"
        "drawn = tracer.per_layer()['channel.trials_drawn']\n"
        "assert drawn == (50, 'count'), drawn  # both n_rx, one draw\n"
        "assert tracer.per_layer()['bounds.s'][0] > 0  # rc_lb rows\n"
        "assert cli.main(['--verify', '--seed', '1']) == 0\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "f2.csv")],
        cwd=ROOT / "bench", env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "9/9 properties hold" in proc.stdout


def test_module_entry_point_help():
    proc = run_cli("--help")
    assert proc.returncode == 0
    assert "--scenario" in proc.stdout
