"""Sweep-runner checks: output inventory, CSV schema, byte determinism, and
the CLI subcommands."""

import csv
import math
import os
import re
import signal
import statistics
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import fields, replace
from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from htpg import experiment
from htpg.cli import main
from htpg.config import ConfigError, parse_config
from htpg.diagnostics import BoundParams, NoiseModel, SmoothBump, check_bound, synthetic_sga_run
from htpg.envs import EnvSpec
from htpg.errors import ParameterError
from htpg.experiment import (
    RUN_CSV_COLUMNS,
    render_chart,
    replot,
    run_experiment,
    write_run_csv,
)
from htpg.training import PlainAscent, PowerDecay

SMALL_SWEEP = """
name = "smoke"

[env]
kind = "trapped_car"
max_steps = 60

[policy.cauchy]
alpha = 1

[policy.gaussian]
alpha = 2

[train]
episodes = 6

[run]
seeds = [1, 2, 3]
"""


@pytest.fixture
def sweep_cfg(tmp_path):
    cfg = parse_config(SMALL_SWEEP)
    return replace(cfg, out_dir=str(tmp_path / "out"))


def read_bytes_map(out_dir: Path) -> dict:
    # config.txt embeds the output path itself; the determinism contract
    # covers the data products.
    return {
        p.name: p.read_bytes()
        for p in sorted(out_dir.iterdir())
        if p.suffix in (".csv", ".svg")
    }


def test_run_experiment_outputs(sweep_cfg):
    by_family = run_experiment(sweep_cfg, max_workers=1)
    out = Path(sweep_cfg.out_dir)
    csvs = sorted(p.name for p in out.glob("*.csv"))
    assert csvs == [
        "aggregate.csv",
        "cauchy_seed1.csv", "cauchy_seed2.csv", "cauchy_seed3.csv",
        "gaussian_seed1.csv", "gaussian_seed2.csv", "gaussian_seed3.csv",
    ]
    assert (out / "returns.svg").exists()
    # Every file went through its temp file; none is left behind.
    assert sorted(p.name for p in out.iterdir()) == sorted(csvs + ["config.txt", "returns.svg"])
    assert set(by_family) == {"cauchy", "gaussian"}
    assert all(len(runs) == 3 for runs in by_family.values())

    with open(out / "cauchy_seed1.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == RUN_CSV_COLUMNS
    assert len(rows) == 1 + 6  # header + one row per episode
    assert [r[0] for r in rows[1:]] == [str(i) for i in range(6)]

    svg = (out / "returns.svg").read_text()
    assert svg.startswith("<svg")
    assert "cauchy" in svg and "gaussian" in svg


def test_run_experiment_deterministic_bytes(sweep_cfg, tmp_path):
    run_experiment(sweep_cfg, max_workers=1)
    first = read_bytes_map(Path(sweep_cfg.out_dir))
    cfg2 = replace(sweep_cfg, out_dir=str(tmp_path / "second"))
    run_experiment(cfg2, max_workers=1)
    second = read_bytes_map(Path(cfg2.out_dir))
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between reruns"


def test_run_experiment_parallel_matches_serial(sweep_cfg, tmp_path):
    run_experiment(sweep_cfg, max_workers=1)
    serial = read_bytes_map(Path(sweep_cfg.out_dir))
    cfg2 = replace(sweep_cfg, out_dir=str(tmp_path / "par"))
    run_experiment(cfg2, max_workers=2)
    parallel = read_bytes_map(Path(cfg2.out_dir))
    assert serial.keys() == parallel.keys()
    for name in serial:
        assert serial[name] == parallel[name]


def test_replot_reproduces_svg(sweep_cfg):
    run_experiment(sweep_cfg, max_workers=1)
    out = Path(sweep_cfg.out_dir)
    original = (out / "returns.svg").read_bytes()
    (out / "returns.svg").unlink()
    replot(out, ["cauchy", "gaussian"], [1, 2, 3])
    assert (out / "returns.svg").read_bytes() == original


def test_cli_train_and_replot(tmp_path, capsys):
    cfg_file = tmp_path / "exp.toml"
    cfg_file.write_text(SMALL_SWEEP)
    out_dir = tmp_path / "cli-out"
    rc = main(["train", "--config", str(cfg_file), "--out", str(out_dir)])
    assert rc == 0
    assert (out_dir / "aggregate.csv").exists()
    before = (out_dir / "returns.svg").read_bytes()
    rc = main(["train", "--config", str(cfg_file), "--out", str(out_dir), "--replot"])
    assert rc == 0
    assert (out_dir / "returns.svg").read_bytes() == before


def test_cli_train_seed_override(tmp_path):
    cfg_file = tmp_path / "exp.toml"
    cfg_file.write_text(SMALL_SWEEP)
    out_dir = tmp_path / "seeded"
    rc = main(["train", "--config", str(cfg_file), "--out", str(out_dir),
               "--seeds", "7,8"])
    assert rc == 0
    assert (out_dir / "cauchy_seed7.csv").exists()
    assert not (out_dir / "cauchy_seed1.csv").exists()


def test_cli_train_missing_config(tmp_path, capsys):
    rc = main(["train", "--config", str(tmp_path / "missing.toml")])
    assert rc == 2
    assert "not found" in capsys.readouterr().err


def test_cli_train_invalid_config(tmp_path, capsys):
    bad = tmp_path / "bad.toml"
    bad.write_text("[policy.c]\nalpha = 7\n\n[run]\nseeds = [1]\n")
    rc = main(["train", "--config", str(bad)])
    assert rc == 2


@pytest.mark.parametrize("argv, env", [
    (["train", "--seeds", "1,x"], {}),
    (["train", "--seeds", "1,1"], {}),
    (["train", "--seeds", "-1"], {}),
    (["train", "--seeds", "1,-1"], {}),
    (["train"], {"HTPG_THREADS": "two"}),
    (["train"], {"HTPG_THREADS": "0"}),
    (["train"], {"HTPG_THREADS": "-3"}),
    (["train", "--config", "latin1.toml"], {}),
    (["train", "--config", "."], {}),
    (["train", "--out", ""], {}),
    (["train", "--seeds", ""], {}),
    (["check-bound", "--n", "0"], {}),
    (["check-bound", "--b", "1.5"], {}),
    (["check-bound", "--seeds", "0"], {}),
    (["check-bound", "--y1", "nan"], {}),
    (["check-bound", "--y1", "inf"], {}),
    (["check-bound", "--y1", "1e308"], {}),
    (["check-bound", "--n", "1000000000000000", "--seeds", "1"], {}),
    (["first-exit", "--episodes", "-1"], {}),
    (["first-exit", "--seeds", "1,1"], {}),
    (["first-exit", "--out", ""], {}),
    (["train", "--config", "slash.toml"], {}),
    (["train", "--config", "nul-family.toml"], {}),
    (["train", "--config", "nul-name.toml"], {}),
    (["train", "--out", "x\0y"], {}),
    (["first-exit", "--out", "x\0y"], {}),
    (["train", "--config", "huge-budget.toml"], {}),
], ids=["seeds-not-int", "seeds-repeated", "seed-negative", "second-seed-negative",
        "threads-not-int", "threads-zero", "threads-negative", "config-not-utf8",
        "config-is-directory", "out-empty", "seeds-empty", "bound-n-0", "bound-b-1.5",
        "bound-seeds-0", "bound-y1-nan", "bound-y1-inf", "bound-y1-1e308", "bound-n-too-large",
        "first-exit-episodes-negative", "first-exit-seeds-repeated", "first-exit-out-empty",
        "family-slash", "family-nul", "name-nul", "out-nul", "first-exit-out-nul",
        "max-steps-too-large"])
def test_cli_bad_input_is_one_line_with_exit_2(argv, env, tmp_path, monkeypatch, capsys):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    monkeypatch.chdir(tmp_path)
    if argv[0] == "train":
        Path("exp.toml").write_text(SMALL_SWEEP)
        Path("latin1.toml").write_bytes("[policy.caf\xe9]\n".encode("latin-1"))
        Path("slash.toml").write_text(SMALL_SWEEP.replace("[policy.gaussian]", '[policy."a/b"]'))
        Path("nul-family.toml").write_text(
            SMALL_SWEEP.replace("[policy.gaussian]", '[policy."a\\u0000b"]'))
        # A name sets the default out, results/<name>.
        Path("nul-name.toml").write_text(SMALL_SWEEP.replace('"smoke"', '"x\\u0000y"'))
        # A float rollout draws its whole step budget's noise at once: past
        # the ceiling it is an [env] error, not a MemoryError after config.txt.
        Path("huge-budget.toml").write_text(
            SMALL_SWEEP.replace("max_steps = 60", "max_steps = 100000000000000"))
        for flag, value in (("--config", "exp.toml"), ("--out", "out")):
            if flag not in argv:
                argv = argv + [flag, value]
    files = sorted(tmp_path.rglob("*"))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == files


@pytest.mark.parametrize("argv, message", [
    (["check-bound", "--n", "abc"], "argument --n: invalid int value: 'abc'"),
    (["first-exit", "--episodes", "1.5"], "argument --episodes: invalid int value: '1.5'"),
    (["train"], "the following arguments are required: --config"),
    (["dist-tests"], "argument command: invalid choice: 'dist-tests' "
                     "(choose from 'train', 'check-bound', 'first-exit')"),
], ids=["bound-n-not-int", "first-exit-episodes-not-int", "train-without-config",
        "removed-subcommand"])
def test_cli_usage_error_is_one_line_with_exit_2(argv, message, tmp_path, monkeypatch,
                                                 capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not any(tmp_path.iterdir())


def test_cli_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["check-bound", "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: htpg check-bound")


@pytest.mark.parametrize("header, row", [
    ("episode,return", "0,1.0"),
    ("return,avg_return_100", "1.0,1.0"),
    ("episode,return,avg_return_100,update_count", "0,1.0,abc,3"),
    ("episode,return,avg_return_100,update_count", "0,1.0"),
    ("", ""),
    ("episode,return,avg_return_100,update_count", "0,1.0,nan,3"),
    ("episode,return,avg_return_100,update_count", "0,1.0,inf,3"),
], ids=["no-average-column", "no-episode-column", "average-not-a-number", "short-row",
        "empty-file", "average-nan", "average-inf"])
def test_cli_replot_of_a_malformed_csv_is_one_line_with_exit_2(header, row, tmp_path,
                                                                  capsys):
    cfg_file = tmp_path / "exp.toml"
    cfg_file.write_text(SMALL_SWEEP.replace("seeds = [1, 2, 3]", "seeds = [1]"))
    argv = ["train", "--config", str(cfg_file), "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    bad = tmp_path / "out" / "gaussian_seed1.csv"
    bad.write_text(f"{header}\n{row}\n")
    svg = (tmp_path / "out" / "returns.svg").read_bytes()
    capsys.readouterr()
    assert main(argv + ["--replot"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad} ") and err.count("\n") == 1
    assert (tmp_path / "out" / "returns.svg").read_bytes() == svg


def test_cli_replot_of_a_missing_csv_is_one_line_with_exit_1(tmp_path, capsys):
    cfg_file = tmp_path / "exp.toml"
    cfg_file.write_text(SMALL_SWEEP)
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg_file), "--out", str(out), "--replot"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "cauchy_seed1.csv" in err and err.count("\n") == 1


def test_cli_first_exit_into_an_unwritable_out_is_one_line_with_exit_1(tmp_path, capsys):
    # main owns the I/O-error exit for every subcommand, not only train.
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = ["first-exit", "--episodes", "1", "--seeds", "1,2", "--out", str(blocker / "x")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(blocker / "x") in err and err.count("\n") == 1


def test_cli_negative_seed_in_config_is_one_line_with_exit_2(tmp_path, capsys):
    cfg_file = tmp_path / "exp.toml"
    cfg_file.write_text(SMALL_SWEEP.replace("seeds = [1, 2, 3]", "seeds = [-1]"))
    out_dir = tmp_path / "out"
    assert main(["train", "--config", str(cfg_file), "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err == "error: [run] seed must be non-negative, got -1\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("name", [" gaussian", "a<b & c"])
def test_cli_quoted_family_name_trains_and_reruns_from_config_txt(name, tmp_path):
    cfg_file = tmp_path / "exp.toml"
    cfg_file.write_text(SMALL_SWEEP.replace("[policy.gaussian]", f'[policy."{name}"]')
                        .replace("seeds = [1, 2, 3]", "seeds = [1, 2]"))
    out, rerun = tmp_path / "out", tmp_path / "rerun"
    assert main(["train", "--config", str(cfg_file), "--out", str(out)]) == 0
    assert main(["train", "--config", str(out / "config.txt"), "--out", str(rerun)]) == 0
    files = ["cauchy_seed1.csv", "cauchy_seed2.csv", f"{name}_seed1.csv", f"{name}_seed2.csv",
             "aggregate.csv", "returns.svg"]
    for file in files:
        assert (out / file).read_bytes() == (rerun / file).read_bytes(), file
    legend = minidom.parse(str(out / "returns.svg")).getElementsByTagName("text")[-1]
    assert legend.firstChild.data == name


# Every return is 1e20 (the false-start reward on one-step episodes, within
# its reward_bound).  The default schedule's first update drives sigma to 0,
# so the next episode diverges; a constant step of 1e-40 keeps the policy put.
HUGE_RETURNS = """
name = "huge"

[env]
kind = "trapped_car"
false_reward = 1e20
reward_bound = 1e20
start_at_false_goal = true
max_steps = 1

[policy.cauchy]
alpha = 1

[train]
episodes = 3
"""


# Steps of 1000 from the false start: unchecked, sigma overflows to inf and
# then underflows to 0, where the score divides by it.  The first update's
# infinite sigma ends the run as a divergence.
SIGMA_UNDERFLOWS = """
name = "underflow"

[env]
kind = "trapped_car"
max_steps = 80
start_at_false_goal = true

[policy.cauchy]
alpha = 1

[train]
episodes = 6
step_rule = "constant"
alpha = 1000

[run]
seeds = [11]
"""


# Equal ends: the schedule's k = 2 step, exp(log(s)), rounds up to exactly
# 1/l1j, while step 1 passes.
LIPSCHITZ_CEILING = """
name = "ceiling"

[env]
kind = "trapped_car"

[policy.cauchy]
alpha = 1

[train]
episodes = 3
alpha_start = 0.00026362359173243805
alpha_end = 0.00026362359173243805
update_rule = "lipschitz"
l1j = 3793.2872146546697

[run]
seeds = [16]
"""


def test_lipschitz_ceiling_past_step_1_is_a_config_error(tmp_path, capsys):
    # Every step of the schedule is checked at parse time, so the run fails
    # before config.txt is written, not at its first update past the ceiling.
    message = ("[train] 1/alpha - L = 0.0 is not positive at alpha=0.0002636235917324381, "
               "L=3793.2872146546697")
    with pytest.raises(ConfigError) as raised:
        parse_config(LIPSCHITZ_CEILING)
    assert str(raised.value) == message
    cfg_file = tmp_path / "exp.toml"
    cfg_file.write_text(LIPSCHITZ_CEILING)
    out_dir = tmp_path / "out"
    assert main(["train", "--config", str(cfg_file), "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("text, csv_name, episodes, final", [
    (HUGE_RETURNS, "cauchy_seed0.csv", 1, "100000000000000000000.000"),
    (SIGMA_UNDERFLOWS, "cauchy_seed11.csv", 0, "-"),
], ids=["scale-zero-at-an-episode-start", "sigma-overflows-in-the-first-episode"])
def test_cli_scale_outside_its_range_is_a_recorded_divergence(text, csv_name, episodes, final,
                                                              tmp_path, capsys):
    # A sigma of 0 or inf ends the run as a divergence: exit 0, a diverged
    # row at the end of the run CSV and in the aggregate, and a chart.  A
    # run that finished no episode prints "-" for its final average, as
    # aggregate.csv leaves that field empty.
    cfg_file = tmp_path / "exp.toml"
    cfg_file.write_text(text)
    out_dir = tmp_path / "out"
    assert main(["train", "--config", str(cfg_file), "--out", str(out_dir)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        f"cauchy: final avg_return_100 per seed = [{final}]  (1 diverged)")
    with (out_dir / csv_name).open(newline="") as f:
        rows = list(csv.reader(f))
    assert len(rows) == episodes + 2 and rows[-1][0] == "diverged"
    with (out_dir / "aggregate.csv").open(newline="") as f:
        aggregate = list(csv.DictReader(f))
    assert [(r["episodes"], r["diverged"]) for r in aggregate] == [(str(episodes), "1")]
    assert _chart_problems((out_dir / "returns.svg").read_text()) == []


@pytest.mark.parametrize("error", [ParameterError("scale must be positive, got 0.0"),
                                   ZeroDivisionError("float division by zero")],
                         ids=["parameter-error", "arithmetic-error"])
def test_cli_training_error_is_one_line_with_exit_1(error, tmp_path, monkeypatch, capsys):
    # No config reaches an error inside training any more; a train that
    # raises one stands in for a future one.  One cell runs in this process.
    def fail(config):
        raise error

    monkeypatch.setattr(experiment, "train", fail)
    cfg_file = tmp_path / "exp.toml"
    cfg_file.write_text(SIGMA_UNDERFLOWS)
    out_dir = tmp_path / "out"
    assert main(["train", "--config", str(cfg_file), "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err == f"error: training failed: {error}\n"
    assert (out_dir / "config.txt").exists()


def test_cli_train_charts_flat_huge_returns(tmp_path):
    cfg_file = tmp_path / "exp.toml"
    cfg_file.write_text(HUGE_RETURNS + 'step_rule = "constant"\nalpha = 1e-40\n')
    out_dir = tmp_path / "out"
    assert main(["train", "--config", str(cfg_file), "--out", str(out_dir)]) == 0
    assert _chart_problems((out_dir / "returns.svg").read_text()) == []


@contextmanager
def _cpu_deadline(seconds: float):
    """Fail instead of hanging: a tick loop that makes no progress never
    ends, and grows its list all the while."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s of CPU time")

    previous = signal.signal(signal.SIGVTALRM, expire)
    signal.setitimer(signal.ITIMER_VIRTUAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, previous)


def _chart_problems(svg: str) -> list:
    """Numbers in a chart that are not finite, and points off the canvas."""
    problems = [word for word in ("inf", "nan") if word in svg]
    for points in re.findall(r'points="([^"]*)"', svg):
        for pair in points.split():
            x, y = map(float, pair.split(","))
            if not (0.0 <= x <= 800.0 and 0.0 <= y <= 480.0):
                problems.append(pair)
    return problems


@pytest.mark.parametrize("series", [
    {"c": [[1e20] * 4]},
    {"c": [[1e308] * 4]},
    {"c": [[-1e308] * 4]},
    {"c": [[1.5e308] * 3, [1.5e308] * 3]},  # the seeds' sum overflows
    {"c": [[-1e308, 1e308]], "g": [[1e308, -1e308]]},
    {"c": [[-1.7976931348623157e308] * 2, [1.7976931348623157e308] * 2]},
    {"c": [[5e-324, 0.0]]},
    {"c": [[1e20, 1e20 + 16384]]},  # a tick step below the precision of 1e20
], ids=["flat-1e20", "flat-1e308", "flat-minus-1e308", "mean-overflows",
        "range-1e308", "range-float-max", "subnormal-range", "narrow-at-1e20"])
def test_render_chart_on_flat_and_huge_ranges(series):
    with _cpu_deadline(0.5):
        svg = render_chart(series)
    assert _chart_problems(svg) == []
    assert re.findall(r'text-anchor="end">([^<]*)<', svg)  # y ticks


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                         max_size=5), min_size=1, max_size=3))
def test_render_chart_draws_any_finite_averages(runs):
    with _cpu_deadline(0.5):
        svg = render_chart({"c": runs})
    assert _chart_problems(svg) == []


@pytest.mark.parametrize("kind", ["trapped_car", "mountain_car"])
def test_sweep_config_txt_names_every_env_key(kind, tmp_path):
    text = SMALL_SWEEP.replace('"trapped_car"', f'"{kind}"').replace("[1, 2, 3]", "[1]")
    cfg = replace(parse_config(text), out_dir=str(tmp_path / "out"))
    run_experiment(cfg, max_workers=1)
    written = (tmp_path / "out" / "config.txt").read_text(encoding="utf-8")
    env_lines = written.split("[env]\n", 1)[1].split("\n\n", 1)[0].splitlines()
    # Every constant of the car: its spec's fields but the unused gamma, and its own.
    want = ({f.name for f in fields(EnvSpec)} - {"gamma"}
            | {f.name for f in fields(cfg.env)} - {"spec"} | {"kind"})
    assert sorted(line.split(" = ")[0] for line in env_lines) == sorted(want)
    assert parse_config(written) == cfg


def test_cli_first_exit_out_path_is_escaped(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HTPG_THREADS", "1")
    out = tmp_path / 'first "exit" #1 \\ x'
    assert main(["first-exit", "--episodes", "1", "--seeds", "1,2", "--out", str(out)]) == 0
    assert parse_config((out / "config.txt").read_text()).out_dir == str(out)


def test_cli_check_bound(capsys):
    rc = main(["check-bound", "--b", "0.5", "--n", "300", "--seeds", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "holds=true" in out


def test_cli_check_bound_that_fails_exits_1(capsys):
    # A slow decay (b = 0.01) keeps the steps near 1: the average stays above
    # the ceiling, which is a result, not an error.
    rc = main(["check-bound", "--b", "0.01", "--n", "300", "--seeds", "3"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out.count("\n") == 1 and "holds=false" in captured.out
    assert captured.err == ""


@pytest.mark.parametrize("seeds, n", [(3, 300), (20, 1), (1, 50)])
def test_cli_check_bound_reports_the_stacked_mean(seeds, n, capsys):
    # The CLI keeps a running sum; lhs, rhs and holds are those of the mean
    # over all runs stacked at once.
    objective = SmoothBump()
    params = BoundParams(u_r=0.5, gamma=0.5, l1j=objective.grad_lipschitz, y1=0.1, b=0.5)
    runs = [synthetic_sga_run(objective, NoiseModel(0.1), PowerDecay(0.5), PlainAscent(), n,
                              np.random.default_rng(seed)) for seed in range(seeds)]
    want = check_bound(np.mean(runs, axis=0), params)
    rc = main(["check-bound", "--n", str(n), "--seeds", str(seeds)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith(f"lhs={want.lhs:.6g} (")
    assert out.endswith(f" rhs={want.rhs:.6g} holds=true\n")
    # The interval is the sample standard deviation's; one seed has none.
    means = [float(norms.mean()) for norms in runs]
    if seeds == 1:
        assert "(1 seed)" in out and "CI" not in out
    else:
        ci = 1.96 * statistics.stdev(means) / math.sqrt(seeds)
        assert f"(95% CI +/- {ci:.2g} over {seeds} seeds)" in out


def test_worker_count_env_cap(monkeypatch):
    from htpg.experiment import worker_count

    monkeypatch.setenv("HTPG_THREADS", "2")
    assert worker_count(8) == 2
    monkeypatch.delenv("HTPG_THREADS")
    assert worker_count(1) == 1
    # Without HTPG_THREADS the pool is as large as the CPUs the process may
    # run on, not the machine's CPU count.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert worker_count(12) == 1
    monkeypatch.setenv("HTPG_THREADS", "3")
    assert worker_count(12) == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.delenv("HTPG_THREADS")
    assert worker_count(12) == 8


def test_diverged_run_gets_marker_row(tmp_path):
    from htpg.policy import PolicyParams
    from htpg.training import RunMetrics

    metrics = RunMetrics(
        returns=[1.0, 2.0],
        moving_avg_100=[1.0, 1.5],
        update_norms=[0.1, 0.2],
        update_counts=[3, 6],
        first_exit_episode=None,
        wall_updates=9,
        terminal_episodes=0,
        diverged=True,
        final_policy=PolicyParams.zeros(3, alpha=1.0),
    )
    path = tmp_path / "run.csv"
    write_run_csv(path, metrics)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 2 + 1  # header, two episodes, marker
    assert rows[-1][0] == "diverged"


def test_start_at_false_goal_reaches_env(tmp_path):
    cfg = parse_config("""
[env]
kind = "trapped_car"
start_at_false_goal = true

[policy.c]
alpha = 1

[train]
episodes = 1

[run]
seeds = [1]
""")
    env = cfg.env
    assert env.start_at_false_goal
    state = env.reset(__import__("numpy").random.default_rng(0))
    assert state.position == env.false_start


def _run_metrics(**changes):
    from htpg.policy import PolicyParams
    from htpg.training import RunMetrics

    return replace(RunMetrics(
        returns=[1.0, 2.0, 3.0], moving_avg_100=[1.0, 1.5, 2.0], update_norms=[0.1, 0.2, 0.3],
        update_counts=[3, 6, 9], first_exit_episode=None, wall_updates=0,
        terminal_episodes=0, diverged=False, final_policy=PolicyParams.zeros(3, alpha=1.0),
    ), **changes)


@pytest.mark.parametrize("old", [None, b"episode,return,avg_return_100,update_count\r\n"],
                         ids=["no-old-file", "old-file"])
def test_a_run_csv_writer_that_raises_midway_leaves_the_old_file(old, tmp_path):
    path = tmp_path / "c_seed1.csv"
    if old is not None:
        path.write_bytes(old)
    # One moving average short: the writer raises at the last row.
    with pytest.raises(IndexError):
        write_run_csv(path, _run_metrics(moving_avg_100=[1.0, 1.5]))
    assert [p.name for p in tmp_path.iterdir()] == ([] if old is None else [path.name])
    assert old is None or path.read_bytes() == old


def test_a_chart_that_fails_midway_leaves_the_old_svg(tmp_path, monkeypatch):
    write_run_csv(tmp_path / "c_seed1.csv", _run_metrics())
    replot(tmp_path, ["c"], [1])
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    # A lone surrogate has no UTF-8 encoding: the write fails once the file
    # is open.
    monkeypatch.setattr(experiment, "render_chart", lambda series: "<svg>\udc80</svg>\n")
    with pytest.raises(UnicodeEncodeError):
        replot(tmp_path, ["c"], [1])
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


_KILLED_WRITER = """
import os, signal, sys
from pathlib import Path
from htpg.experiment import write_run_csv
from htpg.policy import PolicyParams
from htpg.training import RunMetrics

class KilledAtRow(list):
    def __getitem__(self, i):
        if i == 2:
            sys.stdout.flush()
            os.kill(os.getpid(), signal.SIGKILL)
        return list.__getitem__(self, i)

write_run_csv(Path(sys.argv[1]), RunMetrics(
    returns=[5.0, 6.0, 7.0], moving_avg_100=KilledAtRow([5.0, 5.5, 6.0]),
    update_norms=[0.0] * 3, update_counts=[1, 2, 3], first_exit_episode=None,
    wall_updates=0, terminal_episodes=0, diverged=False,
    final_policy=PolicyParams.zeros(3, alpha=1.0)))
"""


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
def test_a_killed_run_csv_writer_leaves_the_old_csv_for_replot(tmp_path):
    path = tmp_path / "c_seed1.csv"
    write_run_csv(path, _run_metrics())
    old = path.read_bytes()
    src = str(Path(experiment.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    killed = subprocess.run([sys.executable, "-c", _KILLED_WRITER, str(path)], env=env)
    assert killed.returncode == -signal.SIGKILL
    # The kill came mid-file: the CSV is the old one, and at most the temp
    # file is left beside it.
    assert path.read_bytes() == old
    assert {p.name for p in tmp_path.iterdir()} <= {path.name, f".{path.name}.tmp"}
    replot(tmp_path, ["c"], [1])
    assert "<polyline" in (tmp_path / "returns.svg").read_text(encoding="utf-8")
