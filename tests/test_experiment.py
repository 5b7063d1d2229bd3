"""Sweep-runner checks: output inventory, CSV schema, byte determinism, and
the CLI subcommands."""

import csv
from dataclasses import replace
from pathlib import Path

import pytest

from htpg.cli import main
from htpg.config import parse_config
from htpg.experiment import RUN_CSV_COLUMNS, run_experiment, replot

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
    (["train", "--config", "latin1.toml"], {}),
    (["train", "--config", "."], {}),
    (["train", "--out", ""], {}),
    (["train", "--seeds", ""], {}),
    (["check-bound", "--n", "0"], {}),
    (["check-bound", "--b", "1.5"], {}),
    (["check-bound", "--seeds", "0"], {}),
    (["check-bound", "--y1", "nan"], {}),
    (["check-bound", "--y1", "inf"], {}),
    (["dist-tests", "--seed", "-1"], {}),
    (["first-exit", "--episodes", "-1"], {}),
    (["first-exit", "--seeds", "1,1"], {}),
    (["first-exit", "--out", ""], {}),
], ids=["seeds-not-int", "seeds-repeated", "seed-negative", "second-seed-negative",
        "threads-not-int", "config-not-utf8", "config-is-directory", "out-empty",
        "seeds-empty", "bound-n-0", "bound-b-1.5", "bound-seeds-0", "bound-y1-nan",
        "bound-y1-inf", "dist-seed-negative", "first-exit-episodes-negative",
        "first-exit-seeds-repeated", "first-exit-out-empty"])
def test_cli_bad_input_is_one_line_with_exit_2(argv, env, tmp_path, monkeypatch, capsys):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    monkeypatch.chdir(tmp_path)
    if argv[0] == "train":
        Path("exp.toml").write_text(SMALL_SWEEP)
        Path("latin1.toml").write_bytes("[policy.caf\xe9]\n".encode("latin-1"))
        for flag, value in (("--config", "exp.toml"), ("--out", "out")):
            if flag not in argv:
                argv = argv + [flag, value]
    files = sorted(tmp_path.rglob("*"))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == files


@pytest.mark.parametrize("header, row", [
    ("episode,return", "0,1.0"),
    ("return,avg_return_100", "1.0,1.0"),
    ("episode,return,avg_return_100,update_count", "0,1.0,abc,3"),
    ("episode,return,avg_return_100,update_count", "0,1.0"),
    ("", ""),
], ids=["no-average-column", "no-episode-column", "average-not-a-number", "short-row",
        "empty-file"])
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


def test_cli_negative_seed_in_config_is_one_line_with_exit_2(tmp_path, capsys):
    cfg_file = tmp_path / "exp.toml"
    cfg_file.write_text(SMALL_SWEEP.replace("seeds = [1, 2, 3]", "seeds = [-1]"))
    out_dir = tmp_path / "out"
    assert main(["train", "--config", str(cfg_file), "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err == "error: [run] seed must be non-negative, got -1\n"
    assert not out_dir.exists()


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


def test_cli_dist_tests(capsys):
    rc = main(["dist-tests"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "FAIL" not in out


def test_worker_count_env_cap(monkeypatch):
    from htpg.experiment import worker_count

    monkeypatch.setenv("HTPG_THREADS", "2")
    assert worker_count(8) == 2
    monkeypatch.delenv("HTPG_THREADS")
    assert worker_count(1) == 1


def test_diverged_run_gets_marker_row(tmp_path):
    from htpg.experiment import write_run_csv
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
    from htpg.config import build_env

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
    env = build_env(cfg)
    assert env.start_at_false_goal
    state = env.reset(__import__("numpy").random.default_rng(0))
    assert state.position == env.false_start
