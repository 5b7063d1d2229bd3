"""Command-line entry point.

Subcommands:

* ``train``        -- run a configured experiment sweep (CSV + SVG outputs)
* ``check-bound``  -- noisy-ascent testbed vs. the analytic gradient bound
* ``first-exit``   -- basin first-exit comparison, Cauchy vs. Gaussian
* ``dist-tests``   -- statistical self-checks of the stable sampler
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import statistics
import sys
from pathlib import Path

import numpy as np

from . import diagnostics, sas
from .config import ConfigError, parse_config
from .errors import ParameterError
from .experiment import replot, run_experiment
from .training import PowerDecay, PlainAscent

_FIRST_EXIT_CONFIG = """
name = "first-exit"

[env]
kind = "trapped_car"
start_at_false_goal = true

[policy.cauchy]
alpha = 1

[policy.gaussian]
alpha = 2
"""


def _parse_seed_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ConfigError(f"--seeds must be comma-separated integers, got {text!r}") from None


def cmd_train(args) -> int:
    path = Path(args.config)
    try:
        text = path.read_bytes()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err.strerror}") from None
    cfg = parse_config(text)
    if args.out is not None:
        cfg = dataclasses.replace(cfg, out_dir=args.out)
    if args.seeds is not None:
        cfg = dataclasses.replace(cfg, seeds=_parse_seed_list(args.seeds))
    try:
        if args.replot:
            replot(Path(cfg.out_dir), [f.name for f in cfg.families], list(cfg.seeds))
            print(f"rewrote {Path(cfg.out_dir) / 'returns.svg'}")
            return 0
        by_family = run_experiment(cfg)
    except (ParameterError, ArithmeticError) as err:
        # A ConfigError comes before anything is written; the rest come from
        # training or its outputs, after config.txt is.
        if args.replot or isinstance(err, ConfigError):
            raise
        print(f"error: training failed: {err}", file=sys.stderr)
        return 1
    for name, runs in by_family.items():
        # A run that finished no episode has no final average: "-", as
        # aggregate.csv leaves that field empty.
        finals = [f"{m.moving_avg_100[-1]:.3f}" if m.moving_avg_100 else "-" for m in runs]
        diverged = sum(m.diverged for m in runs)
        print(f"{name}: final avg_return_100 per seed = [{', '.join(finals)}]"
              + (f"  ({diverged} diverged)" if diverged else ""))
    print(f"outputs written to {cfg.out_dir}")
    return 0


def cmd_check_bound(args) -> int:
    objective = diagnostics.SmoothBump(dim=2)
    noise = diagnostics.NoiseModel(y1=args.y1, y2=0.0)
    # The bound's U_R/(1-gamma) slot is the objective's own value bound.
    params = diagnostics.BoundParams(
        u_r=objective.value_bound * (1.0 - 0.5), gamma=0.5,
        l1j=objective.grad_lipschitz, y1=args.y1, b=args.b,
    )
    if args.seeds < 1:
        raise ParameterError(f"--seeds must be at least 1, got {args.seeds}")
    diagnostics.bound_rhs(params, args.n)  # reject constants without a ceiling before any run
    rule = PowerDecay(args.b)
    # One run in memory at a time: the seed-ordered running sum divided by
    # the seed count is bit for bit the mean of the stacked runs.
    total, means = None, []
    for seed in range(args.seeds):
        norms = diagnostics.synthetic_sga_run(objective, noise, rule, PlainAscent(), args.n,
                                              np.random.default_rng(seed))
        total = norms if total is None else np.add(total, norms, out=total)
        means.append(float(norms.mean()))
    report = diagnostics.check_bound(total / args.seeds, params)
    if args.seeds > 1:
        ci = 1.96 * statistics.stdev(means) / math.sqrt(args.seeds)
        spread = f"95% CI +/- {ci:.2g} over {args.seeds} seeds"
    else:
        spread = "1 seed"
    print(f"lhs={report.lhs:.6g} ({spread}) "
          f"rhs={report.rhs:.6g} holds={str(report.holds).lower()}")
    return 0 if report.holds else 1


def cmd_first_exit(args) -> int:
    cfg = dataclasses.replace(parse_config(_FIRST_EXIT_CONFIG), episodes=args.episodes,
                              seeds=_parse_seed_list(args.seeds), out_dir=args.out)
    by_family = run_experiment(cfg)
    summary = diagnostics.first_exit_statistics(by_family)
    for name, med in summary.median_exit.items():
        print(f"{name}: median first-exit episode = {med}")
    print(f"sign test (first family exits earlier): p = {summary.sign_test_p:.4g} "
          f"(wins={summary.wins}, losses={summary.losses}, ties={summary.ties})")
    return 0


def _ks_statistic(samples: np.ndarray, cdf) -> float:
    xs = np.sort(samples)
    n = xs.size
    cdf_vals = np.array([cdf(x) for x in xs])
    upper = np.abs(np.arange(1, n + 1) / n - cdf_vals).max()
    lower = np.abs(cdf_vals - np.arange(0, n) / n).max()
    return float(max(upper, lower))


def cmd_dist_tests(args) -> int:
    if args.seed < 0:
        raise ParameterError(f"--seed must be non-negative, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    checks: list[tuple[str, bool, str]] = []

    for alpha in (1.0, 2.0):
        spec = sas.StableSpec(alpha, location=0.5, scale=1.5)
        draws = np.array([sas.sample_sas(spec, rng) for _ in range(100_000)])
        stat = _ks_statistic(draws, lambda x: sas.cdf(spec, x))
        checks.append((f"KS closed-form sampler alpha={alpha:g}", stat < 0.01,
                       f"stat={stat:.5f}"))

    g = sas.StableSpec(2.0, 0.0, 1.0)
    var = float(np.var([sas.sample_sas(g, rng) for _ in range(200_000)]))
    checks.append(("variance of alpha=2 member is 2*scale^2", abs(var - 2.0) < 0.04,
                   f"var={var:.4f}"))

    c = sas.StableSpec(1.0, 0.0, 1.0)
    tail = float(np.mean([abs(sas.sample_sas(c, rng)) > 5.0 for _ in range(200_000)]))
    expect = sas.tail_probability(c, 5.0)
    checks.append(("Cauchy 5-sigma tail mass", abs(tail - expect) / expect < 0.1,
                   f"empirical={tail:.5f} analytic={expect:.5f}"))

    failures = 0
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}  ({detail})")
        failures += not ok
    return 1 if failures else 0


class _Parser(argparse.ArgumentParser):
    """A usage error is a ParameterError: one ``error:`` line, exit 2."""

    def error(self, message):
        raise ParameterError(message)


def main(argv=None) -> int:
    parser = _Parser(prog="htpg", description="heavy-tailed policy search toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_train = sub.add_parser("train", help="run a configured experiment sweep")
    p_train.add_argument("--config", required=True, help="experiment config file")
    p_train.add_argument("--out", help="override the output directory")
    p_train.add_argument("--seeds", help="override seeds, comma-separated integers")
    p_train.add_argument("--replot", action="store_true",
                         help="only rebuild returns.svg from existing CSVs")
    p_train.set_defaults(func=cmd_train)

    p_bound = sub.add_parser("check-bound", help="verify the averaged-gradient bound")
    p_bound.add_argument("--b", type=float, default=0.5, help="step-decay exponent")
    p_bound.add_argument("--n", type=int, default=10_000, help="iterations per run")
    p_bound.add_argument("--seeds", type=int, default=20, help="number of seeds")
    p_bound.add_argument("--y1", type=float, default=0.1, help="noise floor")
    p_bound.set_defaults(func=cmd_check_bound)

    p_exit = sub.add_parser("first-exit",
                            help="basin escape comparison from the misleading start")
    p_exit.add_argument("--episodes", type=int, default=300)
    p_exit.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    p_exit.add_argument("--out", default="results/first-exit")
    p_exit.set_defaults(func=cmd_first_exit)

    p_dist = sub.add_parser("dist-tests", help="stable-distribution self checks")
    p_dist.add_argument("--seed", type=int, default=0)
    p_dist.set_defaults(func=cmd_dist_tests)

    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ParameterError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
