"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to watch).

The sweep-based criteria (6-8) train 2 families x 10 seeds and take a few
minutes each on one core; everything else is seconds.
"""

import math
import time

import numpy as np
import pytest

from conftest import ChainEnv, chain_exact_q
from htpg.diagnostics import (
    BoundParams,
    NoiseModel,
    SmoothBump,
    bound_rhs,
    first_exit_statistics,
    synthetic_sga_run,
    tail_exploration_ratio,
)
from htpg.envs import EnvState, MountainCar, TrappedCar, rollout
from htpg.policy import (
    ADAPTIVE,
    FIXED,
    PolicyParams,
    action_mode,
    features,
    log_likelihood,
    param_vector,
    score,
    with_param_vector,
)
from htpg.qvalue import draw_horizon, estimate_q
from htpg.training import LinearRange, PlainAscent, PowerDecay, TrainConfig, train

SEEDS = tuple(range(1, 11))


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_score_finite_differences():
    started = time.perf_counter()
    h = 1e-6
    worst = 0.0
    rng = np.random.default_rng(2024)
    for alpha in (1.0, 2.0):
        for mode in (FIXED, ADAPTIVE):
            for _ in range(100):
                p = PolicyParams(
                    rng.normal(size=3), rng.normal(size=3) * 0.2, alpha=alpha,
                    scale_mode=mode, sigma0=float(rng.uniform(0.5, 2.0)),
                )
                s = features(rng.normal(size=2))
                a = action_mode(p, s) + float(rng.normal()) + 0.05
                analytic = score(p, s, a)
                base = param_vector(p)
                for i in range(base.size):
                    plus, minus = base.copy(), base.copy()
                    plus[i] += h
                    minus[i] -= h
                    fd = (
                        log_likelihood(with_param_vector(p, plus), s, a)
                        - log_likelihood(with_param_vector(p, minus), s, a)
                    ) / (2 * h)
                    denom = max(abs(fd), 1e-8)
                    worst = max(worst, abs(analytic[i] - fd) / denom)
    elapsed = time.perf_counter() - started
    report(1, worst <= 1e-5 and elapsed < 1.0,
           f"max relative error {worst:.2e} over 400 triples in {elapsed:.2f}s")


def test_criterion_2_q_unbiased_on_chain():
    started = time.perf_counter()
    env = ChainEnv()
    gamma = 0.81
    exact = chain_exact_q(env, gamma)
    assert exact == pytest.approx(2.4661)
    pol = PolicyParams.zeros(3, alpha=2.0, scale_mode=FIXED, sigma0=1e-12)
    rng = np.random.default_rng(7)
    n = 100_000
    total = 0.0
    for _ in range(n):
        total += estimate_q(env, pol, EnvState(0.0, 0.0), 0.0, gamma, rng).value
    mean = total / n
    elapsed = time.perf_counter() - started
    rel = abs(mean - exact) / exact
    report(2, rel < 0.01 and elapsed < 5.0,
           f"MC mean {mean:.4f} vs exact {exact:.4f} (rel {rel:.2%}) in {elapsed:.1f}s")


def test_criterion_3_geometric_horizon_law():
    started = time.perf_counter()
    n = 1_000_000
    ok = True
    details = []
    for gamma in (0.81, 0.97):
        rng = np.random.default_rng(int(gamma * 100))
        draws = draw_horizon(gamma, rng, size=n)
        root = math.sqrt(gamma)
        p0 = 1.0 - root
        mean_expected = root / (1.0 - root)
        freq0 = float(np.mean(draws == 0))
        se0 = math.sqrt(p0 * (1 - p0) / n)
        mean = float(draws.mean())
        se_mean = float(draws.std()) / math.sqrt(n)
        ok &= abs(freq0 - p0) < 3 * se0
        ok &= abs(mean - mean_expected) < 3 * se_mean
        details.append(
            f"gamma={gamma}: P(T=0) {freq0:.5f}~{p0:.5f}, E[T] {mean:.3f}~{mean_expected:.3f}"
        )
    elapsed = time.perf_counter() - started
    report(3, ok and elapsed < 5.0, "; ".join(details) + f" in {elapsed:.1f}s")


def test_criterion_4_gradient_bound():
    started = time.perf_counter()
    objective = SmoothBump(dim=2)
    ok = True
    details = []
    for y1 in (0.1, 1.0):
        params = BoundParams(u_r=0.5, gamma=0.5, l1j=objective.grad_lipschitz,
                             y1=y1, b=0.5)
        for n in (1_000, 10_000):
            means = []
            for seed in range(20):
                rng = np.random.default_rng(seed)
                norms = synthetic_sga_run(objective, NoiseModel(y1, 0.0),
                                          PowerDecay(0.5), PlainAscent(), n, rng)
                means.append(float(norms.mean()))
            lhs = float(np.mean(means))
            rhs = bound_rhs(params, n)
            ok &= lhs <= rhs
            details.append(f"y1={y1},N={n}: {lhs:.4f}<={rhs:.4f}")
    elapsed = time.perf_counter() - started
    report(4, ok and elapsed < 30.0, "; ".join(details) + f" in {elapsed:.1f}s")


def test_criterion_5_tail_exploration():
    started = time.perf_counter()
    env = TrappedCar()
    target = 100_000
    ratios = {}
    for alpha, name in ((1.0, "cauchy"), (2.0, "gaussian")):
        pol = PolicyParams.zeros(3, alpha=alpha, scale_mode=FIXED, sigma0=1.0)
        rng = np.random.default_rng(55)
        extreme = total = 0
        while total < target:
            traj = rollout(env, pol, rng, env.spec.max_steps)
            extreme += tail_exploration_ratio(traj, pol, 5.0) * len(traj)
            total += len(traj)
        ratios[name] = extreme / total
    expected = (2.0 / math.pi) * math.atan(0.2)
    ok = (
        abs(ratios["cauchy"] - expected) / expected <= 0.10
        and ratios["gaussian"] < 1e-4
    )
    elapsed = time.perf_counter() - started
    report(5, ok and elapsed < 5.0,
           f"cauchy {ratios['cauchy']:.4f} (target {expected:.4f}), "
           f"gaussian {ratios['gaussian']:.2e} in {elapsed:.1f}s")


def _sweep(env, episodes, step_rule=None):
    out = {}
    for alpha, name in ((1.0, "cauchy"), (2.0, "gaussian")):
        runs = []
        for seed in SEEDS:
            cfg = TrainConfig(
                env=env,
                policy_init=PolicyParams.zeros(3, alpha=alpha, scale_mode=ADAPTIVE),
                episodes=episodes,
                seed=seed,
                gamma=0.97,
                step_rule=step_rule,
            )
            runs.append(train(cfg))
        out[name] = runs
    return out


def test_criterion_6_trapped_car_learning_curves():
    started = time.perf_counter()
    by_family = _sweep(TrappedCar(), episodes=800)
    cauchy_final = [m.moving_avg_100[-1] for m in by_family["cauchy"]]
    gauss_final = [m.moving_avg_100[-1] for m in by_family["gaussian"]]
    cauchy_wins = sum(c > g for c, g in zip(cauchy_final, gauss_final))
    reach_c = sum(m.terminal_episodes >= 1 for m in by_family["cauchy"])
    reach_g = sum(m.terminal_episodes >= 1 for m in by_family["gaussian"])
    ok = cauchy_wins >= 7 and reach_c >= 8 and reach_g >= 8
    elapsed = time.perf_counter() - started
    report(6, ok,
           f"cauchy wins {cauchy_wins}/10 on final avg100 "
           f"(medians {np.median(cauchy_final):.1f} vs {np.median(gauss_final):.1f}); "
           f"goal reached by {reach_c}/10 cauchy, {reach_g}/10 gaussian seeds "
           f"in {elapsed:.0f}s")


def test_criterion_7_first_exit_from_false_basin():
    started = time.perf_counter()
    by_family = _sweep(TrappedCar(start_at_false_goal=True), episodes=300)
    summary = first_exit_statistics(by_family)
    med_c = summary.median_exit["cauchy"]
    med_g = summary.median_exit["gaussian"]
    ok = med_c < med_g and summary.sign_test_p < 0.05
    elapsed = time.perf_counter() - started
    report(7, ok,
           f"median exit cauchy {med_c} < gaussian {med_g}, "
           f"sign-test p {summary.sign_test_p:.2e} "
           f"(wins {summary.wins}, losses {summary.losses}, ties {summary.ties}) "
           f"in {elapsed:.0f}s")


def test_criterion_8_mountain_car_goal_counts():
    started = time.perf_counter()
    env = MountainCar()

    # Reward shape: -1 on every step that does not reach the goal, exactly.
    rng = np.random.default_rng(0)
    checked = 0
    while checked < 100_000:
        st = EnvState(float(rng.uniform(-1.2, 0.44)), float(rng.uniform(-0.07, 0.07)))
        res = env.step(st, float(rng.uniform(-2, 2)))
        if not env.at_goal(res.next_state):
            assert res.reward == -1.0
        else:
            assert res.reward == 0.0
        checked += 1

    # Exploration contrast at near-frozen scale: the schedule keeps sigma
    # close to 1 where the heavy tail saturates the action clamp more often.
    rule = LinearRange(1e-7, 5e-9, 200)
    by_family = _sweep(env, episodes=200, step_rule=rule)
    goals_c = sum(m.terminal_episodes for m in by_family["cauchy"])
    goals_g = sum(m.terminal_episodes for m in by_family["gaussian"])
    ok = goals_c > goals_g
    elapsed = time.perf_counter() - started
    report(8, ok,
           f"goal episodes: cauchy {goals_c} vs gaussian {goals_g} "
           f"over {len(SEEDS)} seeds x 200 episodes in {elapsed:.0f}s")


def test_criterion_9_rerun_byte_identical(tmp_path):
    from dataclasses import replace

    from htpg.config import parse_config
    from htpg.experiment import run_experiment

    text = """
name = "determinism"

[env]
kind = "trapped_car"
max_steps = 80

[policy.cauchy]
alpha = 1

[policy.gaussian]
alpha = 2

[train]
episodes = 10

[run]
seeds = [1, 2]
"""
    cfg1 = replace(parse_config(text), out_dir=str(tmp_path / "a"))
    cfg2 = replace(parse_config(text), out_dir=str(tmp_path / "b"))
    run_experiment(cfg1, max_workers=1)
    run_experiment(cfg2, max_workers=1)
    names = sorted(p.name for p in (tmp_path / "a").glob("*.csv"))
    identical = all(
        (tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes()
        for n in names
    )
    svg_same = (
        (tmp_path / "a" / "returns.svg").read_bytes()
        == (tmp_path / "b" / "returns.svg").read_bytes()
    )
    report(9, identical and svg_same,
           f"{len(names)} CSVs plus SVG byte-identical across reruns")
