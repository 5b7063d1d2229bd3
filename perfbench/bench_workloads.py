"""The benchmark's four workloads: input generation, the timed body, and the
output checks.

Every workload turns the benchmark seed into plain inputs (a JSON-able
dict); ``htpg`` only ever sees the experiment config rendered from them.
This module imports ``htpg`` and numpy lazily, inside the functions that use
them, so the set-up probe can time those imports in a fresh interpreter.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

# Relative tolerance on floating summaries compared with the recorded
# reference (final avg_return_100, bound lhs).  Counts compare exactly.
REFERENCE_RTOL = 1e-9
# Tolerance on the moving average recomputed from the returns: the program
# keeps a running window sum, the check sums each window afresh.
MOVING_AVG_RTOL = 1e-9


@dataclass
class Cell:
    """One unit of work and what the checks made of it."""

    label: str
    summary: dict
    digest: str
    problems: list = field(default_factory=list)


@dataclass
class Outcome:
    """One execution of a workload body."""

    wall_s: float
    updates: int
    cells: list
    digest: str = ""

    def fingerprint(self) -> str:
        h = hashlib.sha256(self.digest.encode())
        for cell in self.cells:
            h.update(cell.digest.encode())
        return h.hexdigest()


def _seeds(seed: int, count: int) -> list:
    rng = random.Random(seed)
    return [rng.randrange(1, 2**31) for _ in range(count)]


# ---------------------------------------------------------------------------
# Car workloads (train / run_experiment)


def config_text(inputs: dict, out_dir: str) -> str:
    lines = [f'name = "{inputs["name"]}"', "", "[env]", f'kind = "{inputs["env"]}"']
    for family, alpha in inputs["families"]:
        lines += ["", f"[policy.{family}]", f"alpha = {alpha}"]
    lines += ["", "[train]", f"episodes = {inputs['episodes']}",
              'step_rule = "linear_range"',
              f"alpha_start = {inputs['alpha_start']!r}",
              f"alpha_end = {inputs['alpha_end']!r}",
              f'q_mode = "{inputs["q_mode"]}"',
              "", "[run]", f"seeds = {json.dumps(inputs['seeds'])}",
              f"out = {json.dumps(out_dir)}", ""]
    return "\n".join(lines)


def _metrics_digest(m) -> str:
    import numpy as np
    from htpg.policy import param_vector

    h = hashlib.sha256()
    h.update(repr((m.returns, m.moving_avg_100, m.update_counts, m.first_exit_episode,
                   m.wall_updates, m.terminal_episodes, m.diverged)).encode())
    h.update(np.ascontiguousarray(param_vector(m.final_policy)).tobytes())
    return h.hexdigest()


def _car_summary(m) -> dict:
    return {
        "episodes": len(m.returns),
        "wall_updates": m.wall_updates,
        "terminal_episodes": m.terminal_episodes,
        "first_exit_episode": m.first_exit_episode,
        "final_avg_return_100": m.moving_avg_100[-1] if m.moving_avg_100 else None,
    }


def car_invariants(m, env, episodes: int) -> list:
    """Problems with one run's metrics that hold for any seed."""
    from htpg.envs import TrappedCar

    problems = []
    if m.diverged:
        problems.append("diverged")
    if len(m.returns) != episodes:
        problems.append(f"{len(m.returns)} episodes, expected {episodes}")
    if not (len(m.moving_avg_100) == len(m.update_counts) == len(m.returns)):
        problems.append("per-episode series differ in length")
        return problems
    if m.update_counts and m.update_counts[-1] != m.wall_updates:
        problems.append("last update count differs from wall_updates")
    max_steps = env.spec.max_steps
    trapped = isinstance(env, TrappedCar)
    previous = 0
    terminal = 0
    for k, (ret, count) in enumerate(zip(m.returns, m.update_counts)):
        length = count - previous
        previous = count
        if not 1 <= length <= max_steps:
            problems.append(f"episode {k}: {length} updates outside [1, {max_steps}]")
            break
        if trapped:
            reached = ret >= env.true_reward
            high = env.false_reward * length + (env.true_reward if reached else 0.0)
            ok = 0.0 <= ret <= high + 1e-9
        else:
            reached = ret == -(length - 1)
            ok = reached or ret == -length
        if not ok:
            problems.append(f"episode {k}: return {ret!r} outside its bounds")
            break
        if not reached and length != max_steps:
            problems.append(f"episode {k}: ended after {length} steps without the goal")
            break
        terminal += reached
        window = m.returns[max(0, k - 99):k + 1]
        expect = sum(window) / len(window)
        if abs(m.moving_avg_100[k] - expect) > MOVING_AVG_RTOL * (1.0 + abs(expect)):
            problems.append(f"episode {k}: avg_return_100 disagrees with the returns")
            break
    if terminal != m.terminal_episodes:
        problems.append(f"terminal_episodes {m.terminal_episodes}, returns show {terminal}")
    # Default starts lie inside the track, so the basin is left at once.
    expect_exit = 0 if trapped and episodes else None
    if m.first_exit_episode != expect_exit:
        problems.append(f"first_exit_episode {m.first_exit_episode}, expected {expect_exit}")
    return problems


def compare_reference(summary: dict, ref: dict) -> list:
    problems = []
    for key, want in ref.items():
        got = summary.get(key)
        if isinstance(want, float) and isinstance(got, float):
            if abs(got - want) > REFERENCE_RTOL * max(1.0, abs(want)):
                problems.append(f"{key} {got!r} != reference {want!r}")
        elif got != want:
            problems.append(f"{key} {got!r} != reference {want!r}")
    return problems


class TrainWorkload:
    """Serial ``train`` over every (family, seed) cell of a config."""

    parallel = False

    def __init__(self, name: str, env: str, families, episodes: int,
                 cells_per_family: int, q_mode: str, alpha_start: float,
                 alpha_end: float) -> None:
        self.name = name
        self._template = {
            "name": name, "env": env, "families": [list(f) for f in families],
            "episodes": episodes, "q_mode": q_mode,
            "alpha_start": alpha_start, "alpha_end": alpha_end,
        }
        self._cells_per_family = cells_per_family

    def inputs(self, seed: int) -> dict:
        return dict(self._template, seeds=_seeds(seed, self._cells_per_family))

    def prepare(self, inputs: dict, out_dir: str):
        import htpg.config

        cfg = htpg.config.parse_config(config_text(inputs, out_dir))
        return cfg, [
            (f"{family.name}/seed{seed}", htpg.config.build_train_config(cfg, family, seed))
            for family in cfg.families for seed in cfg.seeds
        ]

    def setup(self, inputs: dict, out_dir: str):
        """What a fresh process does before the first cell: parse the config
        and build every training config."""
        return TrainWorkload.prepare(self, inputs, out_dir)

    def execute(self, prepared, workers: int) -> Outcome:
        import htpg.training

        _, train_configs = prepared
        results = []
        start = time.perf_counter()
        for label, tc in train_configs:
            try:
                results.append((label, tc, htpg.training.train(tc), None))
            except Exception as err:  # a failing cell is counted, not fatal
                results.append((label, tc, None, f"{type(err).__name__}: {err}"))
        wall = time.perf_counter() - start
        cells, updates = [], 0
        for label, tc, m, error in results:
            if m is None:
                cells.append(Cell(label, {}, error, [error]))
                continue
            updates += m.wall_updates
            cells.append(Cell(label, _car_summary(m), _metrics_digest(m),
                              car_invariants(m, tc.env, tc.episodes)))
        return Outcome(wall, updates, cells)

    def q_bound(self, inputs: dict) -> float:
        """|Q| ceiling U_R / (1 - sqrt(gamma)) for every Q estimate made."""
        import htpg.config

        cfg = htpg.config.parse_config(config_text(inputs, "unused"))
        env = htpg.config.build_env(cfg)
        return env.spec.reward_bound / (1.0 - math.sqrt(cfg.gamma))


class SweepWorkload(TrainWorkload):
    """``run_experiment`` (process pool, run CSVs, aggregate, SVG) then
    ``replot``, with every file read back and checked."""

    parallel = True

    def prepare(self, inputs: dict, out_dir: str):
        import htpg.config

        return htpg.config.parse_config(config_text(inputs, out_dir)), None

    def execute(self, prepared, workers: int) -> Outcome:
        import htpg.config
        import htpg.experiment

        cfg, _ = prepared
        out = Path(cfg.out_dir)
        families = [f.name for f in cfg.families]
        start = time.perf_counter()
        try:
            by_family = htpg.experiment.run_experiment(cfg, max_workers=workers)
            swept_svg = (out / "returns.svg").read_bytes()
            htpg.experiment.replot(out, families, list(cfg.seeds))
            wall = time.perf_counter() - start
        except Exception as err:  # the sweep aborts as a whole
            error = f"{type(err).__name__}: {err}"
            cells = [Cell(f"{f}/seed{s}", {}, error, [error])
                     for f in families for s in cfg.seeds]
            return Outcome(time.perf_counter() - start, 0, cells)
        env = htpg.config.build_env(cfg)
        sweep_problems = _sweep_file_problems(out, cfg, by_family, swept_svg)
        cells, updates = [], 0
        digest = hashlib.sha256()
        for path in sorted(out.iterdir()):
            digest.update(path.name.encode() + path.read_bytes())
        for family in families:
            for seed, m in zip(cfg.seeds, by_family[family]):
                updates += m.wall_updates
                problems = car_invariants(m, env, cfg.episodes) + sweep_problems
                problems += _run_csv_problems(out, family, seed, m)
                cells.append(Cell(f"{family}/seed{seed}", _car_summary(m),
                                  _metrics_digest(m), problems))
        return Outcome(wall, updates, cells, digest.hexdigest())


def _run_csv_problems(out: Path, family: str, seed: int, m) -> list:
    import csv

    from htpg.experiment import run_path

    with open(run_path(out, family, seed), newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    got = [(int(r["episode"]), float(r["return"]), float(r["avg_return_100"]),
            int(r["update_count"])) for r in rows]
    want = list(zip(range(len(m.returns)), m.returns, m.moving_avg_100, m.update_counts))
    return [] if got == want else [f"{family}_seed{seed}.csv does not match the run"]


def _sweep_file_problems(out: Path, cfg, by_family: dict, swept_svg: bytes) -> list:
    import csv

    problems = []
    if (out / "returns.svg").read_bytes() != swept_svg:
        problems.append("replot wrote a different returns.svg")
    with open(out / "aggregate.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    want = []
    for family in cfg.families:
        for seed, m in zip(cfg.seeds, by_family[family.name]):
            want.append((family.name, seed, len(m.returns), m.moving_avg_100[-1],
                         m.terminal_episodes, m.wall_updates))
    got = [(r["family"], int(r["seed"]), int(r["episodes"]),
            float(r["final_avg_return_100"]), int(r["terminal_episodes"]),
            int(r["wall_updates"])) for r in rows]
    if got != want:
        problems.append("aggregate.csv does not match the runs")
    return problems


# ---------------------------------------------------------------------------
# Averaged-gradient bound testbed (the check-bound path)


class BoundWorkload:
    """``synthetic_sga_run`` on SmoothBump with PowerDecay(b) and Y1 noise,
    one run per generator seed, compared with ``bound_rhs``."""

    parallel = False

    def __init__(self, name: str, n: int, runs: int, b: float, y1: float) -> None:
        self.name = name
        self._n, self._runs, self._b, self._y1 = n, runs, b, y1

    def inputs(self, seed: int) -> dict:
        return {"name": self.name, "n": self._n, "b": self._b, "y1": self._y1,
                "seeds": _seeds(seed, self._runs)}

    def prepare(self, inputs: dict, out_dir: str):
        from htpg import diagnostics
        from htpg.training import PlainAscent, PowerDecay

        objective = diagnostics.SmoothBump(dim=2)
        params = diagnostics.BoundParams(
            u_r=objective.value_bound * (1.0 - 0.5), gamma=0.5,
            l1j=objective.grad_lipschitz, y1=inputs["y1"], b=inputs["b"],
        )
        noise = diagnostics.NoiseModel(y1=inputs["y1"], y2=0.0)
        return objective, noise, PowerDecay(inputs["b"]), PlainAscent(), params, inputs

    setup = prepare

    def execute(self, prepared, workers: int) -> Outcome:
        import numpy as np
        from htpg import diagnostics

        objective, noise, rule, update, params, inputs = prepared
        n = inputs["n"]
        runs = []
        start = time.perf_counter()
        for seed in inputs["seeds"]:
            rng = np.random.default_rng(seed)
            try:
                runs.append((seed, diagnostics.synthetic_sga_run(
                    objective, noise, rule, update, n, rng), None))
            except Exception as err:  # a failing run is counted, not fatal
                runs.append((seed, None, f"{type(err).__name__}: {err}"))
        wall = time.perf_counter() - start
        means = [float(norms.mean()) for _, norms, _ in runs if norms is not None]
        lhs = float(np.mean(means)) if means else math.nan
        rhs = diagnostics.bound_rhs(params, n)
        summary = {"lhs": lhs, "holds": bool(lhs <= rhs)}
        shared = [] if summary["holds"] else [f"bound fails: lhs {lhs!r} > rhs {rhs!r}"]
        cells, updates = [], 0
        for seed, norms, error in runs:
            if norms is None:
                cells.append(Cell(f"seed{seed}", {}, error, [error]))
                continue
            updates += n
            problems = list(shared)
            if norms.shape != (n,) or not np.isfinite(norms).all() or (norms < 0).any():
                problems.append("squared gradient norms not finite and non-negative")
            cells.append(Cell(f"seed{seed}", summary, hashlib.sha256(norms.tobytes()).hexdigest(),
                              problems))
        return Outcome(wall, updates, cells, repr((lhs, rhs)))

    def q_bound(self, inputs: dict) -> float:
        return math.inf


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# Sizes are chosen so that one body takes a few seconds on one core and
# holds enough cells that seed-to-seed differences in work average out.
WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload(
            "trapped_sweep", env="trapped_car", families=(("cauchy", 1), ("gaussian", 2)),
            episodes=40, cells_per_family=6, q_mode="shared",
            alpha_start=0.005, alpha_end=5e-9,
        ),
        TrainWorkload(
            "fresh_q", env="trapped_car", families=(("gaussian", 2),),
            episodes=2, cells_per_family=4, q_mode="fresh",
            alpha_start=0.005, alpha_end=5e-9,
        ),
        TrainWorkload(
            "mountain_frozen", env="mountain_car", families=(("cauchy", 1), ("gaussian", 2)),
            episodes=10, cells_per_family=3, q_mode="shared",
            alpha_start=1e-7, alpha_end=5e-9,
        ),
        BoundWorkload("bound_testbed", n=10_000, runs=20, b=0.5, y1=0.1),
    )
}
