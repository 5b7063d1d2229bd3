"""Shared fixtures: a deterministic chain MDP whose exact Q is computable in
closed form, used as the independent oracle for the Q estimator.  And one
hook: each acceptance criterion must print its pinned line."""

import re
from dataclasses import dataclass
from pathlib import Path

import pytest

from htpg.envs import EnvSpec, EnvState, StepResult
from htpg.errors import EnvUsageError


@dataclass(frozen=True)
class ChainEnv:
    """Deterministic chain: reward per_step_reward while position < length,
    then absorbing/terminal.  Actions are ignored; position counts visits."""

    length: int = 3
    per_step_reward: float = 1.0
    spec: EnvSpec = EnvSpec(
        state_low=0.0,
        state_high=1000.0,
        action_low=-1.0,
        action_high=1.0,
        init_low=0.0,
        init_high=0.0,
        gamma=0.81,
        reward_bound=1.0,
        max_steps=10_000,
    )

    def reset(self, rng) -> EnvState:
        return EnvState(0.0, 0.0)

    def step(self, state: EnvState, action: float) -> StepResult:
        if state.terminal:
            raise EnvUsageError("step() called on a terminal state")
        nxt = state.position + 1.0
        reward = self.per_step_reward if state.position < self.length else 0.0
        done = nxt >= self.length or state.step_count + 1 >= self.spec.max_steps
        return StepResult(
            EnvState(nxt, 0.0, state.step_count + 1, done), reward, done
        )

    def at_goal(self, state: EnvState) -> bool:
        return state.position >= self.length


def chain_exact_q(env: ChainEnv, gamma: float) -> float:
    """Brute-force discounted value of the chain from its start, by backward
    dynamic programming over the finite horizon."""
    # Rewards seen from position 0: per_step_reward at t = 0 .. length-1.
    value = 0.0
    for t in reversed(range(env.length)):
        value = env.per_step_reward + gamma * value
    return value


@pytest.fixture
def chain_env() -> ChainEnv:
    return ChainEnv()


# tests/acceptance_lines.txt holds each criterion's PASS line without its
# elapsed time (" in <t>s"), which is the one part allowed to differ.
_PINNED = Path(__file__).with_name("acceptance_lines.txt")
_ELAPSED = re.compile(r" in \d+(\.\d+)?s$")
_CRITERION = re.compile(r"test_criterion_(\d+)_")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Fail a passing test of ``test_acceptance.py`` whose captured
    ``[criterion N]`` line, elapsed time aside, is missing or differs from
    its line in ``acceptance_lines.txt``.  So a statistic that moves but
    still passes its bound fails the run.  Under ``-s`` (``--capture=no``)
    nothing is captured and nothing is checked; ``--capture=tee-sys`` shows
    the lines and checks them."""
    report = (yield).get_result()
    match = _CRITERION.match(item.name)
    if (report.when != "call" or not report.passed or match is None
            or item.path.name != "test_acceptance.py"
            or item.config.getoption("capture", "no") == "no"):
        return
    tag = f"[criterion {match.group(1)}] "
    want = [line for line in _PINNED.read_text().splitlines() if line.startswith(tag)]
    got = [_ELAPSED.sub("", line) for line in report.capstdout.splitlines()
           if line.startswith(tag)]
    if got != want or len(want) != 1:
        report.outcome = "failed"
        report.longrepr = f"{item.name} printed {got!r}; {_PINNED.name} pins {want!r}"
