"""Clipped-score policy ascent: step-size schedules, update rules, and the
episode loop.

Each episode simulates one trajectory with the current policy, forms a Q
estimate, and then walks the visited (state, action) pairs applying one
parameter update per pair:

    theta <- update(theta, alpha_k, q_hat * clip(score(state, action)))

with the score always evaluated at the current (just-updated) parameters.
``q_mode="shared"`` builds one Q estimate per episode from the trajectory's
own leading rewards over a geometric horizon; ``q_mode="fresh"`` instead
draws an independent estimate from every visited pair (unbiased per pair,
roughly the mean horizon times more environment steps).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, ScheduleError
from .policy import (
    PolicyParams,
    clip_score,
    features,
    param_vector,
    score,
    with_param_vector,
)
from .envs import rollout
from .qvalue import discounted_partial_return, draw_horizon, estimate_q

__all__ = [
    "PowerDecay",
    "LinearRange",
    "Constant",
    "PlainAscent",
    "LipschitzAware",
    "step_size",
    "apply_update",
    "TrainConfig",
    "RunMetrics",
    "train",
]

log = logging.getLogger(__name__)

Q_SHARED = "shared"
Q_FRESH = "fresh"

# The default step-size schedule: log-linear from 0.005 down to 5e-9 over
# the episode budget.
DEFAULT_ALPHA_START = 0.005
DEFAULT_ALPHA_END = 5e-9


@dataclass(frozen=True, slots=True)
class PowerDecay:
    """alpha_k = k**(-b) with b in (0, 1)."""

    b: float

    def __post_init__(self) -> None:
        if not 0.0 < self.b < 1.0:
            raise ParameterError(f"b must lie in (0, 1), got {self.b}")


@dataclass(frozen=True, slots=True)
class LinearRange:
    """Log-linear interpolation from alpha_start (k=1) down to alpha_end
    (k=total), constant at alpha_end beyond."""

    alpha_start: float
    alpha_end: float
    total: int

    def __post_init__(self) -> None:
        if not self.alpha_end > 0.0:
            raise ParameterError("alpha_end must be positive")
        if not self.alpha_start >= self.alpha_end:
            raise ParameterError("alpha_start must be at least alpha_end")
        if self.total < 1:
            raise ParameterError("total must be at least 1")


@dataclass(frozen=True, slots=True)
class Constant:
    alpha: float

    def __post_init__(self) -> None:
        if not self.alpha > 0.0:
            raise ParameterError("alpha must be positive")


StepRule = PowerDecay | LinearRange | Constant


def step_size(rule: StepRule, k: int) -> float:
    """The step size at schedule index k (k >= 1)."""
    if k < 1:
        raise ParameterError(f"schedule index must be at least 1, got {k}")
    if isinstance(rule, PowerDecay):
        return float(k) ** -rule.b
    if isinstance(rule, Constant):
        return rule.alpha
    if isinstance(rule, LinearRange):
        if k >= rule.total:
            return rule.alpha_end
        if k == 1:
            return rule.alpha_start
        f = (k - 1) / (rule.total - 1)
        return math.exp(
            math.log(rule.alpha_start)
            + f * (math.log(rule.alpha_end) - math.log(rule.alpha_start))
        )
    raise ParameterError(f"unknown step rule {rule!r}")


@dataclass(frozen=True, slots=True)
class PlainAscent:
    """theta + alpha_k * g."""


@dataclass(frozen=True, slots=True)
class LipschitzAware:
    """theta + (1/alpha_k - L)**(-1) * g, valid while 1/alpha_k > L."""

    l1j: float

    def __post_init__(self) -> None:
        if not self.l1j > 0.0:
            raise ParameterError("l1j must be positive")


UpdateRule = PlainAscent | LipschitzAware


def apply_update(theta: np.ndarray, grad: np.ndarray, rule: UpdateRule,
                 alpha_k: float) -> np.ndarray:
    if isinstance(rule, LipschitzAware):
        inv = 1.0 / alpha_k - rule.l1j
        if inv <= 0.0:
            raise ScheduleError(
                f"1/alpha - L = {inv} is not positive at alpha={alpha_k}, L={rule.l1j}"
            )
        return theta + grad / inv
    return theta + alpha_k * grad


@dataclass(frozen=True)
class TrainConfig:
    """Everything one training run needs.  ``step_rule=None`` selects the
    default log-linear range DEFAULT_ALPHA_START -> DEFAULT_ALPHA_END over
    the episode budget."""

    env: object
    policy_init: PolicyParams
    episodes: int
    seed: int
    gamma: float = 0.97
    epsilon_clip: float = 0.2
    step_rule: StepRule | None = None
    update_rule: UpdateRule = field(default_factory=PlainAscent)
    q_mode: str = Q_SHARED
    symmetric_clip: bool = False

    def __post_init__(self) -> None:
        if self.episodes < 0:
            raise ParameterError("episodes must be non-negative")
        if self.seed < 0:
            raise ParameterError(f"seed must be non-negative, got {self.seed}")
        if not 0.0 < self.gamma < 1.0:
            raise ParameterError(f"gamma must lie in (0, 1), got {self.gamma}")
        if not 0.0 < self.epsilon_clip < 1.0:
            raise ParameterError(f"epsilon_clip must lie in (0, 1), got {self.epsilon_clip}")
        if self.q_mode not in (Q_SHARED, Q_FRESH):
            raise ParameterError(f"unknown q_mode {self.q_mode!r}")
        if self.step_rule is None:
            object.__setattr__(self, "step_rule", LinearRange(
                DEFAULT_ALPHA_START, DEFAULT_ALPHA_END, max(self.episodes, 1)))
        if isinstance(self.update_rule, LipschitzAware):
            alpha_max = step_size(self.step_rule, 1)
            if 1.0 / alpha_max - self.update_rule.l1j <= 0.0:
                raise ScheduleError(
                    f"schedule maximum alpha={alpha_max} violates 1/alpha > L={self.update_rule.l1j}"
                )


@dataclass
class RunMetrics:
    """Per-episode diagnostics of one training run.

    ``moving_avg_100[k]`` is the mean return over episodes max(0, k-99)..k.
    ``first_exit_episode`` is the first episode whose trajectory left the
    misleading-reward basin (trapped car only, 0-based, None if never).
    ``update_counts[k]`` is the cumulative number of parameter updates after
    episode k.  A diverged run carries the episodes completed before the
    divergence and ``diverged=True``.
    """

    returns: list
    moving_avg_100: list
    update_norms: list
    update_counts: list
    first_exit_episode: int | None
    wall_updates: int
    terminal_episodes: int
    diverged: bool
    final_policy: PolicyParams


def train(config: TrainConfig) -> RunMetrics:
    """Run the episode loop and collect :class:`RunMetrics`.

    The schedule index is the global update counter for PowerDecay and
    Constant rules (one increment per parameter update).  The LinearRange
    rule spans the episode budget instead: the step size is fixed within an
    episode and interpolated by episode number, which keeps the configured
    start/end range meaningful regardless of how many updates each episode
    contributes.  Either way the alpha sequence seen by the updates is
    non-increasing.
    """
    env = config.env
    rng = np.random.default_rng(config.seed)
    policy = config.policy_init
    vec = param_vector(policy)
    per_episode_rule = isinstance(config.step_rule, LinearRange)
    fresh = config.q_mode == Q_FRESH
    track_basin = hasattr(env, "outside_basin")

    returns: list[float] = []
    moving: list[float] = []
    norms: list[float] = []
    counts: list[int] = []
    window: list[float] = []
    window_sum = 0.0
    first_exit: int | None = None
    updates = 0
    terminal_episodes = 0
    diverged = False

    # Heavy-tailed q_hat * score products may overflow; that is exactly what
    # the divergence guard below is for, so keep numpy quiet about it while
    # the loop runs.
    saved_errstate = np.seterr(over="ignore", invalid="ignore")
    try:
        for episode in range(config.episodes):
            traj = rollout(env, policy, rng, env.spec.max_steps)
            if not fresh:
                drawn = draw_horizon(config.gamma, rng)
                q_shared = discounted_partial_return(traj.rewards, config.gamma, drawn)
            if per_episode_rule:
                alpha_episode = step_size(config.step_rule, episode + 1)
            vec_before = vec
            for state, action in zip(traj.states, traj.actions):
                if fresh:
                    q_hat = estimate_q(env, policy, state, action, config.gamma,
                                       rng).value
                else:
                    q_hat = q_shared
                s = features((state.position, state.velocity))
                g = clip_score(score(policy, s, action), config.epsilon_clip,
                               config.symmetric_clip)
                updates += 1
                alpha = alpha_episode if per_episode_rule else step_size(
                    config.step_rule, updates
                )
                try:
                    vec = apply_update(vec, q_hat * g, config.update_rule, alpha)
                except ScheduleError as err:
                    raise ScheduleError(f"{err} (update {updates})") from None
                # Cheap screen first; the squared norm is finite iff every
                # component is, unless it overflows, so confirm on trigger.
                if not math.isfinite(float(vec @ vec)) and not np.isfinite(vec).all():
                    diverged = True
                    log.warning(
                        "non-finite parameters at episode %d, update %d; aborting run",
                        episode, updates,
                    )
                    break
                policy = with_param_vector(policy, vec)
            if diverged:
                break

            returns.append(traj.total_return())
            window.append(returns[-1])
            window_sum += returns[-1]
            if len(window) > 100:
                window_sum -= window.pop(0)
            moving.append(window_sum / len(window))
            norms.append(float(np.linalg.norm(vec - vec_before)))
            counts.append(updates)
            if env.at_goal(traj.final_state):
                terminal_episodes += 1
            if track_basin and first_exit is None:
                if any(env.outside_basin(st) for st in traj.states) or env.outside_basin(
                    traj.final_state
                ):
                    first_exit = episode
    finally:
        np.seterr(**saved_errstate)

    return RunMetrics(
        returns=returns,
        moving_avg_100=moving,
        update_norms=norms,
        update_counts=counts,
        first_exit_episode=first_exit,
        wall_updates=updates,
        terminal_episodes=terminal_episodes,
        diverged=diverged,
        final_policy=policy,
    )
