"""Episodic one-dimensional car environments driven by pure step functions.

Both environments are value types: ``step`` never mutates, it maps
(state, action) to a :class:`StepResult`.  Parallel episodes need nothing
more than independent states and random streams.

Each car states its reward rule once, as constants (``reward_rule()``).
:func:`rollout` and :func:`walk`, which step through ``step``, are the
oracles of two float loops that run one draw, clamp, step and reward loop on
Python floats: :func:`_car_rollout`, the rollout of shared-Q training, and
:func:`_car_q_walk`, the walk of a fresh Q estimate.  Both draw standard
variates in one :mod:`htpg.sas` noise block, scale each at its draw, as
:func:`walk` does, and do their arithmetic by README "Numerics".
:func:`walk` reads its policy once per walk; its oracle, which draws every
action through ``sample_action``, is ``walk_reference`` in
``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import EnvUsageError, ParameterError
from .policy import PolicyParams, _stable_scale, features, policy_scale, sample_action
from .sas import _check_scale, _noise_block, _rewind, _standard_sas

__all__ = [
    "EnvSpec",
    "EnvState",
    "StepResult",
    "Trajectory",
    "TrappedCar",
    "MountainCar",
    "rollout",
    "walk",
]


# The step budget's ceiling, 1000x the mountain car's 999 (README, ``[env]``).
_MAX_STEPS = 1_000_000


@dataclass(frozen=True, slots=True)
class EnvSpec:
    """Bounds, reward ceiling, and episode budget shared by the car family."""

    state_low: float
    state_high: float
    action_low: float
    action_high: float
    init_low: float
    init_high: float
    gamma: float
    reward_bound: float
    max_steps: int

    def __post_init__(self) -> None:
        if not self.state_low < self.state_high:
            raise ParameterError("state_low must be below state_high")
        if not self.action_low < self.action_high:
            raise ParameterError("action_low must be below action_high")
        if not (self.state_low <= self.init_low <= self.init_high <= self.state_high):
            raise ParameterError("initial interval must sit inside the state interval")
        if not 0.0 < self.gamma < 1.0:
            raise ParameterError(f"gamma must lie in (0, 1), got {self.gamma}")
        if not self.reward_bound > 0.0:
            raise ParameterError("reward_bound must be positive")
        if self.max_steps < 1:
            raise ParameterError("max_steps must be at least 1")
        if self.max_steps > _MAX_STEPS:
            raise ParameterError(f"max_steps must be at most {_MAX_STEPS}, got {self.max_steps}")

    def clamp_action(self, a: float) -> float:
        return min(max(a, self.action_low), self.action_high)


@dataclass(frozen=True, slots=True)
class EnvState:
    position: float
    velocity: float
    step_count: int = 0
    terminal: bool = False


@dataclass(frozen=True, slots=True)
class StepResult:
    next_state: EnvState
    reward: float
    done: bool


@dataclass(frozen=True, slots=True)
class Trajectory:
    """One rollout: the state each action was taken in, the (clamped) action,
    and the reward it earned, plus the state the rollout ended in."""

    states: tuple
    actions: tuple
    rewards: tuple
    final_state: EnvState

    def __len__(self) -> int:
        return len(self.actions)


DEFAULT_TRAPPED_SPEC = EnvSpec(
    state_low=-4.0,
    state_high=3.709,
    action_low=-20.0,
    action_high=20.0,
    init_low=1.15,
    init_high=2.0,
    gamma=0.97,
    reward_bound=100.0,
    max_steps=500,
)

DEFAULT_MOUNTAIN_SPEC = EnvSpec(
    state_low=-1.2,
    state_high=0.6,
    action_low=-1.0,
    action_high=1.0,
    init_low=-0.6,
    init_high=-0.4,
    gamma=0.97,
    reward_bound=1.0,
    max_steps=999,
)


class _Car:
    """Dynamics shared by both cars: thrust, the -gravity*cos(3x) force, the
    speed cap and inelastic walls.  Subclasses are dataclasses with the
    fields ``spec``, ``thrust_gain``, ``gravity`` and ``max_speed`` and
    define ``reward_rule()``, the constants of their reward (see
    :meth:`reward`).  No reward the rule pays may exceed ``spec.reward_bound``
    in magnitude (a NaN reward passes)."""

    def __post_init__(self) -> None:
        if not self.max_speed > 0.0:
            raise ParameterError(f"max_speed must be positive, got {self.max_speed}")
        _, goal_reward, _, _, band_reward, elsewhere = self.reward_rule()
        bound = self.spec.reward_bound
        over = [abs(r) for r in (goal_reward, band_reward, elsewhere) if abs(r) > bound]
        if over:
            raise ParameterError(f"reward_bound {bound} is below the largest reward {max(over)}")

    def reset(self, rng) -> EnvState:
        span = self.spec.init_high - self.spec.init_low
        return EnvState(self.spec.init_low + span * rng.random(), 0.0)

    def advance(self, x: float, v: float, a: float) -> tuple[float, float]:
        """Position and velocity after thrust ``a`` from ``(x, v)``.

        ``a`` is taken as given: :meth:`step` clamps it to the action range
        first.  The speed cap and the walls hold for any finite ``a``.
        """
        v = v + self.thrust_gain * a - self.gravity * math.cos(3.0 * x)
        v = min(max(v, -self.max_speed), self.max_speed)
        x = x + v
        spec = self.spec
        if x <= spec.state_low:
            return spec.state_low, 0.0
        if x >= spec.state_high:
            return spec.state_high, 0.0
        return x, v

    def reward(self, x: float) -> tuple[float, bool]:
        """``(reward, at_goal)`` for the position reached.  ``reward_rule()``
        is ``(goal, goal_reward, band_low, band_high, band_reward, elsewhere)``:
        the goal reward from the goal on, the band reward inside the closed
        band, else the reward elsewhere (a NaN position too)."""
        goal, goal_reward, band_low, band_high, band_reward, elsewhere = self.reward_rule()
        if x >= goal:
            return goal_reward, True
        if band_low <= x <= band_high:
            return band_reward, False
        return elsewhere, False

    def step(self, state: EnvState, action: float) -> StepResult:
        if state.terminal:
            raise EnvUsageError("step() called on a terminal state")
        x, v = self.advance(state.position, state.velocity,
                            self.spec.clamp_action(action))
        reward, at_goal = self.reward(x)
        steps = state.step_count + 1
        done = at_goal or steps >= self.spec.max_steps
        return StepResult(EnvState(x, v, steps, done), reward, done)

    def at_goal(self, state: EnvState) -> bool:
        return self.reward(state.position)[1]


@dataclass(frozen=True)
class TrappedCar(_Car):
    """Car resting in a gravity well, with a large terminal reward past the
    right-hand hill and a small per-step reward inside a misleading region
    near the left wall.

    Geometry (with the default force field -gravity*cos(3x)): the start
    interval [1.15, 2.0] sits in the stable well around pi/2, the true goal
    at 3.6 lies in the next well to the right, and the misleading region
    covers the well around -5pi/6 ~ -2.618.  ``false_start`` is that well's
    bottom, so a misleading-start episode begins with the full barrier
    height between it and the rest of the track.  ``basin_exit`` marks the
    hilltop (-pi/2) separating the misleading basin from the track; an
    episode counts as having left the basin once its position reaches it.
    All constants are overridable.
    """

    spec: EnvSpec = DEFAULT_TRAPPED_SPEC
    thrust_gain: float = 0.001
    gravity: float = 0.0025
    max_speed: float = 0.5
    true_goal: float = 3.6
    true_reward: float = 100.0
    false_low: float = -4.0
    false_high: float = -2.2
    false_reward: float = 0.1
    false_start: float = -2.6
    basin_exit: float = -1.5
    start_at_false_goal: bool = False

    def reset(self, rng) -> EnvState:
        if self.start_at_false_goal:
            return EnvState(self.false_start, 0.0)
        return super().reset(rng)

    def reward_rule(self) -> tuple[float, float, float, float, float, float]:
        return (self.true_goal, self.true_reward, self.false_low, self.false_high,
                self.false_reward, 0.0)

    def outside_basin(self, x: float) -> bool:
        return x >= self.basin_exit


@dataclass(frozen=True)
class MountainCar(_Car):
    """Continuous mountain car: -1 per step while between the hills, episode
    ends on reaching the goal height or on the step budget."""

    spec: EnvSpec = DEFAULT_MOUNTAIN_SPEC
    thrust_gain: float = 0.0015
    gravity: float = 0.0025
    max_speed: float = 0.07
    goal_position: float = 0.45

    def reward_rule(self) -> tuple[float, float, float, float, float, float]:
        # No band: inf <= x <= -inf holds for no x.
        return self.goal_position, 0.0, math.inf, -math.inf, 0.0, -1.0


def walk(env, policy: PolicyParams, rng, state: EnvState, action: float,
         steps: int) -> Trajectory:
    """Take ``action`` in ``state``, then follow ``policy``, for at most
    ``steps`` transitions.

    Per transition: step, record (the action as executed, clamped), stop on
    ``done``, else draw the next action at the state reached.  The policy is
    fixed, so its weights, tail and scale are read once per walk, and a draw
    is ``(t0*x + t1*v + t2) + scale * z``: :func:`sample_action`'s value and
    stream (README "Numerics").  As with :func:`sample_action`, a scale that
    is not positive raises at the first draw; a walk that draws nothing does
    not raise.
    """
    clamp = env.spec.clamp_action
    tail = policy.alpha
    scale = _stable_scale(tail, policy_scale(policy))
    t0, t1, t2 = policy.theta_x0.tolist()
    action = clamp(action)
    states: list[EnvState] = []
    actions: list[float] = []
    rewards: list[float] = []
    for _ in range(steps):
        result = env.step(state, action)
        states.append(state)
        actions.append(action)
        rewards.append(result.reward)
        state = result.next_state
        if result.done:
            break
        if len(states) == 1:  # the first draw
            _check_scale(scale)
        action = clamp((t0 * state.position + t1 * state.velocity + t2)
                       + scale * _standard_sas(tail, rng))
    return Trajectory(tuple(states), tuple(actions), tuple(rewards), state)


def _car_constants(env: _Car, state: EnvState) -> tuple:
    """What a float walk from ``state`` reads of ``env``, once per walk:
    ``(low, high, a_low, a_high, gain, gravity, cap, goal, goal_reward,
    band_low, band_high, band_reward, elsewhere, budget)``, the walls, the
    action bounds, :meth:`_Car.advance`'s constants, ``reward_rule()`` and the
    transitions left, ``max(max_steps - step_count, 1)``.  A terminal
    ``state`` raises :meth:`_Car.step`'s error."""
    if state.terminal:
        raise EnvUsageError("step() called on a terminal state")
    spec = env.spec
    return (spec.state_low, spec.state_high, spec.action_low, spec.action_high,
            env.thrust_gain, env.gravity, env.max_speed, *env.reward_rule(),
            max(spec.max_steps - state.step_count, 1))


def _car_rollout(env: _Car, theta, scale: float, tail: float, rng):
    """:func:`rollout` on a car over Python floats, for the step budget and a
    policy with the mode weights ``theta`` (Python floats), mode
    ``t0 * x + t1 * v + t2`` and draw ``mode + scale * z``, ``z`` a standard
    :mod:`htpg.sas` variate of ``tail`` 1 (Cauchy) or 2 (Gaussian).

    Returns ``(xs, vs, actions, rewards, x, at_goal)``: the positions,
    velocities and (clamped) actions of the transitions taken, their rewards,
    the final position and whether it is at the goal.  Like :func:`rollout`,
    it resets the car first, and a scale that is not positive raises the
    sampler's ``scale must be positive`` before any transition.  The whole
    budget's standard draws are one noise block, drawn after the reset, and
    each step scales its own.
    """
    state = env.reset(rng)
    (low, high, a_low, a_high, gain, gravity, cap, goal, goal_reward,
     band_low, band_high, band_reward, elsewhere, budget) = _car_constants(env, state)
    _check_scale(scale)
    noise, saved = _noise_block(rng, tail, budget)
    neg_cap = -cap
    cos = math.cos
    t0, t1, t2 = theta
    x, v = state.position, state.velocity
    xs: list[float] = []
    vs: list[float] = []
    actions: list[float] = []
    rewards: list[float] = []
    add_x, add_v, add_a, add_r = xs.append, vs.append, actions.append, rewards.append
    at_goal = False
    try:
        for z in noise:
            a = (t0 * x + t1 * v + t2) + scale * z
            if a_low > a:
                a = a_low
            if a_high < a:
                a = a_high
            add_x(x)
            add_v(v)
            add_a(a)
            v = v + gain * a - gravity * cos(3.0 * x)
            if neg_cap > v:
                v = neg_cap
            if cap < v:
                v = cap
            x = x + v
            if x <= low:
                x, v = low, 0.0
            elif x >= high:
                x, v = high, 0.0
            if x >= goal:
                add_r(goal_reward)
                at_goal = True
                break
            add_r(band_reward if band_low <= x <= band_high else elsewhere)
    finally:
        # Every recorded action used one draw.
        _rewind(rng, tail, saved, len(actions), len(noise))
    return xs, vs, actions, rewards, x, at_goal


def _car_q_walk(env: _Car, theta, scale: float, tail: float, rng, state: EnvState,
                action: float, steps: int, gamma: float) -> float:
    """:func:`walk` on a car over Python floats, reduced to the discounted sum
    a random-horizon Q estimate reads, ``sum_t gamma**(t/2) * r_t`` as
    ``qvalue.discounted_partial_return`` adds it; it records nothing.
    ``theta``, ``scale`` and ``tail`` are :func:`_car_rollout`'s, ``steps``
    is at least 1 and ``gamma`` lies in (0, 1).

    Like :func:`walk`, it clamps ``action`` and raises on a terminal
    ``state``.  The given pair's transition runs through the car's own
    methods; a walk that it ends (the goal, or a budget ``max(max_steps -
    step_count, 1)`` of 1) draws nothing and checks no scale.  Otherwise one
    noise block holds :func:`walk`'s standard draws, ``steps`` below the
    budget (the trailing draw included) else ``budget - 1``, and
    :func:`_car_rollout`'s loop runs over the first ``min(steps, budget) - 1``
    of them.

    A reward that is 0.0 or -0.0 adds no term, and its power is not taken.
    That is exact.  With gamma in (0, 1), ``w = gamma**(t/2)`` is finite and
    at least +0.0, so the term ``w * r`` is a signed zero.  Adding a signed
    zero to a sum that is not zero leaves it as it is, and adding one to a
    sum of +0.0 gives +0.0 (round to nearest).  The sum starts at +0.0 and
    never becomes -0.0: under round to nearest a sum is -0.0 only when both
    of its terms are.  So a skipped term never changes a bit of the sum.
    """
    (low, high, a_low, a_high, gain, gravity, cap, goal, goal_reward,
     band_low, band_high, band_reward, elsewhere, budget) = _car_constants(env, state)
    x, v = env.advance(state.position, state.velocity, env.spec.clamp_action(action))
    r, at_goal = env.reward(x)
    # The term at t = 0: gamma ** 0.0 * r and 0.0 + r are r for any r but a zero.
    total = r if r else 0.0
    if at_goal or budget == 1:
        return total
    _check_scale(scale)
    noise, saved = _noise_block(rng, tail, steps if steps < budget else budget - 1)
    neg_cap = -cap
    cos = math.cos
    t0, t1, t2 = theta
    t = 0
    try:
        for t, z in enumerate(noise[:min(steps, budget) - 1], 1):
            a = (t0 * x + t1 * v + t2) + scale * z
            if a_low > a:
                a = a_low
            if a_high < a:
                a = a_high
            v = v + gain * a - gravity * cos(3.0 * x)
            if neg_cap > v:
                v = neg_cap
            if cap < v:
                v = cap
            x = x + v
            if x <= low:
                x, v = low, 0.0
            elif x >= high:
                x, v = high, 0.0
            if x >= goal:
                if goal_reward:  # 0.0 and -0.0 are false, NaN is true
                    total += gamma ** (0.5 * t) * goal_reward
                break
            r = band_reward if band_low <= x <= band_high else elsewhere
            if r:
                total += gamma ** (0.5 * t) * r
        else:
            # Every draw was used, the one where ``steps`` cuts the walk too.
            t = len(noise)
    finally:
        _rewind(rng, tail, saved, t, len(noise))
    return total


def rollout(env, policy: PolicyParams, rng, horizon: int) -> Trajectory:
    """Simulate one episode of at most ``horizon`` transitions: reset, draw
    the first action, then :func:`walk`.  Training passes the step budget,
    which always ends in ``done``, so it takes no trailing draw.
    """
    if horizon < 1:
        raise ParameterError(f"horizon must be at least 1, got {horizon}")
    state = env.reset(rng)
    action = sample_action(policy, features((state.position, state.velocity)), rng)
    return walk(env, policy, rng, state, action, horizon)
