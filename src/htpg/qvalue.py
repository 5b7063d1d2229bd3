"""Unbiased Monte-Carlo Q estimates over a geometric random horizon.

The estimator truncates a rollout at T ~ Geom(1 - sqrt(gamma)) and weights
the reward at step t by gamma**(t/2).  Since P(T >= t) = gamma**(t/2), the
expectation of the weighted sum telescopes to the ordinary discounted Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .envs import walk
from .errors import ParameterError
# features and sample_action go unused here: the benchmark tracer patches them.
from .policy import PolicyParams, features, sample_action  # noqa: F401

__all__ = ["QEstimate", "draw_horizon", "estimate_q", "discounted_partial_return"]


@dataclass(frozen=True, slots=True)
class QEstimate:
    """One Q sample and the geometric horizon it was drawn with.

    ``value`` always satisfies |value| <= U_R / (1 - sqrt(gamma)) when every
    reward is bounded by U_R.
    """

    value: float
    horizon_drawn: int


def draw_horizon(gamma: float, rng, size: int | None = None):
    """Draw T with P(T = t) = (1 - sqrt(gamma)) * gamma**(t/2), t = 0, 1, ...

    ``size=None`` returns one int; an integer ``size`` returns an array of
    draws (bulk path for diagnostics).
    """
    if not 0.0 < gamma < 1.0:
        raise ParameterError(f"gamma must lie in (0, 1), got {gamma}")
    p = 1.0 - math.sqrt(gamma)
    if size is None:
        return int(rng.geometric(p)) - 1
    return rng.geometric(p, size=size) - 1


def discounted_partial_return(rewards, gamma: float, horizon: int) -> float:
    """sum_{t=0}^{horizon} gamma**(t/2) * rewards[t], truncated at the data."""
    total = 0.0
    for t, r in enumerate(rewards[: horizon + 1]):
        total += gamma ** (0.5 * t) * r
    return total


def estimate_q(env, policy: PolicyParams, s0, a0: float, gamma: float, rng,
               horizon: int | None = None) -> QEstimate:
    """One unbiased Q sample for (s0, a0) under ``policy``.

    Draws the horizon, then walks from s0 (:func:`htpg.envs.walk`): executes
    a0 and follows the policy until the drawn horizon, a terminal state, or
    the step budget, whichever comes first, drawing the next action after
    every transition that is not ``done``.  ``horizon`` overrides the
    geometric draw (test hook).
    """
    drawn = draw_horizon(gamma, rng) if horizon is None else int(horizon)
    if drawn < 0:
        raise ParameterError(f"horizon must be non-negative, got {drawn}")
    traj = walk(env, policy, rng, s0, a0, min(drawn, env.spec.max_steps) + 1)
    return QEstimate(discounted_partial_return(traj.rewards, gamma, drawn), drawn)
