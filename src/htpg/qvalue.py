"""Unbiased Monte-Carlo Q estimates over a geometric random horizon.

The estimator truncates a rollout at T ~ Geom(1 - sqrt(gamma)) and weights
the reward at step t by gamma**(t/2).  Since P(T >= t) = gamma**(t/2), the
expectation of the weighted sum telescopes to the ordinary discounted Q.

:func:`estimate_q` walks one of two ways.  On a car (``envs._Car``) it runs
``envs._car_q_walk``, which sums the discounted rewards inside the walk and
records nothing.  Every other environment runs :func:`htpg.envs.walk` and
:func:`discounted_partial_return`, the oracle: both ways give the same
value, horizon, random stream and errors (``tests/test_kernel.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .envs import _Car, _car_q_walk, walk
from .errors import ParameterError
from .policy import PolicyParams, _float_sum, _stable_scale, policy_scale
# features and sample_action go unused here: the benchmark tracer patches them.
from .policy import features, sample_action  # noqa: F401

__all__ = ["QEstimate", "draw_horizon", "estimate_q", "discounted_partial_return"]


@dataclass(frozen=True, slots=True)
class QEstimate:
    """One Q sample and the geometric horizon it was drawn with.

    ``value`` satisfies |value| <= U_R / (1 - sqrt(gamma)) when every reward
    is bounded by U_R, up to rounding: once gamma**(t/2) falls below an ulp
    of the sum, a long walk can round a few ulps past the float ceiling.
    """

    value: float
    horizon_drawn: int


def _check_gamma(gamma: float) -> None:
    if not 0.0 < gamma < 1.0:
        raise ParameterError(f"gamma must lie in (0, 1), got {gamma}")


def draw_horizon(gamma: float, rng, size: int | None = None):
    """Draw T with P(T = t) = (1 - sqrt(gamma)) * gamma**(t/2), t = 0, 1, ...

    ``size=None`` returns one int; an integer ``size`` returns an array of
    draws (the bulk path that acceptance criterion 3 checks the law on).
    """
    _check_gamma(gamma)
    p = 1.0 - math.sqrt(gamma)
    if size is None:
        return int(rng.geometric(p)) - 1
    return rng.geometric(p, size=size) - 1


def discounted_partial_return(rewards, gamma: float, horizon: int) -> float:
    """sum_{t=0}^{horizon} gamma**(t/2) * rewards[t], truncated at the data,
    summed by ``policy._float_sum``; ``gamma`` must lie in (0, 1).

    A reward that is 0.0 or -0.0 adds no term and its power is not taken,
    as in ``envs._car_q_walk``; that never changes a bit of the sum (README
    "Numerics", no-op updates).
    """
    _check_gamma(gamma)
    return _float_sum(gamma ** (0.5 * t) * r
                      for t, r in enumerate(rewards[: horizon + 1]) if r)


def estimate_q(env, policy: PolicyParams, s0, a0: float, gamma: float, rng,
               horizon: int | None = None) -> QEstimate:
    """One unbiased Q sample for (s0, a0) under ``policy``.

    Draws the horizon, then walks from s0: executes a0 (clamped) and follows
    the policy until the drawn horizon or ``done`` (the goal, or the step
    budget counted from ``s0.step_count``), whichever comes first, with the
    walk's trailing draw (README "Numerics").  ``horizon`` overrides the
    geometric draw (test hook); ``gamma`` must lie in (0, 1) either way, and
    is checked before the generator is used.  A terminal ``s0`` raises
    ``EnvUsageError``, and a scale that is not positive raises ``scale must
    be positive`` only when a draw comes: a walk done after its first
    transition raises nothing.
    """
    if horizon is None:
        drawn = draw_horizon(gamma, rng)
    else:
        _check_gamma(gamma)
        drawn = int(horizon)
    if drawn < 0:
        raise ParameterError(f"horizon must be non-negative, got {drawn}")
    steps = min(drawn, env.spec.max_steps) + 1
    if isinstance(env, _Car):
        scale = _stable_scale(policy.alpha, policy_scale(policy))
        return QEstimate(_car_q_walk(env, policy.theta_x0.tolist(), scale, policy.alpha, rng,
                                     s0, a0, steps, gamma), drawn)
    rewards = walk(env, policy, rng, s0, a0, steps).rewards
    return QEstimate(discounted_partial_return(rewards, gamma, drawn), drawn)
