"""Convergence and exploration diagnostics: the averaged-gradient bound
(:func:`bound_rhs`, :func:`check_bound`) on a noisy-ascent testbed with a
known gradient (:func:`synthetic_sga_run`), how quickly policies escape the
misleading-reward basin (:func:`first_exit_statistics`), and how much of the
action stream is genuinely extreme (:func:`tail_exploration_ratio`).

The noisy-ascent loop of :func:`synthetic_sga_run` is one loop over Python
floats that must reproduce its oracle, a generic array loop in
``tests/oracles.py``, bit for bit (README "Numerics").
"""

from __future__ import annotations

import math
import statistics
from array import array
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import DivergenceError, ParameterError
from .envs import Trajectory
from .policy import PolicyParams, _squared_norm, policy_scale
from .sas import _rewind
from .training import PlainAscent, StepRule, UpdateRule, step_size
# apply_update goes unused here: the benchmark tracer patches it.
from .training import apply_update  # noqa: F401

__all__ = [
    "NoiseModel",
    "BoundParams",
    "BoundReport",
    "SmoothBump",
    "bound_rhs",
    "synthetic_sga_run",
    "check_bound",
    "ExitSummary",
    "first_exit_statistics",
    "tail_exploration_ratio",
]


@dataclass(frozen=True, slots=True)
class NoiseModel:
    """Zero-mean gradient noise with E||w||^2 = y1 + y2 * ||grad||^2."""

    y1: float
    y2: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.y1 < math.inf and 0.0 <= self.y2 < math.inf):
            raise ParameterError(
                f"noise constants must be finite and non-negative, got y1={self.y1}, y2={self.y2}")


@dataclass(frozen=True, slots=True)
class BoundParams:
    """Constants entering the averaged-gradient bound: reward ceiling u_r,
    discount gamma, gradient Lipschitz constant l1j, noise floor y1, and the
    step-decay exponent b."""

    u_r: float
    gamma: float
    l1j: float
    y1: float
    b: float

    def __post_init__(self) -> None:
        if not all(0.0 < c < math.inf for c in (self.u_r, self.l1j, self.y1)):
            raise ParameterError("u_r, l1j, and y1 must be finite and positive")
        if not 0.0 < self.gamma < 1.0:
            raise ParameterError(f"gamma must lie in (0, 1), got {self.gamma}")
        if not 0.0 < self.b < 1.0:
            raise ParameterError(f"b must lie in (0, 1), got {self.b}")


def bound_rhs(p: BoundParams, n: int) -> float:
    """The analytic ceiling on the N-step average of E||grad J||^2 under a
    k**(-b) step-size schedule:

        2 u_r / (1 - gamma) * N**(b-1)
        + L y1
        + L y1 b / (N (1 - b)) * (N**(1-b) - 1).

    Constants so large that the ceiling overflows raise ParameterError: an
    infinite ceiling would let every run "hold".
    """
    if n < 1:
        raise ParameterError(f"n must be at least 1, got {n}")
    first = 2.0 * p.u_r / (1.0 - p.gamma) * n ** (p.b - 1.0)
    second = p.l1j * p.y1
    third = p.l1j * p.y1 * p.b / (n * (1.0 - p.b)) * (n ** (1.0 - p.b) - 1.0)
    rhs = first + second + third
    if not math.isfinite(rhs):
        raise ParameterError(f"the bound is not finite (rhs={rhs}) for {p}")
    return rhs


@dataclass(frozen=True)
class SmoothBump:
    """J(theta) = -(1 - exp(-||theta||^2)): bounded in (-1, 0], maximized at
    the origin, with gradient Lipschitz constant exactly 2 (the Hessian
    spectral norm max(|4r - 2|, 2) * exp(-r) over r = ||theta||^2 peaks at
    r = 0)."""

    dim: int = 2

    grad_lipschitz = 2.0
    value_bound = 1.0

    def value(self, theta: np.ndarray) -> float:
        return -(1.0 - math.exp(-_squared_norm(theta)))

    def grad(self, theta: np.ndarray) -> np.ndarray:
        return -2.0 * theta * math.exp(-_squared_norm(theta))


def synthetic_sga_run(objective, noise: NoiseModel, step_rule: StepRule,
                      update_rule: UpdateRule, n: int, rng,
                      theta0=None) -> np.ndarray:
    """Ascend ``objective`` for ``n`` steps on noisy exact gradients and
    return the true squared gradient norms at every visited iterate.

    The noise is Gaussian, scaled so that E||w_k||^2 equals the NoiseModel
    target exactly (equality, not just a bound).  The run is
    :func:`_smooth_bump_run`: ``objective`` must be a 2-D :class:`SmoothBump`,
    ``update_rule`` a :class:`PlainAscent`, ``theta0`` (default (0.5, 0.5))
    two coordinates and ``step_rule`` a hashable step rule; anything else
    raises ParameterError before any draw.
    """
    if n < 1:
        raise ParameterError(f"n must be at least 1, got {n}")
    try:
        norms = np.empty(n)  # first: an impossible n builds no schedule
    except MemoryError as err:
        raise ParameterError(f"n={n} gradient norms do not fit in memory") from err
    theta = np.full(2, 0.5) if theta0 is None else np.asarray(theta0, dtype=float)
    if not (type(objective) is SmoothBump and objective.dim == 2 and theta.shape == (2,)
            and type(update_rule) is PlainAscent and isinstance(step_rule, StepRule)):
        raise ParameterError(
            "the testbed runs plain ascent on the 2-D SmoothBump from 2 coordinates, got "
            f"{objective!r}, {update_rule!r} and {step_rule!r} from shape {theta.shape}")
    try:
        schedule = _step_schedule(step_rule, n)
    except TypeError:  # lru_cache hashes the rule
        raise ParameterError(f"step rule {step_rule!r} is not hashable") from None
    return _smooth_bump_run(noise, schedule, rng, theta, norms)


# The most noise pairs the float loop draws in one generator call.
_NOISE_BLOCK = 4096


@lru_cache(maxsize=1)
def _step_schedule(rule: StepRule, n: int) -> array:
    """``step_size(rule, k)`` for k = 1..n as doubles, bit for bit, built
    once per ``(rule, n)``; the cache holds one schedule, 8 bytes a step."""
    return array("d", map(partial(step_size, rule), range(1, n + 1)))


@np.errstate(over="ignore", invalid="ignore")
def _smooth_bump_run(noise: NoiseModel, schedule: array, rng, theta: np.ndarray,
                     norms: np.ndarray) -> np.ndarray:
    """:func:`synthetic_sga_run` from the iterate ``theta``, as one loop over
    Python floats, taking step k's size from ``schedule[k - 1]``; fills and
    returns ``norms``.

    It does the oracle's arithmetic: ``policy._squared_norm`` written inline,
    the gradient ``(-2.0 * t) * math.exp(-||t||^2)`` per component and
    ``apply_update``'s ``t + alpha * g``.  Noise comes in blocks of
    ``standard_normal(2 * m)``, the same stream as m calls of
    ``standard_normal(2)``, drawn only for a positive target, as in the
    oracle, and ``sas._rewind`` takes back the unused part however the loop
    ends.  ``sqrt(y1 / 2)`` serves every step whose target is ``y1``; other
    targets take their own root.  The iterate check tests the coordinates
    one by one only when their sum is not finite.
    """
    n = len(schedule)
    norms_w = memoryview(norms)
    exp, isfinite, sqrt = math.exp, math.isfinite, math.sqrt
    y1, y2 = noise.y1, noise.y2
    y1_scale = sqrt(y1 / 2)
    t0, t1 = theta.tolist()
    bit_generator = rng.bit_generator
    block, used, filled, block_state = [], 0, 0, None
    try:
        for i, alpha in enumerate(schedule):
            e = exp(-(t0 * t0 + t1 * t1))
            g0, g1 = (-2.0 * t0) * e, (-2.0 * t1) * e
            g_sq = g0 * g0 + g1 * g1
            norms_w[i] = g_sq
            target = y1 + y2 * g_sq
            if target > 0.0:
                if used == filled:
                    block_state = bit_generator.state
                    block = rng.standard_normal(2 * min(_NOISE_BLOCK, n - i)).tolist()
                    used, filled = 0, len(block)
                scale = y1_scale if target == y1 else sqrt(target / 2)
                g0, g1 = g0 + scale * block[used], g1 + scale * block[used + 1]
                used += 2
            t0, t1 = t0 + alpha * g0, t1 + alpha * g1
            if not isfinite(t0 + t1) and not (isfinite(t0) and isfinite(t1)):
                raise DivergenceError(f"non-finite iterate at step {i + 1}")
    finally:
        _rewind(rng, 2.0, block_state, used, filled)
    return norms


@dataclass(frozen=True, slots=True)
class BoundReport:
    lhs: float
    rhs: float
    holds: bool


def check_bound(grad_norm_sq, p: BoundParams) -> BoundReport:
    """Compare the empirical average of ||grad J||^2 with :func:`bound_rhs`."""
    seq = np.asarray(grad_norm_sq, dtype=float)
    if seq.size < 1:
        raise ParameterError("need at least one gradient norm")
    lhs = float(seq.mean())
    rhs = bound_rhs(p, seq.size)
    return BoundReport(lhs=lhs, rhs=rhs, holds=lhs <= rhs)


@dataclass(frozen=True)
class ExitSummary:
    """Per-family median first-exit episode plus a paired one-sided sign test
    that the first family exits earlier than the second."""

    median_exit: dict
    sign_test_p: float
    wins: int
    losses: int
    ties: int


def first_exit_statistics(metrics_by_family: dict) -> ExitSummary:
    """Summarize first-exit episodes across seed-matched runs.

    ``metrics_by_family`` maps family name to a list of RunMetrics, one per
    seed, in matching seed order across families.  Runs that never exited
    count as +inf.  The sign test pairs the first two families in insertion
    order (put the heavy-tailed candidate first) and reports
    P(wins >= observed | fair coin) over the non-tied pairs; all-tied input
    yields p = 1.
    """
    if len(metrics_by_family) < 2:
        raise ParameterError("need at least two families to compare")
    exits = {}
    for name, runs in metrics_by_family.items():
        if not runs:
            raise ParameterError(f"family {name!r} has no runs")
        exits[name] = [
            math.inf if m.first_exit_episode is None else float(m.first_exit_episode)
            for m in runs
        ]
    medians = {name: float(statistics.median(vals)) for name, vals in exits.items()}

    first, second = list(exits)[:2]
    a, b = exits[first], exits[second]
    if len(a) != len(b):
        raise ParameterError("paired sign test needs equal seed counts")
    wins = sum(1 for x, y in zip(a, b) if x < y)
    losses = sum(1 for x, y in zip(a, b) if x > y)
    ties = len(a) - wins - losses
    effective = wins + losses
    if effective == 0:
        p = 1.0
    else:
        # Exact integer division: 2.0 ** effective overflows past 1023 pairs.
        p = sum(math.comb(effective, j) for j in range(wins, effective + 1)) / 2 ** effective
    return ExitSummary(median_exit=medians, sign_test_p=float(p),
                       wins=wins, losses=losses, ties=ties)


def tail_exploration_ratio(traj: Trajectory, policy: PolicyParams,
                           threshold_sigmas: float) -> float:
    """Fraction of the trajectory's actions farther than
    ``threshold_sigmas * sigma`` from the policy mode at their state.

    Actions are recorded post-clamp, so the ratio reflects the executed
    stream; thresholds beyond the action bounds would undercount.
    """
    if not threshold_sigmas > 0.0:
        raise ParameterError(f"threshold must be positive, got {threshold_sigmas}")
    if len(traj) == 0:
        raise ParameterError("empty trajectory")
    t0, t1, t2 = policy.theta_x0.tolist()
    cut = threshold_sigmas * policy_scale(policy)
    extreme = 0
    for state, action in zip(traj.states, traj.actions):
        # action_mode at the features (x, v, 1) (README "Numerics").
        if abs(action - (t0 * state.position + t1 * state.velocity + t2)) > cut:
            extreme += 1
    return extreme / len(traj)
