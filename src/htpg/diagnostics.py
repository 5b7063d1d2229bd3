"""Convergence and exploration diagnostics.

Covers three independent questions:

* does a noisy-ascent run respect the analytic averaged-gradient bound
  (:func:`bound_rhs` / :func:`check_bound`, driven by
  :func:`synthetic_sga_run` on a known-gradient objective);
* how quickly do policies escape the misleading-reward basin
  (:func:`first_exit_statistics`);
* how much of the action stream is genuinely extreme
  (:func:`tail_exploration_ratio`).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, ParameterError
from .envs import Trajectory
from .policy import PolicyParams, action_mode, features, policy_scale
from .training import StepRule, UpdateRule, apply_update, step_size

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
    """
    if n < 1:
        raise ParameterError(f"n must be at least 1, got {n}")
    first = 2.0 * p.u_r / (1.0 - p.gamma) * n ** (p.b - 1.0)
    second = p.l1j * p.y1
    third = p.l1j * p.y1 * p.b / (n * (1.0 - p.b)) * (n ** (1.0 - p.b) - 1.0)
    return first + second + third


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
        return -(1.0 - math.exp(-float(theta @ theta)))

    def grad(self, theta: np.ndarray) -> np.ndarray:
        return -2.0 * theta * math.exp(-float(theta @ theta))


# Like both training loops, the run stays quiet on its way to DivergenceError.
@np.errstate(over="ignore", invalid="ignore")
def synthetic_sga_run(objective, noise: NoiseModel, step_rule: StepRule,
                      update_rule: UpdateRule, n: int, rng,
                      theta0=None) -> np.ndarray:
    """Ascend ``objective`` for ``n`` steps on noisy exact gradients and
    return the true squared gradient norms at every visited iterate.

    The noise is Gaussian, scaled so that E||w_k||^2 equals the NoiseModel
    target exactly (equality, not just a bound).
    """
    if n < 1:
        raise ParameterError(f"n must be at least 1, got {n}")
    theta = (
        np.full(objective.dim, 0.5) if theta0 is None else np.asarray(theta0, dtype=float)
    )
    norms = np.empty(n)
    for k in range(1, n + 1):
        g = objective.grad(theta)
        g_sq = float(g @ g)
        norms[k - 1] = g_sq
        target = noise.y1 + noise.y2 * g_sq
        if target > 0.0:
            w = math.sqrt(target / theta.size) * rng.standard_normal(theta.size)
            g = g + w
        theta = apply_update(theta, g, update_rule, step_size(step_rule, k))
        if not np.isfinite(theta).all():
            raise DivergenceError(f"non-finite iterate at step {k}")
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
        p = sum(math.comb(effective, j) for j in range(wins, effective + 1))
        p /= 2.0 ** effective
    return ExitSummary(median_exit=medians, sign_test_p=float(p),
                       wins=wins, losses=losses, ties=ties)


def tail_exploration_ratio(traj: Trajectory, policy: PolicyParams,
                           threshold_sigmas: float) -> float:
    """Fraction of the trajectory's actions farther than
    ``threshold_sigmas * sigma`` from the policy mode at their state.

    Actions are recorded post-clamp, so the ratio reflects the executed
    stream; thresholds beyond the action bounds would undercount.
    """
    if len(traj) == 0:
        raise ParameterError("empty trajectory")
    sigma = policy_scale(policy)
    cut = threshold_sigmas * sigma
    extreme = 0
    for state, action in zip(traj.states, traj.actions):
        mode = action_mode(policy, features((state.position, state.velocity)))
        if abs(action - mode) > cut:
            extreme += 1
    return extreme / len(traj)
