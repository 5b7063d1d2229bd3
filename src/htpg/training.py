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

The loop has two implementations.  ``_train_reference`` works on
``PolicyParams``, ``Trajectory`` and score arrays and runs every input,
skipping each pair's update that it proves a no-op;
``_train_car_shared`` runs shared-Q training on the two cars as one loop
over Python floats, skipping the zero-Q episodes it proves no-ops under
any step rule; :func:`train` uses it there.  The reference is the oracle:
the fast loop must reproduce its metrics and final parameters bit for bit
(``tests/test_kernel.py``), by the float rules of README "Numerics".

A run diverges, and stops with ``diverged=True``, when an update leaves a
parameter that is not finite or the policy scale leaves (0, inf).  Both
loops check the scale where they compute it: before each episode's rollout
and before each pair's Q estimate and score.  So no scale of 0 reaches a
draw or a score, and no infinite scale a rollout.

Every number field of a step or update rule holds a finite double
(``errors.finite_float``).
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ParameterError, ScheduleError, finite_float
from .policy import (
    ADAPTIVE,
    PolicyParams,
    _exp_scale,
    _float_sum,
    _score_coefs,
    _stable_scale,
    clip_score,
    features,
    param_vector,
    policy_scale,
    score,
    with_param_vector,
)
from .envs import _Car, _car_rollout, rollout
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


@dataclass(frozen=True, slots=True)
class PowerDecay:
    """alpha_k = k**(-b) with b in (0, 1)."""

    b: float = 0.75

    def __post_init__(self) -> None:
        if not 0.0 < finite_float("b", self.b) < 1.0:
            raise ParameterError(f"b must lie in (0, 1), got {self.b}")


@dataclass(frozen=True, slots=True)
class LinearRange:
    """Log-linear interpolation from alpha_start (k=1) down to alpha_end
    (k=total), constant at alpha_end beyond.  :class:`TrainConfig` sets
    ``total`` to its episode budget."""

    alpha_start: float = 0.005
    alpha_end: float = 5e-9
    total: int = 1

    def __post_init__(self) -> None:
        alpha_start = finite_float("alpha_start", self.alpha_start)
        alpha_end = finite_float("alpha_end", self.alpha_end)
        if not alpha_end > 0.0:
            raise ParameterError("alpha_end must be positive")
        if not alpha_start >= alpha_end:
            raise ParameterError("alpha_start must be at least alpha_end")
        if not isinstance(self.total, numbers.Integral) or self.total < 1:
            raise ParameterError(f"total must be an integer of at least 1, got {self.total!r}")


@dataclass(frozen=True, slots=True)
class Constant:
    alpha: float = 0.001

    def __post_init__(self) -> None:
        if not finite_float("alpha", self.alpha) > 0.0:
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

    l1j: float = 1.0

    def __post_init__(self) -> None:
        if not finite_float("l1j", self.l1j) > 0.0:
            raise ParameterError("l1j must be positive")


UpdateRule = PlainAscent | LipschitzAware


def apply_update(theta: np.ndarray, grad: np.ndarray, rule: UpdateRule,
                 alpha_k: float) -> np.ndarray:
    if isinstance(rule, LipschitzAware):
        return theta + grad / _lipschitz_divisor(rule, alpha_k)
    return theta + alpha_k * grad


def _lipschitz_divisor(rule: LipschitzAware, alpha_k: float) -> float:
    """1/alpha_k - L, which must be positive."""
    inv = 1.0 / alpha_k - rule.l1j
    if inv <= 0.0:
        raise ScheduleError(
            f"1/alpha - L = {inv} is not positive at alpha={alpha_k}, L={rule.l1j}"
        )
    return inv


@dataclass(frozen=True)
class TrainConfig:
    """Everything one training run needs.  A ``LinearRange`` step rule is
    spanned over ``max(episodes, 1)`` episodes, also under
    ``dataclasses.replace``; ``step_rule=None`` selects ``LinearRange()``.
    A Lipschitz-aware update is checked here, at the largest step size of
    the run, so no update of :func:`train` can fail it."""

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
        rule = LinearRange() if self.step_rule is None else self.step_rule
        if not isinstance(rule, StepRule):
            raise ParameterError(f"unknown step rule {rule!r}")
        if not isinstance(self.update_rule, UpdateRule):
            raise ParameterError(f"unknown update rule {self.update_rule!r}")
        if isinstance(rule, LinearRange):
            rule = replace(rule, total=max(self.episodes, 1))
        object.__setattr__(self, "step_rule", rule)
        # 1/alpha - L falls as alpha grows, so the largest step the run can
        # take decides for every update.  That is step 1, except that a
        # LinearRange with (nearly) equal ends can round up after it:
        # LinearRange(0.005, 0.005, 100) gives 0.005000000000000002 at k = 2.
        if isinstance(self.update_rule, LipschitzAware):
            steps = range(1, rule.total + 1) if isinstance(rule, LinearRange) else (1,)
            _lipschitz_divisor(self.update_rule, max(step_size(rule, k) for k in steps))


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

    The schedule index counts parameter updates under PowerDecay and
    Constant, and episodes under LinearRange (fixed within an episode), so
    its configured start/end range holds however many updates each episode
    contributes.
    """
    if config.q_mode == Q_SHARED and isinstance(config.env, _Car):
        return _train_car_shared(config)
    return _train_reference(config)


class _Curves:
    """The per-episode series of :class:`RunMetrics`, computed from each
    episode's own records for both training paths."""

    def __init__(self, env) -> None:
        self.returns: list[float] = []
        self.moving: list[float] = []
        self.norms: list[float] = []
        self.counts: list[int] = []
        self.terminal_episodes = 0
        self.first_exit: int | None = None
        self._outside_basin = getattr(env, "outside_basin", None)

    def add(self, episode: int, rewards, before, after, updates: int, at_goal: bool,
            positions) -> None:
        """Record one finished episode from its rewards, its trainable
        parameters ``before`` and ``after`` it (Python floats), and the
        positions it visited, final one included.  The return, the update
        norm and the 100-episode mean are float sums (README "Numerics")."""
        returns = self.returns
        returns.append(_float_sum(rewards))
        window = returns[-100:]
        self.moving.append(_float_sum(window) / len(window))
        self.norms.append(math.sqrt(_float_sum((a - b) * (a - b)
                                               for a, b in zip(after, before))))
        self.counts.append(updates)
        self.terminal_episodes += at_goal
        if (self._outside_basin is not None and self.first_exit is None
                and any(map(self._outside_basin, positions))):
            self.first_exit = episode

    def metrics(self, updates: int, diverged: bool, final_policy: PolicyParams) -> RunMetrics:
        """The run's metrics; a diverged run stopped in the episode after the
        ones recorded, and is logged."""
        if diverged:
            log.warning("non-finite parameters or a scale outside (0, inf) at episode %d, "
                        "update %d; aborting run", len(self.returns), updates)
        return RunMetrics(
            returns=self.returns,
            moving_avg_100=self.moving,
            update_norms=self.norms,
            update_counts=self.counts,
            first_exit_episode=self.first_exit,
            wall_updates=updates,
            terminal_episodes=self.terminal_episodes,
            diverged=diverged,
            final_policy=final_policy,
        )


# Far below overflow: a product of three numbers under it is finite.
_FAR_BELOW_OVERFLOW = 1e100


def _zero_q_is_noop(env, params: tuple, sigma: float, xs: list, vs: list, actions: list) -> bool:
    """Whether an episode's updates with ``q_hat == 0`` provably leave every
    parameter's bits as they are, at policy scale ``sigma`` (``params`` are
    the updated parameters, mode weights first), under any step rule.
    ``sigma`` lies in (0, inf): the loop checked it before the rollout.

    Each update adds ``alpha * (0 * g)`` (or ``0 * g / inv``).  Every rule
    gives a finite ``alpha > 0`` from its checked finite fields, and
    :class:`TrainConfig` proves ``inv > 0``, so that is +-0.0 when every
    score component ``g`` is finite; and ``p + +-0.0`` is ``p`` unless ``p``
    is -0.0 (``-0.0 + 0.0`` is +0.0).  A score component that is not finite
    makes the update NaN, a divergence.  So this asks for finite parameters
    without a -0.0, and for a bound under which every score component is
    finite: with ``u = (a - mode) / sigma``, a mode component is at most
    ``2|u| / sigma`` times its feature (x, v or 1) and a scale component at
    most ``u**2 + 1``.  After its first state a finite walk stays inside the
    walls, so with ``b`` the largest of the wall positions and the first
    state's ``|x|`` and ``|v|``, every ``|x|`` is at most ``b`` and every
    ``|v|`` (which kept the car inside) at most ``2b``; every ``|a|`` is at
    most ``|a|max`` (the clamp).  That bounds ``|u|`` by
    ``(|a|max + 2|mode|max) / sigma``, with
    ``|mode|max = (|t0| + 2|t1|) b + |t2|`` and the 2 covering rounding.
    """
    if not (math.isfinite(sum(xs) + sum(vs) + sum(actions))
            and _finite_without_negative_zero(params)):
        return False
    spec = env.spec
    b = max(abs(spec.state_low), abs(spec.state_high), abs(xs[0]), abs(vs[0]))
    a_max = max(abs(spec.action_low), abs(spec.action_high))
    t0, t1, t2 = params[:3]
    inv_sigma = 1.0 / sigma
    u_max = (a_max + 2.0 * ((abs(t0) + 2.0 * abs(t1)) * b + abs(t2))) * inv_sigma
    limit = _FAR_BELOW_OVERFLOW
    return b < limit and inv_sigma < limit and u_max < limit


def _finite_without_negative_zero(params) -> bool:
    """Whether every parameter is finite and none is -0.0: the parameters
    to which adding a signed zero gives back the same bits."""
    return all(math.isfinite(p) and (p != 0.0 or math.copysign(1.0, p) > 0.0)
               for p in params)


def _update_is_noop(q_hat: float, g: np.ndarray, plain: bool) -> bool:
    """Whether the update by ``q_hat * g`` provably leaves every parameter's
    bits as they are, where ``plain`` says that every parameter is finite
    and none is -0.0 (:func:`_finite_without_negative_zero`).

    With ``q_hat == 0.0`` and every clipped score component ``g`` finite,
    ``q_hat * g`` is a vector of signed zeros, and so are ``alpha * (0 * g)``
    and ``0 * g / inv`` for the finite ``alpha > 0`` and ``inv > 0`` that
    every rule gives; ``p + +-0.0`` is ``p`` unless ``p`` is -0.0 (README
    "Numerics", no-op updates).
    """
    return q_hat == 0.0 and plain and all(map(math.isfinite, g.tolist()))


# Heavy-tailed q_hat * score products may overflow; that is exactly what the
# divergence guard is for, so numpy stays quiet while they run.  The float
# loop's products are on Python floats, which do not warn.
@np.errstate(over="ignore", invalid="ignore")
def _train_reference(config: TrainConfig) -> RunMetrics:
    """The episode loop over policy, trajectory and score objects: the
    reference for :func:`_train_car_shared`, and the path for fresh Q and
    for environments other than the cars.

    A pair whose update :func:`_update_is_noop` proves a no-op (under fresh
    Q on the trapped car, almost every pair: its start well pays nothing)
    counts as an update and keeps the schedule index, without the update,
    its finiteness scan or a new policy.  Whether every parameter is finite
    and none is -0.0 is decided at the start and after each applied update,
    the only times a parameter changes.
    """
    env = config.env
    rng = np.random.default_rng(config.seed)
    policy = config.policy_init
    vec = param_vector(policy)
    plain = _finite_without_negative_zero(vec.tolist())
    per_episode_rule = isinstance(config.step_rule, LinearRange)
    fresh = config.q_mode == Q_FRESH
    curves = _Curves(env)
    updates = 0
    diverged = False

    for episode in range(config.episodes):
        diverged = not 0.0 < policy_scale(policy) < math.inf
        if diverged:
            break
        traj = rollout(env, policy, rng, env.spec.max_steps)
        if not fresh:
            drawn = draw_horizon(config.gamma, rng)
            q_shared = discounted_partial_return(traj.rewards, config.gamma, drawn)
        if per_episode_rule:
            alpha_episode = step_size(config.step_rule, episode + 1)
        vec_before = vec
        for state, action in zip(traj.states, traj.actions):
            diverged = not 0.0 < policy_scale(policy) < math.inf
            if diverged:
                break
            if fresh:
                q_hat = estimate_q(env, policy, state, action, config.gamma,
                                   rng).value
            else:
                q_hat = q_shared
            s = features((state.position, state.velocity))
            g = clip_score(score(policy, s, action), config.epsilon_clip,
                           config.symmetric_clip)
            updates += 1
            if _update_is_noop(q_hat, g, plain):
                continue
            alpha = alpha_episode if per_episode_rule else step_size(
                config.step_rule, updates
            )
            vec = apply_update(vec, q_hat * g, config.update_rule, alpha)
            params = vec.tolist()
            if not all(map(math.isfinite, params)):
                diverged = True
                break
            policy = with_param_vector(policy, vec)
            plain = _finite_without_negative_zero(params)
        if diverged:
            break
        curves.add(episode, traj.rewards, vec_before.tolist(), vec.tolist(),
                   updates, env.at_goal(traj.final_state),
                   (st.position for st in (*traj.states, traj.final_state)))
    return curves.metrics(updates, diverged, policy)


def _train_car_shared(config: TrainConfig) -> RunMetrics:
    """:func:`_train_reference` for shared Q on a car, as one loop over
    Python floats: no policy, state, trajectory or score objects per step.
    It does the reference's arithmetic in its order (README "Numerics": the
    mode, sigma, the clip), with the rollout ``envs._car_rollout`` and the
    score ``policy._score_coefs``, and checks sigma where the reference does.

    Under every step rule, an episode with ``q == 0.0`` that
    :func:`_zero_q_is_noop` proves a no-op (on the trapped car, whose start
    well pays nothing, most episodes) adds its length to the update count
    and records a zero update norm, without its per-step updates.
    """
    env = config.env
    rng = np.random.default_rng(config.seed)
    init = config.policy_init
    tail = init.alpha
    adaptive = init.scale_mode == ADAPTIVE
    rule = config.step_rule
    per_episode_rule = isinstance(rule, LinearRange)
    lipschitz = config.update_rule if isinstance(config.update_rule, LipschitzAware) else None
    gamma = config.gamma
    hi = 1.0 + config.epsilon_clip
    lo = -hi if config.symmetric_clip else -math.inf

    # The parameters are t0..t2 (theta_x0) and c0..c2 (theta_sigma, inert in
    # fixed scale mode).
    t0, t1, t2 = init.theta_x0.tolist()
    c0, c1, c2 = init.theta_sigma.tolist()

    def params() -> tuple:
        """The trainable parameters, as ``param_vector`` orders them."""
        return (t0, t1, t2, c0, c1, c2) if adaptive else (t0, t1, t2)

    curves = _Curves(env)
    updates = 0
    diverged = False

    for episode in range(config.episodes):
        sigma = _exp_scale((c0 + c1) + c2) if adaptive else init.sigma0
        diverged = not 0.0 < sigma < math.inf
        if diverged:
            break
        xs, vs, actions, rewards, x, at_goal = _car_rollout(
            env, (t0, t1, t2), _stable_scale(tail, sigma), tail, rng)

        q = discounted_partial_return(rewards, gamma, draw_horizon(gamma, rng))
        pairs = zip(xs, vs, actions)
        before = params()
        if q == 0.0 and _zero_q_is_noop(env, before, sigma, xs, vs, actions):
            # No update of the episode can change a bit: count them.
            updates += len(xs)
            pairs = ()
        elif per_episode_rule:
            alpha = step_size(rule, episode + 1)
        for xk, vk, ak in pairs:
            if adaptive:
                sigma = _exp_scale((c0 + c1) + c2)
                diverged = not 0.0 < sigma < math.inf
                if diverged:
                    break
            mode_coef, sigma_coef = _score_coefs(tail, ak, t0 * xk + t1 * vk + t2, sigma)
            g0, g1, g2 = mode_coef * xk, mode_coef * vk, mode_coef
            # clip_score, component by component.
            g0 = hi if g0 > hi else lo if g0 < lo else g0
            g1 = hi if g1 > hi else lo if g1 < lo else g1
            g2 = hi if g2 > hi else lo if g2 < lo else g2
            gs = hi if sigma_coef > hi else lo if sigma_coef < lo else sigma_coef
            updates += 1
            if not per_episode_rule:
                alpha = step_size(rule, updates)
            # apply_update on q * g, component by component.
            if lipschitz is None:
                n0, n1, n2 = t0 + alpha * (q * g0), t1 + alpha * (q * g1), t2 + alpha * (q * g2)
                ds = alpha * (q * gs)
            else:
                inv = _lipschitz_divisor(lipschitz, alpha)
                n0, n1, n2 = t0 + q * g0 / inv, t1 + q * g1 / inv, t2 + q * g2 / inv
                ds = q * gs / inv
            if adaptive:
                m0, m1, m2 = c0 + ds, c1 + ds, c2 + ds
                total = n0 + n1 + n2 + m0 + m1 + m2
                finite = math.isfinite(total) or all(
                    map(math.isfinite, (n0, n1, n2, m0, m1, m2)))
            else:
                total = n0 + n1 + n2
                finite = math.isfinite(total) or all(map(math.isfinite, (n0, n1, n2)))
            if not finite:
                diverged = True
                break
            t0, t1, t2 = n0, n1, n2
            if adaptive:
                c0, c1, c2 = m0, m1, m2
        if diverged:
            break
        xs.append(x)
        curves.add(episode, rewards, before, params(), updates, at_goal, xs)
    return curves.metrics(updates, diverged, with_param_vector(init, np.array(params())))
