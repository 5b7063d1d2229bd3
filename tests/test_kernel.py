"""The float paths against the object paths they must reproduce bit for bit.

``train`` runs shared-Q training on a car as one loop over Python floats;
``_train_reference`` is the object-level loop it must reproduce: every field
of the metrics, the final parameter bytes, and, where the reference raises,
the same exception with the same message.  ``estimate_q`` on a car walks
over floats too (``envs._car_walk``, which the shared-Q loop's rollout also
runs); ``walk`` + ``discounted_partial_return`` is its oracle: the same
value and horizon bytes, the same next draw of the random stream, the same
errors.
"""

import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from htpg import qvalue, training
from htpg.envs import (
    DEFAULT_MOUNTAIN_SPEC,
    DEFAULT_TRAPPED_SPEC,
    EnvState,
    MountainCar,
    TrappedCar,
    _car_walk,
    walk,
)
from htpg.errors import EnvUsageError, ParameterError, ScheduleError
from htpg.policy import (
    ADAPTIVE,
    FIXED,
    PolicyParams,
    _stable_scale,
    param_vector,
    policy_scale,
)
from htpg.qvalue import QEstimate, discounted_partial_return, draw_horizon, estimate_q
from htpg.training import (
    Constant,
    LinearRange,
    LipschitzAware,
    PlainAscent,
    PowerDecay,
    TrainConfig,
    _train_reference,
    train,
)


def _floats(values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def _outcome(run, config):
    """Everything a run returns, as comparable bytes, or the error it raised."""
    try:
        m = run(config)
    except Exception as err:  # the comparison is on type and message
        return ("raised", type(err), str(err))
    return (
        _floats(m.returns), _floats(m.moving_avg_100), _floats(m.update_norms),
        m.update_counts, m.first_exit_episode, m.wall_updates, m.terminal_episodes,
        m.diverged, param_vector(m.final_policy).tobytes(),
        m.final_policy.theta_sigma.tobytes(), m.final_policy.scale_mode,
    )


def _refuse(config):
    raise AssertionError("train fell back to the reference loop")


def _assert_kernel_matches_reference(config, monkeypatch):
    want = _outcome(_train_reference, config)
    with monkeypatch.context() as patch:
        patch.setattr(training, "_train_reference", _refuse)
        got = _outcome(train, config)
    assert got == want
    return want


_SHORT_TRAPPED = replace(DEFAULT_TRAPPED_SPEC, max_steps=80)
_TRAPPED = TrappedCar(spec=_SHORT_TRAPPED)
_FALSE_START = TrappedCar(spec=_SHORT_TRAPPED, start_at_false_goal=True, basin_exit=-2.45)
_NEAR_GOAL = TrappedCar(spec=_SHORT_TRAPPED, true_goal=2.1)
_MOUNTAIN = MountainCar(spec=replace(DEFAULT_MOUNTAIN_SPEC, max_steps=80))


def _config(env, alpha, seed, scale_mode=ADAPTIVE, sigma0=1.0, **kw):
    return TrainConfig(env=env, policy_init=PolicyParams.zeros(3, alpha, scale_mode, sigma0),
                       seed=seed, **kw)


CASES = {
    "cauchy-default": _config(_TRAPPED, 1.0, 1, episodes=5),
    "gaussian-default": _config(_TRAPPED, 2.0, 2, episodes=5),
    "false-start-cauchy": _config(_FALSE_START, 1.0, 3, episodes=6),
    "false-start-gaussian-power": _config(_FALSE_START, 2.0, 4, episodes=4,
                                          step_rule=PowerDecay(0.6)),
    "near-goal-fixed": _config(_NEAR_GOAL, 1.0, 5, FIXED, 20.0, episodes=6,
                               step_rule=Constant(0.002)),
    "near-goal-gaussian-symmetric": _config(_NEAR_GOAL, 2.0, 6, FIXED, 8.0, episodes=6,
                                            step_rule=Constant(0.01), symmetric_clip=True,
                                            epsilon_clip=0.05),
    "lipschitz-linear": _config(_FALSE_START, 1.0, 7, episodes=5,
                                update_rule=LipschitzAware(2.0), epsilon_clip=0.3),
    "lipschitz-power": _config(_FALSE_START, 2.0, 8, episodes=3, step_rule=PowerDecay(0.5),
                               update_rule=LipschitzAware(0.5), symmetric_clip=True),
    "mountain-cauchy": _config(_MOUNTAIN, 1.0, 9, episodes=3, gamma=0.9,
                               step_rule=LinearRange(1e-3, 1e-5, 3)),
    "mountain-gaussian-fixed": _config(_MOUNTAIN, 2.0, 10, FIXED, 0.5, episodes=3,
                                       step_rule=Constant(0.05)),
    # Step sizes that blow the parameters up: divergence and the errors the
    # reference raises on the way (a scale underflowing to 0 divides by it).
    "diverges-fixed": _config(_FALSE_START, 2.0, 11, FIXED, episodes=6,
                              step_rule=Constant(10.0)),
    "diverges-adaptive": _config(_FALSE_START, 1.0, 13, episodes=6,
                                 step_rule=Constant(100.0)),
    "diverges-mountain": _config(_MOUNTAIN, 1.0, 12, episodes=4, step_rule=Constant(1.0)),
    "zero-scale": _config(_FALSE_START, 1.0, 11, episodes=6, step_rule=Constant(1000.0)),
    "zero-scale-mountain": _config(_MOUNTAIN, 1.0, 13, episodes=6, step_rule=Constant(10.0)),
    "no-episodes": _config(_TRAPPED, 1.0, 15, episodes=0),
    # exp(log(s)) rounds above s, so the schedule's k = 2 step is one ulp
    # past the Lipschitz ceiling that its k = 1 step passed.
    "lipschitz-ceiling-rounding": _config(
        TrappedCar(spec=replace(DEFAULT_TRAPPED_SPEC, max_steps=5)), 1.0, 16, episodes=3,
        step_rule=LinearRange(0.00026362359173243805, 0.00026362359173243805, 3),
        update_rule=LipschitzAware(3793.2872146546697)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_kernel_matches_reference_on_fixed_seeds(name, monkeypatch):
    _assert_kernel_matches_reference(CASES[name], monkeypatch)


def test_fixed_cases_reach_divergence_and_errors():
    for name in ("diverges-fixed", "diverges-adaptive", "diverges-mountain"):
        assert _train_reference(CASES[name]).diverged
    for name in ("zero-scale", "zero-scale-mountain"):
        with pytest.raises(ZeroDivisionError):
            _train_reference(CASES[name])
    with pytest.raises(ScheduleError, match=r"^1/alpha - L = 0\.0 is not positive .*"
                                            r" \(update 6\)$"):
        _train_reference(CASES["lipschitz-ceiling-rounding"])


def test_zero_scale_at_a_draw_raises_the_samplers_error(monkeypatch):
    # One-step episodes: the update that drives sigma to 0 is an episode's
    # last, so the next episode's first draw meets the zero scale.
    env = TrappedCar(spec=replace(DEFAULT_TRAPPED_SPEC, max_steps=1), start_at_false_goal=True)
    config = _config(env, 2.0, 0, episodes=400, step_rule=Constant(1e6))
    outcome = _assert_kernel_matches_reference(config, monkeypatch)
    assert outcome[:2] == ("raised", ParameterError)
    assert "scale must be positive" in outcome[2]


def test_other_inputs_take_the_reference_loop(monkeypatch):
    fresh = replace(CASES["cauchy-default"], episodes=1, q_mode="fresh")
    wide = _config(_TRAPPED, 1.0, 1, episodes=1)
    wide = replace(wide, policy_init=PolicyParams.zeros(4, 1.0))
    calls = []
    monkeypatch.setattr(training, "_train_reference", calls.append)
    train(fresh)
    with pytest.raises(ParameterError, match="feature dimension"):
        _train_reference(wide)
    train(wide)
    assert calls == [fresh, wide]


@st.composite
def _configs(draw):
    kind = draw(st.sampled_from(["trapped", "false_start", "mountain"]))
    max_steps = draw(st.integers(1, 60))
    if kind == "mountain":
        env = MountainCar(spec=replace(DEFAULT_MOUNTAIN_SPEC, max_steps=max_steps))
    else:
        env = TrappedCar(spec=replace(DEFAULT_TRAPPED_SPEC, max_steps=max_steps),
                         start_at_false_goal=kind == "false_start",
                         true_goal=draw(st.sampled_from([2.05, 2.3, 3.6])),
                         basin_exit=draw(st.sampled_from([-2.5, -1.5])))
    alpha = draw(st.sampled_from([1.0, 2.0]))
    fixed = draw(st.booleans())
    sigma0 = draw(st.sampled_from([0.3, 1.0, 20.0]))
    episodes = draw(st.integers(1, 5))
    rule = draw(st.sampled_from(["linear", "power", "constant"]))
    if rule == "linear":
        step_rule = LinearRange(draw(st.sampled_from([5e-3, 0.5])), 5e-9, max(episodes, 1))
        alpha_max = step_rule.alpha_start
    elif rule == "power":
        step_rule = PowerDecay(draw(st.sampled_from([0.3, 0.9])))
        alpha_max = 1.0
    else:
        alpha_max = draw(st.sampled_from([1e-3, 0.1, 3.0, 1e4]))
        step_rule = Constant(alpha_max)
    update_rule = PlainAscent()
    if draw(st.booleans()):
        update_rule = LipschitzAware(0.5 / alpha_max)
    # Unequal theta_sigma components make the order of their sum matter.
    weights = st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3)
    return TrainConfig(
        env=env,
        policy_init=PolicyParams(draw(weights), draw(weights), alpha,
                                 FIXED if fixed else ADAPTIVE, sigma0),
        episodes=episodes, seed=draw(st.integers(0, 2**32)),
        gamma=draw(st.sampled_from([0.5, 0.97])),
        epsilon_clip=draw(st.sampled_from([0.01, 0.2, 0.9])),
        step_rule=step_rule, update_rule=update_rule,
        symmetric_clip=draw(st.booleans()),
    )


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=_configs())
def test_kernel_matches_reference_on_drawn_configs(config, monkeypatch):
    _assert_kernel_matches_reference(config, monkeypatch)


# -- fresh Q: the float walk against walk + discounted_partial_return -------


def _q_by_walk(env, policy, s0, a0, gamma, rng, horizon=None):
    """``estimate_q`` on the object path."""
    drawn = draw_horizon(gamma, rng) if horizon is None else int(horizon)
    traj = walk(env, policy, rng, s0, a0, min(drawn, env.spec.max_steps) + 1)
    return QEstimate(discounted_partial_return(traj.rewards, gamma, drawn), drawn)


def _refuse_walk(*args):
    raise AssertionError("estimate_q took the object walk")


def _q_outcome(estimate, env, policy, s0, a0, gamma, seed, horizon):
    """Value and horizon bytes plus the stream's next draw, or the error."""
    rng = np.random.default_rng(seed)
    try:
        est = estimate(env, policy, s0, a0, gamma, rng, horizon)
    except Exception as err:  # the comparison is on type and message
        return ("raised", type(err), str(err))
    return struct.pack("<d", est.value), est.horizon_drawn, struct.pack("<d", rng.random())


def _assert_float_q_matches_walk(monkeypatch, *args):
    """The float walk must be what runs: ``qvalue.walk`` refuses."""
    want = _q_outcome(_q_by_walk, *args)
    with monkeypatch.context() as patch:
        patch.setattr(qvalue, "walk", _refuse_walk)
        got = _q_outcome(estimate_q, *args)
    assert got == want
    return want


_Q_ENVS = (
    TrappedCar(spec=_SHORT_TRAPPED),
    _NEAR_GOAL,
    _MOUNTAIN,
    TrappedCar(spec=replace(DEFAULT_TRAPPED_SPEC, max_steps=1)),
    MountainCar(spec=replace(DEFAULT_MOUNTAIN_SPEC, max_steps=3)),
)
_Q_POLICIES = (
    PolicyParams(np.array([0.5, 20.0, 0.1]), np.array([0.1, 0.0, -0.3]), 1.0),
    PolicyParams(np.array([-1.0, 40.0, 2.0]), np.array([0.0, 0.2, 0.5]), 2.0),
    PolicyParams(np.array([0.3, -7.0, 0.25]), np.zeros(3), 1.0, FIXED, 5.0),
    PolicyParams(np.array([0.05, 3.0, -0.6]), np.zeros(3), 2.0, FIXED, 0.2),
)


def test_float_q_walk_matches_walk_on_fixed_seeds(monkeypatch):
    rng = np.random.default_rng(31)
    values = []
    for i in range(400):
        env = _Q_ENVS[i % len(_Q_ENVS)]
        spec = env.spec
        s0 = EnvState(rng.uniform(spec.state_low, spec.state_high),
                      rng.uniform(-env.max_speed, env.max_speed),
                      int(rng.integers(0, spec.max_steps)))
        a0 = (-30.0, 0.7, 30.0, math.nan)[i % 4]
        horizon = (None, None, 0, 1, 5, spec.max_steps - 1, spec.max_steps + 7)[i % 7]
        want = _assert_float_q_matches_walk(
            monkeypatch, env, _Q_POLICIES[i % len(_Q_POLICIES)], s0, a0,
            (0.97, 0.5)[i % 2], i, horizon)
        values.append(struct.unpack("<d", want[0])[0])
    # Goal, misleading-region and mountain rewards all occur.
    assert max(values) >= 100.0 and min(values) < 0.0 and any(0.0 < v < 100.0 for v in values)


@st.composite
def _q_inputs(draw):
    env = draw(st.sampled_from(_Q_ENVS))
    spec = env.spec
    extreme = st.sampled_from([1e300, -1e300, 1e-300, 0.0])
    weights = st.lists(st.floats(-1e3, 1e3) | extreme, min_size=3, max_size=3)
    # exp of the sum stays a positive finite scale; zero and NaN scales
    # have their own test.
    log_scales = st.lists(st.floats(-200.0, 200.0), min_size=3, max_size=3)
    policy = PolicyParams(draw(weights), draw(log_scales), draw(st.sampled_from([1.0, 2.0])),
                          draw(st.sampled_from([FIXED, ADAPTIVE])),
                          draw(st.sampled_from([1e-3, 1.0, 30.0])))
    s0 = EnvState(draw(st.floats(spec.state_low, spec.state_high)),
                  draw(st.floats(-env.max_speed, env.max_speed)),
                  draw(st.integers(0, spec.max_steps - 1)))
    a0 = draw(st.floats(2 * spec.action_low, 2 * spec.action_high) | st.floats())
    horizon = draw(st.none() | st.integers(0, spec.max_steps + 3))
    gamma = draw(st.sampled_from([0.5, 0.97, 0.999]))
    return env, policy, s0, a0, gamma, draw(st.integers(0, 2**32)), horizon


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(inputs=_q_inputs())
def test_float_q_walk_matches_walk_on_drawn_inputs(inputs, monkeypatch):
    _assert_float_q_matches_walk(monkeypatch, *inputs)


def _walk_outcome(walker, seed):
    """Everything a walk records, and the stream's next draw."""
    rng = np.random.default_rng(seed)
    return repr(walker(rng)), rng.random()


@settings(max_examples=300, deadline=None)
@given(inputs=_q_inputs())
def test_float_walk_records_what_walk_records(inputs):
    # A Q value sees only rewards; the trajectory shows every action bit.
    env, policy, s0, a0, _, seed, horizon = inputs
    steps = env.spec.max_steps if horizon is None else horizon + 1
    scale = _stable_scale(policy.alpha, policy_scale(policy))

    def by_walk(rng):
        traj = walk(env, policy, rng, s0, a0, steps)
        return ([s.position for s in traj.states], [s.velocity for s in traj.states],
                list(traj.actions), list(traj.rewards), traj.final_state.position,
                env.at_goal(traj.final_state))

    def by_floats(rng):
        return _car_walk(env, policy.theta_x0, scale, policy.alpha, rng, s0, a0, steps)

    assert _walk_outcome(by_floats, seed) == _walk_outcome(by_walk, seed)


def test_float_q_walk_refuses_a_terminal_state(monkeypatch):
    s0 = EnvState(1.5, 0.0, 3, terminal=True)
    for env in (_NEAR_GOAL, _MOUNTAIN):
        want = _assert_float_q_matches_walk(monkeypatch, env, _Q_POLICIES[0], s0, 0.0,
                                            0.97, 1, None)
        assert want == ("raised", EnvUsageError, "step() called on a terminal state")


@pytest.mark.parametrize("log_scale", [-800.0, math.nan])
def test_zero_or_nan_scale_raises_only_at_a_draw(log_scale, monkeypatch):
    spec = _SHORT_TRAPPED
    for alpha in (1.0, 2.0):
        policy = PolicyParams(np.array([0.5, 20.0, 0.1]), np.array([log_scale, 0.0, 0.0]),
                              alpha)
        # Mid-track with steps to go: the first draw meets the bad scale.
        want = _assert_float_q_matches_walk(monkeypatch, _NEAR_GOAL, policy,
                                            EnvState(1.5, 0.0), 0.0, 0.97, 2, 4)
        assert want[:2] == ("raised", ParameterError)
        assert "scale must be positive" in want[2]
        # Done after one transition, by the budget or at the goal: no draw.
        for s0 in (EnvState(1.5, 0.0, spec.max_steps - 1), EnvState(2.05, 0.1, 7)):
            for horizon in (None, 0, 9):
                want = _assert_float_q_matches_walk(monkeypatch, _NEAR_GOAL, policy, s0,
                                                    0.0, 0.97, 3, horizon)
                assert want[0] != "raised"


def test_other_policies_keep_the_object_walk(monkeypatch):
    walks = []
    monkeypatch.setattr(qvalue, "walk", lambda *args: walks.append(args) or walk(*args))
    with pytest.raises(ParameterError, match="feature dimension"):
        estimate_q(_MOUNTAIN, PolicyParams.zeros(4, 1.0), EnvState(-0.5, 0.0), 0.0, 0.97,
                   np.random.default_rng(0), horizon=3)
    assert len(walks) == 1


@pytest.mark.parametrize("name", sorted(CASES))
def test_fresh_training_matches_the_object_q_path(name, monkeypatch):
    config = replace(CASES[name], q_mode="fresh")
    walks = []
    with monkeypatch.context() as patch:
        patch.setattr(qvalue, "walk", lambda *args: walks.append(args) or walk(*args))
        got = _outcome(train, config)
    with monkeypatch.context() as patch:
        patch.setattr(training, "estimate_q", _q_by_walk)
        want = _outcome(train, config)
    assert got == want
    assert walks == []
