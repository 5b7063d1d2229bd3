"""The scalar shared-Q car loop against the reference episode loop.

``train`` runs shared-Q training on a car as one loop over Python floats;
``_train_reference`` is the object-level loop it must reproduce bit for bit:
every field of the metrics, the final parameter bytes, and, where the
reference raises, the same exception with the same message.
"""

import struct
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from htpg import training
from htpg.envs import DEFAULT_MOUNTAIN_SPEC, DEFAULT_TRAPPED_SPEC, MountainCar, TrappedCar
from htpg.errors import ParameterError
from htpg.policy import ADAPTIVE, FIXED, PolicyParams, param_vector
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
