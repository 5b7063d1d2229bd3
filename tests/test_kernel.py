"""The float paths against the object paths they must reproduce bit for bit.

``train`` runs shared-Q training on a car as one loop over Python floats,
which skips the updates of a zero-Q episode it proves no-ops;
``_train_reference`` is the object-level loop it must reproduce: every field
of the metrics, the final parameter bytes, and, where the reference raises,
the same exception with the same message.  ``_train_reference`` itself
skips each update it proves a no-op; with that skip switched off, it is
the oracle of ``train`` in both Q modes.  The shared-Q loop's rollout
runs over floats (``envs._car_rollout``, stepping the car inline and drawing
its noise in one block), and ``rollout`` is its oracle; so does
``estimate_q`` on a car (``envs._car_q_walk``, a walk from a given pair that
sums its discounted rewards as it goes), and ``walk`` +
``discounted_partial_return`` is its oracle.  Each pair must give the same
records, value and horizon bytes, the same next draw of the random stream,
the same errors.
``synthetic_sga_run`` ascends over floats, only for plain ascent on a 2-D
``SmoothBump``; ``oracles.synthetic_sga_reference``, the generic loop, is its
oracle on the same three counts (norms bytes, errors, next draw).  Every
other input is a ParameterError before any draw, which the tests check with
the float loop patched to refuse.
"""

import copy
import itertools
import math
import struct
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import ChainEnv
from htpg import diagnostics, qvalue, training
from htpg.diagnostics import NoiseModel, SmoothBump
from htpg.envs import (
    DEFAULT_MOUNTAIN_SPEC,
    DEFAULT_TRAPPED_SPEC,
    EnvState,
    MountainCar,
    TrappedCar,
    _car_q_walk,
    _car_rollout,
    rollout,
    walk,
)
from htpg.errors import DivergenceError, EnvUsageError, ParameterError, ScheduleError
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

from oracles import synthetic_sga_reference


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


def _sigma(policy) -> float:
    """The policy scale, inf where exp overflows (without numpy's warning)."""
    with np.errstate(over="ignore"):
        return policy_scale(policy)


def _config(env, alpha, seed, scale_mode=ADAPTIVE, sigma0=1.0, **kw):
    return TrainConfig(env=env, policy_init=PolicyParams.zeros(3, alpha, scale_mode, sigma0),
                       seed=seed, **kw)


def _zero_q_config(env, alpha=2.0, scale_mode=FIXED, sigma0=1.0, theta_x0=(0.0, 0.0, 0.0),
                   theta_sigma=(0.0, 0.0, 0.0), **kw):
    policy = PolicyParams(np.array(theta_x0), np.array(theta_sigma), alpha, scale_mode, sigma0)
    return TrainConfig(env=env, policy_init=policy, episodes=3, seed=19, **kw)


def _unchecked(value, **changes):
    """A copy of the frozen ``value`` with ``changes`` set past its checks."""
    out = copy.copy(value)
    for name, field_value in changes.items():
        object.__setattr__(out, name, field_value)
    return out


# A LinearRange with equal ends whose k = 2 step rounds up to exactly 1/L.
_CEILING_STEP = LinearRange(0.00026362359173243805, 0.00026362359173243805, 3)
_CEILING_L = 3793.2872146546697
_CEILING_RULES = {"step_rule": _CEILING_STEP, "update_rule": LipschitzAware(_CEILING_L)}


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
    # Step sizes that blow the parameters up: divergence, also through a
    # scale that underflows to 0 while the parameters stay finite.
    "diverges-fixed": _config(_FALSE_START, 2.0, 11, FIXED, episodes=6,
                              step_rule=Constant(10.0)),
    "diverges-adaptive": _config(_FALSE_START, 1.0, 13, episodes=6,
                                 step_rule=Constant(100.0)),
    "diverges-mountain": _config(_MOUNTAIN, 1.0, 12, episodes=4, step_rule=Constant(1.0)),
    "zero-scale": _config(_FALSE_START, 1.0, 11, episodes=6, step_rule=Constant(1000.0)),
    "zero-scale-mountain": _config(_MOUNTAIN, 1.0, 13, episodes=6, step_rule=Constant(10.0)),
    "no-episodes": _config(_TRAPPED, 1.0, 15, episodes=0),
    # exp(log(s)) rounds above s, so the schedule's k = 2 step is one ulp
    # past the Lipschitz ceiling that its k = 1 step passes: TrainConfig
    # rejects L = 1/alpha_2 (_CEILING_RULES) and takes the next float down,
    # whose divisor at k = 2 is one ulp of L.
    "lipschitz-ceiling-rounding": _config(
        TrappedCar(spec=replace(DEFAULT_TRAPPED_SPEC, max_steps=5)), 1.0, 16, episodes=3,
        step_rule=_CEILING_STEP, update_rule=LipschitzAware(math.nextafter(_CEILING_L, 0.0))),
    # Zero-Q episodes (no reward in the start well), whose updates the kernel
    # skips only where it can prove them no-ops.  A scale this small makes
    # a score component infinite, and 0 * inf is NaN: the reference diverges.
    "zero-q-tiny-sigma": _config(_TRAPPED, 2.0, 17, FIXED, 1e-310, episodes=3),
    # -0.0 + 0.0 is +0.0, so zero updates still flip the sign bits.
    "zero-q-negative-zero": TrainConfig(
        env=_TRAPPED, policy_init=PolicyParams(np.array([0.0, -0.0, 0.0]),
                                               np.array([0.0, 0.0, -0.0]), 2.0),
        episodes=3, seed=18),
    # The ceiling-rounding schedule of the case above over zero-Q episodes
    # 80 updates long.
    "zero-q-lipschitz-ceiling-rounding": _config(
        _TRAPPED, 2.0, 16, episodes=3,
        step_rule=_CEILING_STEP, update_rule=LipschitzAware(math.nextafter(_CEILING_L, 0.0))),
    # Zero-Q episodes before and after ones that update, under each rule
    # other than LinearRange: the skip keeps PowerDecay's update index.
    "zero-q-power-decay": _config(_TRAPPED, 1.0, 25, episodes=6, step_rule=PowerDecay(0.75)),
    "zero-q-constant": _config(_TRAPPED, 1.0, 25, episodes=6, step_rule=Constant(0.001)),
    "zero-q-lipschitz-power-decay": _config(_TRAPPED, 1.0, 25, episodes=6,
                                            step_rule=PowerDecay(0.75),
                                            update_rule=LipschitzAware(0.5)),
    # One bound of the no-op proof each, which alone refuses a zero-Q episode
    # where the reference diverges: a start far past the walls, walls far
    # apart, dynamics that give NaN, a 1/sigma that overflows on its own, a
    # mode far from every action and an infinite scale weight.
    "zero-q-far-start": _zero_q_config(TrappedCar(
        spec=_SHORT_TRAPPED, start_at_false_goal=True, false_start=1e305,
        true_goal=math.inf), theta_x0=(0.0, 0.0, 1e9)),
    "zero-q-far-walls": _zero_q_config(TrappedCar(
        spec=replace(_SHORT_TRAPPED, state_low=-1e300, state_high=1e300), thrust_gain=1e298,
        max_speed=1e300, true_goal=math.inf, false_reward=0.0), theta_x0=(0.0, 0.0, 1e9)),
    "zero-q-nan-dynamics": _zero_q_config(
        TrappedCar(spec=_SHORT_TRAPPED, thrust_gain=math.inf, gravity=math.inf),
        theta_x0=(0.0, 0.0, 10.0)),
    "zero-q-narrow-actions": _zero_q_config(
        TrappedCar(spec=replace(_SHORT_TRAPPED, action_low=-1e-210, action_high=1e-210)),
        sigma0=1e-308),
    "zero-q-far-mode": _zero_q_config(
        TrappedCar(spec=_SHORT_TRAPPED, true_goal=math.inf), alpha=1.0, scale_mode=ADAPTIVE,
        theta_x0=(0.0, 0.0, 1e200)),
    "zero-q-infinite-scale-weight": _zero_q_config(_TRAPPED, scale_mode=ADAPTIVE,
                                                   theta_sigma=(math.inf, 0.0, 0.0)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_kernel_matches_reference_on_fixed_seeds(name, monkeypatch):
    _assert_kernel_matches_reference(CASES[name], monkeypatch)


def test_fixed_cases_reach_divergence_and_errors():
    for name in ("diverges-fixed", "diverges-adaptive", "diverges-mountain"):
        assert _train_reference(CASES[name]).diverged
    # The scale leaves (0, inf) with finite parameters: a divergence, with the
    # parameters that gave it.  The trapped car's first step takes the scale
    # to inf, where the run stops; unchecked, it went on to underflow to 0.
    for name, sigma in (("zero-scale", math.inf), ("zero-scale-mountain", 0.0)):
        m = _train_reference(CASES[name])
        assert m.diverged and _sigma(m.final_policy) == sigma
    # Past the ceiling, the config does not build; one float below it, the
    # divisor at k = 2 is one ulp and the run trains.
    for name in ("lipschitz-ceiling-rounding", "zero-q-lipschitz-ceiling-rounding"):
        with pytest.raises(ScheduleError, match=r"^1/alpha - L = 0\.0 is not positive "
                                                r"at alpha=0\.0002636235917324381, L="):
            replace(CASES[name], **_CEILING_RULES)
        rule = CASES[name].update_rule
        assert 1.0 / training.step_size(CASES[name].step_rule, 2) - rule.l1j > 0.0
        assert _train_reference(CASES[name]).wall_updates > 5


def test_zero_q_cases_reach_what_they_test(monkeypatch):
    # Per zero-Q episode: did the kernel prove its updates no-ops?
    proofs = []
    prove = training._zero_q_is_noop
    monkeypatch.setattr(training, "_zero_q_is_noop",
                        lambda *args: proofs.append(prove(*args)) or proofs[-1])
    assert train(CASES["zero-q-tiny-sigma"]).diverged
    assert proofs == [False]
    proofs.clear()
    init = CASES["zero-q-negative-zero"].policy_init
    final = param_vector(train(CASES["zero-q-negative-zero"]).final_policy)
    assert proofs == [False, True, True]
    assert (final == param_vector(init)).all()
    assert final.tobytes() != param_vector(init).tobytes()
    proofs.clear()
    assert train(CASES["zero-q-lipschitz-ceiling-rounding"]).wall_updates == 240
    assert proofs == [True, True, True]
    for name in ("zero-q-power-decay", "zero-q-constant", "zero-q-lipschitz-power-decay"):
        proofs.clear()
        norms = train(CASES[name]).update_norms
        assert 0 < norms.count(0.0) < len(norms), name
        assert proofs == [True] * norms.count(0.0), name
    for name in ("zero-q-far-start", "zero-q-far-walls", "zero-q-nan-dynamics",
                 "zero-q-narrow-actions", "zero-q-far-mode"):
        proofs.clear()
        assert train(CASES[name]).diverged, name
        assert proofs == [False], name
    # An infinite scale weight gives an infinite scale: the run diverges
    # before its first rollout, so no episode reaches the proof.
    proofs.clear()
    m = train(CASES["zero-q-infinite-scale-weight"])
    assert m.diverged and m.returns == [] and proofs == []


def test_zero_scale_at_an_episode_start_is_a_divergence(monkeypatch):
    # One-step episodes: the update that drives sigma to 0 is an episode's
    # last, so the next episode's rollout meets the zero scale, which ends
    # the run before any draw.
    env = TrappedCar(spec=replace(DEFAULT_TRAPPED_SPEC, max_steps=1), start_at_false_goal=True)
    config = _config(env, 2.0, 0, episodes=400, step_rule=Constant(1e6))
    _assert_kernel_matches_reference(config, monkeypatch)
    m = train(config)
    assert m.diverged and _sigma(m.final_policy) == 0.0
    assert m.wall_updates == len(m.returns) < 400


# Scales that leave (0, inf) while every parameter stays finite: the
# runs' final scale and update count.  Unchecked, steps of 1000 from the false
# start (the config of tests/test_experiment.py::SIGMA_UNDERFLOWS) take sigma
# to inf and later to 0, where the score divided by it; the default mountain
# car and schedule take Cauchy's sigma to inf within the first episode, and
# it stayed there.
_SCALE_LEAVES_ITS_RANGE = {
    "steps-of-1000": (_config(TrappedCar(spec=_SHORT_TRAPPED, start_at_false_goal=True),
                              1.0, 11, episodes=6, step_rule=Constant(1000.0)), math.inf, 1),
    "mountain-default": (_config(MountainCar(), 1.0, 1, episodes=60), math.inf, 952),
    "zero-scale-mountain": (CASES["zero-scale-mountain"], 0.0, 2),
}


@pytest.mark.parametrize("name", sorted(_SCALE_LEAVES_ITS_RANGE))
def test_a_scale_outside_its_range_is_a_divergence_in_both_loops(name, monkeypatch, caplog):
    config, sigma, updates = _SCALE_LEAVES_ITS_RANGE[name]
    _assert_kernel_matches_reference(config, monkeypatch)
    m = train(config)
    assert m.diverged and _sigma(m.final_policy) == sigma
    assert np.isfinite(param_vector(m.final_policy)).all()
    assert m.wall_updates == updates and m.returns == []
    assert "a scale outside (0, inf)" in caplog.text


def test_other_inputs_take_the_reference_loop(monkeypatch):
    # train dispatches on the env and q_mode alone: fresh Q on a car, and
    # shared Q on an environment that is not a car.
    fresh = replace(CASES["cauchy-default"], episodes=1, q_mode="fresh")
    chain = _config(ChainEnv(length=4), 1.0, 1, episodes=2)
    assert _train_reference(chain).returns == [4.0, 4.0]
    calls = []
    monkeypatch.setattr(training, "_train_reference", calls.append)
    train(fresh)
    train(chain)
    assert calls == [fresh, chain]


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


@st.composite
def _zero_q_configs(draw, q_mode="shared", max_steps=80, max_episodes=6):
    """Training on the trapped car under every step rule: from the start
    well Q is mostly exactly 0, so most episodes (shared Q) or pairs (fresh
    Q) reach a no-op proof, at weights and scales on both sides of its
    bounds, -0.0 weights among them."""
    env = TrappedCar(spec=replace(DEFAULT_TRAPPED_SPEC,
                                  max_steps=draw(st.integers(1, max_steps))),
                     true_goal=draw(st.sampled_from([2.1, 2.3, 3.6])))
    weights = st.lists(st.sampled_from([0.0, -0.0, 1e-300, 1e300]) | st.floats(-2.0, 2.0),
                       min_size=3, max_size=3)
    # Sums of the log scales from exp underflow (-720) to overflow (720).
    log_scales = st.lists(st.sampled_from([0.0, -0.0, -240.0, 240.0]) | st.floats(-5.0, 5.0),
                          min_size=3, max_size=3)
    policy = PolicyParams(draw(weights), draw(log_scales), draw(st.sampled_from([1.0, 2.0])),
                          draw(st.sampled_from([FIXED, ADAPTIVE])),
                          draw(st.sampled_from([1e-310, 1e-101, 1e-99, 0.3, 1.0, 1e250])))
    episodes = draw(st.integers(1, max_episodes))
    alpha = draw(st.sampled_from([5e-3, 0.5, 1e3]))
    step_rule = draw(st.sampled_from([
        LinearRange(alpha, 5e-9, episodes), LinearRange(alpha, alpha, episodes),
        PowerDecay(0.3), PowerDecay(0.9), Constant(alpha)]))
    update_rule = draw(st.sampled_from([
        PlainAscent(), LipschitzAware(0.5 / training.step_size(step_rule, 1))]))
    return TrainConfig(env=env, policy_init=policy, episodes=episodes,
                       seed=draw(st.integers(0, 2**32)),
                       gamma=draw(st.sampled_from([0.5, 0.97])),
                       epsilon_clip=draw(st.sampled_from([0.01, 0.2, 0.9])),
                       step_rule=step_rule, update_rule=update_rule, q_mode=q_mode,
                       symmetric_clip=draw(st.booleans()))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=_zero_q_configs())
def test_kernel_matches_reference_on_mostly_zero_q(config, monkeypatch):
    _assert_kernel_matches_reference(config, monkeypatch)


@st.composite
def _equal_scale_configs(draw):
    """Adaptive-scale training on either car, both families, from three
    equal ``theta_sigma`` components: the score gives each the same step."""
    max_steps = draw(st.integers(1, 40))
    if draw(st.booleans()):
        env = MountainCar(spec=replace(DEFAULT_MOUNTAIN_SPEC, max_steps=max_steps))
    else:
        env = TrappedCar(spec=replace(DEFAULT_TRAPPED_SPEC, max_steps=max_steps),
                         start_at_false_goal=draw(st.booleans()),
                         true_goal=draw(st.sampled_from([2.05, 3.6])))
    c = draw(st.sampled_from([0.0, -0.0]) | st.floats(-3.0, 3.0))
    policy = PolicyParams(draw(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3)),
                          [c, c, c], draw(st.sampled_from([1.0, 2.0])))
    episodes = draw(st.integers(1, 4))
    # Step sizes that keep sigma inside (0, inf): a run whose sigma leaves
    # it diverges, and stops stepping the components.
    step_rule = draw(st.sampled_from([LinearRange(0.05, 5e-9, episodes), LinearRange(),
                                      Constant(1e-3), Constant(0.02)]))
    return TrainConfig(env=env, policy_init=policy, episodes=episodes,
                       seed=draw(st.integers(0, 2**32)), step_rule=step_rule,
                       q_mode=draw(st.sampled_from(["shared", "shared", "fresh"])),
                       symmetric_clip=draw(st.booleans()))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=_equal_scale_configs())
def test_equal_scale_weights_stay_bit_equal(config, monkeypatch):
    # sigma = exp(sum(theta_sigma)) does not depend on the state, so the three
    # components are one number stepped three times, in either loop.  Under
    # shared Q, train runs the float loop, which must match the reference.
    if config.q_mode == "shared":
        _assert_kernel_matches_reference(config, monkeypatch)
    for run in (train, _train_reference):
        c0, c1, c2 = (struct.pack("<d", c) for c in run(config).final_policy.theta_sigma)
        assert c0 == c1 == c2


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


# Every constant the float walk reads differs from its default and from the
# others on these two cars: both walls, the action bounds, thrust_gain,
# gravity, a max_speed small enough that the cap binds, and (trapped car) the
# goal, the band and their rewards.  A walk that reads one of them from the
# wrong place leaves the oracle.
_ODD_TRAPPED = TrappedCar(
    spec=replace(DEFAULT_TRAPPED_SPEC, state_low=-3.5, state_high=3.2, action_low=-7.0,
                 action_high=12.0, reward_bound=40.0, max_steps=60),
    thrust_gain=0.004, gravity=0.003, max_speed=0.09, true_goal=2.9, true_reward=40.0,
    false_low=-3.3, false_high=-2.0, false_reward=0.7)
_ODD_MOUNTAIN = MountainCar(
    spec=replace(DEFAULT_MOUNTAIN_SPEC, state_low=-1.5, state_high=0.8, action_low=-0.6,
                 action_high=1.4, max_steps=70),
    thrust_gain=0.002, gravity=0.0031, max_speed=0.03, goal_position=0.55)


@dataclass(frozen=True)
class _RuleCar(TrappedCar):
    """A trapped car whose reward elsewhere is a field, not 0.0."""

    elsewhere: float = 0.0

    def reward_rule(self):
        return (*super().reward_rule()[:5], self.elsewhere)


# The float Q walk adds no term for a reward of 0.0 or -0.0.  On these cars
# the band, the reward elsewhere or the goal pays a signed zero, or the
# reward elsewhere is not zero; the band covers the left third of the track.
_SIGNED_ZERO_CAR = _RuleCar(spec=replace(_SHORT_TRAPPED, max_steps=60), true_goal=2.1,
                            false_high=-1.5, false_reward=0.0, elsewhere=-0.0)
_ELSEWHERE_CAR = _RuleCar(spec=replace(_SHORT_TRAPPED, max_steps=50), true_goal=2.4,
                          true_reward=-0.0, false_high=-1.5, false_reward=-0.0,
                          elsewhere=0.25)
_Q_ENVS = (
    TrappedCar(spec=_SHORT_TRAPPED),
    _NEAR_GOAL,
    _MOUNTAIN,
    TrappedCar(spec=replace(DEFAULT_TRAPPED_SPEC, max_steps=1)),
    MountainCar(spec=replace(DEFAULT_MOUNTAIN_SPEC, max_steps=3)),
    _ODD_TRAPPED,
    _ODD_MOUNTAIN,
    _SIGNED_ZERO_CAR,
    _ELSEWHERE_CAR,
)
_Q_POLICIES = (
    PolicyParams(np.array([0.5, 20.0, 0.1]), np.array([0.1, 0.0, -0.3]), 1.0),
    PolicyParams(np.array([-1.0, 40.0, 2.0]), np.array([0.0, 0.2, 0.5]), 2.0),
    PolicyParams(np.array([0.3, -7.0, 0.25]), np.zeros(3), 1.0, FIXED, 5.0),
    PolicyParams(np.array([0.05, 3.0, -0.6]), np.zeros(3), 2.0, FIXED, 0.2),
)


def _branches(env, records) -> set:
    """The branches of a car step that a walk's records show taken."""
    xs, vs, _, _, x, at_goal = records
    spec = env.spec
    band_low, band_high = env.reward_rule()[2:4]
    reached = xs[1:] + [x]
    taken = {
        "cap": any(abs(v) == env.max_speed for v in vs[1:]),
        "low wall": spec.state_low in reached,
        "high wall": spec.state_high in reached,
        "band": any(band_low <= p <= band_high for p in reached),
        "goal": at_goal,
    }
    return {name for name, seen in taken.items() if seen}


def test_float_q_walk_matches_walk_on_fixed_seeds(monkeypatch):
    values = []
    taken = {env: set() for env in (_ODD_TRAPPED, _ODD_MOUNTAIN)}
    # Each car gets 80 inputs from its own generator; the first action and
    # the policy run independently of the horizon choice, so every car meets
    # every pair of them.  One start in ten is at full speed half a cap from
    # a wall, towards it.
    inputs = itertools.product(enumerate(_Q_ENVS), range(80))
    for i, ((car, env), j) in enumerate(inputs):
        if j == 0:
            rng = np.random.default_rng((31, car))
        spec = env.spec
        s0 = EnvState(rng.uniform(spec.state_low, spec.state_high),
                      rng.uniform(-env.max_speed, env.max_speed),
                      int(rng.integers(0, spec.max_steps)))
        if j % 10 in (0, 5):
            toward = 1.0 if j % 10 else -1.0
            wall = spec.state_high if toward > 0 else spec.state_low
            s0 = replace(s0, position=wall - toward * env.max_speed / 2,
                         velocity=toward * env.max_speed)
        a0 = (-30.0, 0.7, 30.0, math.nan)[j % 4]
        horizon = (None, None, 0, 1, 5, spec.max_steps - 1, spec.max_steps + 7)[j % 7]
        policy = _Q_POLICIES[j % len(_Q_POLICIES)]
        want = _assert_float_q_matches_walk(
            monkeypatch, env, policy, s0, a0, (0.97, 0.5)[j % 2], i, horizon)
        values.append(struct.unpack("<d", want[0])[0])
        steps = spec.max_steps if horizon is None else horizon + 1
        args = (env, policy, s0, a0, steps)
        _assert_float_q_sum_matches_walk(i, *args)
        if env in taken:
            taken[env] |= _branches(env, _walk_records(*args, np.random.default_rng(i)))
    # Goal, misleading-region and mountain rewards all occur.
    assert max(values) >= 100.0 and min(values) < 0.0 and any(0.0 < v < 100.0 for v in values)
    # On the cars with no default constant, every branch of a step is taken.
    assert taken[_ODD_TRAPPED] == {"cap", "low wall", "high wall", "band", "goal"}
    assert taken[_ODD_MOUNTAIN] == {"cap", "low wall", "high wall", "goal"}


def test_float_q_walk_skips_only_zero_rewards(monkeypatch):
    # A gamma whose weights gamma**(t/2) underflow to 0 from t = 3 on, horizon
    # 0, a goal at the first transition, and a NaN reward elsewhere (NaN is
    # true, so its term is added).
    nan_car = replace(_ELSEWHERE_CAR, elsewhere=math.nan)
    assert 1e-300 ** (0.5 * 3) == 0.0
    rng = np.random.default_rng(41)
    values = []
    for i, env in enumerate((*_Q_ENVS, nan_car)):
        spec = env.spec
        for j, (gamma, horizon) in enumerate(itertools.product(
                (1e-300, 0.5, 0.97), (None, 0, 1, 4, spec.max_steps + 7))):
            policy = _Q_POLICIES[j % len(_Q_POLICIES)]
            s0 = EnvState(rng.uniform(spec.state_low, spec.state_high),
                          rng.uniform(-env.max_speed, env.max_speed),
                          int(rng.integers(0, spec.max_steps)))
            want = _assert_float_q_matches_walk(monkeypatch, env, policy, s0, 0.7, gamma,
                                                100 * i + j, horizon)
            values.append(want[0])
    # Goal at the first transition: the goal's reward is the only term.
    for env, reward in ((_NEAR_GOAL, 100.0), (replace(_NEAR_GOAL, true_reward=-3.0), -3.0),
                        (_ELSEWHERE_CAR, -0.0), (_SIGNED_ZERO_CAR, 100.0)):
        for horizon in (None, 0, 5):
            want = _assert_float_q_matches_walk(monkeypatch, env, _Q_POLICIES[1],
                                                EnvState(env.true_goal - 0.05, 0.1), 0.0,
                                                0.97, 7, horizon)
            assert want[0] == struct.pack("<d", 0.0 + reward)
    # Sums of signed zeros are +0.0 both ways, and NaN rewards reach the sum.
    assert struct.pack("<d", 0.0) in values and struct.pack("<d", -0.0) not in values
    assert any(math.isnan(struct.unpack("<d", v)[0]) for v in values)


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


# About 60 drawn inputs per car.
_Q_EXAMPLES = 60 * len(_Q_ENVS)


@settings(max_examples=_Q_EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(inputs=_q_inputs())
def test_float_q_walk_matches_walk_on_drawn_inputs(inputs, monkeypatch):
    _assert_float_q_matches_walk(monkeypatch, *inputs)


def _walk_records(env, policy, s0, a0, steps, rng):
    """The records of ``walk``'s trajectory: positions, velocities, actions,
    rewards, the final position and whether it is at the goal."""
    return _records(env, walk(env, policy, rng, s0, a0, steps))


def _records(env, traj):
    """What ``_car_rollout`` returns, taken from a trajectory."""
    return ([s.position for s in traj.states], [s.velocity for s in traj.states],
            list(traj.actions), list(traj.rewards), traj.final_state.position,
            env.at_goal(traj.final_state))


def _float_q_sum(env, policy, s0, a0, steps, rng):
    scale = _stable_scale(policy.alpha, policy_scale(policy))
    return _car_q_walk(env, policy.theta_x0.tolist(), scale, policy.alpha, rng, s0, a0, steps,
                       0.97)


def _walk_q_sum(env, policy, s0, a0, steps, rng):
    """What ``_car_q_walk`` returns at gamma 0.97, from ``walk``'s rewards."""
    return discounted_partial_return(_walk_records(env, policy, s0, a0, steps, rng)[3], 0.97,
                                     steps)


def _assert_float_q_sum_matches_walk(seed, *args):
    """The float Q walk against ``walk``: the sum (whose repr keeps every bit)
    or the error, and the stream's next draw; returns that outcome."""
    got = _walk_or_error(_float_q_sum, seed, *args)
    assert got == _walk_or_error(_walk_q_sum, seed, *args)
    return got


def _walk_or_error(walker, seed, *args):
    """A walk's records or the error it raised, and the stream's next draw."""
    rng = np.random.default_rng(seed)
    try:
        result = walker(*args, rng)
    except Exception as err:  # the comparison is on type and message
        result = ("raised", type(err), str(err))
    return repr(result), rng.random()


# -- shared-Q rollouts: the float rollout against rollout ---------------------


# Log scales that sum past 709 make an infinite scale; exp's overflow is
# expected there.
@np.errstate(over="ignore")
def _rollout_records(env, policy, rng):
    """What ``_car_rollout`` returns, from ``rollout`` over the step budget."""
    return _records(env, rollout(env, policy, rng, env.spec.max_steps))


def _float_rollout(env, policy, rng):
    scale = _stable_scale(policy.alpha, _sigma(policy))
    return _car_rollout(env, policy.theta_x0.tolist(), scale, policy.alpha, rng)


def _assert_float_rollout_matches_rollout(seed, env, policy):
    """The records or the error, and the stream's next draw; returns that
    outcome."""
    got = _walk_or_error(_float_rollout, seed, env, policy)
    assert got == _walk_or_error(_rollout_records, seed, env, policy)
    return got


def _inverted(car, max_speed):
    """``car`` with its action range inverted and a speed cap of
    ``max_speed``, set past the checks, which keep every bound pair ordered."""
    spec = car.spec
    return _unchecked(car, max_speed=max_speed, spec=_unchecked(
        spec, action_low=spec.action_high, action_high=spec.action_low))


# Infinite thrust and gravity: inf - inf velocities, so NaN positions and
# speeds as well as capped ones.
_NAN_CAR = replace(_ODD_TRAPPED, thrust_gain=math.inf, gravity=math.inf)
# The goal lies below the start interval, so every episode reaches it at its
# first transition and rewinds all of its noise block but one draw.
_GOAL_AT_START = TrappedCar(spec=_SHORT_TRAPPED, true_goal=1.0)
_INVERTED_CARS = tuple(_inverted(car, max_speed) for car in (_ODD_TRAPPED, _ODD_MOUNTAIN)
                       for max_speed in (-0.05, 0.0))
# The false start resets without a draw; every other car draws its start.
_ROLLOUT_CARS = (*_Q_ENVS, _NAN_CAR, _FALSE_START, _GOAL_AT_START, *_INVERTED_CARS)


def test_float_rollout_matches_rollout_on_fixed_seeds():
    ends = set()
    for i, (env, policy) in enumerate(itertools.product(_ROLLOUT_CARS, _Q_POLICIES)):
        for seed in range(5):
            got = _assert_float_rollout_matches_rollout(10 * i + seed, env, policy)
            assert not got[0].startswith("('raised'")
            xs, _, _, _, _, at_goal = _float_rollout(env, policy,
                                                     np.random.default_rng(10 * i + seed))
            ends.add("goal" if at_goal else "budget" if len(xs) == env.spec.max_steps
                     else "short")
    # Episodes end at the goal (rewinding their block) and on the budget, and
    # never otherwise.
    assert ends == {"goal", "budget"}


@st.composite
def _rollout_inputs(draw):
    extreme = st.sampled_from([1e300, -1e300, 1e-300, 0.0, -0.0])
    weights = st.lists(st.floats(-1e3, 1e3) | extreme, min_size=3, max_size=3)
    # Sums of the log scales from exp underflow (0, which raises) to
    # overflow (inf, which draws infinite noise), and NaN.
    log_scales = st.lists(st.floats(-200.0, 200.0) | st.sampled_from([-800.0, 800.0, math.nan]),
                          min_size=3, max_size=3)
    policy = PolicyParams(draw(weights), draw(log_scales), draw(st.sampled_from([1.0, 2.0])),
                          draw(st.sampled_from([FIXED, ADAPTIVE])),
                          draw(st.sampled_from([1e-3, 1.0, 30.0])))
    return draw(st.integers(0, 2**32)), draw(st.sampled_from(_ROLLOUT_CARS)), policy


@settings(max_examples=40 * len(_ROLLOUT_CARS), deadline=None)
@given(inputs=_rollout_inputs())
def test_float_rollout_matches_rollout_on_drawn_inputs(inputs):
    _assert_float_rollout_matches_rollout(*inputs)


@pytest.mark.parametrize("weights", [(0.0, 0.0, 0.0), (-0.0, 0.0, 0.0), (0.0, 0.0, -0.0),
                                     (-0.0, -0.0, -0.0)])
def test_float_walk_at_zero_weights_matches_walk(weights):
    # Signed zero weights: the sign of each zero product reaches the mode.
    rng = np.random.default_rng(17)
    nan_steps = 0
    cars = (_ODD_TRAPPED, _ODD_MOUNTAIN, _NAN_CAR)
    for seed, (env, alpha) in enumerate(itertools.product(cars, (1.0, 2.0))):
        policy = PolicyParams(np.array(weights), np.zeros(3), alpha, FIXED, 0.5)
        got = _assert_float_rollout_matches_rollout(seed, env, policy)
        assert not got[0].startswith("('raised'")
    cases = itertools.product(cars, (1.0, 2.0), (-30.0, 0.7, 30.0, math.nan))
    for seed, (env, alpha, a0) in enumerate(cases):
        spec = env.spec
        policy = PolicyParams(np.array(weights), np.zeros(3), alpha, FIXED, 0.5)
        for horizon in (None, 0, 1, spec.max_steps + 7):
            steps = spec.max_steps if horizon is None else horizon + 1
            s0 = EnvState(rng.uniform(spec.state_low, spec.state_high),
                          rng.uniform(-env.max_speed, env.max_speed),
                          int(rng.integers(0, spec.max_steps)))
            args = (env, policy, s0, a0, steps)
            got = _assert_float_q_sum_matches_walk(seed, *args)
            assert not got[0].startswith("('raised'")
            if not math.isnan(a0):
                actions = _walk_records(*args, np.random.default_rng(seed))[2]
                nan_steps += sum(map(math.isnan, actions[1:]))
    # Besides every walk from a NaN first action, the NaN car's dynamics lead
    # finite ones to NaN states, so to NaN modes.
    assert nan_steps > 100


def test_float_walk_rewinds_a_block_the_goal_cuts_short():
    # Full thrust from just left of the near goal: the Q walk draws its block
    # of 79 and the goal ends it after 4 transitions and 3 draws.  A rollout
    # on the near goal's car draws a block of 80 and the goal ends it a few
    # steps in; one on the goal-at-start car uses 1 draw of its 80.
    for alpha in (1.0, 2.0):
        policy = PolicyParams(np.array([0.0, 0.0, 20.0]), np.zeros(3), alpha, FIXED, 0.5)
        for seed in range(4):
            args = (_NEAR_GOAL, policy, EnvState(1.9, 0.05), 0.0, _SHORT_TRAPPED.max_steps)
            _assert_float_q_sum_matches_walk(seed, *args)
            records = _walk_records(*args, np.random.default_rng(seed))
            assert records[5] and len(records[2]) == 4
            for env, most in ((_NEAR_GOAL, 60), (_GOAL_AT_START, 1)):
                _assert_float_rollout_matches_rollout(seed, env, policy)
                records = _rollout_records(env, policy, np.random.default_rng(seed))
                assert records[5] and len(records[2]) <= most


@pytest.mark.parametrize("log_scale", [-800.0, math.nan])
def test_float_walk_checks_the_scale_at_the_first_draw_only(log_scale):
    spec = _SHORT_TRAPPED
    raised = "('raised', <class 'htpg.errors.ParameterError'>, 'scale must be positive, got "
    for alpha in (1.0, 2.0):
        policy = PolicyParams(np.array([0.5, 20.0, 0.1]), np.array([log_scale, 0.0, 0.0]),
                              alpha)
        # One transition, then the first draw fails: nothing is drawn.
        for steps in (1, 5, spec.max_steps):
            args = (_NEAR_GOAL, policy, EnvState(1.5, 0.0), 0.0, steps)
            got = _assert_float_q_sum_matches_walk(5, *args)
            assert got[0].startswith(raised)
        # Done by the budget or at the goal before any draw: nothing raised.
        for s0 in (EnvState(1.5, 0.0, spec.max_steps - 1), EnvState(2.05, 0.1, 7)):
            args = (_NEAR_GOAL, policy, s0, 0.0, spec.max_steps)
            got = _assert_float_q_sum_matches_walk(6, *args)
            assert not got[0].startswith("('raised'")
        # A rollout draws before its first transition, even one that the goal
        # ends: the reset is drawn, then the scale raises.
        for env in (_NEAR_GOAL, _GOAL_AT_START, _FALSE_START):
            got = _assert_float_rollout_matches_rollout(7, env, policy)
            assert got[0].startswith(raised)
    # A negative scale, set past the policy's checks.
    negative = _unchecked(PolicyParams.zeros(3, 1.0, FIXED), sigma0=-1.0)
    got = _assert_float_rollout_matches_rollout(8, _NEAR_GOAL, negative)
    assert got[0] == raised + "-1.0')"


@pytest.mark.parametrize("max_speed", [-0.05, 0.0])
def test_float_walk_clamps_like_min_max_for_any_bounds(max_speed):
    # Past the checks, with the speed cap and the action range inverted,
    # min(max(y, lo), hi) is hi; the walks' two ifs (not an if/elif) give the
    # same.
    for car in (_ODD_TRAPPED, _ODD_MOUNTAIN):
        env = _inverted(car, max_speed)
        for alpha, seed, a0 in itertools.product((1.0, 2.0), range(3), (0.0, 50.0, math.nan)):
            policy = PolicyParams(np.array([0.5, 20.0, 0.1]), np.zeros(3), alpha, FIXED, 0.5)
            args = (env, policy, EnvState(0.1, 0.0), a0, car.spec.max_steps)
            got = _assert_float_q_sum_matches_walk(seed, *args)
            assert not got[0].startswith("('raised'")
            got = _assert_float_rollout_matches_rollout(seed, env, policy)
            assert not got[0].startswith("('raised'")
            assert set(_float_rollout(env, policy, np.random.default_rng(seed))[2]) == {
                car.spec.action_low}


def test_float_q_walk_refuses_a_terminal_state(monkeypatch):
    s0 = EnvState(1.5, 0.0, 3, terminal=True)
    for env in (_NEAR_GOAL, _MOUNTAIN):
        want = _assert_float_q_matches_walk(monkeypatch, env, _Q_POLICIES[0], s0, 0.0,
                                            0.97, 1, None)
        assert want == ("raised", EnvUsageError, "step() called on a terminal state")
        got = _assert_float_q_sum_matches_walk(1, env, _Q_POLICIES[0], s0, 0.0, 5)
        assert got[0] == repr(want)


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
    # estimate_q dispatches on the env alone: any policy on an environment
    # that is not a car takes the object walk, every policy on a car the
    # float walk.
    walks = []
    monkeypatch.setattr(qvalue, "walk", lambda *args: walks.append(args) or walk(*args))
    policy = PolicyParams(np.array([0.5, 20.0, 0.1]), np.array([0.1, 0.0, -0.3]), 2.0)
    est = estimate_q(ChainEnv(length=40), policy, EnvState(0.0, 0.0), 0.0, 0.97,
                     np.random.default_rng(0), horizon=3)
    assert est == QEstimate(1.0 + 0.97 ** 0.5 + 0.97 + 0.97 ** 1.5, 3)
    assert len(walks) == 1
    estimate_q(_MOUNTAIN, policy, EnvState(-0.5, 0.0), 0.0, 0.97,
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


# -- the reference loop's no-op skip against the loop without it ----------


def _assert_train_matches_the_loop_without_the_skip(config, monkeypatch) -> int:
    """``train`` against ``_train_reference`` with ``_update_is_noop``
    switched off, bit for bit; returns how many pairs ``train`` skipped."""
    with monkeypatch.context() as patch:
        patch.setattr(training, "_update_is_noop", lambda *args: False)
        want = _outcome(_train_reference, config)
    skips = []
    noop = training._update_is_noop
    with monkeypatch.context() as patch:
        patch.setattr(training, "_update_is_noop",
                      lambda *args: skips.append(noop(*args)) or skips[-1])
        got = _outcome(train, config)
    assert got == want
    return sum(skips)


# How many pairs fresh-Q training skips where it also applies updates: zero-Q
# pairs between nonzero ones; a -0.0 weight, which a zero update keeps
# where the score component is negative; and skips before a divergence.
_FRESH_SKIPS = {
    "cauchy-default": 392,
    "near-goal-fixed": 155,
    "zero-q-negative-zero": 236,
    "diverges-fixed": 113,
    "zero-q-nan-dynamics": 2,
    "zero-q-narrow-actions": 4,
}


@pytest.mark.parametrize("q_mode", ["shared", "fresh"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_no_op_skip_of_fresh_and_shared_q_is_exact_on_fixed_seeds(name, q_mode, monkeypatch):
    # Under shared Q, train runs the float loop on these cars, so this also
    # checks the kernel against the reference loop that updates every pair.
    config = replace(CASES[name], q_mode=q_mode)
    skipped = _assert_train_matches_the_loop_without_the_skip(config, monkeypatch)
    if q_mode == "shared":
        assert skipped == 0
    elif name in _FRESH_SKIPS:
        assert skipped == _FRESH_SKIPS[name]


def test_no_op_skip_of_fresh_q_is_exact_on_drawn_configs(monkeypatch):
    skipped = []

    # Fresh Q costs a walk per pair, so the runs are shorter.
    @settings(max_examples=150, deadline=None)
    @given(config=_zero_q_configs("fresh", max_steps=30, max_episodes=3))
    def check(config):
        skipped.append(_assert_train_matches_the_loop_without_the_skip(config, monkeypatch))

    check()
    # About two in three drawn runs skip; the others skip nothing (a -0.0
    # weight that no update clears, a score that is not finite, a divergence).
    assert any(skipped) and not all(skipped)


# -- the bound testbed: the 2-D SmoothBump float loop against the generic one -


def _sga_outcome(run, noise, step_rule, update_rule, n, seed, theta0):
    """The norms bytes or the error raised, and the stream's next draw."""
    rng = np.random.default_rng(seed)
    try:
        result = run(noise, step_rule, update_rule, n, rng, theta0).tobytes()
    except Exception as err:  # the comparison is on type and message
        result = ("raised", type(err), str(err))
    return result, struct.pack("<d", rng.random())


def _sga_by_reference(noise, step_rule, update_rule, n, rng, theta0):
    theta = np.full(2, 0.5) if theta0 is None else np.asarray(theta0, dtype=float)
    return synthetic_sga_reference(SmoothBump(), noise, step_rule, update_rule, rng, theta,
                                   np.empty(n))


class _UnhashableConstant(Constant):
    __hash__ = None


def _sga_by_float_loop(noise, step_rule, update_rule, n, rng, theta0):
    return diagnostics.synthetic_sga_run(SmoothBump(), noise, step_rule, update_rule, n, rng,
                                         theta0)


def _refuse_sga(*args):
    raise AssertionError("synthetic_sga_run ran a rejected input")


def _assert_float_sga_matches_reference(monkeypatch, block, *args):
    """``synthetic_sga_run`` must reproduce the oracle at noise block
    ``block``."""
    want = _sga_outcome(_sga_by_reference, *args)
    with monkeypatch.context() as patch:
        patch.setattr(diagnostics, "_NOISE_BLOCK", block)
        got = _sga_outcome(_sga_by_float_loop, *args)
    assert got == want
    return want


def _assert_sga_rejects(monkeypatch, run, *args):
    """``run`` must raise ParameterError before any draw, without the float
    loop; returns the message."""
    seed = args[-2]
    with monkeypatch.context() as patch:
        patch.setattr(diagnostics, "_smooth_bump_run", _refuse_sga)
        got = _sga_outcome(run, *args)
    assert got[0][:2] == ("raised", ParameterError)
    assert got[1] == struct.pack("<d", np.random.default_rng(seed).random())
    return got[0][2]


_SGA_STEPS = (PowerDecay(0.5), PowerDecay(0.9), Constant(0.1), Constant(50.0),
              LinearRange(0.4, 1e-3, 6))
_SGA_NOISE = (NoiseModel(0.0), NoiseModel(0.1), NoiseModel(0.0, 0.5), NoiseModel(0.3, 2.0))
# (0.5, 0.5) is the default start; the origin is stationary, so without a
# noise floor nothing is drawn there.  A strided view checks the copy in.
# From 1e308, -2.0 * t0 overflows and the first gradient is NaN: its target
# is NaN, so step 1 draws nothing before it raises.
_SGA_OVERFLOW = (1e308, 0.0)
_SGA_STARTS = (None, (0.0, 0.0), (3.0, -1.0), np.arange(4.0)[::2], _SGA_OVERFLOW)


def _sga_fixed_outcomes(assert_run, step_rule, update_rule):
    """Run the fixed seeds through ``assert_run``; the set of outcomes, each
    marked by whether its start overflows."""
    outcomes = set()
    for i, (noise, theta0, n) in enumerate(itertools.product(_SGA_NOISE, _SGA_STARTS,
                                                              (1, 3, 11))):
        want = assert_run(noise, step_rule, update_rule, n, i, theta0)
        overflow = theta0 is _SGA_OVERFLOW
        if overflow:
            assert want[1] == struct.pack("<d", np.random.default_rng(i).random())
        outcomes.add((overflow, want[0][1:] if isinstance(want[0], tuple) else "returned"))
    return outcomes


_SGA_RETURNS_OR_OVERFLOWS = {(False, "returned"),
                             (True, (DivergenceError, "non-finite iterate at step 1"))}


@pytest.mark.parametrize("update_rule", (PlainAscent(), LipschitzAware(2.0)),
                         ids=["plain", "lipschitz"])
@pytest.mark.parametrize("step_rule", _SGA_STEPS, ids=repr)
def test_float_sga_matches_reference_on_fixed_seeds(step_rule, update_rule, monkeypatch):
    # A block of 3 pairs makes n = 3 one block and n = 11 several, with
    # skipped draws and errors landing inside a block.  Plain ascent runs the
    # float loop against the oracle; only the overflowing start, whose first
    # iterate is NaN, raises.  The Lipschitz-aware update is rejected.
    if isinstance(update_rule, PlainAscent):
        outcomes = _sga_fixed_outcomes(
            lambda *args: _assert_float_sga_matches_reference(monkeypatch, 3, *args),
            step_rule, update_rule)
        assert outcomes == _SGA_RETURNS_OR_OVERFLOWS
    else:
        for i, (noise, theta0) in enumerate(itertools.product(_SGA_NOISE, _SGA_STARTS)):
            message = _assert_sga_rejects(monkeypatch, _sga_by_float_loop, noise, step_rule,
                                          update_rule, 11, i, theta0)
            assert message.startswith("the testbed runs plain ascent")


def test_float_sga_matches_reference_at_the_real_block_size(monkeypatch):
    block = diagnostics._NOISE_BLOCK
    for n, noise, step_rule in ((block, NoiseModel(0.1), PowerDecay(0.5)),
                                (2 * block + 3, NoiseModel(0.1, 1.0), Constant(0.1)),
                                (2 * block + 3, NoiseModel(0.0, 0.5), Constant(50.0))):
        _assert_float_sga_matches_reference(monkeypatch, block, noise, step_rule,
                                            PlainAscent(), n, 7, None)


def test_float_sga_matches_reference_on_errors(monkeypatch):
    # Step 8 overflows: its target is NaN, so 7 pairs are drawn, not 8.
    want = _assert_float_sga_matches_reference(monkeypatch, 3, NoiseModel(0.1),
                                               Constant(1e308), PlainAscent(), 50, 0, None)
    assert want[0] == ("raised", DivergenceError, "non-finite iterate at step 8")
    rng = np.random.default_rng(0)
    rng.standard_normal(14)
    assert want[1] == struct.pack("<d", rng.random())
    # An int or numpy-scalar alpha runs the float loop from its schedule of
    # doubles, with the oracle's bits: plain ascent multiplies by it.
    for seed, rule in ((5, Constant(3)), (6, Constant(np.float64(0.1)))):
        _assert_float_sga_matches_reference(monkeypatch, 4, NoiseModel(0.1), rule,
                                            PlainAscent(), 9, seed, None)
    # Everything else fails before any draw: the Lipschitz-aware update (the
    # oracle fails only after step 1's draw, at the ceiling), an unknown step
    # rule and an unhashable one, which the schedule cache cannot take.
    for seed, step_rule, update_rule, start in (
            (1, PowerDecay(0.5), LipschitzAware(2.0), "the testbed runs plain ascent"),
            (3, Constant(3), LipschitzAware(1.0), "the testbed runs plain ascent"),
            (2, object(), PlainAscent(), "the testbed runs plain ascent"),
            (4, [], PlainAscent(), "the testbed runs plain ascent"),
            (8, _UnhashableConstant(0.5), PlainAscent(), "step rule _UnhashableConstant(")):
        message = _assert_sga_rejects(monkeypatch, _sga_by_float_loop, NoiseModel(0.1),
                                      step_rule, update_rule, 9, seed, None)
        assert message.startswith(start)
    # A step size that is not a finite double is no rule at all.
    for alpha in (10**400, np.array([0.5])):
        with pytest.raises(ParameterError, match="^alpha must be a finite number, got "):
            Constant(alpha)


@st.composite
def _sga_inputs(draw):
    step_rule = draw(st.sampled_from([PowerDecay(0.5), Constant(1e308)])
                     | st.builds(PowerDecay, st.floats(0.01, 0.99))
                     | st.builds(Constant, st.floats(1e-3, 1e3))
                     | st.builds(LinearRange, st.floats(0.1, 0.45), st.floats(1e-4, 0.1),
                                 st.integers(1, 30)))
    update_rule = draw(st.sampled_from([PlainAscent(), LipschitzAware(2.0)])
                       | st.builds(LipschitzAware, st.floats(0.01, 3.0)))
    y = st.just(0.0) | st.floats(1e-6, 10.0)
    noise = NoiseModel(draw(y), draw(y))
    coordinate = st.floats(-30.0, 30.0) | st.sampled_from([0.0, 1e300, 1e308, 1e-300])
    theta0 = draw(st.none() | st.tuples(coordinate, coordinate))
    return (draw(st.sampled_from([1, 2, 3, 4096])), noise, step_rule, update_rule,
            draw(st.integers(1, 40)), draw(st.integers(0, 2**32)), theta0)


@settings(max_examples=800, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(inputs=_sga_inputs())
def test_float_sga_matches_reference_on_drawn_inputs(inputs, monkeypatch):
    block, *args = inputs
    if isinstance(args[2], PlainAscent):
        _assert_float_sga_matches_reference(monkeypatch, block, *args)
    else:
        _assert_sga_rejects(monkeypatch, _sga_by_float_loop, *args)


def test_other_inputs_are_rejected_before_any_draw(monkeypatch):
    noise, rule, plain = NoiseModel(0.1), PowerDecay(0.5), PlainAscent()

    def run_on(objective):
        return lambda noise, step_rule, update_rule, n, rng, theta0: (
            diagnostics.synthetic_sga_run(objective, noise, step_rule, update_rule, n, rng,
                                          theta0))

    class Bump(SmoothBump):
        pass

    # Other dimensions, also through theta0, and objectives other than the
    # 2-D SmoothBump.
    for seed, objective, theta0 in ((0, SmoothBump(dim=1), None), (1, SmoothBump(dim=3), None),
                                    (2, SmoothBump(), (0.5, 0.5, 0.5)), (3, SmoothBump(), 0.5),
                                    (4, Bump(), None)):
        message = _assert_sga_rejects(monkeypatch, run_on(objective), noise, rule, plain, 20,
                                      seed, theta0)
        assert message.startswith("the testbed runs plain ascent")


_SCHEDULE_RULES = (st.builds(PowerDecay, st.floats(0.01, 0.99))
                   | st.builds(Constant, st.floats(1e-3, 1e3))
                   | st.builds(LinearRange, st.floats(0.1, 0.45), st.floats(1e-4, 0.1),
                               st.integers(1, 400)))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rule=_SCHEDULE_RULES, n=st.integers(1, 300), seed=st.integers(0, 2**32))
def test_step_schedule_is_step_size_built_once_per_rule_and_n(rule, n, seed, monkeypatch):
    schedule = diagnostics._step_schedule(rule, n)
    assert _floats(schedule) == _floats([training.step_size(rule, k) for k in range(1, n + 1)])
    assert diagnostics._step_schedule(rule, n) is schedule
    # One schedule is held: a new (rule, n) replaces it.
    longer = diagnostics._step_schedule(rule, n + 1)
    assert diagnostics._step_schedule(rule, n + 1) is longer
    assert diagnostics._step_schedule(rule, n) is not schedule
    # The first run builds the schedule, the second takes it from the cache.
    diagnostics._step_schedule.cache_clear()
    for hits in (0, 1):
        _assert_float_sga_matches_reference(monkeypatch, 3, NoiseModel(0.1), rule,
                                            PlainAscent(), n, seed, None)
        assert diagnostics._step_schedule.cache_info()[:2] == (hits, 1)


def test_an_impossible_n_fails_before_the_schedule(monkeypatch):
    built = []
    monkeypatch.setattr(diagnostics, "_step_schedule", lambda *args: built.append(args))
    for dim in (2, 3):
        with pytest.raises(ParameterError, match=r"^n=1000000000000000 "):
            diagnostics.synthetic_sga_run(SmoothBump(dim=dim), NoiseModel(0.1),
                                          PowerDecay(0.5), PlainAscent(), 10**15,
                                          np.random.default_rng(0))
    assert built == []
