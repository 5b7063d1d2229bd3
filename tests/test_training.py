"""Trainer checks: schedules, update rules, an exact hand-trace of one update
on a single-transition environment, determinism, and the divergence guard."""

import math
import struct
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from htpg import diagnostics
from htpg.envs import EnvSpec, EnvState, MountainCar, StepResult, TrappedCar
from htpg.errors import ParameterError, ScheduleError
from htpg.policy import (ADAPTIVE, FIXED, PolicyParams, _float_sum, _squared_norm, clip_score,
                         features, param_vector, score)
from htpg.training import (
    Constant,
    LinearRange,
    LipschitzAware,
    PlainAscent,
    PowerDecay,
    TrainConfig,
    _Curves,
    _train_reference,
    apply_update,
    step_size,
    train,
)


@dataclass(frozen=True)
class OneStepEnv:
    """Single transition, reward v, then terminal."""

    reward: float = 1.0
    start: float = 0.5
    spec: EnvSpec = EnvSpec(-10, 10, -5, 5, 0.5, 0.5, 0.9, 1e9, 1)

    def reset(self, rng) -> EnvState:
        return EnvState(self.start, 0.0)

    def step(self, state, action):
        if state.terminal:
            raise RuntimeError("terminal")
        return StepResult(EnvState(state.position, 0.0, 1, True), self.reward, True)

    def at_goal(self, state) -> bool:
        return False


def test_step_size_power_decay():
    assert step_size(PowerDecay(0.5), 1) == 1.0
    assert step_size(PowerDecay(0.5), 4) == 0.5
    with pytest.raises(ParameterError):
        step_size(PowerDecay(0.5), 0)
    with pytest.raises(ParameterError):
        PowerDecay(1.5)


def test_step_size_linear_range_endpoints():
    rule = LinearRange(0.005, 5e-9, 1000)
    assert step_size(rule, 1) == 0.005
    assert step_size(rule, 1000) == 5e-9
    assert step_size(rule, 5000) == 5e-9
    # Log-linear midpoint: geometric mean of the endpoints at the middle index.
    mid = step_size(rule, 500)
    lo, hi = sorted((step_size(rule, 499), step_size(rule, 501)))
    assert lo < mid < hi
    assert math.log(step_size(rule, 1) / step_size(rule, 2)) == pytest.approx(
        math.log(step_size(rule, 500) / step_size(rule, 501)), rel=1e-6
    )


def test_step_size_constant():
    assert step_size(Constant(0.25), 7) == 0.25


# The step sizes of a schedule built at once, as the SGA float loop takes
# them (diagnostics._step_schedule).  The linear ranges end at k = 1, 2, 1000
# and 2999, so the 3000 values compared run below, at and past total.
@pytest.mark.parametrize("rule", [
    PowerDecay(0.01), PowerDecay(1 / 3), PowerDecay(0.5), PowerDecay(0.75), PowerDecay(0.99),
    Constant(0.25), Constant(1e308),
    LinearRange(0.4, 1e-3, 1), LinearRange(0.4, 1e-3, 2), LinearRange(),
    LinearRange(0.005, 5e-9, 1000), LinearRange(0.3, 0.3, 2999),
], ids=repr)
def test_step_sizes_give_step_size_bit_for_bit(rule):
    got = diagnostics._step_schedule(rule, 3000).tolist()
    want = [step_size(rule, k) for k in range(1, 3001)]
    assert [x.hex() for x in got] == [x.hex() for x in want]


def test_step_sizes_of_an_unknown_rule_raise_at_the_first_value(monkeypatch):
    asked = []

    def logged_step_size(rule, k):
        asked.append(k)
        return step_size(rule, k)

    monkeypatch.setattr(diagnostics, "step_size", logged_step_size)
    with pytest.raises(ParameterError, match="^unknown step rule"):
        diagnostics._step_schedule(object(), 3000)
    assert asked == [1]


@pytest.mark.parametrize("rule", [PowerDecay(0.75), LinearRange(0.1, 1e-6, 500)])
def test_step_size_non_increasing(rule):
    vals = [step_size(rule, k) for k in range(1, 700)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_power_decay_series_trends():
    # For b in (0.5, 1): partial sums of alpha_k diverge while partial sums of
    # alpha_k^2 stay bounded by the analytic tail integral.
    b = 0.75
    k = np.arange(1, 100_001, dtype=float)
    alpha = k ** -b
    s1 = np.cumsum(alpha)
    s2 = np.cumsum(alpha ** 2)
    assert s1[-1] / s1[9_999] > 1.5  # keeps growing like N^(1-b)
    tail_bound = 2.0 * (10_000.0) ** -0.5  # integral of x^(-1.5) from 1e4
    assert s2[-1] - s2[9_999] < tail_bound
    assert s2[-1] < 1.0 + 2.0  # 1 + integral of x^(-1.5) from 1


@pytest.mark.parametrize("make, message", [
    (lambda: Constant(0.0), "alpha must be positive"),
    (lambda: Constant(-1e-3), "alpha must be positive"),
    (lambda: LipschitzAware(0.0), "l1j must be positive"),
    (lambda: LipschitzAware(-2.0), "l1j must be positive"),
])
def test_rules_reject_a_constant_that_is_not_positive(make, message):
    with pytest.raises(ParameterError) as err:
        make()
    assert str(err.value) == message


def test_apply_update_plain():
    out = apply_update(np.zeros(2), np.array([1.0, -2.0]), PlainAscent(), 0.1)
    assert np.allclose(out, [0.1, -0.2])


def test_apply_update_lipschitz():
    out = apply_update(np.zeros(1), np.array([1.0]), LipschitzAware(1.0), 0.1)
    assert out[0] == pytest.approx(1.0 / 9.0)
    with pytest.raises(ScheduleError):
        apply_update(np.zeros(1), np.ones(1), LipschitzAware(3.0), 0.5)


def test_apply_update_lipschitz_zero_limit_matches_plain():
    # Power-of-two step keeps both paths exact in floating point.
    theta, g = np.array([0.5, -1.5]), np.array([2.0, 3.0])
    tiny = apply_update(theta, g, LipschitzAware(1e-300), 0.125)
    plain = apply_update(theta, g, PlainAscent(), 0.125)
    assert np.array_equal(tiny, plain)


def test_train_config_validation():
    env = OneStepEnv()
    pol = PolicyParams.zeros(3, alpha=1.0)
    with pytest.raises(ParameterError):
        TrainConfig(env=env, policy_init=pol, episodes=-1, seed=0)
    with pytest.raises(ParameterError):
        TrainConfig(env=env, policy_init=pol, episodes=1, seed=0, gamma=1.0)
    with pytest.raises(ParameterError):
        TrainConfig(env=env, policy_init=pol, episodes=1, seed=0, epsilon_clip=1.0)
    with pytest.raises(ParameterError):
        TrainConfig(env=env, policy_init=pol, episodes=1, seed=0, q_mode="bogus")
    # Lipschitz-aware updates must be feasible at the schedule's maximum.
    with pytest.raises(ScheduleError):
        TrainConfig(env=env, policy_init=pol, episodes=1, seed=0,
                    step_rule=Constant(0.5), update_rule=LipschitzAware(4.0))


_NOT_FINITE_DOUBLES = (10**400, -10**400, math.inf, -math.inf, math.nan, np.float64(math.inf),
                       "0.5", None, np.array([0.5]), np.array(0.5))
_RULE_FIELDS = {
    "b": PowerDecay,
    "alpha_start": lambda v: LinearRange(v, 1e-3),
    "alpha_end": lambda v: LinearRange(2.0, v),
    "alpha": Constant,
    "l1j": LipschitzAware,
    "sigma0": lambda v: PolicyParams.zeros(3, 1.0, FIXED, v),
}


@pytest.mark.parametrize("name", sorted(_RULE_FIELDS))
def test_rule_fields_and_sigma0_take_finite_doubles_only(name):
    # A value that does not convert to a finite double is one ParameterError;
    # an int too large for a double was an OverflowError inside training.
    build = _RULE_FIELDS[name]
    for value in _NOT_FINITE_DOUBLES:
        with pytest.raises(ParameterError, match=f"^{name} must be a finite number, got "):
            build(value)
    # Ints and numpy scalars are numbers too.
    for value in (np.float64(0.25), np.float32(0.25), np.int64(1) if name != "b" else 0.25):
        build(value)


def test_linear_range_total_takes_integers_only():
    # A total that is not an integer is refused where it is set; an array
    # total made an unhashable rule, which the testbed's schedule cache refused.
    message = "^total must be an integer of at least 1, got "
    for total in (np.array([6]), np.array(6), 6.0, "6", None, math.inf, 0, -3, np.int64(0)):
        with pytest.raises(ParameterError, match=message):
            LinearRange(0.4, 1e-3, total)
    assert LinearRange(0.4, 1e-3, np.int64(6)) == LinearRange(0.4, 1e-3, 6)


def test_an_int_step_size_trains_as_its_double():
    env = MountainCar(spec=replace(MountainCar().spec, max_steps=30))
    runs = [train(TrainConfig(env=env, policy_init=PolicyParams.zeros(3, 2.0, FIXED, sigma0),
                              episodes=3, seed=4, step_rule=Constant(alpha)))
            for alpha, sigma0 in ((3, 2), (3.0, 2.0))]
    assert runs[0].update_norms == runs[1].update_norms
    assert param_vector(runs[0].final_policy).tobytes() == (
        param_vector(runs[1].final_policy).tobytes())
    assert any(runs[0].update_norms)


@pytest.mark.parametrize("key, value", [
    ("step_rule", "constant"), ("step_rule", object()),
    ("update_rule", "lipschitz"), ("update_rule", None),
], ids=["step-rule-name", "step-rule-object", "update-rule-name", "update-rule-none"])
def test_train_config_rejects_what_is_not_a_rule(key, value):
    # A string names no rule here: "lipschitz" would otherwise train plain
    # ascent, and "constant" fail only inside train.
    with pytest.raises(ParameterError, match=f"^unknown {key.replace('_', ' ')} "):
        TrainConfig(env=OneStepEnv(), policy_init=PolicyParams.zeros(3, alpha=1.0),
                    episodes=1, seed=0, **{key: value})


def _ulps(x: float, n: int) -> float:
    """``x`` moved ``n`` floats up (down for negative ``n``)."""
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return x


_SHORT_TRAPPED = TrappedCar(spec=replace(TrappedCar().spec, max_steps=20),
                            start_at_false_goal=True)


@settings(max_examples=200, deadline=None)
@given(alpha_start=st.floats(1e-6, 1e-2), ends_apart=st.integers(0, 3),
       ceiling_ulps=st.integers(-4, 4), episodes=st.integers(1, 8),
       alpha=st.sampled_from([1.0, 2.0]), seed=st.integers(0, 2**32 - 1))
def test_a_lipschitz_config_that_builds_never_fails_in_training(
        alpha_start, ends_apart, ceiling_ulps, episodes, alpha, seed):
    # Equal or nearly equal ends round some steps after the first up by an
    # ulp, and l1j sits within a few ulps of 1/alpha_start: TrainConfig must
    # refuse every run that one of its updates would refuse.  A fixed scale
    # keeps sigma put, so a run that blows up diverges instead of raising.
    step_rule = LinearRange(alpha_start, _ulps(alpha_start, -ends_apart))
    update_rule = LipschitzAware(_ulps(1.0 / alpha_start, ceiling_ulps))
    try:
        config = TrainConfig(env=_SHORT_TRAPPED,
                             policy_init=PolicyParams.zeros(3, alpha, FIXED), episodes=episodes,
                             seed=seed, step_rule=step_rule, update_rule=update_rule)
    except ScheduleError:
        return
    for run in (train, _train_reference):
        assert len(run(config).update_counts) <= episodes


def test_train_zero_episodes_empty_metrics():
    cfg = TrainConfig(env=OneStepEnv(), policy_init=PolicyParams.zeros(3, alpha=1.0),
                      episodes=0, seed=0)
    m = train(cfg)
    assert m.returns == [] and m.moving_avg_100 == []
    assert m.wall_updates == 0 and not m.diverged


def test_train_one_step_hand_trace():
    # Single transition, R = 1.  Whatever horizon is drawn, q_hat = 1 and the
    # single update must be exactly theta + alpha_1 * 1 * clip(score).
    env = OneStepEnv(reward=1.0)
    pol = PolicyParams.zeros(3, alpha=1.0, scale_mode=ADAPTIVE)
    alpha_1 = 0.05
    cfg = TrainConfig(env=env, policy_init=pol, episodes=1, seed=42, gamma=0.9,
                      epsilon_clip=0.2, step_rule=Constant(alpha_1))
    m = train(cfg)

    rng = np.random.default_rng(42)
    from htpg.envs import rollout

    traj = rollout(env, pol, rng, env.spec.max_steps)
    s = features((traj.states[0].position, traj.states[0].velocity))
    g = clip_score(score(pol, s, traj.actions[0]), 0.2)
    expected = param_vector(pol) + alpha_1 * 1.0 * g
    assert np.array_equal(param_vector(m.final_policy), expected)
    assert m.wall_updates == 1
    assert m.returns == [1.0]
    assert m.update_counts == [1]


def test_train_unclipped_when_scores_small():
    # With every score component at most 1 + eps the clip is the identity and
    # training matches a reference loop without the clip.
    env = OneStepEnv(reward=0.5)
    pol = PolicyParams.zeros(3, alpha=1.0)
    cfg = TrainConfig(env=env, policy_init=pol, episodes=5, seed=3,
                      step_rule=Constant(0.01))
    m = train(cfg)

    rng = np.random.default_rng(3)
    from htpg.envs import rollout
    from htpg.policy import with_param_vector
    from htpg.qvalue import discounted_partial_return, draw_horizon

    ref_pol = pol
    vec = param_vector(pol)
    for _ in range(5):
        traj = rollout(env, ref_pol, rng, env.spec.max_steps)
        drawn = draw_horizon(0.97, rng)
        q = discounted_partial_return(traj.rewards, 0.97, min(drawn, len(traj) - 1))
        for st, at in zip(traj.states, traj.actions):
            s = features((st.position, st.velocity))
            raw = score(ref_pol, s, at)
            assert np.all(raw <= 1.2)  # precondition of this scenario
            vec = vec + 0.01 * q * raw
            ref_pol = with_param_vector(ref_pol, vec)
    assert np.allclose(param_vector(m.final_policy), vec, rtol=0, atol=0)


def test_train_deterministic():
    env = TrappedCar()
    pol = PolicyParams.zeros(3, alpha=1.0)
    cfg = TrainConfig(env=env, policy_init=pol, episodes=12, seed=7)
    m1, m2 = train(cfg), train(cfg)
    assert m1.returns == m2.returns
    assert m1.moving_avg_100 == m2.moving_avg_100
    assert m1.update_norms == m2.update_norms
    assert np.array_equal(param_vector(m1.final_policy), param_vector(m2.final_policy))


def test_replacing_episodes_respans_linear_range():
    pol = PolicyParams.zeros(3, alpha=1.0)
    long = TrainConfig(env=TrappedCar(), policy_init=pol, episodes=800, seed=3)
    assert long.step_rule == LinearRange(0.005, 5e-9, 800)
    short = replace(long, episodes=40)
    fresh = TrainConfig(env=TrappedCar(), policy_init=pol, episodes=40, seed=3)
    assert short.step_rule == fresh.step_rule == LinearRange(0.005, 5e-9, 40)
    m_short, m_fresh = train(short), train(fresh)
    assert m_short.returns == m_fresh.returns
    assert m_short.update_norms == m_fresh.update_norms
    assert param_vector(m_short.final_policy).tobytes() == \
        param_vector(m_fresh.final_policy).tobytes()


def test_train_fixed_scale_never_touches_sigma():
    env = TrappedCar()
    pol = PolicyParams.zeros(3, alpha=1.0, scale_mode=FIXED, sigma0=1.0)
    cfg = TrainConfig(env=env, policy_init=pol, episodes=15, seed=5)
    m = train(cfg)
    assert np.array_equal(m.final_policy.theta_sigma, pol.theta_sigma)
    assert m.final_policy.scale_mode == FIXED
    assert not np.array_equal(m.final_policy.theta_x0, pol.theta_x0)  # it did learn


def test_train_moving_average_invariant():
    env = TrappedCar()
    cfg = TrainConfig(env=env, policy_init=PolicyParams.zeros(3, alpha=1.0),
                      episodes=130, seed=9)
    m = train(cfg)
    for k in range(130):
        window = m.returns[max(0, k - 99): k + 1]
        assert m.moving_avg_100[k] == _float_sum(window) / len(window)


def test_curves_window_mean_is_the_float_sum_of_its_window():
    # A running sum that adds each return and subtracts the one leaving the
    # window keeps a rounding residue: here it ends at -6.38e-18, not 0.0.
    returns = [0.1] * 100 + [0.0] * 100
    curves = _Curves(TrappedCar())
    for k, ret in enumerate(returns):
        curves.add(k, [ret], (0.5,), (0.5,), k + 1, False, [1.5])
    m = curves.metrics(200, False, None)
    assert m.returns == returns
    assert m.moving_avg_100[199] == 0.0
    for k in range(200):
        window = returns[max(0, k - 99): k + 1]
        assert m.moving_avg_100[k] == _float_sum(window) / len(window)
    assert m.update_norms == [0.0] * 200 and m.update_counts == list(range(1, 201))


def _bits(x: float) -> bytes:
    return b"nan" if math.isnan(x) else struct.pack("<d", x)


_PARAM = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([0.0, -0.0])


@given(size=st.sampled_from([3, 6]), data=st.data())
@settings(max_examples=300, deadline=None)
def test_curves_return_and_update_norm_are_float_sums(size, data):
    before = data.draw(st.lists(_PARAM, min_size=size, max_size=size))
    after = data.draw(st.lists(_PARAM, min_size=size, max_size=size))
    rewards = data.draw(st.lists(st.floats(-1e3, 1e3) | st.sampled_from([0.1, -0.0]),
                                 max_size=20))
    curves = _Curves(TrappedCar())
    with np.errstate(over="ignore", invalid="ignore"):
        want = math.sqrt(_squared_norm(np.array(after) - np.array(before)))
    curves.add(0, rewards, before, after, 1, False, [1.5])
    assert _bits(curves.norms[0]) == _bits(want)
    assert _bits(curves.returns[0]) == _bits(_float_sum(rewards))
    assert _bits(curves.moving[0]) == _bits(_float_sum(rewards))


def test_train_q_fresh_mode_runs():
    env = OneStepEnv(reward=1.0)
    cfg = TrainConfig(env=env, policy_init=PolicyParams.zeros(3, alpha=1.0),
                      episodes=3, seed=1, q_mode="fresh")
    m = train(cfg)
    assert m.wall_updates == 3
    assert not m.diverged


def test_train_divergence_guard():
    # An absurd reward magnitude overflows the parameters; the run must stop
    # and flag itself rather than loop on NaNs.
    env = OneStepEnv(reward=1e308)
    cfg = TrainConfig(env=env, policy_init=PolicyParams.zeros(3, alpha=1.0),
                      episodes=50, seed=0, step_rule=Constant(1e300))
    m = train(cfg)
    assert m.diverged
    assert len(m.returns) < 50


def test_train_first_exit_recorded():
    env = TrappedCar(start_at_false_goal=True)
    cfg = TrainConfig(env=env, policy_init=PolicyParams.zeros(3, alpha=1.0),
                      episodes=40, seed=2)
    m = train(cfg)
    if m.first_exit_episode is not None:
        assert 0 <= m.first_exit_episode < 40
