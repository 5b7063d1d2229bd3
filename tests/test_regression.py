"""Regression pin: exact outputs of training, Q estimation and the
averaged-gradient testbed on fixed seeds.

The digests below were recorded from the implementation and must not move
under refactors that claim bit-identical behaviour.  Each covers every float
of the outputs as IEEE-754 bytes, so a change in the random stream, the
order of arithmetic or a single step count shows up.
"""

import hashlib
import struct
from dataclasses import replace

import numpy as np

from htpg.diagnostics import NoiseModel, SmoothBump, synthetic_sga_run
from htpg.envs import (
    DEFAULT_MOUNTAIN_SPEC,
    DEFAULT_TRAPPED_SPEC,
    EnvState,
    MountainCar,
    TrappedCar,
    rollout,
)
from htpg.policy import FIXED, PolicyParams, param_vector
from htpg.qvalue import estimate_q
from htpg.training import (
    Constant,
    LipschitzAware,
    PlainAscent,
    PowerDecay,
    TrainConfig,
    train,
)

from oracles import synthetic_sga_reference

# Starting in the misleading basin earns 0.1 per step, so shared-Q updates
# are non-zero; the lowered basin exit lets some episodes leave it.
_TRAPPED = TrappedCar(spec=replace(DEFAULT_TRAPPED_SPEC, max_steps=80),
                      start_at_false_goal=True, basin_exit=-2.45)
_MOUNTAIN = MountainCar(spec=replace(DEFAULT_MOUNTAIN_SPEC, max_steps=120))


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(part.astype("<f8").tobytes())
        elif isinstance(part, float):
            h.update(struct.pack("<d", part))
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()


def _train_cases():
    def cfg(env, alpha, seed, **kw):
        pol = PolicyParams.zeros(3, alpha, **kw.pop("policy", {}))
        return TrainConfig(env=env, policy_init=pol, seed=seed, **kw)

    return {
        "cauchy-shared": cfg(_TRAPPED, 1.0, 1, episodes=6),
        "gaussian-shared": cfg(_TRAPPED, 2.0, 2, episodes=6),
        "cauchy-fresh": cfg(_TRAPPED, 1.0, 3, episodes=2, q_mode="fresh"),
        "gaussian-fresh": cfg(_TRAPPED, 2.0, 4, episodes=2, q_mode="fresh"),
        # From the usual start with a near goal: some episodes terminate.
        "fixed-scale-near-goal": cfg(
            replace(_TRAPPED, start_at_false_goal=False, true_goal=2.1), 1.0, 5,
            episodes=6, policy={"scale_mode": FIXED, "sigma0": 20.0},
            step_rule=Constant(0.002)),
        "mountain": cfg(_MOUNTAIN, 2.0, 6, episodes=4, gamma=0.9),
        "lipschitz-symmetric": cfg(
            _TRAPPED, 1.0, 7, episodes=6, update_rule=LipschitzAware(2.0),
            symmetric_clip=True, epsilon_clip=0.3),
    }


# Digests of the cases above and of the estimate_q batch below.  A change
# that moves one alters behaviour on these seeds.
TRAIN_DIGESTS = {
    "cauchy-shared":
        "f4e414c451788bfd5e54b3c1368d2ba8a086eecc6c7ca3915756f4a194e391ef",
    "gaussian-shared":
        "ea67f5b2c937f7fdaa0acfbfeb5098b1ffb72fcaae52beab9dbdf3d9761282e2",
    "cauchy-fresh":
        "5f1a42fcb14fb53dccf2fc1bbf014bbbf47d26facd2a65e9296ba92209963ba6",
    "gaussian-fresh":
        "6a58355ad23a35dc37f29f69aa5e48a8145e862ea444479e302c99fa7ae5376f",
    "fixed-scale-near-goal":
        "142314eb9b5d260f22070e82586633f67f0c8f6421aa5681f78230f65367af7f",
    "mountain":
        "cbb0049bec1fad5e4fefdecbd922fdfc27519919ab169e198e0466c57d8190d3",
    "lipschitz-symmetric":
        "6e9e706519bf78bb24252980ceb33a30fcf3d10005716815f06d5db007c0f473",
}
ESTIMATE_Q_DIGEST = "8fe67cb51a7cd015e7ad0718cd1131a2e570b7f60d2f492dc3c7a48d1160d347"
SGA_DIGEST = "e5417326e444285a045dd6161139a6657bc46903058b1517c14f8b1f7c1e3995"


def test_train_outputs_are_pinned():
    got = {}
    for name, config in _train_cases().items():
        m = train(config)
        got[name] = _digest(
            [float(r) for r in m.returns], [float(r) for r in m.moving_avg_100],
            [float(n) for n in m.update_norms], m.update_counts, m.first_exit_episode,
            m.wall_updates, m.terminal_episodes, m.diverged,
            param_vector(m.final_policy))
    assert got == TRAIN_DIGESTS


def test_estimate_q_values_and_stream_are_pinned():
    policies = (
        PolicyParams(np.array([0.5, 20.0, 0.1]), np.array([0.1, 0.0, -0.3]), 1.0),
        PolicyParams(np.array([-1.0, 40.0, 2.0]), np.array([0.0, 0.2, 0.5]), 2.0),
    )
    rng = np.random.default_rng(11)
    parts = []
    for i in range(400):
        env = _MOUNTAIN if i % 5 == 4 else _TRAPPED
        pol = policies[i % 2]
        state = EnvState(rng.uniform(env.spec.state_low, env.spec.state_high),
                         0.01 * (i % 7 - 3))
        a0 = 30.0 * (i % 3 - 1)  # -30 and +30 lie outside both action ranges
        horizon = 200 if i % 11 == 0 else None  # beyond either step budget
        est = estimate_q(env, pol, state, a0, 0.97, rng, horizon=horizon)
        parts += [est.value, est.horizon_drawn]
    parts.append(float(rng.random()))
    assert _digest(*parts) == ESTIMATE_Q_DIGEST


def test_synthetic_sga_norms_and_stream_are_pinned():
    # The check-bound case (PowerDecay(0.5), plain ascent, noise floor 0.1),
    # the Lipschitz-aware update on a constant schedule, and noise that
    # grows with the gradient; each from seeds 0-2.  synthetic_sga_run runs
    # plain ascent only, so the Lipschitz-aware case runs the oracle.  Of the
    # machine stack, only the C math library (exp, pow, the normal sampler's
    # log) enters these bytes: no BLAS call and no numpy SIMD loop.
    def by_oracle(objective, noise, step_rule, update_rule, n, rng):
        return synthetic_sga_reference(objective, noise, step_rule, update_rule, rng,
                                       np.full(2, 0.5), np.empty(n))

    cases = ((NoiseModel(0.1), PowerDecay(0.5), PlainAscent(), synthetic_sga_run),
             (NoiseModel(0.1), Constant(0.1), LipschitzAware(2.0), by_oracle),
             (NoiseModel(0.05, 0.5), PowerDecay(0.5), PlainAscent(), synthetic_sga_run))
    parts = []
    for noise, step_rule, update_rule, run in cases:
        for seed in range(3):
            rng = np.random.default_rng(seed)
            parts += [run(SmoothBump(), noise, step_rule, update_rule, 2000, rng),
                      float(rng.random())]
    assert _digest(*parts) == SGA_DIGEST


def test_rollout_cut_at_horizon_is_a_prefix_of_the_full_rollout():
    for env, alpha in ((_TRAPPED, 1.0), (_TRAPPED, 2.0), (_MOUNTAIN, 1.0)):
        pol = PolicyParams.zeros(3, alpha)
        full = rollout(env, pol, np.random.default_rng(21), env.spec.max_steps)
        for h in (1, 2, 17, len(full) - 1):
            cut = rollout(env, pol, np.random.default_rng(21), h)
            assert len(cut) == h
            assert cut.states == full.states[:h]
            assert cut.actions == full.actions[:h]
            assert cut.rewards == full.rewards[:h]
            assert cut.final_state == full.states[h]
