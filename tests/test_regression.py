"""Regression pin: exact outputs of training, Q estimation and the
averaged-gradient testbed on fixed seeds.

The digests below were recorded from the implementation and must not move
under refactors that claim bit-identical behaviour.  Each covers every float
of the outputs as IEEE-754 bytes, so a change in the random stream, the
order of arithmetic or a single step count shows up.

Every float sum behind these bytes is a left-to-right sum of Python floats
(``policy.action_mode`` and ``policy._float_sum``), no BLAS call enters
them, and sigma is one ``math.exp``.  So they do not depend on the Python
version (builtin ``sum`` compensates from 3.12 on; a test below emulates
that), on the OpenBLAS core or on numpy's SIMD loops: what numpy computes on
these paths is elementwise ``+``, ``-``, ``*`` and comparisons, which IEEE
rounds alike in every loop.  They still depend on glibc's libm (its
``exp``, ``cos`` and ``tan``): the digests were recorded with glibc 2.36.
"""

import builtins
import hashlib
import math
import struct
from dataclasses import replace

import numpy as np

from htpg.config import parse_config
from htpg.diagnostics import NoiseModel, SmoothBump, synthetic_sga_run
from htpg.envs import (
    DEFAULT_MOUNTAIN_SPEC,
    DEFAULT_TRAPPED_SPEC,
    EnvState,
    MountainCar,
    TrappedCar,
    rollout,
)
from htpg.experiment import run_experiment
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
        "eaff17e5f0ecb8163a71c3164cab77cdf97dd6d7ddd7aba549a2b282fc2c4962",
    "gaussian-shared":
        "a7137cfc1f4602c74e53a88e157f58d83246f46c7acca66bc3c9770df79ce784",
    "cauchy-fresh":
        "36fdf34b1e5add068af6a7b46097c44c707c18e8e34b3e1d4669f068d4663eac",
    "gaussian-fresh":
        "e0833a4ce0160390b2b23b9d0ea2d829130a41a635128809f2bd3d3a1811da03",
    "fixed-scale-near-goal":
        "142314eb9b5d260f22070e82586633f67f0c8f6421aa5681f78230f65367af7f",
    "mountain":
        "c685dc1f0607a3ec1fef95ccd123aed754bc8502857bbb73f1ac8815ed9ae40e",
    "lipschitz-symmetric":
        "efb9cd8c2268600758d6913f1a6f41192bfcfe66389f43ad36297f7b19f2fcd5",
}
ESTIMATE_Q_DIGEST = "8fe67cb51a7cd015e7ad0718cd1131a2e570b7f60d2f492dc3c7a48d1160d347"
SGA_DIGEST = "e5417326e444285a045dd6161139a6657bc46903058b1517c14f8b1f7c1e3995"


def _train_digests() -> dict:
    got = {}
    for name, config in _train_cases().items():
        m = train(config)
        got[name] = _digest(
            [float(r) for r in m.returns], [float(r) for r in m.moving_avg_100],
            [float(n) for n in m.update_norms], m.update_counts, m.first_exit_episode,
            m.wall_updates, m.terminal_episodes, m.diverged,
            param_vector(m.final_policy))
    return got


def test_train_outputs_are_pinned():
    assert _train_digests() == TRAIN_DIGESTS


_builtin_sum = builtins.sum


def _neumaier_sum(iterable, /, start=0):
    """Builtin ``sum`` as CPython 3.12 adds floats (``Python/bltinmodule.c``):
    ``0 + v0``, then Neumaier's compensated sum of the rest, whose
    compensation is added at the end when it is non-zero and finite.  Any
    other input goes to the real ``sum``."""
    items = list(iterable)
    if not (type(start) is int and start == 0 and items
            and all(type(v) is float for v in items)):
        return _builtin_sum(items, start)
    total, c = 0 + items[0], 0.0
    for x in items[1:]:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


# 30 episodes from the false start, whose returns add many 0.1 rewards: a
# compensated sum rounds some of them differently.
_FALSE_START_SWEEP = """
name = "false-start"

[env]
kind = "trapped_car"
max_steps = 80
start_at_false_goal = true

[policy.cauchy]
alpha = 1

[policy.gaussian]
alpha = 2

[train]
episodes = 30

[run]
seeds = [1, 2, 3]
"""


def test_outputs_do_not_depend_on_the_python_versions_sum(monkeypatch, tmp_path):
    # From Python 3.12 on, builtin sum compensates; under it, every pinned
    # digest and every byte a sweep writes stay as they are.
    cfg = parse_config(_FALSE_START_SWEEP)
    run_experiment(replace(cfg, out_dir=str(tmp_path / "real")), max_workers=1)
    monkeypatch.setattr(builtins, "sum", _neumaier_sum)
    assert _train_digests() == TRAIN_DIGESTS
    run_experiment(replace(cfg, out_dir=str(tmp_path / "py312")), max_workers=1)

    def data_files(out_dir):  # config.txt holds the out path
        return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
                if p.suffix in (".csv", ".svg")}

    assert data_files(tmp_path / "py312") == data_files(tmp_path / "real")


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
