"""Config-file parsing: defaults, schema enforcement, and invariant errors."""

import json
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from htpg.config import (
    ConfigError,
    ExperimentConfig,
    FEATURE_DIM,
    FamilyConfig,
    build_env,
    build_train_config,
    config_to_text,
    parse_config,
)
from htpg.envs import MountainCar, TrappedCar
from htpg.errors import ParameterError
from htpg.policy import PolicyParams
from htpg.training import (
    Constant,
    LinearRange,
    LipschitzAware,
    PlainAscent,
    PowerDecay,
    TrainConfig,
    step_size,
    train,
)

MINIMAL = """
[policy.cauchy]
alpha = 1

[run]
seeds = [1]
"""

FULL = """
name = "fig3"

[env]
kind = "trapped_car"
max_steps = 400
false_reward = 0.2

[policy.cauchy]
alpha = 1
scale_mode = "adaptive"

[policy.gaussian]
alpha = 2
scale_mode = "fixed"
sigma0 = 1.5

[train]
episodes = 50
gamma = 0.9
epsilon_clip = 0.1
step_rule = "linear_range"
alpha_start = 0.01
alpha_end = 1e-6

[run]
seeds = [3, 1, 2]
out = "results/custom"
"""


def test_minimal_config_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.name == "experiment"
    assert cfg.env_kind == "trapped_car"
    assert [f.name for f in cfg.families] == ["cauchy"]
    assert cfg.families[0].alpha == 1.0
    assert cfg.families[0].scale_mode == "adaptive"
    assert cfg.episodes == 1000
    assert cfg.gamma == 0.97
    assert cfg.epsilon_clip == 0.2
    assert isinstance(cfg.step_rule, LinearRange)
    assert cfg.step_rule.alpha_start == 0.005
    assert cfg.step_rule.alpha_end == 5e-9
    assert cfg.seeds == (1,)
    assert cfg.q_mode == "shared"


def test_full_config_roundtrip():
    cfg = parse_config(FULL)
    assert cfg.name == "fig3"
    assert dict(cfg.env_overrides) == {"max_steps": 400, "false_reward": 0.2}
    assert len(cfg.families) == 2
    assert cfg.families[1].sigma0 == 1.5
    assert cfg.seeds == (3, 1, 2)
    assert cfg.out_dir == "results/custom"
    env = build_env(cfg)
    assert isinstance(env, TrappedCar)
    assert env.spec.max_steps == 400
    assert env.false_reward == 0.2

    tc = build_train_config(cfg, cfg.families[0], seed=3)
    assert tc.episodes == 50
    assert tc.policy_init.dim == FEATURE_DIM
    assert tc.policy_init.alpha == 1.0


def test_parse_accepts_bytes():
    cfg = parse_config(MINIMAL.encode("utf-8"))
    assert cfg.seeds == (1,)


def test_mountain_car_config():
    cfg = parse_config("""
[env]
kind = "mountain_car"
max_steps = 500

[policy.g]
alpha = 2

[run]
seeds = [1, 2]
""")
    env = build_env(cfg)
    assert isinstance(env, MountainCar)
    assert env.spec.max_steps == 500


def test_step_rule_variants():
    cfg = parse_config(MINIMAL + "\n[train]\nstep_rule = \"power_decay\"\nb = 0.6\n")
    assert cfg.step_rule == PowerDecay(0.6)
    cfg = parse_config(MINIMAL + "\n[train]\nstep_rule = \"constant\"\nalpha = 0.25\n")
    assert cfg.step_rule == Constant(0.25)


def test_train_flags_plumb_through():
    cfg = parse_config(MINIMAL + '\n[train]\nsymmetric_clip = true\nq_mode = "fresh"\n')
    assert cfg.symmetric_clip and cfg.q_mode == "fresh"
    tc = build_train_config(cfg, cfg.families[0], seed=1)
    assert tc.symmetric_clip and tc.q_mode == "fresh"


def test_rejects_b_out_of_range():
    with pytest.raises(ConfigError, match=r"\(0, 1\)"):
        parse_config(MINIMAL + "\n[train]\nstep_rule = \"power_decay\"\nb = 1.5\n")


def test_rejects_duplicate_seeds():
    with pytest.raises(ConfigError, match="distinct"):
        parse_config("""
[policy.c]
alpha = 1

[run]
seeds = [1, 1]
""")


def test_rejects_negative_seeds():
    # Every seed is checked, not only the first; numpy cannot seed from them.
    with pytest.raises(ConfigError, match=r"^\[run\] seed must be non-negative, got -1"):
        parse_config(MINIMAL.replace("seeds = [1]", "seeds = [1, -1]"))


def test_rejects_unknown_keys_with_line():
    bad = MINIMAL + "\n[train]\nbogus_key = 3\n"
    with pytest.raises(ConfigError, match=r"line \d+.*bogus_key"):
        parse_config(bad)
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config(MINIMAL + "\n[nonsense]\nx = 1\n")
    with pytest.raises(ConfigError, match="top-level"):
        parse_config("stray = 1\n" + MINIMAL)


def test_rejects_bad_syntax_with_line_number():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("[env]\nkind trapped_car\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("[env]\nkind = trapped_car\n")  # unquoted string


def test_rejects_missing_family():
    with pytest.raises(ConfigError, match="policy"):
        parse_config("[run]\nseeds = [1]\n")


def test_rejects_bad_family_values():
    with pytest.raises(ConfigError, match="alpha"):
        parse_config("[policy.x]\nalpha = 1.5\n\n[run]\nseeds = [1]\n")
    with pytest.raises(ConfigError, match="scale_mode"):
        parse_config('[policy.x]\nalpha = 1\nscale_mode = "loose"\n\n[run]\nseeds = [1]\n')


def test_rejects_false_start_on_mountain_car():
    with pytest.raises(ConfigError,
                       match=r"^line 4: \[env\] key 'start_at_false_goal' is unknown$"):
        parse_config("""
[env]
kind = "mountain_car"
start_at_false_goal = true

[policy.c]
alpha = 1

[run]
seeds = [1]
""")


def test_comments_and_inline_comments():
    cfg = parse_config("""
# leading comment
[policy.c]
alpha = 1  # inline comment

[run]
seeds = [1, 2]  # list with comment
""")
    assert cfg.seeds == (1, 2)


def test_env_override_unknown_key():
    # [env] gamma would be ignored (the discount is [train] gamma), so it is
    # not a key.
    for key in ("goal_position", "gamma"):
        with pytest.raises(ConfigError, match=rf"line 4: \[env\] key '{key}' is unknown"):
            parse_config(f"""
[env]
kind = "trapped_car"
{key} = 0.5

[policy.c]
alpha = 1

[run]
seeds = [1]
""")


def test_lipschitz_update_with_default_schedule_trains():
    cfg = parse_config(MINIMAL + '\n[train]\nepisodes = 2\nupdate_rule = "lipschitz"\n')
    assert cfg.update_rule == LipschitzAware(1.0)
    metrics = train(build_train_config(cfg, cfg.families[0], seed=1))
    assert len(metrics.returns) == 2 and not metrics.diverged


def test_rejects_lipschitz_schedule_maximum_at_parse_time():
    text = MINIMAL + ('\n[train]\nstep_rule = "constant"\nalpha = 0.9\n'
                      'update_rule = "lipschitz"\nl1j = 2\n')
    with pytest.raises(ConfigError, match=r"^\[train\] .*alpha=0.9"):
        parse_config(text)


@pytest.mark.parametrize("rule, key", [
    ('step_rule = "linear_range"', "b = 0.6"),
    ('step_rule = "power_decay"', "alpha = 0.3"),
    ('step_rule = "constant"', "alpha_start = 0.01"),
    ('update_rule = "plain"', "l1j = 5"),
])
def test_rejects_keys_of_rules_not_selected(rule, key):
    name = key.split()[0]
    with pytest.raises(ConfigError, match=rf"^line 3: \[train\] key '{name}' is unknown"):
        parse_config(f"[train]\n{rule}\n{key}\n" + MINIMAL)


@pytest.mark.parametrize("section, line", [
    ("train", "gamma = 1" + "0" * 400),
    ("env", "thrust_gain = NaN"),
    ("env", "thrust_gain = Infinity"),
    ("env", "thrust_gain = -Infinity"),
    ("env", "thrust_gain = 1e400"),
], ids=["int-beyond-float", "nan", "inf", "minus-inf", "1e400"])
def test_rejects_numbers_that_are_not_finite(section, line):
    key = line.split()[0]
    with pytest.raises(ConfigError,
                       match=rf"^line 2: \[{section}\] {key} must be a finite number, got "):
        parse_config(f"[{section}]\n{line}\n" + MINIMAL)


@pytest.mark.parametrize("override", ["max_steps = 0", "init_low = -10"])
def test_rejects_invalid_env_values_at_parse_time(override):
    with pytest.raises(ConfigError, match=r"^\[env\] "):
        parse_config(f"[env]\n{override}\n" + MINIMAL)


def test_replace_revalidates():
    cfg = parse_config(MINIMAL)
    with pytest.raises(ConfigError, match="distinct"):
        replace(cfg, seeds=(1, 1))
    with pytest.raises(ConfigError, match="out"):
        replace(cfg, out_dir="")
    with pytest.raises(ConfigError, match=r"\[run\] seed must be non-negative"):
        replace(cfg, seeds=(1, -2))
    with pytest.raises(ConfigError, match=r"\[policy.x\] .*sigma0"):
        replace(cfg, families=(FamilyConfig("x", 1.0, sigma0=-1.0),))


@pytest.mark.parametrize("text, message", [
    ('name = ""\n', r"name must be a non-empty string"),
    ("[policy.]\n", r"family names must be non-empty and distinct"),
    ("[env\n", r"line 1: malformed section header '\[env'"),
    ('[env]\nkind = "trapped_car"\nkind = "mountain_car"\n', r"line 3: duplicate key 'kind'"),
    ('[env]\nkind = "cart_pole"\n',
     r"line 2: \[env\] kind must be one of \['trapped_car', 'mountain_car'\], got 'cart_pole'"),
    ('[train]\nstep_rule = "cosine"\n',
     r"line 2: \[train\] step_rule must be one of \['linear_range', 'power_decay', "
     r"'constant'\], got 'cosine'"),
    ("[train]\nupdate_rule = 3\n",
     r"line 2: \[train\] update_rule must be one of \['plain', 'lipschitz'\], got 3"),
], ids=["empty-name", "empty-family", "open-header", "duplicate-key", "unknown-kind",
        "unknown-step-rule", "update-rule-not-a-string"])
def test_rejects_malformed_configs(text, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        parse_config(text + MINIMAL)


@pytest.mark.parametrize("episodes", [0, 1, 7, 50, 2000])
def test_replacing_episodes_respans_linear_range(episodes):
    cfg = replace(parse_config(FULL), episodes=episodes)
    assert cfg == parse_config(FULL.replace("episodes = 50", f"episodes = {episodes}"))
    assert cfg.step_rule.total == max(episodes, 1)
    assert parse_config(config_to_text(cfg)) == cfg


def test_section_headers_count_without_keys():
    cfg = parse_config("[policy.cauchy]\n[policy.gaussian]\nalpha = 2\n")
    assert [(f.name, f.alpha) for f in cfg.families] == [("cauchy", 1.0), ("gaussian", 2.0)]
    with pytest.raises(ConfigError, match=r"line 3: duplicate section \[policy.c\]"):
        parse_config("[policy.c]\nalpha = 1\n[policy.c]\n")


def test_rejects_wrong_value_types_with_line():
    with pytest.raises(ConfigError, match=r"line 2: \[train\] episodes must be an integer"):
        parse_config("[train]\nepisodes = 1.5\n" + MINIMAL)
    with pytest.raises(ConfigError, match=r"line 2: \[run\] seeds must be an array"):
        parse_config('[run]\nseeds = [1, "2"]\n[policy.c]\n')


_NAMES = st.text(st.sampled_from('ab "\\#=[]\n\t') | st.characters(), min_size=1, max_size=12)
_UNIT = st.floats(0.01, 0.99)


@st.composite
def experiment_configs(draw):
    kind = draw(st.sampled_from(["trapped_car", "mountain_car"]))
    keys = {"max_steps": st.integers(1, 1000), "thrust_gain": _UNIT,
            "reward_bound": st.floats(0.1, 1e3)}
    keys.update({"trapped_car": {"false_reward": _UNIT, "true_goal": st.floats(3.0, 3.7),
                                 "start_at_false_goal": st.booleans()},
                 "mountain_car": {"goal_position": st.floats(0.0, 0.6)}}[kind])
    chosen = draw(st.lists(st.sampled_from(sorted(keys)), unique=True))
    names = draw(st.lists(st.from_regex(r"[A-Za-z0-9_-]{1,8}", fullmatch=True),
                          min_size=1, max_size=3, unique=True))
    families = tuple(
        FamilyConfig(n, draw(st.sampled_from([1.0, 2.0])),
                     draw(st.sampled_from(["fixed", "adaptive"])), draw(st.floats(0.01, 10.0)))
        for n in names)
    episodes = draw(st.integers(0, 2000))
    step_rule = draw(st.one_of(
        st.tuples(_UNIT, _UNIT).map(lambda ab: LinearRange(max(ab), min(ab), max(episodes, 1))),
        _UNIT.map(PowerDecay),
        _UNIT.map(Constant),
    ))
    ceiling = 1.0 / step_size(step_rule, 1)
    update_rule = draw(st.one_of(st.just(PlainAscent()),
                                 _UNIT.map(lambda f: LipschitzAware(f * ceiling))))
    return ExperimentConfig(
        name=draw(_NAMES),
        env_kind=kind,
        env_overrides=tuple((k, draw(keys[k])) for k in chosen),
        families=families,
        episodes=episodes,
        gamma=draw(_UNIT),
        epsilon_clip=draw(_UNIT),
        step_rule=step_rule,
        update_rule=update_rule,
        q_mode=draw(st.sampled_from(["shared", "fresh"])),
        symmetric_clip=draw(st.booleans()),
        seeds=tuple(draw(st.lists(st.integers(0, 2**31), min_size=1, max_size=4, unique=True))),
        out_dir=draw(_NAMES),
    )


@settings(max_examples=150, deadline=None)
@given(experiment_configs())
@example(replace(parse_config(MINIMAL), name='a\\b"#c', out_dir='out "#\\ dir'))
def test_config_text_roundtrip(cfg):
    assert parse_config(config_to_text(cfg)) == cfg


# Per value: a strategy of valid values and one of edge values, which may
# or may not be valid.  Each example breaks at most one value.
_EDGE = st.sampled_from([-1.0, 0.0, 1e-9, 0.5, 1.0, 2.0])
_CASES = {
    "max_steps": (st.integers(1, 5), st.sampled_from([-1, 0, 1])),
    "init_low": (st.sampled_from([-1.0, -0.6]), st.sampled_from([-10.0, -1.2, -0.4, 1.5])),
    "policy_alpha": (st.sampled_from([1, 2]), st.sampled_from([0.5, 1.5, 3])),
    "scale_mode": (st.sampled_from(["fixed", "adaptive"]), st.just("loose")),
    "sigma0": (_UNIT, _EDGE),
    "episodes": (st.integers(0, 3), st.integers(-2, 0)),
    "gamma": (_UNIT, _EDGE),
    "epsilon_clip": (_UNIT, _EDGE),
    "alpha_start": (st.floats(0.5, 0.99), _EDGE),
    "alpha_end": (st.floats(0.01, 0.49), _EDGE),
    "b": (_UNIT, _EDGE),
    "alpha": (_UNIT, _EDGE),
    "l1j": (_UNIT, _EDGE),
    "q_mode": (st.sampled_from(["shared", "fresh"]), st.just("stale")),
}
_RULE_KEYS = {"linear_range": ("alpha_start", "alpha_end"), "power_decay": ("b",),
              "constant": ("alpha",)}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_parse_accepts_exactly_what_the_types_accept(data):
    kind = data.draw(st.sampled_from(["trapped_car", "mountain_car"]))
    step_rule = data.draw(st.sampled_from(sorted(_RULE_KEYS)))
    lipschitz = data.draw(st.booleans())
    v = {key: data.draw(valid) for key, (valid, _) in _CASES.items()}
    broken = data.draw(st.sampled_from([None, *_CASES]))
    if broken:
        v[broken] = data.draw(_CASES[broken][1])
    train_keys = ["episodes", "gamma", "epsilon_clip", "q_mode", *_RULE_KEYS[step_rule],
                  *(["l1j"] if lipschitz else [])]
    text = "\n".join([
        "[env]", f"kind = {json.dumps(kind)}", f"max_steps = {v['max_steps']}",
        f"init_low = {v['init_low']!r}",
        "[policy.varied]", f"alpha = {v['policy_alpha']}",
        f"scale_mode = {json.dumps(v['scale_mode'])}", f"sigma0 = {v['sigma0']!r}",
        "[policy.gaussian]", "alpha = 2",
        "[train]", f"step_rule = {json.dumps(step_rule)}",
        f"update_rule = {json.dumps('lipschitz' if lipschitz else 'plain')}",
        *(f"{key} = {json.dumps(v[key])}" for key in train_keys),
        "[run]", "seeds = [1, 2]", ""])
    try:
        parse_config(text)
        parsed = True
    except ConfigError:
        parsed = False

    try:
        env_cls = {"trapped_car": TrappedCar, "mountain_car": MountainCar}[kind]
        spec = replace(env_cls().spec, max_steps=v["max_steps"], init_low=v["init_low"])
        policies = [PolicyParams.zeros(FEATURE_DIM, v["policy_alpha"], v["scale_mode"],
                                       v["sigma0"]),
                    PolicyParams.zeros(FEATURE_DIM, 2.0)]
        episodes = v["episodes"]
        rule = {"linear_range": lambda: LinearRange(v["alpha_start"], v["alpha_end"],
                                                    max(episodes, 1)),
                "power_decay": lambda: PowerDecay(v["b"]),
                "constant": lambda: Constant(v["alpha"])}[step_rule]()
        update = LipschitzAware(v["l1j"]) if lipschitz else PlainAscent()
        for policy in policies:
            TrainConfig(env_cls(spec=spec), policy, episodes, 1, v["gamma"], v["epsilon_clip"],
                        rule, update, v["q_mode"])
        direct = True
    except ParameterError:
        direct = False
    assert parsed == direct
