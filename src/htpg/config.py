"""Experiment configuration: a strict flat config-file format and its schema.

The file format is a TOML-like subset: ``key = value`` lines grouped under
``[section]`` headers, with JSON-style values (quoted strings, numbers,
booleans, flat arrays) and ``#`` comments.  Sections are ``[env]``,
``[policy.<family>]`` (one per policy family to compare), ``[train]``, and
``[run]``; the only top-level key is ``name``.

The parser checks syntax, keys and JSON value types.  Value invariants
belong to the types a config builds: :class:`ExperimentConfig` builds the
environment, every family's initial policy and a training config, and
reports their errors under the section they came from.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace

from .errors import ParameterError
from .envs import EnvSpec, MountainCar, TrappedCar
from .policy import ADAPTIVE, PolicyParams
from .training import (
    DEFAULT_ALPHA_END,
    DEFAULT_ALPHA_START,
    Constant,
    LinearRange,
    LipschitzAware,
    PlainAscent,
    PowerDecay,
    Q_SHARED,
    TrainConfig,
)

__all__ = [
    "ConfigError",
    "FamilyConfig",
    "ExperimentConfig",
    "parse_config",
    "build_env",
    "build_train_config",
    "config_to_text",
    "FEATURE_DIM",
]

# Features are [position, velocity, bias].
FEATURE_DIM = 3

# Name -> class tables.  Each rule's entry also maps its config keys to their
# defaults; only the selected rules' keys may appear in [train].
# LinearRange's ``total`` is the episode budget, not a key.
_ENV_KINDS = {"trapped_car": TrappedCar, "mountain_car": MountainCar}
_STEP_RULES = {
    "linear_range": (LinearRange, {"alpha_start": DEFAULT_ALPHA_START,
                                   "alpha_end": DEFAULT_ALPHA_END}),
    "power_decay": (PowerDecay, {"b": 0.75}),
    "constant": (Constant, {"alpha": 0.001}),
}
_UPDATE_RULES = {"plain": (PlainAscent, {}), "lipschitz": (LipschitzAware, {"l1j": 1.0})}

# Defaults of the keys that map one to one onto FamilyConfig and
# ExperimentConfig fields.  A value read from the file must have its
# default's JSON type (an integer passes as a number).
_FAMILY_DEFAULTS = {"alpha": 1.0, "scale_mode": ADAPTIVE, "sigma0": 1.0}
_TRAIN_DEFAULTS = {"episodes": 1000, "gamma": 0.97, "epsilon_clip": 0.2, "q_mode": Q_SHARED,
                   "symmetric_clip": False}
# EnvSpec.gamma is not a key: nothing reads it, the discount is [train] gamma.
_SPEC_KEYS = {f.name for f in fields(EnvSpec)} - {"gamma"}
_TYPE_NAMES = {bool: "a boolean", int: "an integer", float: "a number",
               str: "a string", list: "an array of integers"}


class ConfigError(ParameterError):
    """Malformed or invalid experiment configuration."""


@contextmanager
def _section(name: str):
    """Report a ParameterError raised while building ``[name]`` as a ConfigError."""
    try:
        yield
    except ParameterError as err:
        raise ConfigError(f"[{name}] {err}") from None


@dataclass(frozen=True)
class FamilyConfig:
    name: str
    alpha: float
    scale_mode: str = ADAPTIVE
    sigma0: float = 1.0


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated sweep: construction (including ``dataclasses.replace``)
    builds everything the sweep will build and raises ConfigError if any of
    it is invalid.  ``env_overrides`` are the ``[env]`` keys but ``kind``;
    a ``linear_range`` rule is re-spanned over ``max(episodes, 1)`` episodes."""

    name: str
    env_kind: str
    env_overrides: tuple  # ((key, value), ...)
    families: tuple
    episodes: int
    gamma: float
    epsilon_clip: float
    step_rule: object
    update_rule: object
    q_mode: str
    symmetric_clip: bool
    seeds: tuple
    out_dir: str

    def __post_init__(self) -> None:
        if isinstance(self.step_rule, LinearRange):
            object.__setattr__(self, "step_rule",
                               replace(self.step_rule, total=max(self.episodes, 1)))
        if not self.name:
            raise ConfigError("name must be a non-empty string")
        names = [f.name for f in self.families]
        if not names:
            raise ConfigError("at least one [policy.<family>] section is required")
        if not all(names) or len(set(names)) != len(names):
            raise ConfigError("family names must be non-empty and distinct")
        if not self.seeds or len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("[run] seeds must be a non-empty list of distinct integers")
        if not self.out_dir:
            raise ConfigError("[run] out must be a non-empty string")
        with _section("env"):
            build_env(self)
        for family in self.families:
            with _section(f"policy.{family.name}"):
                _initial_policy(family)
        with _section("train"):
            train = build_train_config(self, self.families[0], 0)
        with _section("run"):
            for seed in self.seeds:
                replace(train, seed=seed)


# ---------------------------------------------------------------------------
# Low-level file parsing


def _strip_comment(line: str) -> str:
    in_string = escaped = False
    for i, ch in enumerate(line):
        if escaped:
            escaped = False
        elif ch == "\\":
            escaped = in_string
        elif ch == '"':
            in_string = not in_string
        elif ch == "#" and not in_string:
            return line[:i]
    return line


def _parse_sections(text: str) -> dict:
    """{section: (header line, {key: (line, value)})}; top-level keys are
    under section None."""
    sections = {None: (0, {})}
    body = sections[None][1]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("["):
            section = line[1:-1].strip()
            if not line.endswith("]") or not section:
                raise ConfigError(f"line {lineno}: malformed section header {raw.strip()!r}")
            if section in sections:
                raise ConfigError(f"line {lineno}: duplicate section [{section}]")
            sections[section] = (lineno, {})
            body = sections[section][1]
            continue
        key, eq, value_text = line.partition("=")
        key = key.strip()
        if not eq or not key:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        if key in body:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            body[key] = (lineno, json.loads(value_text.strip()))
        except json.JSONDecodeError:
            raise ConfigError(
                f"line {lineno}: cannot parse value {value_text.strip()!r} "
                "(use quoted strings, numbers, booleans, or flat arrays)"
            ) from None
    return sections


# ---------------------------------------------------------------------------
# Schema


def _typed(value, default, where: str):
    """``value`` if it has the JSON type of ``default``; a number must be finite."""
    kind = type(default)
    if kind is float and type(value) in (int, float):
        # Exact for integers of any size; false for NaN and the infinities.
        if not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{where} must be a finite number, got {value!r}")
        value = float(value)
    if type(value) is not kind or (kind is list and any(type(v) is not int for v in value)):
        raise ConfigError(f"{where} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return value


def _read(section, body: dict, defaults: dict) -> dict:
    """``defaults`` overridden by ``body``, whose keys must be among them."""
    values = dict(defaults)
    for key, (lineno, value) in body.items():
        where = f"line {lineno}: " + (f"[{section}]" if section else "top-level")
        if key not in defaults:
            raise ConfigError(f"{where} key {key!r} is unknown")
        values[key] = _typed(value, defaults[key], f"{where} {key}")
    return values


def _lookup(table: dict, section: str, body: dict, key: str, default: str):
    """(name, entry) of the ``table`` entry that ``body[key]`` names."""
    lineno, name = body.get(key, (0, default))
    if not isinstance(name, str) or name not in table:
        raise ConfigError(
            f"line {lineno}: [{section}] {key} must be one of {list(table)}, got {name!r}")
    return name, table[name]


def _env_defaults(env_cls) -> dict:
    """Every overridable constant of ``env_cls`` and its spec, by field name."""
    env = env_cls()
    values = {key: getattr(env.spec, key) for key in _SPEC_KEYS}
    values.update((f.name, getattr(env, f.name)) for f in fields(env_cls) if f.name != "spec")
    return values


def parse_config(text) -> ExperimentConfig:
    """Parse an experiment configuration file (str or UTF-8 bytes).

    Syntax, key and type errors name their line; the returned config has
    passed every invariant of the objects it builds.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as err:
            raise ConfigError(f"config is not UTF-8 text: {err}") from None
    sections = _parse_sections(text)

    def body(section) -> dict:
        return sections.get(section, (0, {}))[1]

    name = _read(None, body(None), {"name": "experiment"})["name"]
    for section, (lineno, _) in sections.items():
        if section not in (None, "env", "train", "run") and not section.startswith("policy."):
            raise ConfigError(f"line {lineno}: unknown section [{section}]")

    env_body = body("env")
    kind, env_cls = _lookup(_ENV_KINDS, "env", env_body, "kind", "trapped_car")
    env = _read("env", env_body, {"kind": kind, **_env_defaults(env_cls)})

    families = tuple(
        FamilyConfig(section.split(".", 1)[1], **_read(section, fam_body, _FAMILY_DEFAULTS))
        for section, (_, fam_body) in sections.items()
        if section and section.startswith("policy.")
    )

    train_body = body("train")
    step_name, (step_cls, step_keys) = _lookup(
        _STEP_RULES, "train", train_body, "step_rule", "linear_range")
    update_name, (update_cls, update_keys) = _lookup(
        _UPDATE_RULES, "train", train_body, "update_rule", "plain")
    train = _read("train", train_body, {**_TRAIN_DEFAULTS, **step_keys, **update_keys,
                                        "step_rule": step_name, "update_rule": update_name})
    step_params = {key: train[key] for key in step_keys}
    if step_cls is LinearRange:
        step_params["total"] = 1  # ExperimentConfig spans it over the episodes
    with _section("train"):
        step_rule = step_cls(**step_params)
        update_rule = update_cls(**{key: train[key] for key in update_keys})

    run = _read("run", body("run"), {"seeds": [0], "out": f"results/{name}"})

    return ExperimentConfig(
        name=name,
        env_kind=kind,
        env_overrides=tuple((key, env[key]) for key in env_body if key != "kind"),
        families=families,
        step_rule=step_rule,
        update_rule=update_rule,
        **{key: train[key] for key in _TRAIN_DEFAULTS},
        seeds=tuple(run["seeds"]),
        out_dir=run["out"],
    )


# ---------------------------------------------------------------------------
# Building runnable objects


def build_env(cfg: ExperimentConfig):
    """Instantiate the configured environment with its overrides applied."""
    default = _ENV_KINDS[cfg.env_kind]()
    overrides = dict(cfg.env_overrides)
    spec = {key: overrides.pop(key) for key in _SPEC_KEYS & overrides.keys()}
    return replace(default, spec=replace(default.spec, **spec), **overrides)


def _initial_policy(family: FamilyConfig) -> PolicyParams:
    return PolicyParams.zeros(FEATURE_DIM, family.alpha, family.scale_mode, family.sigma0)


def build_train_config(cfg: ExperimentConfig, family: FamilyConfig,
                       seed: int) -> TrainConfig:
    """One TrainConfig for a (family, seed) cell of the sweep."""
    return TrainConfig(
        env=build_env(cfg),
        policy_init=_initial_policy(family),
        episodes=cfg.episodes,
        seed=seed,
        gamma=cfg.gamma,
        epsilon_clip=cfg.epsilon_clip,
        step_rule=cfg.step_rule,
        update_rule=cfg.update_rule,
        q_mode=cfg.q_mode,
        symmetric_clip=cfg.symmetric_clip,
    )


def config_to_text(cfg: ExperimentConfig) -> str:
    """Render a config back to file syntax (used for provenance copies)."""

    def assign(key: str, value) -> str:
        return f"{key} = {json.dumps(value)}"

    out = [assign("name", cfg.name), "", "[env]", assign("kind", cfg.env_kind)]
    out += [assign(key, value) for key, value in cfg.env_overrides]
    for fam in cfg.families:
        out += ["", f"[policy.{fam.name}]"]
        out += [assign(key, getattr(fam, key)) for key in _FAMILY_DEFAULTS]
    out += ["", "[train]"] + [assign(key, getattr(cfg, key)) for key in _TRAIN_DEFAULTS]
    for key, table, rule in (("step_rule", _STEP_RULES, cfg.step_rule),
                             ("update_rule", _UPDATE_RULES, cfg.update_rule)):
        name = next(name for name, (cls, _) in table.items() if isinstance(rule, cls))
        out.append(assign(key, name))
        out += [assign(param, getattr(rule, param)) for param in table[name][1]]
    out += ["", "[run]", assign("seeds", list(cfg.seeds)), assign("out", cfg.out_dir), ""]
    return "\n".join(out)
