"""Experiment configuration: the config file's schema, read with ``tomllib``.

A config file is TOML.  Its tables are ``[env]``, ``[policy.<family>]``
(one per policy family to compare, in file order), ``[train]`` and
``[run]``; the only top-level key is ``name``.

The parser checks keys and value types.  Value invariants
belong to the types a config builds: the parser builds the car and
:class:`ExperimentConfig` every family's initial policy and a training
config, and each reports their errors under the section they came from.
"""

from __future__ import annotations

import json
import os
import re
import sys
import tomllib
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace

from .errors import ParameterError
from .envs import EnvSpec, MountainCar, TrappedCar
from .policy import PolicyParams
from .training import (
    Constant,
    LinearRange,
    LipschitzAware,
    PlainAscent,
    PowerDecay,
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
]

# Name -> class tables.  A rule's config keys are its fields (see
# _rule_keys); only the selected rules' keys may appear in [train].
_ENV_KINDS = {"trapped_car": TrappedCar, "mountain_car": MountainCar}
_STEP_RULES = {"linear_range": LinearRange, "power_decay": PowerDecay, "constant": Constant}
_UPDATE_RULES = {"plain": PlainAscent, "lipschitz": LipschitzAware}

# The keys that map one to one onto FamilyConfig and ExperimentConfig fields,
# with the defaults of the PolicyParams and TrainConfig fields they set (the
# episode count has its own).  A value read from the file must have its
# default's type (an integer passes as a number).
_FAMILY_DEFAULTS = {f.name: f.default for f in fields(PolicyParams)
                    if f.name in ("alpha", "scale_mode", "sigma0")}
_TRAIN_DEFAULTS = {"episodes": 1000}
_TRAIN_DEFAULTS.update((f.name, f.default) for f in fields(TrainConfig)
                       if f.name in ("gamma", "epsilon_clip", "q_mode", "symmetric_clip"))
# EnvSpec.gamma is not a key: nothing reads it, the discount is [train] gamma.
_SPEC_KEYS = tuple(f.name for f in fields(EnvSpec) if f.name != "gamma")
# Characters a family name cannot hold: it names the run CSV files.
_NOT_IN_FAMILY_NAMES = {"/", os.sep, os.altsep, "\0"} - {None}
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
    scale_mode: str = _FAMILY_DEFAULTS["scale_mode"]
    sigma0: float = _FAMILY_DEFAULTS["sigma0"]


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated sweep: construction (including ``dataclasses.replace``)
    builds everything the sweep will build and raises ConfigError if any of
    it is invalid.  ``env`` is the car every cell trains on, and
    ``step_rule`` is the one its TrainConfigs hold (a ``linear_range`` rule
    spans the episodes)."""

    name: str
    env: TrappedCar | MountainCar
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
        if not self.name:
            raise ConfigError("name must be a non-empty string")
        names = [f.name for f in self.families]
        if not names:
            raise ConfigError("at least one [policy.<family>] section is required")
        if not all(names) or len(set(names)) != len(names):
            raise ConfigError("family names must be non-empty and distinct")
        for name in names:
            if _NOT_IN_FAMILY_NAMES.intersection(name):
                raise ConfigError(f"family name {name!r} holds a path separator or NUL")
        if not self.seeds or len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("[run] seeds must be a non-empty list of distinct integers")
        if not self.out_dir or "\0" in self.out_dir:
            raise ConfigError(f"[run] out must be a non-empty string without NUL, "
                              f"got {self.out_dir!r}")
        for family in self.families:
            with _section(f"policy.{family.name}"):
                _initial_policy(family)
        with _section("train"):
            train = build_train_config(self, self.families[0], 0)
        object.__setattr__(self, "step_rule", train.step_rule)
        with _section("run"):
            for seed in self.seeds:
                replace(train, seed=seed)


# ---------------------------------------------------------------------------
# Schema


def _table(value, section) -> dict:
    """``value``, the keys of ``[section]``, which must be a TOML table."""
    if type(value) is not dict:
        raise ConfigError(f"[{section}] must be a table, got {value!r}")
    return value


def _typed(value, default, where: str):
    """``value`` if it has the type of ``default``; a number must be finite."""
    kind = type(default)
    if kind is float and type(value) in (int, float):
        # Exact for integers of any size; false for NaN and the infinities.
        if not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{where} must be a finite number, got {value!r}")
        value = float(value)
    if type(value) is not kind or (kind is list and any(type(v) is not int for v in value)):
        raise ConfigError(f"{where} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return value


def _read(section, body, defaults: dict) -> dict:
    """``defaults`` overridden by the table ``body``, whose keys must be among them."""
    values = dict(defaults)
    where = f"[{section}]" if section else "top-level"
    for key, value in _table(body, section).items():
        if key not in defaults:
            raise ConfigError(f"{where} key {key!r} is unknown")
        values[key] = _typed(value, defaults[key], f"{where} {key}")
    return values


def _lookup(table: dict, section: str, body: dict, key: str, default: str):
    """(name, class) of the ``table`` entry that ``body[key]`` names."""
    name = body.get(key, default)
    if not isinstance(name, str) or name not in table:
        raise ConfigError(f"[{section}] {key} must be one of {list(table)}, got {name!r}")
    return name, table[name]


def _env_keys(env) -> dict:
    """The ``[env]`` keys but ``kind`` of a car: its spec's but gamma, then its own."""
    values = {key: getattr(env.spec, key) for key in _SPEC_KEYS}
    values.update((f.name, getattr(env, f.name)) for f in fields(env) if f.name != "spec")
    return values


def _rule_keys(rule) -> dict:
    """The ``[train]`` keys of a step or update rule with their values: its
    fields but LinearRange's ``total``, which is the episode budget."""
    return {f.name: getattr(rule, f.name) for f in fields(rule) if f.name != "total"}


def parse_config(text) -> ExperimentConfig:
    """Parse an experiment configuration file (TOML, as str or UTF-8 bytes).

    A syntax error names its line and column, a key or type error its
    section; the returned config has passed every invariant of the objects
    it builds.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as err:
            raise ConfigError(f"config is not UTF-8 text: {err}") from None
    try:
        doc = tomllib.loads(text)
    except tomllib.TOMLDecodeError as err:
        raise ConfigError(f"config is not TOML: {err}") from None
    env_body, policies, train_body, run_body = (
        _table(doc.pop(section, {}), section) for section in ("env", "policy", "train", "run"))
    name = _read(None, doc, {"name": "experiment"})["name"]

    kind, env_cls = _lookup(_ENV_KINDS, "env", env_body, "kind", "trapped_car")
    default = env_cls()
    env_keys = _read("env", env_body, {"kind": kind, **_env_keys(default)})
    del env_keys["kind"]
    with _section("env"):
        spec = replace(default.spec, **{key: env_keys.pop(key) for key in _SPEC_KEYS})
        env = env_cls(spec=spec, **env_keys)

    families = tuple(FamilyConfig(family, **_read(f"policy.{family}", body, _FAMILY_DEFAULTS))
                     for family, body in policies.items())

    step_name, step_cls = _lookup(_STEP_RULES, "train", train_body, "step_rule", "linear_range")
    update_name, update_cls = _lookup(_UPDATE_RULES, "train", train_body, "update_rule", "plain")
    step_keys, update_keys = _rule_keys(step_cls()), _rule_keys(update_cls())
    train = _read("train", train_body, {**_TRAIN_DEFAULTS, **step_keys, **update_keys,
                                        "step_rule": step_name, "update_rule": update_name})
    with _section("train"):
        step_rule = step_cls(**{key: train[key] for key in step_keys})
        update_rule = update_cls(**{key: train[key] for key in update_keys})

    run = _read("run", run_body, {"seeds": [0], "out": f"results/{name}"})

    return ExperimentConfig(
        name=name,
        env=env,
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
    """The configured car, ``cfg.env``."""
    return cfg.env


def _initial_policy(family: FamilyConfig) -> PolicyParams:
    return PolicyParams.zeros(3, family.alpha, family.scale_mode, family.sigma0)


def build_train_config(cfg: ExperimentConfig, family: FamilyConfig,
                       seed: int) -> TrainConfig:
    """One TrainConfig for a (family, seed) cell of the sweep."""
    return TrainConfig(env=cfg.env, policy_init=_initial_policy(family), seed=seed,
                       step_rule=cfg.step_rule, update_rule=cfg.update_rule,
                       **{key: getattr(cfg, key) for key in _TRAIN_DEFAULTS})


def config_to_text(cfg: ExperimentConfig) -> str:
    """Render a config back to file syntax (used for provenance copies)."""

    def toml(value) -> str:
        # json.dumps writes a value as TOML does, given ensure_ascii=False (TOML
        # has no surrogate-pair escapes) and DEL escaped, as TOML strings need.
        return json.dumps(value, ensure_ascii=False).replace("\x7f", "\\u007f")

    def assign(key: str, value) -> str:
        return f"{key} = {toml(value)}"

    kind = next(kind for kind, cls in _ENV_KINDS.items() if isinstance(cfg.env, cls))
    out = [assign("name", cfg.name), "", "[env]", assign("kind", kind)]
    out += [assign(key, value) for key, value in _env_keys(cfg.env).items()]
    for fam in cfg.families:
        bare = re.fullmatch(r"[A-Za-z0-9_-]+", fam.name)
        out += ["", f"[policy.{fam.name if bare else toml(fam.name)}]"]
        out += [assign(key, getattr(fam, key)) for key in _FAMILY_DEFAULTS]
    out += ["", "[train]"] + [assign(key, getattr(cfg, key)) for key in _TRAIN_DEFAULTS]
    for key, table, rule in (("step_rule", _STEP_RULES, cfg.step_rule),
                             ("update_rule", _UPDATE_RULES, cfg.update_rule)):
        name = next(name for name, cls in table.items() if isinstance(rule, cls))
        out.append(assign(key, name))
        out += [assign(param, value) for param, value in _rule_keys(rule).items()]
    out += ["", "[run]", assign("seeds", list(cfg.seeds)), assign("out", cfg.out_dir), ""]
    return "\n".join(out)
