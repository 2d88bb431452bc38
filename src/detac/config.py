"""Flat key=value experiment configuration with strict key checking.

The accepted keys, their converters and their defaults come from the
fields of ``AgentConfig`` and ``ExperimentConfig`` and from the env
constructors; a key that is not given is not passed on, so the dataclass
or constructor default applies.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .agents import AgentConfig, make_agent
from .envs import PointMass, make_quadratic_bandit

ENVS = {"pointmass": PointMass, "bandit": make_quadratic_bandit}


def _parse_bool(text):
    t = str(text).strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_float(text):
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _parse_hidden(text):
    items = text if isinstance(text, (tuple, list)) else str(text).split(",")
    sizes = tuple(int(v) for v in items)
    if not sizes:
        raise ValueError("no hidden layer sizes")
    return sizes


def make_env(config):
    return ENVS[config.env](**config.env_params)


@dataclass
class ExperimentConfig:
    agent: AgentConfig
    env: str
    env_params: dict = field(default_factory=dict)
    seeds: int = 1
    seed_offset: int = 0
    total_steps: int = 10000
    eval_interval: int = 1000
    eval_episodes: int = 10
    out: str = "runs"

    def __post_init__(self):
        if self.env not in ENVS:
            raise ValueError(f"unknown env {self.env!r}; "
                             f"choose from {tuple(ENVS)}")
        if self.seeds < 1 or self.seed_offset < 0:
            raise ValueError("need seeds >= 1 and seed_offset >= 0")
        if self.eval_interval < 1:
            raise ValueError("eval_interval must be >= 1")
        if self.total_steps < 0:
            raise ValueError("total_steps must be >= 0")
        if self.eval_episodes < 1:
            raise ValueError("eval_episodes must be >= 1")
        # the env and the agent check their own parameters (a horizon >= 1,
        # the hidden sizes, the exploration decay): build both once
        make_agent(self.agent, make_env(self), np.random.default_rng(0))


# converter per declared field type (a string under postponed annotations)
_CONVERTERS = {"str": str, "int": int, "float": _parse_float,
               "bool": _parse_bool, "tuple": _parse_hidden}

# the AgentConfig fields whose key is not their name ("lambda" is a keyword)
_AGENT_RENAMES = {"rule": "agent", "lam": "lambda"}

# config key -> (group, parameter name, converter); a group is "agent"
# (AgentConfig), "run" (ExperimentConfig) or an env name (its constructor)
KEYS = {_AGENT_RENAMES.get(f.name, f.name):
        ("agent", f.name, _CONVERTERS[f.type]) for f in fields(AgentConfig)}
KEYS.update({f.name: ("run", f.name, _CONVERTERS[f.type])
             for f in fields(ExperimentConfig)
             if f.name not in ("agent", "env_params")})
KEYS.update({
    "bandit_m": ("bandit", "m", int),
    "bandit_seed": ("bandit", "seed", int),
    "pointmass_goal": ("pointmass", "goal", _parse_float),
    "pointmass_horizon": ("pointmass", "horizon", int),
})


def read_config_file(path):
    values = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, val = line.split("=", 1)
            values[key.strip()] = val.strip()
    return values


def parse_config(path=None, overrides=None):
    """Build an ExperimentConfig from a key=value file plus CLI overrides
    (overrides win; ``None`` overrides are skipped).  Unknown keys are
    rejected by name, and every given value is converted, including the
    parameters of the env not chosen."""
    raw = read_config_file(path) if path is not None else {}
    raw.update((k, v) for k, v in (overrides or {}).items() if v is not None)

    for key in raw:
        if key not in KEYS:
            raise ValueError(f"unknown config key {key!r}")
    for key in ("agent", "env"):
        if key not in raw:
            raise ValueError(f"missing required key {key!r}")

    groups = {"agent": {}, "run": {}, **{env: {} for env in ENVS}}
    for key, val in raw.items():
        group, name, convert = KEYS[key]
        try:
            groups[group][name] = convert(val)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad value for {key!r}: {val!r} ({exc})") from exc

    run = groups["run"]
    return ExperimentConfig(agent=AgentConfig(**groups["agent"]),
                            env_params=groups.get(run["env"], {}), **run)
