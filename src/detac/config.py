"""Flat key=value experiment configuration with strict key checking."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .agents import AgentConfig, make_agent
from .envs import PointMass, make_quadratic_bandit

ENV_NAMES = ("pointmass", "bandit")


def _parse_bool(text):
    t = str(text).strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_hidden(text):
    if isinstance(text, (tuple, list)):
        return tuple(int(v) for v in text)
    return tuple(int(t) for t in str(text).split(",") if t.strip())


# key -> (converter, default); None default means "use the AgentConfig default"
SCHEMA = {
    "agent": (str, None),
    "env": (str, None),
    "bandit_m": (int, 5),
    "bandit_seed": (int, 0),
    "pointmass_goal": (float, 0.5),
    "pointmass_horizon": (int, 100),
    "gamma": (float, None),
    "lambda": (float, None),
    "sigma": (float, None),
    "sigma_decay": (float, None),
    "lr_actor": (float, None),
    "lr_critic": (float, None),
    "fitted_iterations": (int, None),
    "actor_iterations": (int, None),
    "update_every": (int, None),
    "d_target": (float, None),
    "batch_norm": (_parse_bool, None),
    "hidden": (_parse_hidden, None),
    "hidden_activation": (str, None),
    "seeds": (int, 1),
    "seed_offset": (int, 0),
    "total_steps": (int, 10000),
    "eval_interval": (int, 1000),
    "eval_episodes": (int, 10),
    "out": (str, "runs"),
}

_AGENT_KEYS = {
    "gamma": "gamma", "lambda": "lam", "sigma": "sigma",
    "sigma_decay": "sigma_decay", "lr_actor": "lr_actor",
    "lr_critic": "lr_critic", "fitted_iterations": "fitted_iterations",
    "actor_iterations": "actor_iterations", "update_every": "update_every",
    "d_target": "d_target", "batch_norm": "batch_norm", "hidden": "hidden",
    "hidden_activation": "hidden_activation",
}


def make_env(config):
    if config.env == "bandit":
        return make_quadratic_bandit(**config.env_params)
    return PointMass(**config.env_params)


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
        if self.agent.rule in ("spg", "dpg"):
            raise ValueError("spg/dpg are bandit baselines; use the "
                             "bandit-suite command instead of train")
        if self.env not in ENV_NAMES:
            raise ValueError(f"unknown env {self.env!r}; choose from {ENV_NAMES}")
        if self.seeds < 1:
            raise ValueError("seeds must be >= 1")
        if self.eval_interval < 1:
            raise ValueError("eval_interval must be >= 1")
        if self.total_steps < 0:
            raise ValueError("total_steps must be >= 0")
        if self.eval_episodes < 1:
            raise ValueError("eval_episodes must be >= 1")
        # the env and the agent check their own parameters (a horizon >= 1,
        # the hidden sizes, the exploration decay): build both once
        make_agent(self.agent, make_env(self), np.random.default_rng(0))


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
    (overrides win).  Unknown keys are rejected by name."""
    raw = {}
    if path is not None:
        raw.update(read_config_file(path))
    for key, val in (overrides or {}).items():
        if val is not None:
            raw[key] = val

    for key in raw:
        if key not in SCHEMA:
            raise ValueError(f"unknown config key {key!r}")
    if "agent" not in raw:
        raise ValueError("missing required key 'agent'")
    if "env" not in raw:
        raise ValueError("missing required key 'env'")

    parsed = {}
    for key, val in raw.items():
        conv = SCHEMA[key][0]
        try:
            parsed[key] = conv(val)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad value for {key!r}: {val!r} ({exc})") from exc

    agent_kwargs = {"rule": parsed["agent"]}
    for key, attr in _AGENT_KEYS.items():
        if key in parsed:
            agent_kwargs[attr] = parsed[key]
    agent = AgentConfig(**agent_kwargs)

    env = parsed["env"]
    env_params = {}
    if env == "bandit":
        env_params["m"] = parsed.get("bandit_m", SCHEMA["bandit_m"][1])
        env_params["seed"] = parsed.get("bandit_seed", SCHEMA["bandit_seed"][1])
    else:
        env_params["goal"] = parsed.get("pointmass_goal",
                                        SCHEMA["pointmass_goal"][1])
        env_params["horizon"] = parsed.get("pointmass_horizon",
                                           SCHEMA["pointmass_horizon"][1])

    return ExperimentConfig(
        agent=agent,
        env=env,
        env_params=env_params,
        seeds=parsed.get("seeds", SCHEMA["seeds"][1]),
        seed_offset=parsed.get("seed_offset", SCHEMA["seed_offset"][1]),
        total_steps=parsed.get("total_steps", SCHEMA["total_steps"][1]),
        eval_interval=parsed.get("eval_interval", SCHEMA["eval_interval"][1]),
        eval_episodes=parsed.get("eval_episodes", SCHEMA["eval_episodes"][1]),
        out=parsed.get("out", SCHEMA["out"][1]),
    )
