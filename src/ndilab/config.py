"""Experiment configuration: flat key=value text with a strict typed schema.

Unknown keys are rejected; every key has a typed default. The resolved
configuration hashes deterministically, and every output file embeds that
hash so reruns are auditable.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields
from pathlib import Path


class ConfigError(ValueError):
    pass


def _parse_bool(s: str) -> bool:
    if s.lower() in ("true", "1", "yes"):
        return True
    if s.lower() in ("false", "0", "no"):
        return False
    raise ConfigError(f"not a boolean: {s!r}")


def _parse_int_tuple(s) -> tuple:
    if isinstance(s, tuple):
        return s
    return tuple(int(x) for x in str(s).split(",") if x.strip())


# counts of items, epochs, steps or samples: each must be at least 1
COUNT_KEYS = ("n_demo_trajectories", "demo_len", "made_components", "density_epochs",
              "density_batch", "ssm_slices", "rl_iterations", "rollouts_per_iter",
              "rollout_len", "buffer_capacity", "n_marginal_samples", "sac_steps",
              "sac_batch", "eval_every", "eval_episodes", "n_eval_states")
# step sizes and temperatures: each must be > 0 (NaN fails too)
RATE_KEYS = ("density_lr", "sac_lr", "expert_tau", "ssm_hvp_epsilon")
# reward weights: each must be finite and >= 0
WEIGHT_KEYS = ("lambda_f", "lambda_pi")


@dataclass
class ExperimentConfig:
    env: str = "grid-5x5"
    gamma: float = 0.9
    expert_tau: float = 0.05
    n_demo_trajectories: int = 1
    demo_len: int = 40

    density_kind: str = "made"         # made | ebm
    density_hidden: tuple = (64, 64)
    made_components: int = 5
    density_epochs: int = 150
    density_batch: int = 128
    density_lr: float = 2e-3
    spectral_norm: bool = True
    ssm_slices: int = 1
    ssm_hvp_epsilon: float = 1e-4

    lambda_pi_mode: str = "auto"       # auto | fixed
    lambda_pi: float = 0.05            # fixed value, or tabular auto's initial one;
                                       # SAC auto starts at 0.2 and ignores it
    lambda_f: float = 0.005

    rl_iterations: int = 30
    rollouts_per_iter: int = 8
    rollout_len: int = 40
    buffer_capacity: int = 1024
    n_marginal_samples: int = 64

    sac_steps: int = 8000
    sac_batch: int = 96
    sac_lr: float = 8e-4
    eval_every: int = 1000             # env steps between continuous evals

    eval_episodes: int = 20
    n_eval_states: int = 200
    seed: int = 0
    out_dir: str = "runs/exp"

    def __post_init__(self):
        self.density_hidden = _parse_int_tuple(self.density_hidden)
        if self.density_kind not in ("made", "ebm"):
            raise ConfigError(f"density_kind must be made|ebm, got {self.density_kind!r}")
        if self.lambda_pi_mode not in ("auto", "fixed"):
            raise ConfigError(f"lambda_pi_mode must be auto|fixed, got {self.lambda_pi_mode!r}")
        if not (0.0 <= self.gamma < 1.0):
            raise ConfigError("gamma must lie in [0, 1)")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for key in WEIGHT_KEYS:
            value = getattr(self, key)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{key} must be finite and >= 0, got {value}")
        for key in COUNT_KEYS:
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1, got {getattr(self, key)}")
        for key in RATE_KEYS:
            if not getattr(self, key) > 0:
                raise ConfigError(f"{key} must be > 0, got {getattr(self, key)}")
        if not all(width >= 1 for width in self.density_hidden):
            raise ConfigError(f"density_hidden widths must be >= 1, got {self.density_hidden}")

    def hash(self) -> str:
        payload = ";".join(f"{f.name}={getattr(self, f.name)!r}"
                           for f in fields(self))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


_PARSERS = {int: int, float: float, str: str, bool: _parse_bool, tuple: _parse_int_tuple}


def parse_config_text(text: str) -> ExperimentConfig:
    known = {f.name: f for f in fields(ExperimentConfig)}
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        ftype = known[key].type
        base = {"int": int, "float": float, "str": str, "bool": bool, "tuple": tuple}.get(
            str(ftype), ftype)
        try:
            values[key] = _PARSERS[base](value)
        except (KeyError, ValueError) as err:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {value!r}") from err
    return ExperimentConfig(**values)


def load_config(path) -> ExperimentConfig:
    return parse_config_text(Path(path).read_text())
