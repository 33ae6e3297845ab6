"""Run configuration: typed flat keys, file parsing, per-env warm-up defaults.

Config files are UTF-8 text, one `section.key = value` per line, `#` comments.
CLI flags override file values.  Agent hyperparameters default to the chosen
algorithm's preset; a key set here overrides the preset.  The `agent.*` keys
are the fields of AgentConfig, which declares their types, defaults and checks.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields

from ..agents import AgentConfig
from ..envs import make
from ..errors import ConfigError, check_finite_floats

# run.algo value -> agent preset
ALGOS = {"hyar-td3": AgentConfig.td3, "hyar-ddpg": AgentConfig.ddpg}

# warm-up step budgets per environment (reduced "new" budgets)
WARMUP_DEFAULTS = {"platform": 5000, "goal": 5000, "hard_goal": 5000,
                   "catch_point": 20000, "hard_move": 20000}


def _optional(kind):
    """Parser of `kind` that reads `none` as None (unset)."""
    def parse(s: str):
        return None if s.lower() == "none" else kind(s)
    return parse


# config key -> (RunConfig field, or AgentConfig field for agent.*, parser);
# also fixes manifest ordering
KEYS = {
    "env.id": ("env_id", str),
    "env.n": ("env_n", _optional(int)),
    "run.algo": ("algo", str),
    "run.seed": ("seed", int),
    "run.total_env_steps": ("total_env_steps", int),
    "run.warmup_env_steps": ("warmup_env_steps", _optional(int)),
    "run.eval_interval": ("eval_interval", int),
    "run.eval_episodes": ("eval_episodes", int),
    "run.out_dir": ("out_dir", str),
    "repr.d1": ("d1", int),
    "repr.d2": ("d2", int),
    "repr.lr": ("repr_lr", float),
    "repr.c": ("c", float),
    "repr.beta": ("beta", float),
    "repr.kl_weight": ("kl_weight", float),
    "repr.pretrain_batches": ("pretrain_batches", int),
    "repr.batch": ("repr_batch", int),
    "repr.every_episodes": ("repr_every_episodes", int),
    "repr.ema_decay": ("ema_decay", float),
    **{f"agent.{f.name}": (f.name, _optional(type(f.default)))
       for f in fields(AgentConfig) if f.name != "algo"},
}


@dataclass
class RunConfig:
    """Everything one training run needs; `agent` holds the agent.* values
    set explicitly, each overriding the algo preset."""

    env_id: str = "platform"
    env_n: int | None = None
    algo: str = "hyar-td3"
    seed: int = 0
    total_env_steps: int = 200_000
    warmup_env_steps: int | None = None
    eval_interval: int = 5000
    eval_episodes: int = 100
    out_dir: str = "runs/out"
    d1: int = 6
    d2: int = 6
    repr_lr: float = 1e-4
    c: float = 96.0
    beta: float = 10.0
    kl_weight: float = 0.5
    pretrain_batches: int = 5000
    repr_batch: int = 64
    repr_every_episodes: int = 10
    ema_decay: float = 0.99
    agent: dict = field(default_factory=dict)

    def warmup(self) -> int:
        if self.warmup_env_steps is not None:
            return self.warmup_env_steps
        return WARMUP_DEFAULTS[self.env_id]

    def agent_config(self) -> AgentConfig:
        if self.algo not in ALGOS:
            raise ConfigError(
                f"unknown algo {self.algo!r}; expected one of {tuple(ALGOS)}")
        return ALGOS[self.algo](**{name: v for name, v in self.agent.items()
                                   if v is not None})

    def validate(self) -> None:
        check_finite_floats(self)
        spec = make(self.env_id, self.env_n).spec()  # raises ConfigError itself
        acfg = self.agent_config()
        if self.seed < 0:
            raise ConfigError("run.seed must be >= 0")
        warm = self.warmup()
        if not 0 < warm < self.total_env_steps:
            raise ConfigError(
                f"need 0 < warmup ({warm}) < total_env_steps "
                f"({self.total_env_steps})")
        if self.eval_interval < 1 or self.eval_episodes < 1:
            raise ConfigError("eval interval and episode count must be >= 1")
        if self.d1 < 1 or self.d2 < 1:
            raise ConfigError("latent dims d1, d2 must be >= 1")
        if self.repr_lr <= 0.0:
            raise ConfigError("repr.lr must be positive")
        if not 0.0 < self.c <= 100.0:
            raise ConfigError(f"repr.c must lie in (0, 100], got {self.c}")
        if self.beta < 0.0 or self.kl_weight < 0.0:
            raise ConfigError("repr.beta and repr.kl_weight must be >= 0")
        if self.pretrain_batches < 0 or self.repr_batch < 1:
            raise ConfigError("bad repr batch settings")
        if self.repr_every_episodes < 1:
            raise ConfigError("repr.every_episodes must be >= 1")
        if not 0.0 < self.ema_decay < 1.0:
            raise ConfigError("repr.ema_decay must lie in (0, 1)")
        need = max(self.repr_batch, acfg.batch_size, 100)
        if warm < need:
            raise ConfigError(
                f"warm-up of {warm} steps cannot fill one batch (need {need})")
        acfg.check_buffer_holds(need)
        if spec.max_param_dim < 1:
            raise ConfigError("environment exposes no continuous parameters")

    def manifest_lines(self) -> list[str]:
        """Every key with its fully resolved value, in KEYS order."""
        acfg = self.agent_config()
        lines = []
        for key, (name, _parse) in KEYS.items():
            if name == "warmup_env_steps":
                v = self.warmup()
            else:
                v = getattr(acfg if key.startswith("agent.") else self, name)
            lines.append(f"{key} = {'none' if v is None else v}")
        return lines

    def config_text(self) -> str:
        """Flat config-file form; parsing it back resolves identically."""
        return "\n".join(self.manifest_lines()) + "\n"


def parse_config_lines(lines, where: str = "<config>") -> dict:
    """Flat `section.key = value` lines -> {key: raw string value}."""
    out: dict[str, str] = {}
    for i, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{where}:{i}: expected 'key = value', got {line!r}")
        key, val = line.split("=", 1)
        key = key.strip()
        if key not in KEYS:
            raise ConfigError(f"{where}:{i}: unknown config key {key!r}")
        out[key] = val.strip()
    return out


def parse_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_lines(fh, where=path)


def build_config(file_values: dict | None = None,
                 overrides: dict | None = None) -> RunConfig:
    """Layer file values then overrides on defaults.  Every value, raw string
    or typed, goes through its key's parser as text, so a typed override is
    read exactly as the same value in a file would be."""
    cfg = RunConfig()
    for source in (file_values or {}, overrides or {}):
        for key, val in source.items():
            if key not in KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            name, parse = KEYS[key]
            try:
                val = parse(str(val))
            except ValueError:
                raise ConfigError(f"bad value for {key}: {val!r}") from None
            if key.startswith("agent."):
                cfg.agent[name] = val
            else:
                setattr(cfg, name, val)
    return cfg
