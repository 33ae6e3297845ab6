"""Run configuration: typed flat keys, file parsing, per-env warm-up defaults.

Config files are UTF-8 text, one `section.key = value` per line, `#` comments.
CLI flags override file values.  Each `env.*`, `run.*` and `repr.*` key is
declared on its RunConfig field; the `agent.*` keys are the fields of
AgentConfig, whose values default to the chosen algorithm's preset.
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


def _key(key: str, default, parse=None):
    """RunConfig field set by `key`, read by `parse` or type(default)."""
    return field(default=default,
                 metadata={"key": key, "parse": parse or type(default)})


@dataclass
class RunConfig:
    """Everything one training run needs; `agent` holds the agent.* values
    set explicitly, each overriding the algo preset."""

    env_id: str = _key("env.id", "platform")
    env_n: int | None = _key("env.n", None, _optional(int))
    algo: str = _key("run.algo", "hyar-td3")
    seed: int = _key("run.seed", 0)
    total_env_steps: int = _key("run.total_env_steps", 200_000)
    warmup_env_steps: int | None = _key("run.warmup_env_steps", None,
                                        _optional(int))
    eval_interval: int = _key("run.eval_interval", 5000)
    eval_episodes: int = _key("run.eval_episodes", 100)
    out_dir: str = _key("run.out_dir", "runs/out")
    d1: int = _key("repr.d1", 6)
    d2: int = _key("repr.d2", 6)
    repr_lr: float = _key("repr.lr", 1e-4)
    c: float = _key("repr.c", 96.0)
    beta: float = _key("repr.beta", 10.0)
    kl_weight: float = _key("repr.kl_weight", 0.5)
    pretrain_batches: int = _key("repr.pretrain_batches", 5000)
    repr_batch: int = _key("repr.batch", 64)
    repr_every_episodes: int = _key("repr.every_episodes", 10)
    ema_decay: float = _key("repr.ema_decay", 0.99)
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
        make(self.env_id, self.env_n)  # raises ConfigError itself
        acfg = self.agent_config()
        for key in ("run.seed", "repr.pretrain_batches", "repr.beta",
                    "repr.kl_weight"):
            if getattr(self, KEYS[key][0]) < 0:
                raise ConfigError(f"{key} must be >= 0")
        for key in ("run.eval_interval", "run.eval_episodes", "repr.d1",
                    "repr.d2", "repr.batch", "repr.every_episodes"):
            if getattr(self, KEYS[key][0]) < 1:
                raise ConfigError(f"{key} must be >= 1")
        if self.repr_lr <= 0.0:
            raise ConfigError("repr.lr must be positive")
        if not 0.0 < self.c <= 100.0:
            raise ConfigError(f"repr.c must lie in (0, 100], got {self.c}")
        if not 0.0 < self.ema_decay < 1.0:
            raise ConfigError("repr.ema_decay must lie in (0, 1)")
        warm = self.warmup()
        if not 0 < warm < self.total_env_steps:
            raise ConfigError(
                f"need 0 < warmup ({warm}) < total_env_steps "
                f"({self.total_env_steps})")
        need = max(self.repr_batch, acfg.batch_size, 100)
        if warm < need:
            raise ConfigError(
                f"warm-up of {warm} steps cannot fill one batch (need {need})")
        if acfg.buffer_capacity < need:
            raise ConfigError(
                f"buffer capacity {acfg.buffer_capacity} below batch size {need}")

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


# config key -> (RunConfig field, or AgentConfig field for agent.*, parser);
# also fixes manifest ordering
KEYS = {
    **{f.metadata["key"]: (f.name, f.metadata["parse"])
       for f in fields(RunConfig) if "key" in f.metadata},
    **{f"agent.{f.name}": (f.name, _optional(type(f.default)))
       for f in fields(AgentConfig) if f.name != "algo"},
}


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
