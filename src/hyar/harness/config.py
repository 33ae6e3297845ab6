"""Run configuration: typed flat keys, file parsing, per-env warm-up defaults.

Config files are UTF-8 text, one `section.key = value` per line, `#` comments.
CLI flags override file values.  Agent hyperparameters default to the chosen
algorithm's preset; a key set here overrides the preset.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..agents import AgentConfig
from ..envs import make
from ..errors import ConfigError

ALGOS = ("hyar-td3", "hyar-ddpg")

# warm-up step budgets per environment (reduced "new" budgets)
WARMUP_DEFAULTS = {"platform": 5000, "goal": 5000, "hard_goal": 5000,
                   "catch_point": 20000, "hard_move": 20000}


def _int(s: str) -> int:
    return int(s)


def _float(s: str) -> float:
    return float(s)


def _str(s: str) -> str:
    return s


def _opt_int(s: str):
    return None if s.lower() == "none" else int(s)


def _opt_float(s: str):
    return None if s.lower() == "none" else float(s)


# config key -> (RunConfig field, parser); also fixes manifest ordering
KEYS = {
    "env.id": ("env_id", _str),
    "env.n": ("env_n", _opt_int),
    "run.algo": ("algo", _str),
    "run.seed": ("seed", _int),
    "run.total_env_steps": ("total_env_steps", _int),
    "run.warmup_env_steps": ("warmup_env_steps", _opt_int),
    "run.eval_interval": ("eval_interval", _int),
    "run.eval_episodes": ("eval_episodes", _int),
    "run.out_dir": ("out_dir", _str),
    "repr.d1": ("d1", _int),
    "repr.d2": ("d2", _int),
    "repr.lr": ("repr_lr", _float),
    "repr.c": ("c", _float),
    "repr.beta": ("beta", _float),
    "repr.kl_weight": ("kl_weight", _float),
    "repr.pretrain_batches": ("pretrain_batches", _int),
    "repr.batch": ("repr_batch", _int),
    "repr.every_episodes": ("repr_every_episodes", _int),
    "repr.ema_decay": ("ema_decay", _float),
    "agent.gamma": ("gamma", _opt_float),
    "agent.actor_lr": ("actor_lr", _opt_float),
    "agent.critic_lr": ("critic_lr", _opt_float),
    "agent.tau_actor": ("tau_actor", _opt_float),
    "agent.tau_critic": ("tau_critic", _opt_float),
    "agent.expl_sigma": ("expl_sigma", _opt_float),
    "agent.batch_size": ("batch_size", _opt_int),
    "agent.policy_delay": ("policy_delay", _opt_int),
    "agent.buffer_capacity": ("buffer_capacity", _opt_int),
    "agent.target_noise": ("target_noise", _opt_float),
    "agent.target_noise_clip": ("target_noise_clip", _opt_float),
    "agent.rsc_noise": ("rsc_noise", _opt_float),
    "agent.rsc_redraws": ("rsc_redraws", _opt_int),
    "agent.rsc_threshold_mult": ("rsc_threshold_mult", _opt_float),
}

_AGENT_FIELDS = tuple(field for key, (field, _parse) in KEYS.items()
                      if key.startswith("agent."))


@dataclass
class RunConfig:
    """Everything one training run needs; agent fields None = algo preset."""

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
    gamma: float | None = None
    actor_lr: float | None = None
    critic_lr: float | None = None
    tau_actor: float | None = None
    tau_critic: float | None = None
    expl_sigma: float | None = None
    batch_size: int | None = None
    policy_delay: int | None = None
    buffer_capacity: int | None = None
    target_noise: float | None = None
    target_noise_clip: float | None = None
    rsc_noise: float | None = None
    rsc_redraws: int | None = None
    rsc_threshold_mult: float | None = None

    def warmup(self) -> int:
        if self.warmup_env_steps is not None:
            return self.warmup_env_steps
        return WARMUP_DEFAULTS[self.env_id]

    def agent_config(self) -> AgentConfig:
        if self.algo not in ALGOS:
            raise ConfigError(f"unknown algo {self.algo!r}; expected {ALGOS}")
        overrides = {f: getattr(self, f) for f in _AGENT_FIELDS
                     if getattr(self, f) is not None}
        preset = (AgentConfig.td3 if self.algo == "hyar-td3"
                  else AgentConfig.ddpg)
        return preset(**overrides)

    def validate(self) -> None:
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
        if acfg.buffer_capacity < need:
            raise ConfigError(
                f"buffer capacity {acfg.buffer_capacity} below batch size {need}")
        if spec.max_param_dim < 1:
            raise ConfigError("environment exposes no continuous parameters")

    def _value_for(self, key: str) -> str:
        field, _parse = KEYS[key]
        if field in _AGENT_FIELDS:
            v = getattr(self.agent_config(), field)
        elif field == "warmup_env_steps":
            v = self.warmup()
        else:
            v = getattr(self, field)
        if v is None:
            return "none"
        if isinstance(v, float):
            return repr(v)
        return str(v)

    def manifest_lines(self) -> list[str]:
        """Every key with its fully resolved value, in KEYS order."""
        return [f"{key} = {self._value_for(key)}" for key in KEYS]

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
    """Layer raw file values then overrides (raw strings or typed) on defaults."""
    cfg = RunConfig()
    for source in (file_values or {}, overrides or {}):
        for key, val in source.items():
            if key not in KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            field, parse = KEYS[key]
            if isinstance(val, str):
                try:
                    val = parse(val)
                except ValueError:
                    raise ConfigError(f"bad value for {key}: {val!r}") from None
            setattr(cfg, field, val)
    return cfg
