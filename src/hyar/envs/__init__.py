"""Benchmark environments with discrete-continuous hybrid actions."""
from __future__ import annotations

from ..errors import ConfigError
from .base import EnvSpec, EnvUsageError, HybridAction, HybridEnv, StepResult
from .catch_point import CatchPointEnv
from .goal import GoalEnv
from .hard_move import HardMoveEnv, displacement
from .platform import PlatformEnv


# env id -> (constructor, taking n for hard_move and nothing for the others;
# default warm-up budget in env steps, the reduced "new" budgets)
ENVS = {
    "platform": (PlatformEnv, 5000),
    "goal": (lambda: GoalEnv(hard=False), 5000),
    "hard_goal": (lambda: GoalEnv(hard=True), 5000),
    "catch_point": (CatchPointEnv, 20000),
    "hard_move": (HardMoveEnv, 20000),
}
ENV_IDS = tuple(ENVS)


def make(env_id: str, n: int | None = None) -> HybridEnv:
    """Instantiate an environment; hard_move requires its actuator count n,
    and every other env refuses one."""
    if env_id not in ENVS:
        raise ConfigError(
            f"unknown env id {env_id!r}; expected one of {ENV_IDS}")
    if env_id != "hard_move":
        if n is not None:
            raise ConfigError(f"env.n is for hard_move only, not {env_id!r}")
        return ENVS[env_id][0]()
    if n is None:
        raise ConfigError("hard_move needs env.n")
    return ENVS[env_id][0](int(n))


__all__ = [
    "ConfigError", "EnvSpec", "EnvUsageError", "HybridAction", "HybridEnv",
    "StepResult", "ENVS", "ENV_IDS", "make",
    "displacement", "CatchPointEnv", "GoalEnv", "HardMoveEnv", "PlatformEnv",
]
