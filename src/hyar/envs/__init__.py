"""Benchmark environments with discrete-continuous hybrid actions."""
from __future__ import annotations

from ..errors import ConfigError
from .base import EnvSpec, EnvUsageError, HybridAction, HybridEnv, StepResult
from .catch_point import CatchPointEnv
from .goal import GoalEnv
from .hard_move import HardMoveEnv, displacement
from .platform import PlatformEnv

ENV_IDS = ("platform", "goal", "hard_goal", "catch_point", "hard_move")


def make(env_id: str, n: int | None = None) -> HybridEnv:
    """Instantiate an environment; hard_move requires its actuator count n."""
    if env_id == "platform":
        return PlatformEnv()
    if env_id == "goal":
        return GoalEnv(hard=False)
    if env_id == "hard_goal":
        return GoalEnv(hard=True)
    if env_id == "catch_point":
        return CatchPointEnv()
    if env_id == "hard_move":
        if n is None:
            raise ConfigError("hard_move needs env.n")
        return HardMoveEnv(int(n))
    raise ConfigError(f"unknown env id {env_id!r}; expected one of {ENV_IDS}")


__all__ = [
    "ConfigError", "EnvSpec", "EnvUsageError", "HybridAction", "HybridEnv",
    "StepResult", "ENV_IDS", "make",
    "displacement", "CatchPointEnv", "GoalEnv", "HardMoveEnv", "PlatformEnv",
]
