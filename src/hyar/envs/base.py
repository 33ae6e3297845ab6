"""Hybrid-action environment interface.

An action is a discrete choice k plus a continuous parameter vector of the
width k fixes (others are rejected).  Parameters live in [-1, 1]; out-of-range
components, +-inf included, are clamped (and counted on env.clamp_count);
NaN components are rejected.
Episodes are deterministic functions of the reset seed.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class EnvUsageError(RuntimeError):
    """step() before reset(), after the episode ended, or on a bad action."""


@dataclass(frozen=True)
class EnvSpec:
    """Static description of one environment."""

    env_id: str
    state_dim: int
    num_discrete: int
    param_dims: tuple
    horizon: int

    @property
    def max_param_dim(self) -> int:
        return max(self.param_dims)


@dataclass
class HybridAction:
    """Discrete choice k with its continuous parameters x (may be empty)."""

    k: int
    x: np.ndarray = field(default_factory=lambda: np.zeros(0))


@dataclass
class StepResult:
    state: np.ndarray
    reward: float
    done: bool
    success: bool


class HybridEnv:
    """Base class: clamping, bookkeeping, and the step/reset contract."""

    def __init__(self, spec: EnvSpec):
        self._spec = spec
        self._rng: np.random.Generator | None = None
        self._t = 0
        self._done = True
        self._started = False
        self.clamp_count = 0          # components clamped into [-1, 1] so far
        self.timeout_truncated = False  # last done was a horizon cut, not terminal

    def spec(self) -> EnvSpec:
        return self._spec

    def reset(self, seed: int) -> np.ndarray:
        self._rng = np.random.default_rng(int(seed))
        self._t = 0
        self._done = False
        self._started = True
        self.timeout_truncated = False
        return self._reset_state()

    def step(self, action: HybridAction) -> StepResult:
        if not self._started:
            raise EnvUsageError("step() before reset()")
        if self._done:
            raise EnvUsageError("step() on a finished episode; call reset()")
        k = int(action.k)
        if not 0 <= k < self._spec.num_discrete:
            raise EnvUsageError(
                f"discrete action {k} out of range [0, {self._spec.num_discrete})")
        want = self._spec.param_dims[k]
        x = np.asarray(action.x, dtype=np.float64).reshape(-1)
        if x.size != want:
            raise EnvUsageError(
                f"action {k} needs {want} parameters, got {x.size}")
        n_clamped = x.size - int(np.count_nonzero(np.abs(x) <= 1.0))
        if n_clamped:  # NaN counts here too, so finite actions skip this test
            if np.isnan(x).any():
                raise EnvUsageError(f"action {k} parameters hold NaN")
            self.clamp_count += n_clamped
            x = np.clip(x, -1.0, 1.0)
        self._t += 1
        result = self._step_inner(k, x)
        if not result.done and self._t >= self._spec.horizon:
            result.done = True
            self.timeout_truncated = True
        else:
            self.timeout_truncated = False
        self._done = result.done
        return result

    # subclass hooks ----------------------------------------------------

    def _reset_state(self) -> np.ndarray:
        raise NotImplementedError

    def _step_inner(self, k: int, x: np.ndarray) -> StepResult:
        raise NotImplementedError
