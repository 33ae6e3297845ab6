"""HardMove(n): reach a target by switching n equally spaced actuators on/off.

The discrete action is the full on/off bitmask (K = 2^n) and the continuous
parameters drive every actuator, so the hybrid action space grows
exponentially with n.  Displacement is the sum over SET bits of
x_i * 0.05 * (cos phi_i, sin phi_i) with phi_i = 2*pi*i/n.
"""
from __future__ import annotations

import numpy as np

from .base import EnvSpec, HybridEnv, StepResult

ACTUATOR_GAIN = 0.05
SUCCESS_RADIUS = 0.1
TARGET_NORM = (0.4, 0.9)


def hard_move_spec(n: int) -> EnvSpec:
    if not 1 <= n <= 12:
        raise ValueError(f"hard_move needs 1 <= n <= 12, got {n}")
    return EnvSpec(env_id="hard_move", state_dim=4, num_discrete=2 ** n,
                   param_dims=(n,) * (2 ** n), horizon=25)


def displacement(n: int, k: int, x: np.ndarray) -> np.ndarray:
    """Vectorized displacement for mask k; the test oracle re-derives this
    bit-by-bit in pure Python."""
    bits = (k >> np.arange(n)) & 1
    phi = 2.0 * np.pi * np.arange(n) / n
    contrib = bits * x * ACTUATOR_GAIN
    return np.array([float(contrib @ np.cos(phi)), float(contrib @ np.sin(phi))])


class HardMoveEnv(HybridEnv):
    def __init__(self, n: int):
        super().__init__(hard_move_spec(n))
        self._n = n

    def _reset_state(self) -> np.ndarray:
        self._pos = np.zeros(2)
        while True:
            self._target = self._rng.uniform(-1.0, 1.0, size=2)
            r = float(np.hypot(*self._target))
            if TARGET_NORM[0] <= r <= TARGET_NORM[1]:
                break
        return self._state()

    def _step_inner(self, k: int, x: np.ndarray) -> StepResult:
        delta = displacement(self._n, k, x)
        self._pos = np.clip(self._pos + delta, -1.0, 1.0)
        dist = float(np.hypot(*(self._pos - self._target)))
        success = dist <= SUCCESS_RADIUS
        reward = -dist + (10.0 if success else 0.0)
        return StepResult(self._state(), reward, success, success)

    def _state(self) -> np.ndarray:
        return np.array([self._pos[0], self._pos[1],
                         self._target[0], self._target[1]])
