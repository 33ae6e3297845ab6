"""Adam and Polyak averaging over flat-backed parameter sets."""
from __future__ import annotations

import math

import numpy as np

from .checkpoint import Slot, array_slot, count_slot
from .errors import ShapeError
from .nets import ParameterSet

# Adam's moment decays and denominator offset (Kingma & Ba defaults)
B1, B2, EPS = 0.9, 0.999, 1e-8


class AdamState:
    """Adam moments for one ParameterSet.  m/v mirror the flat layout and
    dtype."""

    def __init__(self, params: ParameterSet, lr: float):
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)
        self._tmp = np.zeros_like(params.flat)

    def slots(self, prefix: str) -> list[Slot]:
        """Checkpoint slots: the moments prefix.m/.v and the step count .t."""
        return [array_slot(f"{prefix}.m", self.m),
                array_slot(f"{prefix}.v", self.v),
                count_slot(f"{prefix}.t", self, "t")]


def adam_step(params: ParameterSet, grads, state: AdamState) -> bool:
    """One Adam update in place.  grads: a flat vector in the layout of
    params.flat, usually params.grad (Adam only reads it; grad_vars zeroes it).
    The arithmetic runs in the dtype of params.flat.

    Returns True; a non-finite gradient changes nothing and returns False.
    """
    g = np.asarray(grads, dtype=params.flat.dtype)
    if g.shape != (params.size,):
        raise ShapeError(f"flat grads {g.shape} vs params ({params.size},)")
    # g @ g is finite iff every entry is finite (and none overflows squaring)
    sq_norm = float(g @ g)
    if not math.isfinite(sq_norm):
        return False
    state.t += 1
    m, v, tmp = state.m, state.v, state._tmp
    m *= B1
    np.multiply(g, 1.0 - B1, out=tmp)
    m += tmp
    v *= B2
    np.multiply(g, g, out=tmp)
    tmp *= 1.0 - B2
    v += tmp
    # algebraically identical to lr * m_hat / (sqrt(v_hat) + eps)
    c2 = math.sqrt(1.0 - B2 ** state.t)
    step = state.lr * c2 / (1.0 - B1 ** state.t)
    np.sqrt(v, out=tmp)
    tmp += EPS * c2
    np.divide(m, tmp, out=tmp)
    tmp *= step
    params.flat -= tmp
    return True


def soft_update(target: ParameterSet, source: ParameterSet, tau: float) -> None:
    """Polyak: target <- (1 - tau) * target + tau * source, in place."""
    if target.size != source.size or target.names() != source.names():
        raise ShapeError("soft_update: parameter sets do not match")
    target.flat *= (1.0 - tau)
    target.flat += tau * source.flat
