"""Adam and Polyak averaging over flat-backed parameter sets."""
from __future__ import annotations

import math

import numpy as np

from .checkpoint import Slot, array_slot, count_slot
from .errors import NumericFault, ShapeError
from .nets import ParameterSet


class AdamState:
    """Adam moments for one ParameterSet.  m/v mirror the flat layout."""

    def __init__(self, params: ParameterSet, lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros(params.size, dtype=np.float64)
        self.v = np.zeros(params.size, dtype=np.float64)
        self._scratch = np.zeros(params.size, dtype=np.float64)
        self._scratch2 = np.zeros(params.size, dtype=np.float64)

    def slots(self, prefix: str) -> list[Slot]:
        """Checkpoint slots: the moments prefix.m/.v and the step count .t."""
        return [array_slot(f"{prefix}.m", self.m),
                array_slot(f"{prefix}.v", self.v),
                count_slot(f"{prefix}.t", self, "t")]


def adam_step(params: ParameterSet, grads, state: AdamState) -> None:
    """One Adam update in place.  grads: name->array dict or a flat vector.

    Non-finite gradients reject the whole update and raise NumericFault.
    """
    if isinstance(grads, dict):
        g = params.pack(grads, out=state._scratch)
    else:
        g = np.asarray(grads, dtype=np.float64)
        if g.shape != (params.size,):
            raise ShapeError(f"flat grads {g.shape} vs params ({params.size},)")
    # g @ g is finite iff every entry is finite (and none overflows squaring)
    sq_norm = float(g @ g)
    if not math.isfinite(sq_norm):
        raise NumericFault("non-finite gradient; update rejected")
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    m, v, tmp = state.m, state.v, state._scratch2
    m *= b1
    np.multiply(g, 1.0 - b1, out=tmp)
    m += tmp
    v *= b2
    np.multiply(g, g, out=tmp)
    tmp *= 1.0 - b2
    v += tmp
    # algebraically identical to lr * m_hat / (sqrt(v_hat) + eps)
    c2 = math.sqrt(1.0 - b2 ** state.t)
    step = state.lr * c2 / (1.0 - b1 ** state.t)
    np.sqrt(v, out=tmp)
    tmp += state.eps * c2
    np.divide(m, tmp, out=tmp)
    tmp *= step
    params.flat -= tmp


def soft_update(target: ParameterSet, source: ParameterSet, tau: float) -> None:
    """Polyak: target <- (1 - tau) * target + tau * source, in place."""
    if target.size != source.size or target.names() != source.names():
        raise ShapeError("soft_update: parameter sets do not match")
    target.flat *= (1.0 - tau)
    target.flat += tau * source.flat
