"""The numeric policy: the one dtype that models build their state in, and
the bits epoch of the runs this code makes.

Models (representation, agent nets, replay buffer, latent bounds) read
model_dtype() when they are built and keep it for their life.  numkit's ops
compute in the dtype of their inputs and never cast, so the policy reaches
the arithmetic only through the arrays the models own.  Training runs in
float32; float64_models() is the single way to build float64 models, for
the finite-difference checks whose tolerances assume float64.
"""
from __future__ import annotations

import contextlib

import numpy as np

TRAIN_DTYPE = np.dtype(np.float32)
# Bump it when a change alters the bits of metrics.csv/eval.csv or of the
# checkpoint: runs and checkpoints of another epoch are runs of other code.
# Epoch 1: one latent map, the batched relabel redraws and the float64 GEMM
# decode.  Epoch 2: the warm-up encodes its stored rows in fixed blocks after
# collection.  Epoch 3 (epoch 2's CSV bytes): one stacked critic.* entry set.
BITS_EPOCH = 3
_active = [TRAIN_DTYPE]


def model_dtype() -> np.dtype:
    """The dtype a model built now takes for its parameters and buffers."""
    return _active[-1]


@contextlib.contextmanager
def float64_models():
    """Models built inside the block keep float64 state."""
    _active.append(np.dtype(np.float64))
    try:
        yield
    finally:
        _active.pop()
