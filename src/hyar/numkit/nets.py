"""MLPs as lists of widths: flat-backed parameter sets, init, forward pass."""
from __future__ import annotations

import numpy as np

from .checkpoint import Slot, array_slot
from .tape import Tape, Var


class ParameterSet:
    """Named arrays of one dtype backed by one flat buffer, with a flat
    gradient of the same dtype.  Models pass nk.model_dtype(); the default,
    float64, serves direct numeric use.

    Entries are views into .flat, so vectorized optimizer passes over the flat
    buffer and per-entry reads/writes stay coherent.  Every writer (Adam,
    Polyak, checkpoint loads) works in place, so the views, and the stop Vars
    that frozen_vars() builds over them once, stay valid for the set's life.

    .grad (layout of .flat) belongs to the training tapes: grad_vars() zeroes
    it (allocating it on first use, so targets carry none) and hands out leaf
    Vars whose backward() writes into it; .grad then holds that loss's
    gradient, exactly 0 where the loss never reaches.
    """

    def __init__(self, entries: dict, dtype=np.float64):
        self._names = list(entries)
        shapes = [np.shape(entries[n]) for n in self._names]
        sizes = [int(np.prod(s)) if s else 1 for s in shapes]
        total = int(sum(sizes))
        self.flat = np.zeros(total, dtype=dtype)
        self.grad: np.ndarray | None = None
        self._views: dict[str, np.ndarray] = {}
        off = 0
        for name, shape, size in zip(self._names, shapes, sizes):
            view = self.flat[off:off + size].reshape(shape)
            view[...] = entries[name]
            self._views[name] = view
            off += size
        self._frozen = {n: Var(v, stop=True) for n, v in self._views.items()}

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def names(self) -> list[str]:
        return list(self._names)

    def frozen_vars(self) -> dict[str, Var]:
        """The shared name -> stop Var dict over the views, for inference and
        for nets held fixed inside a training graph.  Ops never give a stop
        Var a grad, so sharing it across tapes is safe; do not mutate it."""
        return self._frozen

    def grad_vars(self) -> dict[str, Var]:
        """Zero .grad and return fresh name -> leaf Vars over the views for
        one training tape; its backward() writes into the slices of .grad."""
        if self.grad is None:
            self.grad = np.zeros_like(self.flat)
        else:
            self.grad.fill(0.0)
        pv, off = {}, 0
        for n, v in self._views.items():
            pv[n] = var = Var(v)
            var.sink = self.grad[off:off + v.size].reshape(v.shape)
            off += v.size
        return pv

    def slots(self, prefix: str) -> list[Slot]:
        """One checkpoint slot per entry, named prefix.name, loaded in place."""
        return [array_slot(f"{prefix}.{n}", v) for n, v in self._views.items()]

    @property
    def size(self) -> int:
        return self.flat.size

    def copy(self) -> "ParameterSet":
        return ParameterSet({n: self._views[n] for n in self._names},
                            self.flat.dtype)


def init_params(dims: list[int], rng: np.random.Generator,
                dtype=np.float64) -> ParameterSet:
    """The MLP with widths dims [d0, ..., dn]: W{i} (d{i+1}, d{i}) then b{i},
    drawn U(+-1/sqrt(d{i})) in float64 and stored in dtype."""
    entries = {}
    for i, (din, dout) in enumerate(zip(dims[:-1], dims[1:])):
        bound = 1.0 / np.sqrt(din)
        entries[f"W{i}"] = rng.uniform(-bound, bound, size=(dout, din))
        entries[f"b{i}"] = rng.uniform(-bound, bound, size=dout)
    return ParameterSet(entries, dtype)


def mlp_apply(tape: Tape, pvars: dict[str, Var], x: Var) -> Var:
    """Forward pass of the MLP whose W{i}/b{i} are in pvars: ReLU between
    layers, linear output.  Composable inside larger graphs."""
    n = len(pvars) // 2
    h = x
    for i in range(n):
        h = tape.affine(h, pvars[f"W{i}"], pvars[f"b{i}"])
        if i < n - 1:
            h = tape.relu(h)
    return h
