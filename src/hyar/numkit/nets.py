"""MLP building blocks: layer specs, flat-backed parameter sets, forward pass."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .checkpoint import Slot, array_slot
from .errors import ShapeError
from .tape import Tape, Var

_ACTIVATIONS = ("relu", "tanh", "none")


@dataclass(frozen=True)
class LayerSpec:
    """Fully-connected stack: each layer is (in_dim, out_dim, activation)."""

    layers: tuple = field(default_factory=tuple)

    def __post_init__(self):
        layers = tuple(tuple(l) for l in self.layers)
        object.__setattr__(self, "layers", layers)
        if not layers:
            raise ShapeError("LayerSpec needs at least one layer")
        for i, (din, dout, act) in enumerate(layers):
            if din < 1 or dout < 1:
                raise ShapeError(f"layer {i}: non-positive dims ({din}, {dout})")
            if act not in _ACTIVATIONS:
                raise ShapeError(f"layer {i}: unknown activation {act!r}")
            if i > 0 and layers[i - 1][1] != din:
                raise ShapeError(
                    f"layer {i}: in_dim {din} does not chain from previous out_dim "
                    f"{layers[i - 1][1]}")

    @classmethod
    def mlp(cls, dims: list[int], hidden_act: str = "relu",
            out_act: str = "none") -> "LayerSpec":
        """Chain dims [d0, d1, ..., dn] with hidden_act inside and out_act last."""
        if len(dims) < 2:
            raise ShapeError("need at least input and output dims")
        acts = [hidden_act] * (len(dims) - 2) + [out_act]
        return cls(tuple((dims[i], dims[i + 1], acts[i]) for i in range(len(dims) - 1)))

    @property
    def in_dim(self) -> int:
        return self.layers[0][0]

    @property
    def out_dim(self) -> int:
        return self.layers[-1][1]


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


def init_params(spec: LayerSpec, rng: np.random.Generator,
                prefix: str = "", dtype=np.float64) -> ParameterSet:
    """U(-1/sqrt(fan_in), +1/sqrt(fan_in)) init for weights and biases,
    drawn in float64 and stored in dtype."""
    entries = {}
    for i, (din, dout, _act) in enumerate(spec.layers):
        bound = 1.0 / np.sqrt(din)
        entries[f"{prefix}W{i}"] = rng.uniform(-bound, bound, size=(dout, din))
        entries[f"{prefix}b{i}"] = rng.uniform(-bound, bound, size=dout)
    return ParameterSet(entries, dtype)


def mlp_apply(tape: Tape, spec: LayerSpec, pvars: dict[str, Var], x: Var,
              prefix: str = "") -> Var:
    """Composable forward pass; use inside larger graphs."""
    h = x
    for i, (din, _dout, act) in enumerate(spec.layers):
        if np.shape(h.data)[-1] != din:
            raise ShapeError(
                f"layer {i}: got input width {np.shape(h.data)[-1]}, expected {din}")
        h = tape.affine(h, pvars[f"{prefix}W{i}"], pvars[f"{prefix}b{i}"])
        if act == "relu":
            h = tape.relu(h)
        elif act == "tanh":
            h = tape.tanh(h)
    return h
