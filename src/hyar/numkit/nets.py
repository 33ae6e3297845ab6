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
    """Named float64 arrays backed by one flat buffer.

    Entries are views into .flat, so vectorized optimizer passes over the flat
    buffer and per-entry reads/writes stay coherent.  Every writer (Adam,
    Polyak, checkpoint loads) works in place, so the views, and the stop Vars
    that frozen_vars() builds over them once, stay valid for the set's life.
    """

    def __init__(self, entries: dict):
        self._names = list(entries)
        shapes = [np.shape(entries[n]) for n in self._names]
        sizes = [int(np.prod(s)) if s else 1 for s in shapes]
        total = int(sum(sizes))
        self.flat = np.zeros(total, dtype=np.float64)
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

    def __contains__(self, name: str) -> bool:
        return name in self._views

    def names(self) -> list[str]:
        return list(self._names)

    def frozen_vars(self) -> dict[str, Var]:
        """The shared name -> stop Var dict over the views, for inference and
        for nets held fixed inside a training graph.  Ops never give a stop
        Var a grad, so sharing it across tapes is safe; do not mutate it."""
        return self._frozen

    def slots(self, prefix: str) -> list[Slot]:
        """One checkpoint slot per entry, named prefix.name, loaded in place."""
        return [array_slot(f"{prefix}.{n}", v) for n, v in self._views.items()]

    @property
    def size(self) -> int:
        return self.flat.size

    def copy(self) -> "ParameterSet":
        return ParameterSet({n: self._views[n].copy() for n in self._names})

    def pack(self, grads: dict, out: np.ndarray | None = None) -> np.ndarray:
        """Flatten a name->array dict into flat-buffer order (zeros if absent)."""
        if out is None:
            out = np.zeros(self.size, dtype=np.float64)
        off = 0
        for name in self._names:
            view = self._views[name]
            g = grads.get(name)
            dst = out[off:off + view.size]
            if g is None:
                dst[:] = 0.0
            else:
                dst[:] = np.ravel(g)
            off += view.size
        return out

    def all_finite(self) -> bool:
        return bool(np.isfinite(self.flat).all())


def init_params(spec: LayerSpec, rng: np.random.Generator,
                prefix: str = "") -> ParameterSet:
    """U(-1/sqrt(fan_in), +1/sqrt(fan_in)) init for weights and biases."""
    entries = {}
    for i, (din, dout, _act) in enumerate(spec.layers):
        bound = 1.0 / np.sqrt(din)
        entries[f"{prefix}W{i}"] = rng.uniform(-bound, bound, size=(dout, din))
        entries[f"{prefix}b{i}"] = rng.uniform(-bound, bound, size=dout)
    return ParameterSet(entries)


def param_vars(params: ParameterSet) -> dict[str, Var]:
    """Wrap every entry as a fresh leaf Var (views, not copies); one dict per
    training tape, since backward() leaves the grads on these Vars."""
    return {n: Var(params[n]) for n in params.names()}


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
