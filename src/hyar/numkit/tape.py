"""Reverse-mode autodiff on numpy arrays.

A Tape records ops in construction order; backward() replays the list in
reverse, so no topological sort is needed.  Every op returns a fresh Var and,
on a recording tape, appends a closure that routes the output adjoint to the
parents.  Ops compute in the dtype of their inputs and never cast: a model's
float32 parameters and inputs give float32 arithmetic, float64 ones float64.
Scalar losses (mean, neg_mean) are 0-d float64 values, and their backward
casts the incoming adjoint to the input's dtype before it meets an array;
a mean squared error is mean(sq_dist(pred, target)).  A tape built with
record=False runs the same forward expression and returns its output at
once: it builds no backward closures and keeps no list, so inference pays
only for the forward arithmetic.
"""
from __future__ import annotations

import numpy as np

from .errors import ShapeError, TapeUsageError


class Var:
    """A node value: forward data plus the adjoint accumulated by backward().

    stop=True marks a leaf whose gradient is never needed (constants, frozen
    nets); ops skip the corresponding backward work and never give it a grad.
    sink, set only on parameter leaves (ParameterSet.grad_vars), is the
    Var's slice of its owner's flat .grad: backward writes the adjoint there.
    """

    __slots__ = ("data", "grad", "stop", "sink")

    def __init__(self, data, stop: bool = False):
        self.data = data
        self.grad = None
        self.stop = stop
        self.sink = None

    @property
    def shape(self):
        return np.shape(self.data)


def _floats(data) -> np.ndarray:
    a = np.asarray(data)
    return a if a.dtype.kind == "f" else a.astype(np.float64)


def leaf(data) -> Var:
    """Wrap an array as a graph input (parameter or constant).  A float
    array keeps its dtype; anything else becomes float64."""
    return Var(_floats(data))


def const(data) -> Var:
    """Wrap an array as a no-gradient input (dtype as for leaf)."""
    return Var(_floats(data), stop=True)


def _acc(v: Var, g) -> None:
    # stop Vars may be shared across tapes (cached frozen parameters), so they
    # never hold an adjoint.  A parameter leaf copies its first gradient into
    # its sink (adding it to zeros would turn -0.0 into +0.0) and adds later
    # ones in place.  Other Vars accumulate out of place: the first write may
    # alias upstream buffers, so shared views are never mutated
    if v.stop:
        return
    if v.sink is None:
        v.grad = g if v.grad is None else v.grad + g
    elif v.grad is None:
        v.sink[...] = g
        v.grad = v.sink
    else:
        v.sink += g


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b.  Over an inner width of 1 the product is an outer product,
    formed by broadcasting: several times faster than a BLAS call on these
    small shapes, and the same bits once + 0.0 turns its -0.0 products into
    the +0.0 that BLAS accumulates."""
    if a.shape[-1] != 1:
        return a @ b
    out = a * b
    out += 0.0
    return out


def _acc_out(v: Var, fn, *args, **kwargs) -> None:
    """_acc(v, fn(*args, **kwargs)), except that a parameter leaf's first
    gradient is computed straight into its sink (fn takes out=): no
    temporary, and the same bits as the copy _acc would make."""
    if v.sink is not None and v.grad is None:
        v.grad = fn(*args, out=v.sink, **kwargs)
    else:
        _acc(v, fn(*args, **kwargs))


class Tape:
    """Op recorder.  One backward() per tape; a second call raises."""

    __slots__ = ("_steps", "_used", "record")

    def __init__(self, record: bool = True):
        self._steps: list = []
        self._used = False
        self.record = record

    def backward(self, root: Var, seed=None) -> None:
        """Run reverse sweep from root.  seed defaults to ones_like(root)."""
        if not self.record:
            raise TapeUsageError("tape was built with record=False")
        if self._used:
            raise TapeUsageError("tape already consumed by a previous backward()")
        self._used = True
        if seed is None:
            seed = np.ones_like(root.data) if np.ndim(root.data) else np.float64(1.0)
        root.grad = seed
        for out, back in reversed(self._steps):
            if out.grad is not None:
                back(out.grad)

    # ---- primitive ops -------------------------------------------------

    def affine(self, x: Var, w: Var, b: Var) -> Var:
        """y = x @ w.T + b with x shaped (batch, in_dim) and w shaped
        (out_dim, in_dim); for a stack of n layers w is (n, out_dim, in_dim),
        b (n, out_dim) and x (n, batch, in_dim), or shared (batch, in_dim) if
        it needs no gradient, and each slice has its 2-D layer's bits.  The
        forward product when in_dim is 1 and the input gradient when out_dim
        is 1 broadcast instead of calling BLAS (_dot)."""
        xd, wd = x.data, w.data
        if (xd.ndim not in (2, wd.ndim) or xd.shape[-1] != wd.shape[-1]
                or xd.ndim > 2 and xd.shape[:-2] != wd.shape[:-2]
                or xd.ndim < wd.ndim and self.record and not x.stop):
            raise ShapeError(f"affine: input {xd.shape} vs weight {wd.shape}")
        out = Var(_dot(xd, wd.swapaxes(-1, -2)) + b.data[..., None, :])
        if self.record:
            def back(g, x=x, w=w, b=b, xd=xd, wd=wd):
                if not w.stop:
                    _acc_out(w, np.matmul, g.swapaxes(-1, -2), xd)
                    _acc_out(b, np.sum, g, axis=-2)
                if not x.stop:
                    _acc(x, _dot(g, wd))
            self._steps.append((out, back))
        return out

    def relu(self, x: Var) -> Var:
        out = Var(np.maximum(x.data, 0.0))
        if self.record:
            def back(g, x=x, od=out.data):
                _acc(x, g * (od > 0.0))
            self._steps.append((out, back))
        return out

    def tanh(self, x: Var) -> Var:
        out = Var(np.tanh(x.data))
        if self.record:
            def back(g, x=x, od=out.data):
                _acc(x, g * (1.0 - od * od))
            self._steps.append((out, back))
        return out

    def clip(self, x: Var, lo: float, hi: float) -> Var:
        """Clamp with pass-through gradient strictly inside (lo, hi)."""
        out = Var(np.clip(x.data, lo, hi))
        if self.record:
            def back(g, x=x, xd=x.data):
                _acc(x, g * ((xd > lo) & (xd < hi)))
            self._steps.append((out, back))
        return out

    def mul(self, a: Var, b: Var) -> Var:
        out = Var(a.data * b.data)
        if self.record:
            def back(g, a=a, b=b, ad=a.data, bd=b.data):
                _acc(a, g * bd)
                _acc(b, g * ad)
            self._steps.append((out, back))
        return out

    def rescale(self, x: Var, scale, shift) -> Var:
        """y = x * scale + shift with constant per-dim scale/shift arrays."""
        out = Var(x.data * scale + shift)
        if self.record:
            def back(g, x=x, scale=scale):
                _acc(x, g * scale)
            self._steps.append((out, back))
        return out

    def concat(self, parts: list[Var]) -> Var:
        datas = [p.data for p in parts]
        out = Var(np.concatenate(datas, axis=-1))
        if self.record:
            widths = [d.shape[-1] for d in datas]

            def back(g, parts=parts, widths=widths):
                off = 0
                for p, w in zip(parts, widths):
                    if not p.stop:
                        _acc(p, g[..., off:off + w])
                    off += w
            self._steps.append((out, back))
        return out

    def rows(self, table: Var, idx) -> Var:
        """Gather rows of a 2-D table; backward scatter-adds into the table."""
        idx = np.asarray(idx)
        out = Var(table.data[idx])
        if self.record:
            def back(g, table=table, idx=idx):
                gt = np.zeros_like(table.data)
                np.add.at(gt, idx, g)
                _acc(table, gt)
            self._steps.append((out, back))
        return out

    # ---- fused loss / distribution nodes -------------------------------

    def gaussian(self, mu: Var, log_std: Var, noise) -> Var:
        """Reparameterized sample mu + exp(log_std) * noise (noise is const)."""
        std = np.exp(log_std.data)
        out = Var(mu.data + std * noise)
        if self.record:
            def back(g, mu=mu, log_std=log_std, sn=std * noise):
                _acc(mu, g)
                _acc(log_std, g * sn)
            self._steps.append((out, back))
        return out

    def kl_std_normal(self, mu: Var, log_std: Var) -> Var:
        """Per-row KL(N(mu, exp(log_std)^2) || N(0, I)), summed over dims."""
        m, ls = mu.data, log_std.data
        e2 = np.exp(2.0 * ls)
        out = Var(0.5 * np.sum(e2 + m * m - 1.0 - 2.0 * ls, axis=-1))
        if self.record:
            def back(g, mu=mu, log_std=log_std, m=m, e2=e2):
                gx = g[..., None] if np.ndim(g) else g
                _acc(mu, gx * m)
                _acc(log_std, gx * (e2 - 1.0))
            self._steps.append((out, back))
        return out

    def sq_dist(self, pred: Var, target, mask=None) -> Var:
        """Per-row squared distance sum((pred - target)^2 * mask, last axis)."""
        d = pred.data - target
        if mask is not None:
            d = d * mask
        out = Var(np.sum(d * d, axis=-1))
        if self.record:
            def back(g, pred=pred, d=d, mask=mask):
                gx = g[..., None] if np.ndim(g) else g
                gp = 2.0 * d * gx
                if mask is not None:
                    gp = gp * mask
                _acc(pred, gp)
            self._steps.append((out, back))
        return out

    def mean(self, x: Var) -> Var:
        out = Var(np.float64(np.mean(x.data)))
        if self.record:
            def back(g, x=x, n=np.size(x.data)):
                _acc(x, np.full(np.shape(x.data), g / n,
                                dtype=x.data.dtype))
            self._steps.append((out, back))
        return out

    def neg_mean(self, x: Var) -> Var:
        out = Var(np.float64(-np.mean(x.data)))
        if self.record:
            def back(g, x=x, n=np.size(x.data)):
                _acc(x, np.full(np.shape(x.data), -g / n,
                                dtype=x.data.dtype))
            self._steps.append((out, back))
        return out

    def add_scaled(self, a: Var, b: Var, c: float) -> Var:
        """a + c * b (c a Python float)."""
        out = Var(a.data + c * b.data)
        if self.record:
            def back(g, a=a, b=b, c=c):
                _acc(a, g)
                _acc(b, c * g)
            self._steps.append((out, back))
        return out
