"""Gradient correctness of every tape op against central finite differences."""
from __future__ import annotations

import numpy as np
import pytest

from hyar import numkit as nk


def numeric_grad(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Independent central-difference oracle over every coordinate of x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-12)
    return float(np.abs(a - b).max(initial=0.0) / scale)


def test_affine_relu_tanh_chain_grads() -> None:
    rng = np.random.default_rng(7)
    x = rng.normal(size=(4, 5))
    w1 = rng.normal(size=(6, 5)) * 0.5
    b1 = rng.normal(size=6) * 0.1
    w2 = rng.normal(size=(3, 6)) * 0.5
    b2 = rng.normal(size=3) * 0.1

    def run(want_grads: bool):
        t = nk.Tape()
        xv, w1v, b1v, w2v, b2v = (nk.leaf(a) for a in (x, w1, b1, w2, b2))
        h = t.relu(t.affine(xv, w1v, b1v))
        y = t.tanh(t.affine(h, w2v, b2v))
        loss = t.mean(y)
        if not want_grads:
            return float(loss.data)
        t.backward(loss)
        return [v.grad for v in (xv, w1v, b1v, w2v, b2v)]

    grads = run(True)
    for arr, g in zip((x, w1, b1, w2, b2), grads):
        g_fd = numeric_grad(lambda: run(False), arr)
        assert rel_err(g, g_fd) < 1e-6


def test_elementwise_and_fused_node_grads() -> None:
    rng = np.random.default_rng(11)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4))
    mask = (rng.random((3, 4)) > 0.3).astype(np.float64)
    target = rng.normal(size=(3, 4))
    noise = rng.normal(size=(3, 4))

    def run(want_grads: bool):
        t = nk.Tape()
        av, bv = nk.leaf(a), nk.leaf(b)
        s = t.add_scaled(t.mul(av, bv), t.add_scaled(av, bv, -1.0), 1.0)
        z = t.gaussian(av, t.clip(bv, -0.5, 0.5), noise)
        kl = t.kl_std_normal(av, bv)
        sq = t.sq_dist(z, target, mask)
        msq = t.mean(t.sq_dist(s, target))
        total = t.add_scaled(t.mean(kl), t.add_scaled(t.mean(sq), msq, 2.0), 0.7)
        if not want_grads:
            return float(total.data)
        t.backward(total)
        return av.grad, bv.grad

    ga, gb = run(True)
    assert rel_err(ga, numeric_grad(lambda: run(False), a)) < 1e-5
    assert rel_err(gb, numeric_grad(lambda: run(False), b)) < 1e-5


def test_concat_rows_rescale_grads() -> None:
    rng = np.random.default_rng(13)
    table = rng.normal(size=(5, 3))
    x = rng.normal(size=(6, 2))
    idx = np.array([0, 3, 3, 1, 4, 0])
    scale = rng.normal(size=5) + 2.0
    shift = rng.normal(size=5)

    def run(want_grads: bool):
        t = nk.Tape()
        tv, xv = nk.leaf(table), nk.leaf(x)
        rowsv = t.rows(tv, idx)
        cat = t.concat([rowsv, xv])
        y = t.rescale(cat, scale, shift)
        loss = t.mean(t.mul(y, y))
        if not want_grads:
            return float(loss.data)
        t.backward(loss)
        return tv.grad, xv.grad

    gt, gx = run(True)
    assert rel_err(gt, numeric_grad(lambda: run(False), table)) < 1e-6
    assert rel_err(gx, numeric_grad(lambda: run(False), x)) < 1e-6
    # rows 2 (never gathered) must have zero gradient
    assert np.all(gt[2] == 0.0)


def test_neg_mean_and_batched_affine() -> None:
    """A negated mean, as the actor loss takes it: mean run backward from
    seed -1 gives the gradient of -mean."""
    rng = np.random.default_rng(17)
    x = rng.normal(size=(3, 5))
    w = rng.normal(size=(4, 5))
    b = rng.normal(size=4)

    def run(want_grads: bool):
        t = nk.Tape()
        xv, wv, bv = nk.leaf(x), nk.leaf(w), nk.leaf(b)
        y = t.mean(t.tanh(t.affine(xv, wv, bv)))
        if not want_grads:
            return -float(y.data)
        t.backward(y, seed=np.float64(-1.0))
        return xv.grad, wv.grad, bv.grad

    gx, gw, gb = run(True)
    assert rel_err(gx, numeric_grad(lambda: run(False), x)) < 1e-6
    assert rel_err(gw, numeric_grad(lambda: run(False), w)) < 1e-6
    assert rel_err(gb, numeric_grad(lambda: run(False), b)) < 1e-6


def test_tape_consumed_twice_raises() -> None:
    t = nk.Tape()
    x = nk.leaf(np.ones(3))
    y = t.mean(t.relu(x))
    t.backward(y)
    with pytest.raises(nk.TapeUsageError):
        t.backward(y)


def _op_calls(rng: np.random.Generator, lead: tuple) -> dict:
    """name -> fn(tape) building one op on inputs of leading shape `lead`."""
    k, m = 5, 3
    x, y = rng.normal(size=lead + (k,)), rng.normal(size=lead + (k,))
    w, b = rng.normal(size=(m, k)), rng.normal(size=m)
    table = rng.normal(size=(7, k))
    idx = rng.integers(0, 7, size=lead) if lead else 4
    mask = (rng.random(lead + (k,)) < 0.5).astype(np.float64)

    def lf(a):
        return nk.leaf(a.copy())
    return {
        "affine": lambda t: t.affine(lf(x), lf(w), lf(b)),
        "affine in_dim=1": lambda t: t.affine(lf(x[..., :1]), lf(w[:, :1]),
                                              lf(b)),
        "affine out_dim=1": lambda t: t.affine(lf(x), lf(w[:1]), lf(b[:1])),
        "relu": lambda t: t.relu(lf(x)),
        "tanh": lambda t: t.tanh(lf(x)),
        "clip": lambda t: t.clip(lf(x), -0.5, 0.5),
        "mul": lambda t: t.mul(lf(x), lf(y)),
        "rescale": lambda t: t.rescale(lf(x), y, x * 0.5),
        "concat": lambda t: t.concat([lf(x), nk.const(y), lf(x)]),
        "rows": lambda t: t.rows(lf(table), idx),
        "gaussian": lambda t: t.gaussian(lf(x), lf(y * 0.1), x * y),
        "kl_std_normal": lambda t: t.kl_std_normal(lf(x), lf(y * 0.1)),
        "sq_dist": lambda t: t.sq_dist(lf(x), y, mask),
        "mean": lambda t: t.mean(lf(x)),
        "add_scaled": lambda t: t.add_scaled(lf(x), lf(y), 0.3),
    }


def test_op_table_covers_every_tape_op() -> None:
    ops = {n for n, f in vars(nk.Tape).items()
           if callable(f) and not n.startswith("_") and n != "backward"}
    assert ops == {n.split()[0] for n in _op_calls(np.random.default_rng(0),
                                                   (1,))}


def test_norecord_tape_matches_forward_and_rejects_backward() -> None:
    """Every op gives the recording tape's output bit for bit without
    recording, on 1-D, batch-1 and batch-128 inputs; affine takes batches
    only and rejects a 1-D input on either tape."""
    for lead in [(), (1,), (128,)]:
        for name, build in _op_calls(np.random.default_rng(3), lead).items():
            t1, t2 = nk.Tape(), nk.Tape(record=False)
            if name.startswith("affine") and not lead:
                for t in (t1, t2):
                    with pytest.raises(nk.ShapeError):
                        build(t)
                continue
            y1, y2 = build(t1), build(t2)
            assert np.shape(y1.data) == np.shape(y2.data), (name, lead)
            assert np.array_equal(y1.data, y2.data), (name, lead)
            assert len(t1._steps) == 1 and not t2._steps, (name, lead)
    with pytest.raises(nk.TapeUsageError):
        t2.backward(y2)


@pytest.mark.parametrize("in_dim,out_dim", [(1, 256), (256, 1), (1, 1)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_width_one_affine_matches_matmul_bit_for_bit(in_dim, out_dim,
                                                     dtype) -> None:
    """affine broadcasts the forward product at in_dim 1 and the input
    gradient at out_dim 1; both give np.matmul's bits on both tapes, with
    zeros of either sign among the inputs, the bias and the adjoint."""
    rng = np.random.default_rng(23)

    def draw(*shape):
        a = rng.normal(size=shape).astype(dtype)
        a[rng.random(shape) < 0.2] = 0.0
        a[rng.random(shape) < 0.2] = -0.0
        return a

    x, w, b, g = (draw(128, in_dim), draw(out_dim, in_dim), draw(out_dim),
                  draw(128, out_dim))
    t = nk.Tape()
    xv, wv, bv = nk.leaf(x.copy()), nk.leaf(w.copy()), nk.leaf(b.copy())
    y = t.affine(xv, wv, bv)
    want = np.matmul(x, w.T) + b
    assert y.data.dtype == want.dtype and y.data.tobytes() == want.tobytes()
    y_norecord = nk.Tape(record=False).affine(nk.const(x), nk.const(w),
                                              nk.const(b))
    assert y_norecord.data.tobytes() == want.tobytes()
    t.backward(y, seed=g)
    assert xv.grad.tobytes() == np.matmul(g, w).tobytes()
    assert wv.grad.tobytes() == np.matmul(g.T, x).tobytes()
    assert bv.grad.tobytes() == np.sum(g, axis=0).tobytes()


def _entries(params: nk.ParameterSet, flat: np.ndarray) -> dict:
    """name -> the slice of flat (in params' layout) holding that entry."""
    out, off = {}, 0
    for name in params.names():
        out[name] = flat[off:off + params[name].size].reshape(params[name].shape)
        off += params[name].size
    return out


@pytest.mark.parametrize("shared", [True, False], ids=["shared-x", "stacked-x"])
@pytest.mark.parametrize("in_dim,out_dim", [(18, 256), (256, 256), (256, 1),
                                            (1, 256)])
def test_stacked_affine_matches_each_slice_bit_for_bit(shared, in_dim,
                                                       out_dim) -> None:
    """A stack of two float32 layers gives each slice the output, weight,
    bias and input gradient bytes of that slice's 2-D affine, on record and
    no-record tapes, its parameter gradients written into a ParameterSet's
    flat .grad as in training.  The input is shared (batch, in_dim), with
    no gradient, or stacked (2, batch, in_dim)."""
    n, B = 2, 128
    rng = np.random.default_rng(29)
    stack = nk.ParameterSet({"W": rng.normal(size=(n, out_dim, in_dim)),
                             "b": rng.normal(size=(n, out_dim))}, np.float32)
    x = rng.normal(size=(B, in_dim) if shared else (n, B, in_dim))
    x = x.astype(np.float32)
    g = rng.normal(size=(n, B, out_dim)).astype(np.float32)

    def run(params, x, g):
        t = nk.Tape()
        pv, fv = params.grad_vars(), params.frozen_vars()
        xv = nk.const(x) if shared else nk.leaf(x.copy())
        y = t.affine(xv, pv["W"], pv["b"])
        y_norecord = nk.Tape(record=False).affine(nk.const(x), fv["W"],
                                                  fv["b"])
        assert y_norecord.data.tobytes() == y.data.tobytes()
        t.backward(y, seed=g)
        return y.data, _entries(params, params.grad), xv.grad

    y, grads, gx = run(stack, x, g)
    assert y.shape == (n, B, out_dim) and (gx is None) == shared
    for k in range(n):
        one = nk.ParameterSet({"W": stack["W"][k], "b": stack["b"][k]},
                              np.float32)
        y1, grads1, gx1 = run(one, x if shared else x[k], g[k].copy())
        assert y1.tobytes() == y[k].tobytes()
        for name in ("W", "b"):
            assert grads1[name].tobytes() == grads[name][k].tobytes(), name
        if not shared:
            assert gx1.tobytes() == gx[k].tobytes()


def test_stacked_affine_input_shapes() -> None:
    """Stacked layers take one input per layer, or one shared input that
    needs no gradient (a stop Var, or any input on a no-record tape)."""
    w, b = nk.leaf(np.ones((2, 4, 3))), nk.leaf(np.ones((2, 4)))
    with pytest.raises(nk.ShapeError):
        nk.Tape().affine(nk.leaf(np.ones((5, 3))), w, b)
    with pytest.raises(nk.ShapeError):  # three inputs for two layers
        nk.Tape().affine(nk.leaf(np.ones((3, 5, 3))), w, b)
    for t in (nk.Tape(), nk.Tape(record=False)):
        assert t.affine(nk.const(np.ones((5, 3))), w, b).shape == (2, 5, 4)
    assert nk.Tape(record=False).affine(nk.leaf(np.ones((5, 3))), w,
                                        b).shape == (2, 5, 4)


def test_stop_vars_never_gain_a_grad() -> None:
    """A stop Var is skipped by every op that accumulates into its input."""
    rng = np.random.default_rng(5)
    table = nk.const(rng.normal(size=(4, 3)))
    a = nk.const(rng.normal(size=(2, 3)))
    x = nk.leaf(rng.normal(size=(2, 3)))
    t = nk.Tape()
    y = t.mul(t.relu(t.rows(table, [0, 2])), t.add_scaled(a, x, 1.0))
    t.backward(t.mean(y))
    assert table.grad is None and a.grad is None
    assert x.grad is not None


def test_affine_shape_mismatch() -> None:
    t = nk.Tape()
    with pytest.raises(nk.ShapeError):
        t.affine(nk.leaf(np.ones((2, 3))), nk.leaf(np.ones((4, 5))),
                 nk.leaf(np.ones(4)))


def test_clip_gradient_zero_outside_range() -> None:
    t = nk.Tape()
    x = nk.leaf(np.array([-2.0, 0.0, 2.0]))
    y = t.mean(t.clip(x, -1.0, 1.0))
    t.backward(y)
    assert np.allclose(x.grad, [0.0, 1.0 / 3.0, 0.0])
