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
        msq = t.msq_to(s, target)
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


def test_neg_mean_and_1d_affine() -> None:
    rng = np.random.default_rng(17)
    x = rng.normal(size=5)
    w = rng.normal(size=(4, 5))
    b = rng.normal(size=4)

    def run(want_grads: bool):
        t = nk.Tape()
        xv, wv, bv = nk.leaf(x), nk.leaf(w), nk.leaf(b)
        y = t.neg_mean(t.tanh(t.affine(xv, wv, bv)))
        if not want_grads:
            return float(y.data)
        t.backward(y)
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
        "msq_to": lambda t: t.msq_to(lf(x), y),
        "mean": lambda t: t.mean(lf(x)),
        "neg_mean": lambda t: t.neg_mean(lf(x)),
        "add_scaled": lambda t: t.add_scaled(lf(x), lf(y), 0.3),
    }


def test_op_table_covers_every_tape_op() -> None:
    ops = {n for n, f in vars(nk.Tape).items()
           if callable(f) and not n.startswith("_") and n != "backward"}
    assert ops == set(_op_calls(np.random.default_rng(0), (1,)))


def test_norecord_tape_matches_forward_and_rejects_backward() -> None:
    """Every op gives the recording tape's output bit for bit without
    recording, on 1-D, batch-1 and batch-128 inputs."""
    for lead in [(), (1,), (128,)]:
        for name, build in _op_calls(np.random.default_rng(3), lead).items():
            t1, t2 = nk.Tape(), nk.Tape(record=False)
            y1, y2 = build(t1), build(t2)
            assert np.shape(y1.data) == np.shape(y2.data), (name, lead)
            assert np.array_equal(y1.data, y2.data), (name, lead)
            assert len(t1._steps) == 1 and not t2._steps, (name, lead)
    with pytest.raises(nk.TapeUsageError):
        t2.backward(y2)


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
