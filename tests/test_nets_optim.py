"""ParameterSet contracts, init_params and mlp_apply over a list of widths,
Adam, soft_update."""
from __future__ import annotations

import numpy as np
import pytest

from hyar import numkit as nk


def test_init_params_bounds_and_layout() -> None:
    dims = [9, 256, 256, 12]
    ps = nk.init_params(dims, np.random.default_rng(0))
    for i, (din, dout) in enumerate(zip(dims[:-1], dims[1:])):
        bound = 1.0 / np.sqrt(din)
        w, b = ps[f"W{i}"], ps[f"b{i}"]
        assert w.shape == (dout, din) and b.shape == (dout,)
        assert np.abs(w).max() <= bound and np.abs(b).max() <= bound
    # entries are views of the flat buffer
    ps.flat[:] = 0.0
    assert np.all(ps["W1"] == 0.0)


def test_init_params_draw_order_is_pinned() -> None:
    # checkpoint bytes depend on this order: W0, b0, W1, b1, each drawn in
    # float64 as U(+-1/sqrt(fan_in)) and then cast
    ps = nk.init_params([3, 5, 2], np.random.default_rng(5), np.float32)
    rng = np.random.default_rng(5)
    want = {}
    for i, (din, dout) in enumerate(((3, 5), (5, 2))):
        bound = 1.0 / np.sqrt(din)
        want[f"W{i}"] = rng.uniform(-bound, bound, size=(dout, din))
        want[f"b{i}"] = rng.uniform(-bound, bound, size=dout)
    assert ps.names() == list(want) and ps.flat.dtype == np.float32
    for name, arr in want.items():
        assert np.array_equal(ps[name], arr.astype(np.float32))


def test_mlp_forward_zero_params_zero_output() -> None:
    ps = nk.init_params([5, 32, 2], np.random.default_rng(1))
    ps.flat[:] = 0.0
    x = nk.const(np.random.default_rng(2).normal(size=(7, 5)))
    y = nk.mlp_apply(nk.Tape(), ps.grad_vars(), x)
    assert y.shape == (7, 2) and np.all(y.data == 0.0)


def test_mlp_forward_shape_error_names_layer() -> None:
    ps = nk.init_params([4, 8, 3], np.random.default_rng(0))
    with pytest.raises(nk.ShapeError, match="affine"):
        nk.mlp_apply(nk.Tape(), ps.grad_vars(), nk.const(np.zeros((2, 5))))


def test_adam_first_step_matches_reference() -> None:
    # single parameter 1.0, gradient 1.0, lr 0.1: first step is ~ -lr
    ps = nk.ParameterSet({"p": np.array([1.0])})
    st = nk.AdamState(ps, lr=0.1)
    nk.adam_step(ps, np.array([1.0]), st)
    assert abs(ps["p"][0] - (1.0 - 0.1)) < 1e-6


def test_adam_matches_textbook_reference_over_steps() -> None:
    # independent reference implementation with explicit m_hat / v_hat
    rng = np.random.default_rng(9)
    p0 = rng.normal(size=7)
    ps = nk.ParameterSet({"p": p0.copy()})
    st = nk.AdamState(ps, lr=1e-2)
    ref_p = p0.copy()
    m = np.zeros(7)
    v = np.zeros(7)
    for t in range(1, 30):
        g = np.sin(ref_p) + 0.1 * t
        nk.adam_step(ps, g.copy(), st)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        m_hat = m / (1.0 - 0.9 ** t)
        v_hat = v / (1.0 - 0.999 ** t)
        ref_p -= 1e-2 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert np.allclose(ps["p"], ref_p, rtol=1e-12, atol=1e-12)


def test_adam_rejects_nonfinite_grads() -> None:
    ps = nk.ParameterSet({"p": np.ones(3)})
    st = nk.AdamState(ps, lr=1e-3)
    assert nk.adam_step(ps, np.array([1.0, -2.0, 0.5]), st) is True
    before = [a.copy() for a in (ps.flat, st.m, st.v)]
    for bad in (np.nan, np.inf):
        assert nk.adam_step(ps, np.array([1.0, bad, 0.0]), st) is False
        for prev, now in zip(before, (ps.flat, st.m, st.v)):
            assert np.array_equal(prev, now)
        assert st.t == 1


def test_adam_deterministic_twice() -> None:
    def run() -> np.ndarray:
        rng = np.random.default_rng(21)
        ps = nk.ParameterSet({"a": rng.normal(size=(4, 4)), "b": rng.normal(size=4)})
        st = nk.AdamState(ps, lr=3e-4)
        for _ in range(50):
            g = np.concatenate([np.cos(ps["a"]).ravel(), ps["b"] ** 2])
            nk.adam_step(ps, g, st)
        return ps.flat.copy()

    assert np.array_equal(run(), run())


def test_soft_update_interpolates() -> None:
    rng = np.random.default_rng(2)
    src = nk.ParameterSet({"w": rng.normal(size=(3, 3))})
    tgt = src.copy()
    tgt.flat[:] = rng.normal(size=tgt.size)
    t0 = tgt.flat.copy()
    nk.soft_update(tgt, src, tau=0.0)
    assert np.array_equal(tgt.flat, t0)
    nk.soft_update(tgt, src, tau=0.25)
    assert np.allclose(tgt.flat, 0.75 * t0 + 0.25 * src.flat)
    nk.soft_update(tgt, src, tau=1.0)
    assert np.allclose(tgt.flat, src.flat)


def test_soft_update_mismatch_raises() -> None:
    a = nk.ParameterSet({"w": np.zeros(3)})
    b = nk.ParameterSet({"w": np.zeros(4)})
    with pytest.raises(nk.ShapeError):
        nk.soft_update(a, b, 0.5)


def test_taped_grads_land_in_flat_grad_order() -> None:
    ps = nk.ParameterSet({"a": np.zeros((2, 2)), "b": np.zeros(3),
                          "c": np.zeros(2), "d": np.zeros(2)})
    assert ps.grad is None  # allocated by the first training tape
    ps.grad_vars()
    ps.grad[:] = np.nan  # left over from an earlier tape
    pv = ps.grad_vars()
    t = nk.Tape()
    m = nk.const(np.array([[4.0, -0.0], [0.0, 4.0]]))
    la = t.mean(t.mul(pv["a"], m))  # d/da = m / 4
    lab = t.add_scaled(la, t.mean(pv["b"]), 3.0)  # d/db = 1 each
    ld = t.add_scaled(t.mean(pv["d"]), t.mean(pv["d"]), 1.0)  # d used twice
    t.backward(t.add_scaled(lab, ld, 1.0))  # c is never reached
    assert np.array_equal(ps.grad, [1, 0, 0, 1, 1, 1, 1, 0, 0, 1, 1])
    assert pv["a"].grad.base is ps.grad
    # the first gradient is copied, not added to zeros: -0.0 keeps its sign
    assert np.signbit(ps.grad[1]) and not np.signbit(ps.grad[2])
    assert not np.signbit(ps.grad[7:9]).any()


def test_finite_diff_check_copies_the_gradient_before_probing() -> None:
    ps = nk.ParameterSet({"w": np.array([0.5, -1.0, 2.0]),
                          "v": np.array([[1.5, -0.25]])})

    def loss(overwrite: bool):
        def fn() -> float:
            if overwrite:  # as a loss_fn that runs a training tape does
                ps.grad[:] = 1e3
            return float(np.sum(ps.flat ** 3))
        return fn

    ps.grad_vars()
    ps.grad[:] = 3.0 * ps.flat ** 2
    clean = nk.finite_diff_check(loss(False), ps, ps.grad)
    assert clean["max"] < 1e-8
    ps.grad[:] = 3.0 * ps.flat ** 2
    assert nk.finite_diff_check(loss(True), ps, ps.grad) == clean
