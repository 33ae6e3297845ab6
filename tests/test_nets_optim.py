"""LayerSpec/ParameterSet contracts, mlp_apply, Adam, soft_update."""
from __future__ import annotations

import numpy as np
import pytest

from hyar import numkit as nk


def test_layerspec_validation() -> None:
    with pytest.raises(nk.ShapeError):
        nk.LayerSpec(())
    with pytest.raises(nk.ShapeError):
        nk.LayerSpec(((4, 8, "relu"), (9, 2, "none")))  # broken chain
    with pytest.raises(nk.ShapeError):
        nk.LayerSpec(((4, 8, "swish"),))
    spec = nk.LayerSpec.mlp([4, 16, 3], out_act="tanh")
    assert spec.in_dim == 4 and spec.out_dim == 3
    assert spec.layers[-1][2] == "tanh"


def test_init_params_bounds_and_layout() -> None:
    spec = nk.LayerSpec.mlp([9, 256, 256, 12], out_act="tanh")
    ps = nk.init_params(spec, np.random.default_rng(0))
    for i, (din, dout, _a) in enumerate(spec.layers):
        bound = 1.0 / np.sqrt(din)
        w, b = ps[f"W{i}"], ps[f"b{i}"]
        assert w.shape == (dout, din) and b.shape == (dout,)
        assert np.abs(w).max() <= bound and np.abs(b).max() <= bound
    # entries are views of the flat buffer
    ps.flat[:] = 0.0
    assert np.all(ps["W1"] == 0.0)


def test_mlp_forward_zero_params_zero_output() -> None:
    spec = nk.LayerSpec.mlp([5, 32, 2], out_act="tanh")
    ps = nk.init_params(spec, np.random.default_rng(1))
    ps.flat[:] = 0.0
    x = nk.const(np.random.default_rng(2).normal(size=(7, 5)))
    y = nk.mlp_apply(nk.Tape(), spec, nk.param_vars(ps), x)
    assert y.shape == (7, 2) and np.all(y.data == 0.0)


def test_mlp_forward_shape_error_names_layer() -> None:
    spec = nk.LayerSpec.mlp([4, 8, 3])
    ps = nk.init_params(spec, np.random.default_rng(0))
    with pytest.raises(nk.ShapeError, match="layer 0"):
        nk.mlp_apply(nk.Tape(), spec, nk.param_vars(ps),
                     nk.const(np.zeros((2, 5))))


def test_adam_first_step_matches_reference() -> None:
    # single parameter 1.0, gradient 1.0, lr 0.1: first step is ~ -lr
    ps = nk.ParameterSet({"p": np.array([1.0])})
    st = nk.AdamState(ps, lr=0.1)
    nk.adam_step(ps, {"p": np.array([1.0])}, st)
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
        nk.adam_step(ps, {"p": g.copy()}, st)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        m_hat = m / (1.0 - 0.9 ** t)
        v_hat = v / (1.0 - 0.999 ** t)
        ref_p -= 1e-2 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert np.allclose(ps["p"], ref_p, rtol=1e-12, atol=1e-12)


def test_adam_rejects_nonfinite_grads() -> None:
    ps = nk.ParameterSet({"p": np.ones(3)})
    st = nk.AdamState(ps, lr=1e-3)
    before = ps.flat.copy()
    with pytest.raises(nk.NumericFault):
        nk.adam_step(ps, {"p": np.array([1.0, np.nan, 0.0])}, st)
    assert np.array_equal(ps.flat, before)
    assert st.t == 0
    with pytest.raises(nk.NumericFault):
        nk.adam_step(ps, {"p": np.array([1.0, np.inf, 0.0])}, st)


def test_adam_deterministic_twice() -> None:
    def run() -> np.ndarray:
        rng = np.random.default_rng(21)
        ps = nk.ParameterSet({"a": rng.normal(size=(4, 4)), "b": rng.normal(size=4)})
        st = nk.AdamState(ps, lr=3e-4)
        for _ in range(50):
            g = {"a": np.cos(ps["a"]), "b": ps["b"] ** 2}
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


def test_parameterset_pack_order() -> None:
    ps = nk.ParameterSet({"a": np.zeros((2, 2)), "b": np.zeros(3)})
    flat = ps.pack({"b": np.array([1.0, 2.0, 3.0]), "a": np.eye(2)})
    assert np.array_equal(flat, [1, 0, 0, 1, 1, 2, 3])
