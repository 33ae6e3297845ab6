"""Tour of the numeric kernel: tape autodiff, MLPs, Adam, soft updates.

Fits a tiny network to y = sin(3x), checks its analytic gradients against
central finite differences, and shows a Polyak target net trailing the online
net.  Everything prints; nothing is written to disk.
"""
import numpy as np

from hyar import numkit as nk

DIMS = [1, 32, 32, 1]


def fit_sine():
    rng = np.random.default_rng(0)
    xs = rng.uniform(-1.0, 1.0, size=(256, 1))
    ys = np.sin(3.0 * xs)

    params = nk.init_params(DIMS, rng)
    opt = nk.AdamState(params, lr=1e-3)

    print(f"fitting y = sin(3x) with a {DIMS} MLP")
    for step in range(2001):
        tape = nk.Tape()
        out = nk.mlp_apply(tape, params.grad_vars(), nk.const(xs))
        loss = tape.mean(tape.sq_dist(out, ys))  # ys is (256, 1): the MSE
        tape.backward(loss)  # fills params.grad
        nk.adam_step(params, params.grad, opt)
        if step % 400 == 0:
            print(f"  step {step:4d}  mse {float(loss.data):.5f}")
    return params


def gradient_check(params):
    rng = np.random.default_rng(1)
    xs = rng.uniform(-1.0, 1.0, size=(8, 1))
    ys = np.sin(3.0 * xs)

    tape = nk.Tape()
    loss = tape.mean(tape.sq_dist(
        nk.mlp_apply(tape, params.grad_vars(), nk.const(xs)), ys))
    tape.backward(loss)

    def loss_fn():
        t = nk.Tape(record=False)
        return float(t.mean(t.sq_dist(
            nk.mlp_apply(t, params.frozen_vars(), nk.const(xs)),
            ys)).data)

    report = nk.finite_diff_check(loss_fn, params, params.grad,
                                  samples_per_entry=8)
    print("\nfinite-difference check (8 coordinates per entry):")
    for name in params.names():
        print(f"  {name:4s} rel err {report[name]:.2e}")
    print(f"  worst {report['max']:.2e}  (gradcheck budget is 1e-4)")


def soft_update_demo(params):
    rng = np.random.default_rng(2)
    target = nk.init_params(DIMS, rng)
    print("\nPolyak averaging, tau = 0.2: target trails the online net")
    for i in range(6):
        gap = float(np.max(np.abs(target.flat - params.flat)))
        print(f"  after {i} updates, max |target - online| = {gap:.4f}")
        nk.soft_update(target, params, 0.2)


def main():
    params = fit_sine()
    gradient_check(params)
    soft_update_demo(params)


if __name__ == "__main__":
    main()
