"""Central finite-difference gradient checking.

Error metric: for each named entry, max |g_ad - g_fd| over the probed
coordinates divided by the entry's gradient scale max(|g_ad|, |g_fd|, 1e-12).
Normalizing by the entry scale (not per-coordinate) keeps H-sized difference
noise on near-zero coordinates from reading as huge relative error.
"""
from __future__ import annotations

import numpy as np

from .nets import ParameterSet

H = 1e-5  # central-difference step


def finite_diff_check(loss_fn, params: ParameterSet, grads,
                      samples_per_entry: int | None = None,
                      rng: np.random.Generator | None = None) -> dict:
    """Compare an analytic gradient against central differences of loss_fn.

    loss_fn() -> float re-evaluates the loss at the current params (which are
    perturbed in place and restored around each probe).  grads is the flat
    analytic gradient, usually params.grad; it is copied first, because a
    loss_fn that runs a training tape rewrites params.grad.
    samples_per_entry=None probes every coordinate; an int probes that many
    seeded-random coordinates per entry.  Returns name -> relative error; key
    "max" holds the worst one.
    """
    g_all = np.array(grads, dtype=np.float64)
    if g_all.shape != (params.size,):
        raise ValueError(f"flat grads {g_all.shape} vs params ({params.size},)")
    if samples_per_entry is not None and rng is None:
        rng = np.random.default_rng(0)
    report: dict[str, float] = {}
    worst = 0.0
    off = 0
    for name in params.names():
        view = params[name].reshape(-1)
        g_ad = g_all[off:off + view.size]
        off += view.size
        if samples_per_entry is None or samples_per_entry >= view.size:
            coords = np.arange(view.size)
        else:
            coords = rng.choice(view.size, size=samples_per_entry, replace=False)
        g_fd = np.empty(coords.size, dtype=np.float64)
        for j, c in enumerate(coords):
            orig = view[c]
            view[c] = orig + H
            f_plus = float(loss_fn())
            view[c] = orig - H
            f_minus = float(loss_fn())
            view[c] = orig
            g_fd[j] = (f_plus - f_minus) / (2.0 * H)
        diff = np.abs(g_ad[coords] - g_fd)
        scale = max(np.abs(g_ad[coords]).max(initial=0.0),
                    np.abs(g_fd).max(initial=0.0), 1e-12)
        err = float(diff.max(initial=0.0) / scale)
        report[name] = err
        worst = max(worst, err)
    report["max"] = worst
    return report
