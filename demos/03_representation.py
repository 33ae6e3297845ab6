"""Train the action representation on synthetic linear dynamics.

The world's next state is s + A_k x, so the dynamics-prediction head can in
principle become exact.  The demo tracks the loss components while training,
then inspects the learned latent space: nearest-row decoding of noisy
embeddings, percentile bounds at different coverages, and a latent CSV export.
"""
import os
import tempfile

import numpy as np

from hyar.envs import EnvSpec
from hyar.representation import ReprModel

STATE_DIM, K, PDIM = 6, 4, 3


def make_world(seed=3):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(K, STATE_DIM, PDIM)) * 0.5

    def batch(n, brng):
        s = brng.uniform(-1.0, 1.0, size=(n, STATE_DIM))
        k = brng.integers(K, size=n)
        x = brng.uniform(-1.0, 1.0, size=(n, PDIM))
        return s, k, x, s + np.einsum("bij,bj->bi", A[k], x)

    return batch


def main():
    spec = EnvSpec(env_id="synthetic", state_dim=STATE_DIM, num_discrete=K,
                   param_dims=(PDIM,) * K, horizon=1)
    model = ReprModel(spec, rng=np.random.default_rng(0))
    world = make_world()
    data_rng = np.random.default_rng(1)
    train_rng = np.random.default_rng(2)

    print("training the embedding table + conditional VAE + dynamics head")
    print(f"{'batch':>6s} {'total':>8s} {'recon':>8s} {'kl':>8s} {'dyn':>8s}")
    for i in range(2001):
        rec = model.repr_train_batch(*world(128, data_rng), rng=train_rng)
        if i % 400 == 0:
            print(f"{i:6d} {rec.total:8.3f} {rec.recon:8.3f} "
                  f"{rec.kl:8.3f} {rec.dyn:8.4f}")

    print("\nnearest-row decoding of table rows + gaussian noise:")
    nrng = np.random.default_rng(3)
    for sigma in (0.05, 0.2, 0.5):
        ks, es = [], []
        for _ in range(400):
            ks.append(int(nrng.integers(K)))
            es.append(model.table[ks[-1]]
                      + sigma * nrng.standard_normal(model.d1))
        hits = int(np.sum(model.nn_decode_batch(np.array(es)) == ks))
        print(f"  noise sigma {sigma:.2f}: {hits}/400 recovered")

    s, k, x, s_next = world(2000, np.random.default_rng(4))
    for c in (100.0, 96.0, 80.0):
        b = model.latent_bounds(s, k, x, c=c)
        width = b.upper - b.lower
        print(f"latent bounds c={c:5.1f}: mean width {width.mean():.3f}, "
              f"max width {width.max():.3f}")

    path = os.path.join(tempfile.mkdtemp(prefix="hyar-demo-"), "latents.csv")
    rows = model.export_latents(s, k, x, s_next, path)
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
    print(f"\nexported {rows} latent rows to {path}")
    print(f"columns: {header}")


if __name__ == "__main__":
    main()
