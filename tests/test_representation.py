"""Representation model: lookup/decode, VAE structure, losses, bounds."""
from __future__ import annotations

import numpy as np
import pytest

from hyar import numkit as nk
from hyar.envs import EnvSpec
from hyar.representation import (ROW_COLLISION_DIST, LatentBounds, ReprModel,
                                 percentile_pair)

from _synth import SyntheticLinear, synth_spec


def small_model(seed: int = 0, K: int = 5, state_dim: int = 4,
                pdims: tuple = (2, 1, 2, 0, 1)) -> ReprModel:
    spec = EnvSpec(env_id="t", state_dim=state_dim, num_discrete=K,
                   param_dims=pdims, horizon=10)
    return ReprModel(spec, d1=3, d2=3, rng=np.random.default_rng(seed))


def random_batch(model: ReprModel, n: int, rng: np.random.Generator):
    spec = model.env_spec
    s = rng.uniform(-1, 1, size=(n, spec.state_dim))
    k = rng.integers(spec.num_discrete, size=n)
    x = rng.uniform(-1, 1, size=(n, spec.max_param_dim))
    s_next = s + 0.1 * rng.normal(size=s.shape)
    return s, k, x, s_next


def test_table_rows_decode_to_their_index() -> None:
    m = small_model()
    assert np.abs(m.table).max() < 1.0  # U(-1,1) init
    for k in range(5):
        assert m.nn_decode_batch(m.table[k][None])[0] == k


def test_nn_decode_examples_and_tiebreak() -> None:
    m = small_model(K=2, pdims=(1, 1))
    m.params["table"][...] = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    # the second query is exactly equidistant: the smallest index wins
    assert m.nn_decode_batch(np.array([[0.9, 0.1, 0.0],
                                       [0.5, 0.5, 0.0]])).tolist() == [0, 0]


def test_nn_decode_matches_exhaustive_scan() -> None:
    spec = EnvSpec(env_id="t", state_dim=4, num_discrete=16,
                   param_dims=(2,) * 16, horizon=10)
    m = ReprModel(spec, d1=6, d2=6, rng=np.random.default_rng(3))
    rng = np.random.default_rng(4)
    queries = rng.normal(size=(1000, 6))
    batch_ans = m.nn_decode_batch(queries)
    for i, q in enumerate(queries):
        best_k = 0
        best_d = float("inf")
        for k in range(16):  # independent exhaustive scan
            d = float(np.sum((m.table[k] - q) ** 2))
            if d < best_d:
                best_d = d
                best_k = k
        assert batch_ans[i] == best_k


def _scan64(table: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Nearest row by explicit float64 differences, 1000 queries at a time."""
    t = table.astype(np.float64)
    return np.concatenate([
        np.argmin(((t[None] - q[:, None]) ** 2).sum(axis=2), axis=1)
        for q in np.array_split(queries.astype(np.float64),
                                max(1, len(queries) // 1000))])


def test_nn_decode_resolves_the_repair_spacing_at_k256() -> None:
    """Two rows 1.5 x ROW_COLLISION_DIST apart, which repair_rows accepts:
    every row, points either side of their midpoint and random float32 and
    float64 queries decode as an exhaustive float64 scan does, in a batch
    and one at a time."""
    K = 256
    spec = EnvSpec(env_id="t", state_dim=4, num_discrete=K,
                   param_dims=(2,) * K, horizon=10)
    m = ReprModel(spec, d1=6, d2=6, rng=np.random.default_rng(5))
    u = np.random.default_rng(6).normal(size=6)
    m.params["table"][1] = m.table[0] + 1.5 * ROW_COLLISION_DIST * u \
        / np.linalg.norm(u)
    assert m.repair_rows(np.random.default_rng(7)) == 0
    a, b = m.table[0].astype(np.float64), m.table[1].astype(np.float64)
    mid = np.stack([(a + b) / 2 + f * (b - a) for f in (-0.25, 0.25)])
    assert m.nn_decode_batch(mid).tolist() == [0, 1]
    assert m.nn_decode_batch(m.table).tolist() == list(range(K))
    rng = np.random.default_rng(8)
    random64 = rng.uniform(-1.5, 1.5, size=(10_000, 6))
    random32 = rng.uniform(-1.5, 1.5, size=(10_000, 6)).astype(np.float32)
    for queries in (random64, random32, mid, m.table):
        batch = m.nn_decode_batch(queries)
        assert np.array_equal(batch, _scan64(m.table, queries))
        assert [m.nn_decode_batch(q[None])[0] for q in queries] \
            == batch.tolist()


def test_nn_decode_terms_follow_every_table_write(tmp_path) -> None:
    """nn_decode_batch keeps the table's terms between calls, yet after an
    in-place row edit, a repr_train_batch step and a checkpoint load it
    decodes as an explicit float64 difference scan of the new table (each
    write changes that scan's answers, so stale terms would show)."""
    K = 16
    spec = EnvSpec(env_id="t", state_dim=4, num_discrete=K,
                   param_dims=(2,) * K, horizon=10)
    m = ReprModel(spec, d1=6, d2=6, lr=0.5, rng=np.random.default_rng(10))
    rng = np.random.default_rng(11)
    queries = rng.normal(size=(2000, 6)).astype(np.float32)

    def edit_row():
        m.params["table"][3] = queries[0]

    def train_step():
        s = rng.uniform(-1, 1, size=(64, 4))
        m.repr_train_batch(s, rng.integers(K, size=64),
                           rng.uniform(-1, 1, size=(64, 2)), s, rng)

    def load_other():
        other = ReprModel(spec, d1=6, d2=6, rng=np.random.default_rng(12))
        path = str(tmp_path / "repr.ckpt")
        nk.save_checkpoint(path, nk.gather(other.params.slots("repr")))
        entries = nk.load_checkpoint(path)
        for slot in m.params.slots("repr"):
            slot.load(entries)
        assert np.array_equal(m.table, other.table)

    for write in (edit_row, train_step, load_other):
        before = m.nn_decode_batch(queries)
        write()
        scan = _scan64(m.table, queries)
        assert not np.array_equal(scan, before), write.__name__
        assert np.array_equal(m.nn_decode_batch(queries), scan), write.__name__


def test_repair_rows_restores_distinctness() -> None:
    m = small_model()
    m.params["table"][1] = m.params["table"][0]
    fixes = m.repair_rows(np.random.default_rng(9))
    assert fixes >= 1
    assert m.nn_decode_batch(m.table).tolist() == list(range(5))


def test_encode_zero_params_and_determinism() -> None:
    m = small_model()
    rng = np.random.default_rng(1)
    s, k, x, _ = random_batch(m, 6, rng)
    mu1, ls1 = m.encode(s, k, x)
    mu2, ls2 = m.encode(s, k, x)
    assert np.array_equal(mu1, mu2) and np.array_equal(ls1, ls2)
    assert mu1.shape == (6, 3) and ls1.shape == (6, 3)
    m.params.flat[:] = 0.0
    mu, ls = m.encode(s, k, x)
    assert np.all(mu == 0.0) and np.all(ls == 0.0)


def test_log_std_clamped() -> None:
    m = small_model()
    # blow up the log_std head bias: outputs must stay inside [-4, 15]
    m.params["enc_ls.b"][...] = 100.0
    rng = np.random.default_rng(2)
    s, k, x, _ = random_batch(m, 4, rng)
    _mu, ls = m.encode(s, k, x)
    assert np.all(ls <= nk.LOG_STD_MAX)
    m.params["enc_ls.b"][...] = -100.0
    _mu, ls = m.encode(s, k, x)
    assert np.all(ls >= nk.LOG_STD_MIN)


def test_decode_zero_params_and_head_separation() -> None:
    m = small_model(seed=5)
    rng = np.random.default_rng(6)
    z = rng.normal(size=(4, 3))
    s = rng.uniform(-1, 1, size=(4, 4))
    e = m.table[rng.integers(5, size=4)]
    x0, d0 = m.decode_and_predict(z, s, e)
    assert x0.shape == (4, 2) and d0.shape == (4, 4)
    # psi2 perturbation changes delta only
    for name in m.groups()["psi2"]:
        m.params[name][...] += 0.1
    x1, d1 = m.decode_and_predict(z, s, e)
    assert np.array_equal(x0, x1)
    assert not np.allclose(d0, d1)
    # psi0 perturbation changes both
    for name in m.groups()["psi0"]:
        m.params[name][...] += 0.1
    x2, d2 = m.decode_and_predict(z, s, e)
    assert not np.allclose(x1, x2)
    assert not np.allclose(d1, d2)
    # psi1 perturbation changes reconstruction only
    for name in m.groups()["psi1"]:
        m.params[name][...] += 0.1
    x3, d3 = m.decode_and_predict(z, s, e)
    assert not np.allclose(x2, x3)
    assert np.array_equal(d2, d3)
    m2 = small_model()
    m2.params.flat[:] = 0.0
    xz, dz = m2.decode_and_predict(z, s, e)
    assert np.all(xz == 0.0) and np.all(dz == 0.0)


def test_loss_identity_and_positivity() -> None:
    m = small_model(seed=7)
    rng = np.random.default_rng(8)
    s, k, x, s_next = random_batch(m, 16, rng)
    noise = rng.standard_normal(size=(16, 3))
    for beta in (0.0, 1.0, 10.0):
        r = m.hyar_loss(s, k, x, s_next, beta=beta, kl_weight=0.5, noise=noise)
        assert r.total == r.vae + beta * r.dyn  # exact float identity
        assert r.vae == r.recon + 0.5 * r.kl
        assert r.recon >= 0.0 and r.kl >= 0.0 and r.dyn >= 0.0


def test_loss_padding_invariance() -> None:
    m = small_model(seed=7)
    rng = np.random.default_rng(8)
    s, _k, x, s_next = random_batch(m, 12, rng)
    # all samples use action 1 (1 valid dim of 2)
    k = np.ones(12, dtype=np.int64)
    noise = rng.standard_normal(size=(12, 3))
    r1 = m.hyar_loss(s, k, x, s_next, noise=noise)
    x_mut = x.copy()
    x_mut[:, 1] = rng.normal(size=12) * 100.0  # padded dim for action 1
    r2 = m.hyar_loss(s, k, x_mut, s_next, noise=noise)
    # padded dims are zeroed before the encoder, so every term is invariant
    assert r1.recon == r2.recon
    assert r1.kl == r2.kl
    assert r1.dyn == r2.dyn
    assert r1.total == r2.total
    x_valid = x.copy()
    x_valid[:, 0] += 1.0
    r3 = m.hyar_loss(s, k, x_valid, s_next, noise=noise)
    assert r3.recon != r1.recon


def test_loss_kl_zero_when_encoder_zeroed() -> None:
    m = small_model(seed=7)
    rng = np.random.default_rng(8)
    s, k, x, s_next = random_batch(m, 8, rng)
    for name in m.groups()["phi"]:
        m.params[name][...] = 0.0
    noise = np.zeros((8, 3))
    r = m.hyar_loss(s, k, x, s_next, noise=noise)
    assert r.kl == 0.0


def test_empty_batch_raises() -> None:
    m = small_model()
    with pytest.raises(ValueError):
        m.hyar_loss(np.zeros((0, 4)), np.zeros(0, dtype=int), np.zeros((0, 2)),
                    np.zeros((0, 4)), noise=np.zeros((0, 3)))


@nk.float64_models()  # tolerance assumes float64
def test_loss_gradients_match_finite_differences() -> None:
    m = small_model(seed=11)
    rng = np.random.default_rng(12)
    s, k, x, s_next = random_batch(m, 4, rng)
    noise = rng.standard_normal(size=(4, 3))
    record, grads = m.loss_grads(s, k, x, s_next, beta=10.0, kl_weight=0.5,
                                 noise=noise)
    assert record.total > 0.0

    def loss_fn() -> float:
        return m.hyar_loss(s, k, x, s_next, beta=10.0, kl_weight=0.5,
                           noise=noise).total

    report = nk.finite_diff_check(loss_fn, m.params, grads,
                                  samples_per_entry=6,
                                  rng=np.random.default_rng(13))
    assert report["max"] < 1e-4, report


def test_train_batch_learns_synthetic_linear() -> None:
    env = SyntheticLinear(synth_spec(state_dim=4, K=3, pdim=2), seed=1)
    m = ReprModel(env.spec, d1=3, d2=3, lr=1e-3,
                  rng=np.random.default_rng(2))
    rng = np.random.default_rng(3)
    probe = env.batch(64, np.random.default_rng(99))
    first = m.hyar_loss(*probe, noise=np.zeros((64, 3)))
    for _ in range(50):
        m.repr_train_batch(*env.batch(64, rng), rng=rng)
    last = m.hyar_loss(*probe, noise=np.zeros((64, 3)))
    assert last.total < first.total
    assert last.dyn < first.dyn


def test_train_batch_zero_lr_and_determinism() -> None:
    env = SyntheticLinear(synth_spec(), seed=1)

    def run(lr: float) -> tuple:
        m = ReprModel(env.spec, d1=3, d2=3, lr=lr, rng=np.random.default_rng(2))
        rng = np.random.default_rng(3)
        before = m.params.flat.copy()
        trace = [m.repr_train_batch(*env.batch(32, rng), rng=rng).total
                 for _ in range(10)]
        return m.params.flat.copy(), before, trace

    after, before, _trace = run(0.0)
    assert np.array_equal(after, before)
    a1, _, t1 = run(1e-4)
    a2, _, t2 = run(1e-4)
    assert np.array_equal(a1, a2)
    assert t1 == t2


def test_train_batch_numeric_fault_skips() -> None:
    m = small_model()
    rng = np.random.default_rng(1)
    s, k, x, s_next = random_batch(m, 8, rng)
    m.params["enc_t.W"][0, 0] = np.inf
    before = m.params.flat.copy()
    r = m.repr_train_batch(s, k, x, s_next, rng=rng)
    assert r.skipped
    assert np.array_equal(
        np.nan_to_num(m.params.flat, nan=7.7), np.nan_to_num(before, nan=7.7))


def test_percentile_example_and_bounds() -> None:
    assert percentile_pair(96.0) == (2.0, 98.0)
    vals = np.arange(1.0, 101.0)
    assert np.percentile(vals, 2.0, method="linear") == pytest.approx(2.98)
    assert np.percentile(vals, 98.0, method="linear") == pytest.approx(98.02)

    m = small_model(seed=17)
    rng = np.random.default_rng(18)
    s, k, x, _ = random_batch(m, 400, rng)
    b96 = m.latent_bounds(s, k, x, c=96.0)
    assert b96.lower.shape == (6,)
    assert np.all(b96.lower <= b96.upper)
    # c=100 equals the empirical min/max
    b100 = m.latent_bounds(s, k, x, c=100.0)
    lat = m.latents_of(s, k, x)
    assert np.allclose(b100.lower, lat.min(axis=0))
    assert np.allclose(b100.upper, lat.max(axis=0))
    # nesting over random datasets and random c pairs
    for i in range(10):
        s2, k2, x2, _ = random_batch(m, 150, np.random.default_rng(100 + i))
        cs = sorted(np.random.default_rng(200 + i).uniform(5, 100, size=2))
        inner = m.latent_bounds(s2, k2, x2, c=cs[0])
        outer = m.latent_bounds(s2, k2, x2, c=cs[1])
        assert np.all(inner.lower >= outer.lower - 1e-12)
        assert np.all(inner.upper <= outer.upper + 1e-12)
    with pytest.raises(ValueError):
        m.latent_bounds(s[:50], k[:50], x[:50], c=96.0)
    with pytest.raises(ValueError):
        m.latent_bounds(s, k, x, c=0.0)


def test_bounds_rescale_and_degenerate_dim() -> None:
    b = LatentBounds(np.array([-1.0, 2.0]), np.array([1.0, 2.0]))
    assert np.allclose(b.rescale(np.array([-1.0, -1.0])), [-1.0, 2.0])
    assert np.allclose(b.rescale(np.array([1.0, 1.0])), [1.0, 2.0])
    assert np.allclose(b.rescale(np.array([0.0, 0.7])), [0.0, 2.0])
    with pytest.raises(ValueError):
        LatentBounds(np.array([1.0]), np.array([0.0]))


def test_export_latents(tmp_path) -> None:
    m = small_model(seed=19)
    rng = np.random.default_rng(20)
    s, k, x, s_next = random_batch(m, 25, rng)
    path = str(tmp_path / "latents.csv")
    n = m.export_latents(s, k, x, s_next, path)
    assert n == 25
    lines = open(path).read().strip().splitlines()
    assert lines[0] == "e0,e1,e2,z0,z1,z2,k,dyn_error"
    assert len(lines) == 26
    row = lines[1].split(",")
    assert len(row) == 8
    assert float(row[-1]) >= 0.0
